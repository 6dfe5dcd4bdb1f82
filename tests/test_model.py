"""Core model types: success curve, identifiability, parameter counts, and
the number rule of every settings type."""

import dataclasses
import math

import numpy as np
import pytest

from mlcirt import (
    FitControls,
    ItemBank,
    ModelSpec,
    Parameterization,
    apply_identifiability,
    count_free_parameters,
    sweep_school_types,
    validate_params,
)
from mlcirt.likelihood import success_prob_table
from mlcirt.selection import resolve_bic_n
from mlcirt.simulate import CategoricalCovariate, desk_design, simulate_full

from helpers import make_spec, random_params


def two_item_params(spec, difficulty, discrimination, ability):
    return random_params(spec, np.random.default_rng(0)).replace(
        difficulty=np.asarray(difficulty, dtype=float),
        discrimination=np.asarray(discrimination, dtype=float),
        abilities=np.asarray(ability, dtype=float),
    )


# ---------------------------------------------------------------------------
# success_prob_table
# ---------------------------------------------------------------------------

class TestItemSuccessProb:

    def test_neutral_point_is_half(self):
        """Ability equal to difficulty gives probability 0.5."""
        spec = make_spec(n_items=1, n_classes=1, n_types=1)
        params = two_item_params(spec, [0.0], [1.0], [[0.0]])
        assert success_prob_table(params, spec)[0, 0] == pytest.approx(0.5)

    def test_log_odds_three(self):
        """Ability ln 3 above difficulty at unit discrimination gives 0.75."""
        spec = make_spec(n_items=1, n_classes=1, n_types=1)
        params = two_item_params(spec, [0.0], [1.0], [[math.log(3.0)]])
        p = success_prob_table(params, spec)[0, 0]
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_discrimination_scales_around_difficulty(self):
        """At ability == difficulty the discrimination is irrelevant."""
        spec = make_spec(n_items=2, n_classes=1, n_types=1)
        params = two_item_params(spec, [0.0, 1.0], [1.0, 2.0], [[1.0]])
        assert success_prob_table(params, spec)[0, 1] == pytest.approx(0.5)

    def test_hand_computed_value(self):
        # logistic(1.5 * (0.8 - 0.3)) = logistic(0.75)
        spec = make_spec(n_items=2, n_classes=1, n_types=1)
        params = two_item_params(spec, [0.0, 0.3], [1.0, 1.5], [[0.8]])
        expected = 1.0 / (1.0 + math.exp(-0.75))
        p = success_prob_table(params, spec)[0, 1]
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.67918, abs=1e-5)

    def test_lc_lookup(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=1,
                         parameterization=Parameterization.LC)
        params = random_params(spec, np.random.default_rng(3))
        np.testing.assert_allclose(success_prob_table(params, spec),
                                   params.lc_success, rtol=1e-15)

    def test_non_finite_parameters_rejected(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=1)
        params = two_item_params(spec, [0.0, np.nan], [1.0, 1.0], [[0.0]])
        assert "non-finite parameter values" in validate_params(params, spec)

    def test_monotone_in_ability_and_difficulty(self):
        """Increasing ability raises p; increasing difficulty lowers it."""
        spec = make_spec(n_items=2, n_classes=1, n_types=1)
        grid = np.linspace(-3.0, 3.0, 25)
        probs = [success_prob_table(
            two_item_params(spec, [0.0, 0.4], [1.0, 1.3], [[xi]]), spec)[0, 1]
            for xi in grid]
        assert np.all(np.diff(probs) > 0)
        probs = [success_prob_table(
            two_item_params(spec, [0.0, b], [1.0, 1.3], [[0.2]]), spec)[0, 1]
            for b in grid]
        assert np.all(np.diff(probs) < 0)


# ---------------------------------------------------------------------------
# apply_identifiability
# ---------------------------------------------------------------------------

class TestApplyIdentifiability:

    def test_fixed_point_on_constrained_params(self):
        spec = make_spec(n_items=4, n_classes=2, n_types=2)
        params = random_params(spec, np.random.default_rng(5))
        out = apply_identifiability(params, spec.item_bank)
        np.testing.assert_array_equal(out.difficulty, params.difficulty)
        np.testing.assert_array_equal(out.discrimination, params.discrimination)
        np.testing.assert_array_equal(out.abilities, params.abilities)

    def test_rescaling_preserves_probabilities(self):
        """Shift/scale example: probabilities identical before and after."""
        spec = make_spec(n_items=2, n_classes=1, n_types=1)
        params = two_item_params(spec, [0.5, 1.0], [2.0, 4.0], [[1.5]])
        out = apply_identifiability(params, spec.item_bank)
        assert out.difficulty[0] == 0.0
        assert out.discrimination[0] == 1.0
        np.testing.assert_allclose(out.discrimination, [1.0, 2.0])
        np.testing.assert_allclose(out.abilities, [[2.0]])
        np.testing.assert_allclose(success_prob_table(out, spec),
                                   success_prob_table(params, spec), atol=1e-12)

    def test_probability_preservation_random(self):
        """Unconstrained random parameters: response surface unchanged."""
        rng = np.random.default_rng(17)
        for _ in range(25):
            spec = make_spec(dim_of=[0, 0, 1, 1, 1], n_classes=3, n_types=1)
            params = random_params(spec, rng).replace(
                difficulty=rng.normal(size=5),
                discrimination=np.exp(0.5 * rng.normal(size=5)),
            )
            out = apply_identifiability(params, spec.item_bank)
            for d in range(2):
                ref = spec.item_bank.reference_items[d]
                assert out.difficulty[ref] == 0.0
                assert out.discrimination[ref] == pytest.approx(1.0, abs=1e-15)
            before = success_prob_table(params, spec)
            assert np.all(np.abs(success_prob_table(out, spec) - before) <= 1e-12)

    def test_zero_reference_discrimination_names_dimension(self):
        spec = make_spec(dim_of=[0, 0, 1, 1], n_classes=2, n_types=1)
        params = random_params(spec, np.random.default_rng(3))
        disc = params.discrimination.copy()
        disc[spec.item_bank.reference_items[1]] = 0.0
        with pytest.raises(ValueError, match="scale of dimension 1 undefined"):
            apply_identifiability(params.replace(discrimination=disc),
                                  spec.item_bank)

    def test_idempotent(self):
        spec = make_spec(n_items=3, n_classes=2, n_types=1)
        rng = np.random.default_rng(2)
        params = random_params(spec, rng).replace(
            difficulty=rng.normal(size=3),
            discrimination=np.exp(rng.normal(size=3)))
        once = apply_identifiability(params, spec.item_bank)
        twice = apply_identifiability(once, spec.item_bank)
        np.testing.assert_allclose(twice.difficulty, once.difficulty, atol=1e-14)
        np.testing.assert_allclose(twice.discrimination, once.discrimination,
                                   atol=1e-14)
        np.testing.assert_allclose(twice.abilities, once.abilities, atol=1e-14)

    def test_rasch_input_shifts_location_only(self):
        """With unit discriminations only the location moves."""
        spec = make_spec(n_items=3, n_classes=2, n_types=1,
                         parameterization=Parameterization.ONE_PL)
        params = two_item_params(spec, [0.7, 1.0, -0.2], [1.0, 1.0, 1.0],
                                 [[-0.5], [0.5]])
        out = apply_identifiability(params, spec.item_bank)
        np.testing.assert_allclose(out.discrimination, np.ones(3))
        np.testing.assert_allclose(out.difficulty, [0.0, 0.3, -0.9])
        np.testing.assert_allclose(out.abilities, [[-1.2], [-0.2]])

    def test_zero_reference_discrimination_rejected(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=1)
        params = two_item_params(spec, [0.0, 1.0], [0.0, 1.0], [[0.0]])
        with pytest.raises(ValueError, match="zero discrimination"):
            apply_identifiability(params, spec.item_bank)


# ---------------------------------------------------------------------------
# count_free_parameters
# ---------------------------------------------------------------------------

class TestCountFreeParameters:

    def big_spec(self, parameterization, n_types):
        """Three dimensions over 67 items, three classes, covariates 1/4."""
        dim_of = [0] * 30 + [1] * 10 + [2] * 27
        return make_spec(dim_of=dim_of, n_classes=3, n_types=n_types,
                         parameterization=parameterization, m_v=1, m_u=4)

    def test_2pl_count(self):
        assert count_free_parameters(self.big_spec(Parameterization.TWO_PL, 5)) == 169

    def test_1pl_count(self):
        assert count_free_parameters(self.big_spec(Parameterization.ONE_PL, 5)) == 105

    @pytest.mark.parametrize("n_types,expected",
                             [(1, 205), (2, 212), (3, 219),
                              (4, 226), (5, 233), (6, 240)])
    def test_lc_counts(self, n_types, expected):
        spec = self.big_spec(Parameterization.LC, n_types)
        assert count_free_parameters(spec) == expected

    def test_minimal_model(self):
        spec = make_spec(n_items=1, n_classes=1, n_types=1, m_v=0, m_u=0)
        assert count_free_parameters(spec) == 1

    def test_2pl_minus_1pl_is_items_minus_dims(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_dims = int(rng.integers(1, 4))
            extra = int(rng.integers(0, 8))
            dim_of = list(range(n_dims)) + list(rng.integers(0, n_dims, size=extra))
            spec = make_spec(dim_of=sorted(dim_of),
                             n_classes=int(rng.integers(1, 5)),
                             n_types=int(rng.integers(1, 5)),
                             m_v=int(rng.integers(0, 4)),
                             m_u=int(rng.integers(0, 4)))
            one_pl = spec.replace(parameterization=Parameterization.ONE_PL)
            r, s = len(dim_of), n_dims
            assert (count_free_parameters(spec)
                    - count_free_parameters(one_pl)) == r - s

    def test_type_increment(self):
        """Adding one school type adds (k_V - 1) + (m_U + 1) parameters."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            spec = make_spec(n_items=int(rng.integers(1, 10)),
                             n_classes=int(rng.integers(1, 5)),
                             n_types=int(rng.integers(1, 5)),
                             m_v=int(rng.integers(0, 4)),
                             m_u=int(rng.integers(0, 4)))
            bumped = spec.replace(n_types=spec.n_types + 1)
            assert (count_free_parameters(bumped) - count_free_parameters(spec)
                    == (spec.n_classes - 1) + (spec.n_school_covariates + 1))


# ---------------------------------------------------------------------------
# ModelSpec construction checks
# ---------------------------------------------------------------------------

def spec_problems(build) -> list[str]:
    """The problems listed by the ``ValueError`` that ``build()`` raises."""
    with pytest.raises(ValueError) as info:
        build()
    prefix, _, problems = str(info.value).partition(": ")
    assert prefix == "invalid model spec" and "\n" not in problems
    return problems.split("; ")


class TestValidateSpec:

    def test_well_formed(self):
        spec = make_spec(dim_of=[0, 0, 1, 2, 2], n_classes=3, n_types=2)
        assert spec.item_bank.reference_items == (0, 2, 3)

    def test_empty_dimension(self):
        bank = ItemBank(n_items=3, n_dims=3, dim_of=(1, 2, 2),
                        reference_items=(0, 1, 2))
        assert spec_problems(lambda: ModelSpec(bank, n_classes=2, n_types=1)) == [
            "empty dimension 1", "reference item 2 does not belong to dimension 2"]

    def test_reference_item_outside_its_dimension(self):
        bank = ItemBank(n_items=3, n_dims=2, dim_of=(0, 0, 1),
                        reference_items=(0, 0))
        assert spec_problems(lambda: ModelSpec(bank, n_classes=2, n_types=1)) == [
            "reference item 1 does not belong to dimension 2"]

    def test_nonpositive_counts(self):
        assert spec_problems(lambda: make_spec(n_items=2, n_classes=0, n_types=0)) == [
            "n_classes must be >= 1, got 0", "n_types must be >= 1, got 0"]

    def test_invalid_spec_cannot_be_built_by_replace(self):
        """An out-of-range or missing reference item, or a nonpositive
        count, cannot be built by ``replace`` either; items and dimensions
        are numbered from 1, as the files number them."""
        good = make_spec(n_items=3, n_classes=2, n_types=2)
        dim_of = good.item_bank.dim_of
        for changes, expected in (
                ({"item_bank": ItemBank(3, 1, dim_of, (8,))},
                 ["reference item 9 of dimension 1 out of range"]),
                ({"item_bank": ItemBank(3, 1, dim_of, ())},
                 ["expected 1 reference items, got 0"]),
                ({"n_classes": 0}, ["n_classes must be >= 1, got 0"])):
            assert spec_problems(lambda: good.replace(**changes)) == expected

    def test_unconstrained_reference_item_is_numbered_from_one(self):
        spec = make_spec(dim_of=[0, 0, 1], n_classes=2, n_types=1)
        params = random_params(spec, np.random.default_rng(0))
        params = params.replace(difficulty=params.difficulty + 0.5)
        assert validate_params(params, spec) == [
            f"reference item {j} not constrained to difficulty 0, discrimination 1"
            for j in (1, 3)]


# ---------------------------------------------------------------------------
# The number rule: each settings type takes a count only as an integer and a
# rate only as a number, never as a bool or a string
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_design_and_data():
    design = desk_design(n_schools=4, school_size=3)
    return design, simulate_full(design).dataset


NUMBER_RULE_CASES = {
    "spec-n_classes-2.5": ("n_classes", lambda d, _: d.spec.replace(n_classes=2.5)),
    "spec-n_types-True": ("n_types", lambda d, _: d.spec.replace(n_types=True)),
    "spec-n_student_covariates-1.5": (
        "n_student_covariates", lambda d, _: d.spec.replace(n_student_covariates=1.5)),
    "design-n_schools-2.5": ("n_schools",
                             lambda d, _: dataclasses.replace(d, n_schools=2.5)),
    "design-seed-True": ("seed", lambda d, _: dataclasses.replace(d, seed=True)),
    "design-seed-1.5": ("seed", lambda d, _: dataclasses.replace(d, seed=1.5)),
    "design-school_size-True": (
        "school_size", lambda d, _: dataclasses.replace(d, school_size=True)),
    "design-missing_rate-str": (
        "missing_rate", lambda d, _: dataclasses.replace(d, missing_rate="0.1")),
    "categorical-probs-str": ("probs", lambda d, _: CategoricalCovariate(("0.5", "0.5"))),
    "bic_n-2.5": ("bic_n", lambda _, data: resolve_bic_n(data, 2.5)),
    "bic_n-True": ("bic_n", lambda _, data: resolve_bic_n(data, True)),
    "sweep-n_types-1.5": ("n_types", lambda d, data: sweep_school_types(
        data, d.spec, [1.5], FitControls(n_starts=1, max_iter=5))),
}


@pytest.mark.parametrize("case", list(NUMBER_RULE_CASES))
def test_number_rule_error_names_the_field(small_design_and_data, case):
    """A count that is not an integer or a rate that is not a number is a
    ``ValueError`` naming its field (``FitControls`` in ``test_em.py``)."""
    field, build = NUMBER_RULE_CASES[case]
    with pytest.raises(ValueError, match=f"{field}[^,]* must be "):
        build(*small_design_and_data)
