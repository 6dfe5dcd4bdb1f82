"""Core model types: success curve, identifiability, parameter counts."""

import math

import numpy as np
import pytest

from mlcirt import (
    ItemBank,
    ModelSpec,
    Parameterization,
    apply_identifiability,
    count_free_parameters,
    validate_params,
    validate_spec,
)
from mlcirt.likelihood import success_prob_table

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
# validate_spec
# ---------------------------------------------------------------------------

class TestValidateSpec:

    def test_well_formed(self):
        spec = make_spec(dim_of=[0, 0, 1, 2, 2], n_classes=3, n_types=2)
        assert validate_spec(spec) == []

    def test_empty_dimension(self):
        bank = ItemBank(n_items=3, n_dims=3, dim_of=(1, 2, 2),
                        reference_items=(0, 1, 2))
        spec = ModelSpec(bank, n_classes=2, n_types=1)
        problems = validate_spec(spec)
        assert any("empty dimension" in p for p in problems)

    def test_reference_item_outside_its_dimension(self):
        bank = ItemBank(n_items=3, n_dims=2, dim_of=(0, 0, 1),
                        reference_items=(0, 0))
        spec = ModelSpec(bank, n_classes=2, n_types=1)
        problems = validate_spec(spec)
        assert any("does not belong" in p for p in problems)

    def test_nonpositive_counts(self):
        spec = make_spec(n_items=2, n_classes=0, n_types=0)
        problems = validate_spec(spec)
        assert len(problems) == 2

    def test_params_of_invalid_spec_report_spec_problems_alone(self):
        """An out-of-range or missing reference item, or a nonpositive
        count, is reported once, without shape lines built from it."""
        good = make_spec(n_items=3, n_classes=2, n_types=2)
        params = random_params(good, np.random.default_rng(0))
        bank = good.item_bank
        for spec in (good.replace(item_bank=ItemBank(3, 1, bank.dim_of, (8,))),
                     good.replace(item_bank=ItemBank(3, 1, bank.dim_of, ())),
                     good.replace(n_classes=0)):
            problems = validate_params(params, spec)
            assert problems and problems == validate_spec(spec)
