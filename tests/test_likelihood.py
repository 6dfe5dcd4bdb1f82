"""Log-likelihood evaluation and the brute-force enumeration oracle."""

import math

import numpy as np
import pytest

from mlcirt import (
    EnumerationCapError,
    ResponseDataset,
    SchoolGroup,
    brute_force_loglik,
    marginal_loglik,
    permute_parameters,
)
from mlcirt.data import unique_rows
from mlcirt.likelihood import conditional_loglik_matrix, stacked_loglik_terms

import reference
from helpers import make_spec, random_dataset, random_instance, random_params, \
    single_student_dataset


def params_with(spec, seed=0, **blocks):
    return random_params(spec, np.random.default_rng(seed)).replace(**blocks)


def school_conditional_loglik(data, params, spec):
    """(H, k_U) log-likelihood of each school's responses given its type."""
    _, _, _, _, log_mix = stacked_loglik_terms(data, params, spec)
    return np.add.reduceat(log_mix[data.patterns.index], data.starts, axis=0)


class TestStudentConditionalLoglik:

    def test_two_coin_flips(self):
        """Two items at p = 0.5: any pattern has log-probability ln(1/4)."""
        spec = make_spec(n_items=2, n_classes=1, n_types=1)
        params = params_with(spec, difficulty=[0.0, 0.0],
                             discrimination=[1.0, 1.0], abilities=[[0.0]])
        ll = conditional_loglik_matrix(single_student_dataset([1, 0]).patterns,
                                       params, spec)
        assert ll[0, 0] == pytest.approx(math.log(0.25), abs=1e-12)

    def test_single_item(self):
        spec = make_spec(n_items=1, n_classes=1, n_types=1)
        params = params_with(spec, difficulty=[0.0], discrimination=[1.0],
                             abilities=[[0.0]])
        ll = conditional_loglik_matrix(single_student_dataset([1]).patterns, params,
                                       spec)
        assert ll[0, 0] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_hand_product(self):
        """p = (0.75, 0.5, 0.2) and pattern (1, 1, 0): log(0.75*0.5*0.8)."""
        spec = make_spec(n_items=3, n_classes=1, n_types=1)
        # abilities/difficulties chosen to hit the target probabilities
        params = params_with(
            spec,
            difficulty=[0.0, math.log(3.0), math.log(3.0) + math.log(4.0)],
            discrimination=[1.0, 1.0, 1.0],
            abilities=[[math.log(3.0)]])
        ll = conditional_loglik_matrix(single_student_dataset([1, 1, 0]).patterns,
                                       params, spec)
        assert ll[0, 0] == pytest.approx(math.log(0.3), abs=1e-12)

    def test_missing_items_drop_out(self):
        spec = make_spec(n_items=3, n_classes=1, n_types=1)
        params = params_with(spec, difficulty=[0.0, 0.4, -0.2],
                             discrimination=[1.0, 1.1, 0.9],
                             abilities=[[0.3]])
        full = conditional_loglik_matrix(single_student_dataset([1, -1, 0]).patterns,
                                         params, spec)
        spec2 = make_spec(n_items=2, n_classes=1, n_types=1)
        params2 = params_with(spec2, difficulty=[0.0, -0.2],
                              discrimination=[1.0, 0.9], abilities=[[0.3]])
        reduced = conditional_loglik_matrix(single_student_dataset([1, 0]).patterns,
                                            params2, spec2)
        assert full[0, 0] == pytest.approx(reduced[0, 0], abs=1e-12)


class TestGroupConditionalLoglik:

    def test_single_class_reduces_to_sum(self):
        spec = make_spec(n_items=3, n_classes=1, n_types=2, m_v=0, m_u=0)
        params = random_params(spec, np.random.default_rng(4))
        data = random_dataset(spec, np.random.default_rng(5), n_schools=1,
                              school_size=4)
        patterns = data.patterns
        expected = conditional_loglik_matrix(patterns, params,
                                             spec)[patterns.index, 0].sum()
        np.testing.assert_allclose(school_conditional_loglik(data, params, spec),
                                   [[expected, expected]], atol=1e-12)

    def test_hand_mixture(self):
        """One student, two classes at 50/50 with p = 0.4 / 0.8 on y = 1."""
        spec = make_spec(n_items=1, n_classes=2, n_types=1, m_v=0, m_u=0)
        logit = lambda p: math.log(p / (1 - p))
        params = params_with(spec, difficulty=[0.0], discrimination=[1.0],
                             abilities=[[logit(0.4)], [logit(0.8)]],
                             class_intercepts=[[0.0]],
                             class_slopes=np.zeros((1, 0)))
        ll = school_conditional_loglik(single_student_dataset([1]), params, spec)
        assert ll[0, 0] == pytest.approx(math.log(0.6), abs=1e-12)

    def test_identical_components_ignore_weights(self):
        """Equal class abilities make the weights irrelevant."""
        spec = make_spec(n_items=2, n_classes=3, n_types=2, m_v=1, m_u=0)
        rng = np.random.default_rng(6)
        params = random_params(spec, rng).replace(
            abilities=np.full((3, 1), 0.4))
        data = random_dataset(spec, rng, n_schools=1, school_size=3)
        lls = school_conditional_loglik(data, params, spec)[0]
        assert lls[0] == pytest.approx(lls[1], abs=1e-12)
        assert math.exp(lls[0]) <= 1.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec, params, data = random_instance(rng)
            values = school_conditional_loglik(data, params, spec)
            assert np.all(values <= 0.0)
            assert np.all((0.0 < np.exp(values)) & (np.exp(values) <= 1.0))


class TestMarginalLoglik:

    def test_degenerate_single_cell(self):
        spec = make_spec(n_items=1, n_classes=1, n_types=1, m_v=0, m_u=0)
        params = params_with(spec, difficulty=[0.0], discrimination=[1.0],
                             abilities=[[0.0]])
        assert marginal_loglik(single_student_dataset([1]), params, spec) == \
            pytest.approx(math.log(0.5), abs=1e-12)

    def test_identical_types_collapse(self):
        """Two types with the same induced distribution match one type."""
        spec2 = make_spec(n_items=3, n_classes=2, n_types=2, m_v=1, m_u=0)
        rng = np.random.default_rng(8)
        params2 = random_params(spec2, rng)
        params2 = params2.replace(
            class_intercepts=np.tile(params2.class_intercepts[0], (2, 1)),
            type_intercepts=[0.0])
        data = random_dataset(spec2, rng, n_schools=3, school_size=3)
        spec1 = spec2.replace(n_types=1)
        params1 = params2.replace(
            class_intercepts=params2.class_intercepts[:1],
            type_intercepts=np.zeros(0), type_slopes=np.zeros((0, 0)))
        ll2 = marginal_loglik(data, params2, spec2)
        data1 = ResponseDataset.from_schools(SchoolGroup(
            g.school_id, np.zeros(0), g.student_ids, g.student_covariates,
            g.responses) for g in data.schools)
        ll1 = marginal_loglik(data1, params1, spec1)
        assert ll2 == pytest.approx(ll1, abs=1e-10)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            spec, params, data = random_instance(rng)
            assert marginal_loglik(data, params, spec) <= 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            spec, params, data = random_instance(rng, missing_rate=0.15)
            ll = marginal_loglik(data, params, spec)
            oracle = brute_force_loglik(data, params, spec)
            assert ll == pytest.approx(oracle, abs=1e-10)

    def test_label_permutation_invariance(self):
        """Relabeling classes or types leaves the likelihood unchanged."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec, params, data = random_instance(rng)
            perm_v = rng.permutation(spec.n_classes)
            perm_u = rng.permutation(spec.n_types)
            permuted = permute_parameters(params, spec, perm_v, perm_u)
            assert marginal_loglik(data, permuted, spec) == \
                pytest.approx(marginal_loglik(data, params, spec), abs=1e-9)

    def test_single_level_equivalence(self):
        """k_U = 1 matches an independent manifest-distribution implementation."""
        rng = np.random.default_rng(12)
        for _ in range(10):
            spec = make_spec(n_items=3, n_classes=int(rng.integers(1, 4)),
                             n_types=1, m_v=int(rng.integers(0, 3)), m_u=0)
            params = random_params(spec, rng)
            data = random_dataset(spec, rng, n_schools=2, school_size=3)
            assert marginal_loglik(data, params, spec) == pytest.approx(
                reference.single_level_loglik(data, params, spec), abs=1e-10)


class TestBruteForce:

    def test_degenerate_equality(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=1, m_v=0, m_u=0)
        params = params_with(spec, difficulty=[0.0, 0.7],
                             discrimination=[1.0, 1.4], abilities=[[0.2]])
        data = random_dataset(spec, np.random.default_rng(1), n_schools=2,
                              school_size=2)
        assert brute_force_loglik(data, params, spec) == pytest.approx(
            marginal_loglik(data, params, spec), rel=1e-12, abs=1e-12)

    def test_two_by_two_random(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=2, m_v=1, m_u=1)
        rng = np.random.default_rng(2)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=2, school_size=2)
        assert brute_force_loglik(data, params, spec) == pytest.approx(
            marginal_loglik(data, params, spec), abs=1e-10)

    def test_cap_exceeded(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=2)
        rng = np.random.default_rng(3)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=3, school_size=3)
        with pytest.raises(EnumerationCapError):
            brute_force_loglik(data, params, spec, max_terms=10)


class TestStackDataset:

    @pytest.mark.parametrize("m_v", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 200])
    def test_patterns_equal_numpy_unique(self, m_v, n):
        """Same patterns in the same order and the same inverse as
        ``np.unique(x, axis=0, return_inverse=True)``, with ties in every
        column and repeated rows."""
        rng = np.random.default_rng(10 * m_v + n)
        x = rng.choice([-1.5, 0.0, 0.25, 2.0], size=(n, m_v))
        if n > 3:
            x[n // 2:n // 2 + 3] = x[:3]
        patterns, index = unique_rows(x)
        want_patterns, want_index = np.unique(x, axis=0, return_inverse=True)
        np.testing.assert_array_equal(patterns, want_patterns)
        assert patterns.shape == want_patterns.shape
        np.testing.assert_array_equal(index, want_index.reshape(-1))
        assert index.dtype == np.intp

    @pytest.mark.parametrize("m_v, distinct", [
        *(pytest.param(m_v, False, id=str(m_v)) for m_v in range(4)),
        pytest.param(2, True, id="2-distinct")])
    def test_stacked_patterns_equal_numpy_unique(self, m_v, distinct):
        """Repeated rows, or every row distinct (P = n)."""
        rng = np.random.default_rng(m_v)
        schools = []
        for h in range(8):
            n = 25
            x = (rng.normal(size=(n, m_v)) if distinct
                 else rng.choice([-1.0, 1.0, 3.0], size=(n, m_v)))
            schools.append(SchoolGroup(
                f"s{h}", np.zeros(0), tuple(f"{h}-{i}" for i in range(n)),
                x, rng.integers(-1, 2, size=(n, 2))))
        data = ResponseDataset.from_schools(schools)
        want_patterns, want_index = np.unique(data.student_covariates, axis=0,
                                              return_inverse=True)
        if distinct:
            assert want_patterns.shape == (200, m_v)
        np.testing.assert_array_equal(data.x_patterns, want_patterns)
        np.testing.assert_array_equal(data.x_pattern_index, want_index.reshape(-1))

