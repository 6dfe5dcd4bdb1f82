"""Data generation, label alignment, and recovery scoring."""

import numpy as np
import pytest

from mlcirt import (
    CategoricalCovariate,
    CyclicCovariate,
    Parameterization,
    SimulationDesign,
    align_labels,
    e_step,
    log_class_weight_matrix,
    log_type_weight_matrix,
    marginal_loglik,
    permute_parameters,
    recovery_report,
    simulate_full,
)
from mlcirt.em import FitResult
from mlcirt.likelihood import success_prob_table
from mlcirt.simulate import desk_design

import reference
from helpers import make_spec, random_params


def simple_design(seed=0, n_schools=4, school_size=5, **kwargs):
    spec = make_spec(n_items=3, n_classes=2, n_types=2, m_v=1, m_u=1)
    truth = random_params(spec, np.random.default_rng(99))
    return SimulationDesign(
        spec=spec, truth=truth, n_schools=n_schools, school_size=school_size,
        student_covariates=(CategoricalCovariate((0.5, 0.5)),),
        school_covariates=(CategoricalCovariate((0.4, 0.6)),),
        seed=seed, **kwargs)


class TestGenerateDataset:

    def test_same_seed_is_bit_identical(self):
        first, second = (simulate_full(simple_design(seed=5)) for _ in range(2))
        a, b = first.dataset, second.dataset
        assert a.n_schools == b.n_schools
        np.testing.assert_array_equal(first.labels.types, second.labels.types)
        np.testing.assert_array_equal(first.labels.classes, second.labels.classes)
        for ga, gb in zip(a.schools, b.schools):
            assert ga.school_id == gb.school_id
            np.testing.assert_array_equal(ga.responses, gb.responses)
            np.testing.assert_array_equal(ga.covariates, gb.covariates)
            np.testing.assert_array_equal(ga.student_covariates,
                                          gb.student_covariates)

    def test_negative_seed_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            simple_design(seed=-1)

    def test_different_seed_differs(self):
        a = simulate_full(simple_design(seed=5)).dataset
        b = simulate_full(simple_design(seed=6)).dataset
        same = all(np.array_equal(ga.responses, gb.responses)
                   for ga, gb in zip(a.schools, b.schools))
        assert not same

    def test_certain_success_gives_all_ones(self):
        """Responses are deterministic once the curve saturates to 1."""
        spec = make_spec(n_items=2, n_classes=1, n_types=1, m_v=0, m_u=0)
        truth = random_params(spec, np.random.default_rng(0)).replace(
            difficulty=np.array([0.0, -700.0]),
            discrimination=np.array([1.0, 1.0]),
            abilities=np.array([[700.0]]))
        design = SimulationDesign(spec=spec, truth=truth, n_schools=3,
                                  school_size=4, seed=1)
        data = simulate_full(design).dataset
        for school in data.schools:
            assert np.all(school.responses == 1)

    def test_marginal_rate_concentrates(self):
        """One fair item over 10000 students lands within 0.02 of 0.5."""
        spec = make_spec(n_items=1, n_classes=1, n_types=1, m_v=0, m_u=0)
        truth = random_params(spec, np.random.default_rng(0)).replace(
            difficulty=np.array([0.0]), discrimination=np.array([1.0]),
            abilities=np.array([[0.0]]))
        design = SimulationDesign(spec=spec, truth=truth, n_schools=100,
                                  school_size=100, seed=2)
        data = simulate_full(design).dataset
        rate = data.responses.mean()
        assert abs(rate - 0.5) < 0.02

    def test_cell_frequencies_within_three_sigma(self):
        """Empirical (class, item) success rates stay within 3 binomial SEs
        for at least 99% of well-populated cells."""
        design = desk_design(seed=3, n_schools=250)
        sim = simulate_full(design)
        data, labels = sim.dataset, sim.labels
        table = success_prob_table(design.truth, design.spec)
        v_all = labels.classes
        y_all = data.responses
        checked = 0
        inside = 0
        for v in range(design.spec.n_classes):
            rows = y_all[v_all == v]
            if rows.shape[0] < 1000:
                continue
            for j in range(design.spec.item_bank.n_items):
                p = table[v, j]
                se = np.sqrt(p * (1 - p) / rows.shape[0])
                checked += 1
                inside += abs(rows[:, j].mean() - p) <= 3 * se
        assert checked > 0
        assert inside / checked >= 0.99

    def test_missing_rate_mask(self):
        design = simple_design(seed=4, n_schools=30, school_size=20,
                               missing_rate=0.25)
        data = simulate_full(design).dataset
        values = data.responses
        frac = (values == -1).mean()
        assert 0.2 < frac < 0.3

    def test_variable_school_sizes(self):
        design = simple_design(seed=5, school_size=(2, 6))
        data = simulate_full(design).dataset
        sizes = {g.n_students for g in data.schools}
        assert sizes <= set(range(2, 7))

    def test_class_frequencies_follow_weights(self):
        """Class draws respect the type-conditional membership weights."""
        design = simple_design(seed=6, n_schools=300, school_size=10)
        sim = simulate_full(design)
        data, labels = sim.dataset, sim.labels
        x0_count = 0
        hits = 0
        total = 0
        for h, school in enumerate(data.schools):
            u = labels.types[h]
            for i in range(school.n_students):
                w = reference.class_probs(design.truth.class_intercepts,
                                          design.truth.class_slopes,
                                          school.student_covariates[i], u)
                total += 1
                hits += w[labels.classes[data.starts[h] + i]]
        # average posterior-free weight of the drawn class should beat chance
        assert hits / total > 0.5

    def test_batched_draws_equal_scalar_draws(self):
        """One draw over n rows from n uniforms equals n scalar draws from
        the same stream."""
        from mlcirt.simulate import _draw_categories

        weights = np.random.default_rng(3).dirichlet(np.ones(4), size=50)
        batched = _draw_categories(np.log(weights), np.random.default_rng(8).random(50))
        rng = np.random.default_rng(8)
        scalar = [np.searchsorted(np.cumsum(w), rng.random(), side="right")
                  for w in weights]
        np.testing.assert_array_equal(batched, scalar)

    def test_cyclic_covariate(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=1, m_v=0, m_u=1)
        truth = random_params(spec, np.random.default_rng(1))
        design = SimulationDesign(
            spec=spec, truth=truth, n_schools=4, school_size=2,
            school_covariates=(CyclicCovariate((0.0, 0.5, 1.0)),), seed=8)
        data = simulate_full(design).dataset
        values = [g.covariates[0] for g in data.schools]
        assert values == [0.0, 0.5, 1.0, 0.0]

    def test_design_validation(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=1, m_v=1, m_u=0)
        truth = random_params(spec, np.random.default_rng(1))
        with pytest.raises(ValueError, match="covariate generators"):
            SimulationDesign(spec=spec, truth=truth, n_schools=2,
                             school_size=2, seed=0)


class TestAlignment:

    @pytest.fixture
    def spec_and_truth(self):
        spec = make_spec(n_items=4, n_classes=3, n_types=2, m_v=1, m_u=1)
        truth = random_params(spec, np.random.default_rng(21))
        return spec, truth

    def test_identity_for_equal_parameters(self, spec_and_truth):
        spec, truth = spec_and_truth
        class_perm, type_perm = align_labels(truth, truth, spec)
        np.testing.assert_array_equal(class_perm, [0, 1, 2])
        np.testing.assert_array_equal(type_perm, [0, 1])

    def test_recovers_swap(self, spec_and_truth):
        spec, truth = spec_and_truth
        shuffled = permute_parameters(truth, spec, np.array([2, 0, 1]),
                                      np.array([1, 0]))
        class_perm, type_perm = align_labels(truth, shuffled, spec)
        aligned = permute_parameters(shuffled, spec, class_perm, type_perm)
        np.testing.assert_allclose(aligned.abilities, truth.abilities,
                                   atol=1e-12)
        np.testing.assert_allclose(aligned.class_intercepts,
                                   truth.class_intercepts, atol=1e-12)
        np.testing.assert_allclose(aligned.type_intercepts,
                                   truth.type_intercepts, atol=1e-12)
        np.testing.assert_allclose(aligned.type_slopes, truth.type_slopes,
                                   atol=1e-12)

    def test_small_noise_keeps_identity(self, spec_and_truth):
        spec, truth = spec_and_truth
        rng = np.random.default_rng(22)
        noisy = truth.replace(
            abilities=truth.abilities + 0.05 * rng.normal(size=(3, 1)),
            class_intercepts=truth.class_intercepts
            + 0.05 * rng.normal(size=(2, 2)))
        class_perm, type_perm = align_labels(truth, noisy, spec)
        np.testing.assert_array_equal(class_perm, [0, 1, 2])
        np.testing.assert_array_equal(type_perm, [0, 1])

    def test_inverse_consistency(self, spec_and_truth):
        """Aligning A to B and B to A yields inverse permutations."""
        spec, truth = spec_and_truth
        rng = np.random.default_rng(23)
        other = permute_parameters(truth, spec, np.array([1, 2, 0]),
                                   np.array([1, 0]))
        other = other.replace(abilities=other.abilities
                              + 0.01 * rng.normal(size=(3, 1)))
        fwd_class, fwd_type = align_labels(truth, other, spec)
        back_class, back_type = align_labels(other, truth, spec)
        np.testing.assert_array_equal(np.argsort(fwd_class), back_class)
        np.testing.assert_array_equal(np.argsort(fwd_type), back_type)

    def test_exhaustive_limit(self):
        spec = make_spec(n_items=9, n_classes=9, n_types=1, m_v=0, m_u=0)
        truth = random_params(spec, np.random.default_rng(24))
        with pytest.raises(ValueError, match="at most"):
            align_labels(truth, truth, spec)

    def test_lc_alignment_uses_success_table(self):
        spec = make_spec(n_items=3, n_classes=2, n_types=1, m_v=0, m_u=0,
                         parameterization=Parameterization.LC)
        truth = random_params(spec, np.random.default_rng(25))
        swapped = permute_parameters(truth, spec, np.array([1, 0]),
                                     np.array([0]))
        class_perm, _ = align_labels(truth, swapped, spec)
        np.testing.assert_array_equal(class_perm, [1, 0])


class TestPermuteParameters:

    def test_weights_invariant(self):
        """Relabeling never changes implied membership weights."""
        rng = np.random.default_rng(26)
        for _ in range(10):
            spec = make_spec(n_items=3,
                             n_classes=int(rng.integers(1, 5)),
                             n_types=int(rng.integers(1, 4)),
                             m_v=1, m_u=1)
            params = random_params(spec, rng)
            perm_v = rng.permutation(spec.n_classes)
            perm_u = rng.permutation(spec.n_types)
            out = permute_parameters(params, spec, perm_v, perm_u)
            x = rng.normal(size=(3, 1))
            w = rng.normal(size=(3, 1))
            np.testing.assert_allclose(
                np.exp(log_type_weight_matrix(w, out)),
                np.exp(log_type_weight_matrix(w, params))[:, perm_u], atol=1e-12)
            np.testing.assert_allclose(
                np.exp(log_class_weight_matrix(x, out)),
                np.exp(log_class_weight_matrix(x, params))[:, perm_u][:, :, perm_v],
                atol=1e-12)

    def test_rejects_non_permutation(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=2)
        params = random_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError):
            permute_parameters(params, spec, np.array([0, 0]), np.array([0, 1]))


class TestRecoveryReport:

    def test_truth_fit_has_zero_errors(self):
        design = simple_design(seed=30, n_schools=6, school_size=6)
        sim = simulate_full(design)
        data, labels = sim.dataset, sim.labels
        spec = design.spec
        fake = FitResult(params=design.truth,
                         loglik=marginal_loglik(data, design.truth, spec),
                         trace=(0.0,), n_iter=1, converged=True)
        post = e_step(data, design.truth, spec)
        report = recovery_report(design.truth, fake, labels, post, data, spec)
        for block in report.block_errors.values():
            assert block.max_abs == 0.0
            assert block.rmse == 0.0
        assert report.loglik_fit == pytest.approx(report.loglik_truth)
        assert 0.0 <= report.student_accuracy <= 1.0
        assert 0.0 <= report.school_accuracy <= 1.0

    def test_permuted_truth_zero_error_after_alignment(self):
        design = simple_design(seed=31, n_schools=6, school_size=6)
        sim = simulate_full(design)
        data, labels = sim.dataset, sim.labels
        spec = design.spec
        shuffled = permute_parameters(design.truth, spec, np.array([1, 0]),
                                      np.array([1, 0]))
        fake = FitResult(params=shuffled,
                         loglik=marginal_loglik(data, shuffled, spec),
                         trace=(0.0,), n_iter=1, converged=True)
        post = e_step(data, shuffled, spec)
        report = recovery_report(design.truth, fake, labels, post, data, spec)
        for block in report.block_errors.values():
            assert block.max_abs <= 1e-12
        np.testing.assert_array_equal(report.class_perm, [1, 0])
        np.testing.assert_array_equal(report.type_perm, [1, 0])
        # accuracies are unchanged by the relabeling
        base_post = e_step(data, design.truth, spec)
        base = recovery_report(
            design.truth,
            FitResult(params=design.truth, loglik=fake.loglik, trace=(0.0,),
                      n_iter=1, converged=True),
            labels, base_post, data, spec)
        assert report.student_accuracy == pytest.approx(base.student_accuracy)
        assert report.school_accuracy == pytest.approx(base.school_accuracy)
