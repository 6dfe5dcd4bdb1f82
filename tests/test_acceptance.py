"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest -s``).  The twenty seeded benchmark fits are shared across
criteria through module-scoped fixtures, so the whole module runs in a
few minutes.
"""

import json
import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import mlcirt.selection
from mlcirt import (
    FitControls,
    Parameterization,
    brute_force_loglik,
    count_free_parameters,
    e_step,
    initialize,
    m_step,
    marginal_loglik,
    multistart_fit,
    permute_parameters,
    recovery_report,
    sweep_school_types,
)
from mlcirt.cli import main
from mlcirt.em import FitResult
from mlcirt.simulate import desk_design, simulate_full

import reference
from helpers import check_posterior_invariants, make_spec, random_dataset, \
    random_instance, random_params

N_SEEDS = 20


@contextmanager
def criterion(cid, description):
    try:
        yield
    except Exception:
        print(f"[criterion {cid}] FAIL: {description}")
        raise
    print(f"[criterion {cid}] PASS: {description}")


# ---------------------------------------------------------------------------
# Shared benchmark fits
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_datasets():
    out = []
    for seed in range(N_SEEDS):
        design = desk_design(seed=1000 + seed)
        sim = simulate_full(design)
        out.append((design, sim.dataset, sim.labels))
    return out


@pytest.fixture(scope="module")
def desk_fits(desk_datasets):
    controls = FitControls(max_iter=400, tol_loglik=1e-7, n_starts=4)
    results = []
    for seed, (design, data, labels) in enumerate(desk_datasets):
        result = multistart_fit(data, design.spec, controls.replace(seed=seed))
        posteriors = e_step(data, result.params, design.spec)
        report = recovery_report(design.truth, result, labels, posteriors,
                                 data, design.spec)
        results.append((result, posteriors, report))
    return results


# ---------------------------------------------------------------------------
# Criterion 1: free-parameter counts
# ---------------------------------------------------------------------------

def test_criterion_1_parameter_counts():
    with criterion(1, "free-parameter count reproduction"):
        dim_of = [0] * 30 + [1] * 10 + [2] * 27
        base = make_spec(dim_of=dim_of, n_classes=3, n_types=5, m_v=1, m_u=4)
        assert count_free_parameters(base) == 169
        assert count_free_parameters(
            base.replace(parameterization=Parameterization.ONE_PL)) == 105
        lc = base.replace(parameterization=Parameterization.LC)
        counts = [count_free_parameters(lc.replace(n_types=k))
                  for k in range(1, 7)]
        assert counts == [205, 212, 219, 226, 233, 240]


# ---------------------------------------------------------------------------
# Criterion 2: log-space likelihood vs brute-force enumeration
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    with criterion(2, "marginal log-likelihood matches brute force on 100 "
                      "random instances within 1e-10"):
        rng = np.random.default_rng(202)
        worst = 0.0
        for k in range(100):
            spec, params, data = random_instance(
                rng, missing_rate=0.1 if k % 3 == 0 else 0.0)
            gap = abs(marginal_loglik(data, params, spec)
                      - brute_force_loglik(data, params, spec))
            worst = max(worst, gap)
        assert worst <= 1e-10, f"worst gap {worst:.3e}"


# ---------------------------------------------------------------------------
# Criteria 3 and 4: EM monotonicity and posterior normalization,
# instrumented over 20 seeded desk-scale runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def instrumented_runs(desk_datasets):
    """EM loops driven through the public e_step/m_step, recording the
    log-likelihood trace and checking posterior invariants each iteration."""
    traces = []
    for seed, (design, data, labels) in enumerate(desk_datasets):
        spec = design.spec
        params = initialize(data, spec, seed=seed)
        trace = [marginal_loglik(data, params, spec)]
        for _ in range(60):
            posteriors = e_step(data, params, spec)
            check_posterior_invariants(posteriors, data, atol=1e-10)
            params = m_step(data, posteriors, params, spec)
            trace.append(marginal_loglik(data, params, spec))
            if abs(trace[-1] - trace[-2]) < 1e-7:
                break
        traces.append(np.asarray(trace))
    return traces


@pytest.mark.slow
def test_criterion_3_em_monotonicity(instrumented_runs):
    with criterion(3, "EM log-likelihood trace is monotone (>= -1e-8) over "
                      f"{len(instrumented_runs)} seeded desk-scale fits"):
        assert len(instrumented_runs) >= 20
        worst = min(np.diff(trace).min() for trace in instrumented_runs)
        assert worst >= -1e-8, f"worst loglik decrease {worst:.3e}"


@pytest.mark.slow
def test_criterion_4_posterior_normalization(instrumented_runs):
    with criterion(4, "posterior tables normalized within 1e-10 after every "
                      "E-step of criterion 3's runs"):
        # the invariants are asserted inside the instrumented loops; this
        # criterion fails if any of those checks raised
        assert len(instrumented_runs) >= 20


# ---------------------------------------------------------------------------
# Criterion 5: M-step block optimality against a generic maximizer
# ---------------------------------------------------------------------------

def test_criterion_5_m_step_optimality():
    with criterion(5, "M-step blocks match scipy maximization within 1e-6 "
                      "and have finite-difference gradients < 1e-4"):
        from mlcirt import CategoricalCovariate, SimulationDesign

        rng = np.random.default_rng(505)
        # generous inner-iteration budget: the blocks must be optimized to
        # stationarity, not merely improved as in a routine EM sweep
        controls = FitControls(n_starts=1, newton_max_iter=600)
        for k in range(10):
            parameterization = (Parameterization.LC if k % 5 == 4 else
                                Parameterization.ONE_PL if k % 5 == 3 else
                                Parameterization.TWO_PL)
            spec = make_spec(n_items=5, n_classes=2, n_types=2, m_v=1, m_u=1,
                             parameterization=parameterization)
            truth = random_params(spec, rng, scale=0.7)
            if parameterization is not Parameterization.LC:
                # separated classes keep the item block's optimum interior
                truth = truth.replace(abilities=np.array([[-1.0], [1.0]])
                                      + 0.2 * rng.normal(size=(2, 1)))
            design = SimulationDesign(
                spec=spec, truth=truth, n_schools=3, school_size=4,
                student_covariates=(CategoricalCovariate((0.5, 0.5)),),
                school_covariates=(CategoricalCovariate((0.5, 0.5)),),
                seed=600 + k)
            data = simulate_full(design).dataset
            post = e_step(data, truth, spec)
            params = initialize(data, spec)
            new = m_step(data, post, params, spec, controls)

            # block (a): item parameters and abilities (or lc table)
            obj = lambda v: reference.item_block_objective_vec(
                data, post, spec, params, v)
            x_new = reference.pack_item_block(spec, new)
            _, best = reference.maximize(
                obj, [reference.pack_item_block(spec, params), x_new])
            assert obj(x_new) == pytest.approx(best, abs=1e-6)
            grad = reference.finite_difference_gradient(obj, x_new)
            assert np.max(np.abs(grad)) < 1e-4

            # block (b): class-membership coefficients
            obj = lambda v: reference.class_block_objective_vec(
                data, post, spec, v)
            x_new = np.concatenate([new.class_intercepts.reshape(-1),
                                    new.class_slopes.reshape(-1)])
            x_old = np.concatenate([params.class_intercepts.reshape(-1),
                                    params.class_slopes.reshape(-1)])
            _, best = reference.maximize(obj, [x_old, x_new])
            assert obj(x_new) == pytest.approx(best, abs=1e-6)
            grad = reference.finite_difference_gradient(obj, x_new)
            assert np.max(np.abs(grad)) < 1e-4

            # block (c): type-membership coefficients
            obj = lambda v: reference.type_block_objective_vec(
                data, post, spec, v)
            x_new = np.concatenate([new.type_intercepts,
                                    new.type_slopes.reshape(-1)])
            x_old = np.concatenate([params.type_intercepts,
                                    params.type_slopes.reshape(-1)])
            _, best = reference.maximize(obj, [x_old, x_new])
            assert obj(x_new) == pytest.approx(best, abs=1e-6)
            grad = reference.finite_difference_gradient(obj, x_new)
            assert np.max(np.abs(grad)) < 1e-4


# ---------------------------------------------------------------------------
# Criterion 6: parameter recovery at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_parameter_recovery(desk_datasets, desk_fits):
    with criterion(6, "desk-scale recovery: RMSE(difficulty) <= 0.15, "
                      "RMSE(discrimination) <= 0.20, RMSE(abilities) <= 0.15, "
                      "median membership error <= 0.3, fitted loglik >= truth"):
        sq = {"difficulty": [], "discrimination": [], "abilities": []}
        membership_abs = []
        for (design, data, labels), (result, posteriors, report) in zip(
                desk_datasets, desk_fits):
            for name in sq:
                err = report.block_errors[name]
                sq[name].append(err.rmse ** 2)
            aligned = permute_parameters(result.params, design.spec,
                                         report.class_perm, report.type_perm)
            truth = design.truth
            membership_abs.extend(np.abs(np.concatenate([
                (aligned.class_intercepts - truth.class_intercepts).ravel(),
                (aligned.class_slopes - truth.class_slopes).ravel(),
                (aligned.type_intercepts - truth.type_intercepts).ravel(),
                (aligned.type_slopes - truth.type_slopes).ravel()])))
            if result.converged:
                assert report.loglik_fit >= report.loglik_truth - 1e-6, \
                    f"seed {design.seed}: fitted loglik below the truth"
        pooled = {name: math.sqrt(np.mean(values))
                  for name, values in sq.items()}
        assert pooled["difficulty"] <= 0.15, pooled
        assert pooled["discrimination"] <= 0.20, pooled
        assert pooled["abilities"] <= 0.15, pooled
        median_zeta = float(np.median(membership_abs))
        assert median_zeta <= 0.3, f"median membership error {median_zeta:.4f}"
        print(f"  pooled RMSE: {pooled}  median membership error: "
              f"{median_zeta:.4f}")


# ---------------------------------------------------------------------------
# Criterion 7: model-selection behavior
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_model_selection(desk_datasets, monkeypatch):
    with criterion(7, "BIC sweep selects 2 school types in >= 90% of seeds "
                      "and the stopping rule is exact on canned sequences"):
        controls = FitControls(max_iter=200, tol_loglik=1e-6, n_starts=3)
        hits = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for seed, (design, data, labels) in enumerate(desk_datasets):
                sweep = sweep_school_types(data, design.spec, [1, 2, 3, 4],
                                           controls.replace(seed=seed))
                hits += sweep.chosen_n_types == 2
        assert hits >= 0.9 * N_SEEDS, f"selected k=2 in {hits}/{N_SEEDS} seeds"
        print(f"  selected 2 school types in {hits}/{N_SEEDS} seeds")

        # exact stopping-rule semantics on a hand-constructed unimodal
        # BIC sequence over six candidate counts, with the minimum at 5:
        # the sweep fits all six rows and picks 5 (the value before the
        # first increase)
        spec = make_spec(n_items=3, n_classes=1, n_types=1, m_v=0, m_u=1)
        data = random_dataset(spec, np.random.default_rng(7), n_schools=4,
                              school_size=3)
        n = data.n_students
        bic_shape = {1: 100.0, 2: 45.0, 3: 27.0, 4: 18.0, 5: 13.0, 6: 19.0}
        target = {k: -0.5 * (value - math.log(n) * count_free_parameters(
            spec.replace(n_types=k)))
            for k, value in bic_shape.items()}

        def canned(_data, row_spec, _controls):
            k = row_spec.n_types
            return FitResult(params=random_params(row_spec,
                                                  np.random.default_rng(k)),
                             loglik=target[k], trace=(target[k],), n_iter=1,
                             converged=True)

        monkeypatch.setattr(mlcirt.selection, "multistart_fit", canned)
        sweep = sweep_school_types(data, spec, [1, 2, 3, 4, 5, 6],
                                   FitControls(n_starts=1))
        assert sweep.chosen_n_types == 5
        assert [row.n_types for row in sweep.rows] == [1, 2, 3, 4, 5, 6]
        np.testing.assert_allclose([row.bic for row in sweep.rows],
                                   [bic_shape[k] for k in range(1, 7)],
                                   atol=1e-9)
        # strictly increasing sequence keeps the first value
        for k in bic_shape:
            target[k] = -0.5 * (float(k)
                                - math.log(n) * count_free_parameters(
                                    spec.replace(n_types=k)))
        sweep = sweep_school_types(data, spec, [1, 2, 3, 4, 5, 6],
                                   FitControls(n_starts=1))
        assert sweep.chosen_n_types == 1
        assert len(sweep.rows) == 2


# ---------------------------------------------------------------------------
# Criterion 8: nesting checks
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_nesting(desk_datasets, desk_fits):
    with criterion(8, "1PL loglik <= 2PL loglik everywhere; single-level fits "
                      "match a direct generic maximizer within 1e-6"):
        rng = np.random.default_rng(808)
        controls = FitControls(max_iter=800, tol_loglik=1e-10, tol_param=1e-9,
                               n_starts=4, seed=11)
        # small model-generated datasets
        for k in range(4):
            design = desk_design(seed=900 + k, n_schools=8, school_size=6)
            data = simulate_full(design).dataset
            spec2 = design.spec
            spec1 = spec2.replace(parameterization=Parameterization.ONE_PL)
            two = multistart_fit(data, spec2, controls)
            one = multistart_fit(data, spec1, controls)
            assert one.loglik <= two.loglik + 1e-6

        # desk scale: reuse criterion 6's 2PL fits on the first two seeds
        light = FitControls(max_iter=400, tol_loglik=1e-7, n_starts=3, seed=21)
        for (design, data, labels), (result, _, _) in list(
                zip(desk_datasets, desk_fits))[:2]:
            spec1 = design.spec.replace(parameterization=Parameterization.ONE_PL)
            one = multistart_fit(data, spec1, light)
            assert one.loglik <= result.loglik + 1e-6

        # single-level equivalence: k_U = 1, no covariates; explicit
        # well-separated truths keep the small-sample MLE interior, and a
        # deep iteration budget lets EM's slow tail close to within 1e-6
        from mlcirt import ParameterSet, SimulationDesign

        deep = FitControls(max_iter=8000, tol_loglik=1e-12, tol_param=1e-11,
                           n_starts=4, seed=11)
        for k in range(4):
            parameterization = (Parameterization.ONE_PL if k % 2 else
                                Parameterization.TWO_PL)
            spec = make_spec(n_items=4, n_classes=2, n_types=1, m_v=0, m_u=0,
                             parameterization=parameterization)
            disc = ([1.0, 1.0, 1.0, 1.0] if k % 2
                    else [1.0, 0.8, 1.3, 1.1])
            truth = ParameterSet(
                difficulty=[0.0, -0.8, 0.4, 1.0],
                discrimination=disc,
                abilities=[[-1.0 - 0.1 * k], [1.0 + 0.1 * k]],
                class_intercepts=[[0.3]],
                class_slopes=np.zeros((1, 0)),
                type_intercepts=np.zeros(0),
                type_slopes=np.zeros((0, 0)))
            design = SimulationDesign(spec=spec, truth=truth, n_schools=8,
                                      school_size=15, seed=40 + k)
            data = simulate_full(design).dataset
            ours = multistart_fit(data, spec, deep)
            direct = reference.fit_single_level_direct(
                data, spec, ours.params, extra_starts=4, rng=rng)
            assert abs(ours.loglik - direct) <= 1e-6, \
                f"instance {k}: EM {ours.loglik:.9f} vs direct {direct:.9f}"


# ---------------------------------------------------------------------------
# Criterion 9: determinism of the command-line pipeline
# ---------------------------------------------------------------------------

def _cli_design():
    design = desk_design(seed=5, n_schools=25, school_size=8)
    spec = design.spec
    return {
        "n_schools": 25,
        "school_size": 8,
        "seed": 5,
        "spec": {
            "parameterization": "2pl",
            "n_classes": spec.n_classes,
            "n_types": spec.n_types,
            "n_items": spec.item_bank.n_items,
            "n_dims": 1,
            "dim_of": [1] * spec.item_bank.n_items,
            "reference_items": [1],
            "n_student_covariates": 1,
            "n_school_covariates": 1,
        },
        "truth": {
            "difficulty": design.truth.difficulty.tolist(),
            "discrimination": design.truth.discrimination.tolist(),
            "abilities": design.truth.abilities.tolist(),
            "class_intercepts": design.truth.class_intercepts.tolist(),
            "class_slopes": design.truth.class_slopes.tolist(),
            "type_intercepts": design.truth.type_intercepts.tolist(),
            "type_slopes": design.truth.type_slopes.tolist(),
            "lc_success": None,
        },
        "student_covariates": [{"type": "categorical", "probs": [0.5, 0.5]}],
        "school_covariates": [{"type": "categorical", "probs": [0.5, 0.5]}],
    }


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "simulate is byte-identical and fit reproduces the "
                      "log-likelihood to 12 significant digits"):
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(_cli_design()))
        for name in ("sim1", "sim2"):
            assert main(["simulate", "--design", str(design_path),
                         "--out", str(tmp_path / name)]) == 0
        for name in ("students.csv", "schools.csv", "config.json",
                     "truth.json"):
            assert (tmp_path / "sim1" / name).read_bytes() == \
                (tmp_path / "sim2" / name).read_bytes(), name

        logliks = []
        for name in ("fit1", "fit2"):
            code = main(["fit",
                         "--students", str(tmp_path / "sim1" / "students.csv"),
                         "--schools", str(tmp_path / "sim1" / "schools.csv"),
                         "--config", str(tmp_path / "sim1" / "config.json"),
                         "--out", str(tmp_path / name),
                         "--seed", "17", "--starts", "3",
                         "--max-iter", "250", "--tol", "1e-7"])
            assert code in (0, 2)
            report = json.loads((tmp_path / name / "report.json").read_text())
            logliks.append(report["fit"]["loglik"])
        assert f"{logliks[0]:.12g}" == f"{logliks[1]:.12g}"
