"""The SQUAREM loop of ``em.fit`` against the plain EM loop it accelerates.

``reference.plain_em_fit`` is the unaccelerated loop: one E-step and one
M-step per iteration, with the same stopping rules.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import mlcirt.em
from mlcirt import FitControls, Parameterization, fit, initialize
from mlcirt.simulate import desk_design, simulate_full

import reference
from helpers import make_spec, random_dataset

N_SEEDS = 20
DESK = FitControls(max_iter=400, tol_loglik=1e-7, n_starts=4)


def start_values(data, spec, controls, start):
    """The starting point ``multistart_fit`` uses for start ``start``."""
    return initialize(data, spec,
                      None if start == 0 else mlcirt.em._child_seed(controls.seed, start))


def small_fits():
    """(data, spec, controls, init) of a few quick fits in every
    parameterization, with and without school types and covariates."""
    cases = []
    design = desk_design(seed=5, n_schools=25, school_size=8)
    data = simulate_full(design).dataset
    controls = FitControls(max_iter=300, tol_loglik=1e-9, tol_param=1e-8)
    cases.append((data, design.spec, controls,
                  start_values(data, design.spec, controls, 1)))
    rng = np.random.default_rng(31)
    for parameterization, dim_of, n_types in (
            (Parameterization.TWO_PL, [0, 0, 0, 1, 1], 2),
            (Parameterization.ONE_PL, [0, 0, 0, 0, 0], 2),
            (Parameterization.LC, [0, 0, 0, 0, 0], 1)):
        spec = make_spec(dim_of=dim_of, n_classes=2, n_types=n_types,
                         parameterization=parameterization)
        data = random_dataset(spec, rng, n_schools=6, school_size=10,
                              missing_rate=0.1)
        cases.append((data, spec, controls,
                      initialize(data, spec, seed=3)))
    return cases


def params_bytes(params):
    return [None if a is None else a.tobytes() for a in (
        params.difficulty, params.discrimination, params.abilities,
        params.class_intercepts, params.class_slopes, params.type_intercepts,
        params.type_slopes, params.lc_success)]


@pytest.mark.slow
def test_matches_plain_em_in_fewer_m_steps():
    """Same optimum on the twenty seeded desk datasets from well under
    the plain loop's M-steps.  Start 0 (the deterministic, type-symmetric
    start) may leave its saddle differently, so only its contribution to
    the multistart best is compared."""
    m_steps = {"squarem": 0, "plain": 0}
    for seed in range(N_SEEDS):
        design = desk_design(seed=1000 + seed)
        data = simulate_full(design).dataset
        controls = DESK.replace(seed=seed)
        best = {"squarem": -np.inf, "plain": -np.inf}
        for start in range(controls.n_starts):
            init = start_values(data, design.spec, controls, start)
            ours = fit(data, design.spec, controls, init)
            plain = reference.plain_em_fit(data, design.spec, controls, init)
            m_steps["squarem"] += ours.n_iter
            m_steps["plain"] += plain.n_iter
            best["squarem"] = max(best["squarem"], ours.loglik)
            best["plain"] = max(best["plain"], plain.loglik)
            if start >= 1:
                assert ours.loglik == pytest.approx(plain.loglik, abs=1e-6), \
                    f"seed {seed}, start {start}"
        assert best["squarem"] == pytest.approx(best["plain"], abs=1e-6), \
            f"seed {seed}"
    assert m_steps["squarem"] <= 0.6 * m_steps["plain"], m_steps


@pytest.mark.parametrize("offset", [50.0, np.nan],
                         ids=["low-loglik", "failing-e-step"])
def test_rejecting_every_extrapolation_is_plain_em(monkeypatch, offset):
    """With every extrapolated point rejected, the loop is plain EM, bit
    for bit: a far point scores below theta1, and a NaN one makes its
    E-step raise."""
    proposed = []

    def far_point(x0, x1, x2):
        proposed.append(x0.size)
        return x0 + offset

    monkeypatch.setattr(mlcirt.em, "_squarem_point", far_point)
    for data, spec, controls, init in small_fits():
        before = len(proposed)
        ours = fit(data, spec, controls, init)
        plain = reference.plain_em_fit(data, spec, controls, init)
        assert len(proposed) > before
        assert ours.trace == plain.trace
        assert ours.n_iter == plain.n_iter
        assert ours.converged == plain.converged
        assert params_bytes(ours.params) == params_bytes(plain.params)


def test_accepted_extrapolations_keep_the_invariants(monkeypatch):
    landed = []
    end_cycle = mlcirt.em._end_cycle

    def spy(data, spec, theta0, theta1, theta2, loglik1):
        point, loglik, posteriors = end_cycle(data, spec, theta0, theta1,
                                              theta2, loglik1)
        if point is not theta2:
            landed.append((spec, point))
        return point, loglik, posteriors

    monkeypatch.setattr(mlcirt.em, "_end_cycle", spy)
    for data, spec, controls, init in small_fits():
        before = len(landed)
        result = fit(data, spec, controls, init)
        assert len(landed) > before, "no extrapolation was accepted"
        trace = np.asarray(result.trace)
        assert np.all(np.diff(trace) >= -1e-8)
        assert result.n_iter == len(trace) - 1
        assert result.loglik == trace[-1]
        again = fit(data, spec, controls, init)
        assert again.trace == result.trace
        assert params_bytes(again.params) == params_bytes(result.params)
        if spec.parameterization is Parameterization.LC:
            assert np.all((result.params.lc_success > 0)
                          & (result.params.lc_success < 1))

    for spec, point in landed:
        if spec.parameterization is Parameterization.LC:
            assert np.all((point.lc_success > 0) & (point.lc_success < 1))
            continue
        refs = list(spec.item_bank.reference_items)
        assert np.all(point.difficulty[refs] == 0.0)
        assert np.all(point.discrimination[refs] == 1.0)
        if spec.parameterization is Parameterization.ONE_PL:
            assert np.all(point.discrimination == 1.0)


def traced_peak(fit_function, *args):
    tracemalloc.start()
    try:
        fit_function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("reject", [False, True],
                         ids=["as-is", "every-point-rejected"])
def test_peak_memory_no_higher_than_plain_em(monkeypatch, reject):
    """Consumed posterior tables, a rejected point's included, are released
    before the next E-step.  Each side fits its own dataset object over the
    same arrays, so each pays for building the answer masks."""
    if reject:
        monkeypatch.setattr(mlcirt.em, "_squarem_point",
                            lambda x0, x1, x2: x0 + 50.0)
    design = desk_design(seed=2, n_schools=1000, school_size=20)
    data = simulate_full(design).dataset
    controls = FitControls(max_iter=12, tol_loglik=1e-7)
    init = initialize(data, design.spec, seed=4)
    ours_data, plain_data = dataclasses.replace(data), dataclasses.replace(data)
    ours = traced_peak(fit, ours_data, design.spec, controls, init)
    plain = traced_peak(reference.plain_em_fit, plain_data, design.spec, controls,
                        init)
    assert ours <= 1.05 * plain, (ours, plain)
