"""EM estimator: E-step posteriors, M-step blocks, initialization, fits."""

import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import mlcirt.em
from mlcirt import (
    FitControls,
    MultistartError,
    Parameterization,
    PosteriorTables,
    ResponseDataset,
    SchoolGroup,
    e_step,
    fit,
    initialize,
    m_step,
    multistart_fit,
    permute_parameters,
    student_class_posteriors,
)
from mlcirt.model import PARAM_BLOCKS, ItemBank, ModelSpec, max_abs_change, validate_params
from mlcirt.simulate import (
    CategoricalCovariate,
    CyclicCovariate,
    SimulationDesign,
    desk_design,
    simulate_full,
)
from mlcirt.weights import log_class_weight_matrix, log_type_weight_matrix

import reference
from helpers import check_posterior_invariants, make_spec, random_dataset, \
    random_instance, random_params, single_student_dataset, stationary_m_step


QUICK = FitControls(max_iter=400, tol_loglik=1e-9, tol_param=1e-8, n_starts=1)


def params_with(spec, seed=0, **blocks):
    return random_params(spec, np.random.default_rng(seed)).replace(**blocks)


@pytest.mark.parametrize("name", ["max_iter", "n_starts", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, "3", True, False])
def test_fit_controls_reject_a_non_integer_count(name, value):
    """A fractional ``max_iter`` would never equal the trace length, so the
    cap would never hold; a bool is not a count."""
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        FitControls(**{name: value})


@pytest.mark.parametrize("name", ["tol_loglik", "tol_param"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, 0.0, -1e-8,
                                   "1e-8"])
def test_fit_controls_reject_a_tolerance_that_is_not_finite_and_positive(name,
                                                                         value):
    """An infinite tolerance stops a fit after one M-step as converged, and
    a NaN one switches its stopping rule off.  A bool or a string is not a
    number at all."""
    rule = "a number" if isinstance(value, (bool, str)) else "a finite number > 0"
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, "
                       f"got {re.escape(repr(value))}$"):
        FitControls(**{name: value})
    assert getattr(FitControls(**{name: 1}), name) == 1


def test_fit_controls_reject_a_negative_seed():
    """``np.random.SeedSequence`` takes no negative seed, and a random start
    would only meet it after the deterministic start was fitted."""
    assert FitControls(seed=0).seed == 0
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        FitControls(seed=-1)


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

class TestEStep:

    def test_single_type_posterior_is_one(self):
        rng = np.random.default_rng(0)
        spec = make_spec(n_items=3, n_classes=2, n_types=1, m_v=1, m_u=0)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=3, school_size=2)
        post = e_step(data, params, spec)
        np.testing.assert_allclose(post.type_posterior, 1.0, atol=1e-14)

    def test_uninformative_likelihood_returns_prior(self):
        """Types with identical induced distributions keep their prior."""
        rng = np.random.default_rng(1)
        spec = make_spec(n_items=3, n_classes=2, n_types=2, m_v=0, m_u=1)
        params = random_params(spec, rng)
        params = params.replace(
            class_intercepts=np.tile(params.class_intercepts[0], (2, 1)))
        data = random_dataset(spec, rng, n_schools=4, school_size=3)
        post = e_step(data, params, spec)
        prior = [reference.type_probs(params.type_intercepts, params.type_slopes, w)
                 for w in data.school_covariates]
        np.testing.assert_allclose(post.type_posterior, prior, atol=1e-12)

    def test_hand_bayes_rule(self):
        """Types inducing response probabilities 0.8 vs 0.4 on a correct
        answer at a 50/50 prior have posterior (2/3, 1/3)."""
        spec = make_spec(n_items=1, n_classes=2, n_types=2, m_v=0, m_u=0)
        logit = lambda p: math.log(p / (1 - p))
        # Type 0 pushes everyone to class 0 (p = 0.8), type 1 to class 1
        # (p = 0.4); intercepts +-40 make the class choice effectively hard.
        params = params_with(
            spec,
            difficulty=[0.0], discrimination=[1.0],
            abilities=[[logit(0.8)], [logit(0.4)]],
            class_intercepts=[[-40.0], [40.0]],
            class_slopes=np.zeros((1, 0)),
            type_intercepts=[0.0], type_slopes=np.zeros((1, 0)))
        post = e_step(single_student_dataset([1]), params, spec)
        np.testing.assert_allclose(post.type_posterior[0], [2 / 3, 1 / 3],
                                   atol=1e-9)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            spec, params, data = random_instance(rng, missing_rate=0.1)
            check_posterior_invariants(e_step(data, params, spec), data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_parameters_raise(self):
        from mlcirt import NonFiniteLikelihoodError

        rng = np.random.default_rng(99)
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=0, m_u=0)
        params = random_params(spec, rng).replace(
            class_intercepts=np.array([[np.inf]]))
        data = random_dataset(spec, rng, n_schools=2, school_size=2)
        with pytest.raises(NonFiniteLikelihoodError):
            e_step(data, params, spec)


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------

@pytest.fixture
def lstsq_calls(monkeypatch):
    """The arguments of every ``np.linalg.lstsq`` call, which still runs."""
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return calls


@pytest.fixture
def newton_blocks(monkeypatch):
    """What each M-step block hands the Newton step, which still runs, at
    the last M-step: its ``derivatives``, the start, the number of
    ``derivatives`` calls the step made and the point it returned."""
    blocks = {}
    step = mlcirt.em._newton_step

    def spy(value, derivatives, x, block):
        entry = blocks[block] = {"derivatives": derivatives, "x0": x.copy(),
                                 "calls": 0}

        def counted(y):
            entry["calls"] += 1
            return derivatives(y)

        entry["x"] = step(value, counted, x, block)
        return entry["x"]

    monkeypatch.setattr(mlcirt.em, "_newton_step", spy)
    return blocks


class TestMStep:

    def test_lc_degenerate_posteriors_give_class_means(self):
        """Hard assignments make the lc update the per-class response mean."""
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=0, m_u=0,
                         parameterization=Parameterization.LC)
        rng = np.random.default_rng(3)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=1, school_size=4)
        # Four distinct response rows, so that each student is a response
        # pattern of its own and can be given a class of its own.
        resp = np.array([[1, 1], [0, 1], [1, 0], [0, 0]], dtype=np.int8)
        data = ResponseDataset.from_schools(
            (dataclasses.replace(data.schools[0], responses=resp),))
        hard = np.zeros((4, 2))
        hard[:2, 0] = 1.0   # students 0-1 in class 0, students 2-3 in class 1
        hard[2:, 1] = 1.0
        cond = np.empty((4, 1, 2))
        cond[data.patterns.index] = hard[:, None, :]
        post = PosteriorTables(type_posterior=np.ones((1, 1)), cond_posterior=cond)
        new = m_step(data, post, params, spec)
        for v, rows in ((0, resp[:2]), (1, resp[2:])):
            np.testing.assert_allclose(
                new.lc_success[v],
                np.clip(rows.mean(axis=0), 1e-8, 1 - 1e-8), atol=1e-12)

    def test_desk_m_step_never_calls_least_squares(self, lstsq_calls):
        """Every block's information is regular on the desk design, so each
        Newton step is one LU solve."""
        from mlcirt.simulate import desk_design, simulate_full

        design = desk_design(seed=1)
        data = simulate_full(design).dataset
        for seed in (None, 1):
            params = initialize(data, design.spec, seed)
            m_step(data, e_step(data, params, design.spec), params, design.spec)
        assert lstsq_calls == []

    def test_an_m_step_is_one_newton_step_per_block(self, newton_blocks):
        """An M-step is one Newton step per block: each block's derivatives
        are evaluated exactly once."""
        from mlcirt.simulate import desk_design, simulate_full

        design = desk_design(seed=1)
        data = simulate_full(design).dataset
        for seed in (None, 1):
            params = initialize(data, design.spec, seed)
            m_step(data, e_step(data, params, design.spec), params, design.spec)
            assert {block: entry["calls"] for block, entry in newton_blocks.items()} == {
                "item-ability": 1, "class-membership": 1, "type-membership": 1}

    def test_controls_do_not_change_the_m_step(self):
        """``m_step`` accepts a fit's controls and ignores them."""
        spec = make_spec(n_items=3, n_classes=2, n_types=2, m_v=1, m_u=1)
        rng = np.random.default_rng(9)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=3, school_size=4)
        post = e_step(data, params, spec)
        np.testing.assert_array_equal(
            mlcirt.em._pack(m_step(data, post, params, spec,
                                   FitControls(max_iter=1, n_starts=1))),
            mlcirt.em._pack(m_step(data, post, params, spec)))

    def test_empty_class_takes_the_least_squares_step(self, lstsq_calls):
        """A class with no posterior mass leaves the item block's information
        singular: the step falls back to least squares, the block objective
        does not fall, and the empty class's abilities stay put."""
        spec = make_spec(n_items=4, n_classes=3, n_types=1, m_v=0, m_u=0)
        rng = np.random.default_rng(41)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=4, school_size=6)
        post = e_step(data, params, spec)
        cond = post.cond_posterior.copy()
        cond[:, :, 2] = 0.0
        cond /= cond.sum(axis=2, keepdims=True)
        post = PosteriorTables(type_posterior=post.type_posterior,
                               cond_posterior=cond)
        new = m_step(data, post, params, spec)
        assert lstsq_calls
        obj = lambda p: reference.item_block_objective_vec(
            data, post, spec, params, reference.pack_item_block(spec, p))
        assert obj(new) >= obj(params) - 1e-9
        np.testing.assert_array_equal(new.abilities[2], params.abilities[2])

    def test_fixed_point_after_convergence(self):
        """At a converged solution another M-step barely moves."""
        rng = np.random.default_rng(4)
        spec = make_spec(n_items=3, n_classes=1, n_types=1, m_v=0, m_u=0)
        data = random_dataset(spec, rng, n_schools=2, school_size=4)
        result = fit(data, spec, QUICK, initialize(data, spec))
        post = e_step(data, result.params, spec)
        again = m_step(data, post, result.params, spec)
        assert max_abs_change(result.params, again) < 1e-6

    def test_closed_form_weighted_proportions(self):
        """Without covariates and with one type, the membership block's
        maximum equals the posterior class proportions."""
        rng = np.random.default_rng(5)
        spec = make_spec(n_items=3, n_classes=3, n_types=1, m_v=0, m_u=0)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=3, school_size=4)
        post = e_step(data, params, spec)
        new = stationary_m_step(data, post, params, spec)
        expected = student_class_posteriors(data, post).mean(axis=0)
        np.testing.assert_allclose(
            reference.class_probs(new.class_intercepts, new.class_slopes,
                                  np.zeros(0), 0), expected, atol=1e-8)

    def test_never_decreases_block_objectives(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            spec, params, data = random_instance(rng)
            post = e_step(data, params, spec)
            new = m_step(data, post, params, spec)
            old_obj = reference.block_item_objective(
                data, post, spec, params.difficulty, params.discrimination,
                params.abilities, params.lc_success)
            new_obj = reference.block_item_objective(
                data, post, spec, new.difficulty, new.discrimination,
                new.abilities, new.lc_success)
            assert new_obj >= old_obj - 1e-9
            old_obj = reference.block_class_objective(
                data, post, spec, params.class_intercepts, params.class_slopes)
            new_obj = reference.block_class_objective(
                data, post, spec, new.class_intercepts, new.class_slopes)
            assert new_obj >= old_obj - 1e-9
            old_obj = reference.block_type_objective(
                data, post, spec, params.type_intercepts, params.type_slopes)
            new_obj = reference.block_type_objective(
                data, post, spec, new.type_intercepts, new.type_slopes)
            assert new_obj >= old_obj - 1e-9

    def test_blocks_match_generic_maximizer(self):
        """Each block's solution, M-steps repeated on fixed posteriors until
        they stop moving, ties scipy's optimizer on the same block."""
        rng = np.random.default_rng(7)
        spec = make_spec(n_items=3, n_classes=2, n_types=2, m_v=1, m_u=1)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=3, school_size=3)
        post = e_step(data, params, spec)
        new = stationary_m_step(data, post, params, spec)

        obj = lambda v: reference.item_block_objective_vec(data, post, spec,
                                                           params, v)
        x_new = reference.pack_item_block(spec, new)
        ours = obj(x_new)
        _, best = reference.maximize(
            obj, [reference.pack_item_block(spec, params), x_new])
        assert ours == pytest.approx(best, abs=1e-6)

        obj = lambda v: reference.class_block_objective_vec(data, post, spec, v)
        x_new = np.concatenate([new.class_intercepts.reshape(-1),
                                new.class_slopes.reshape(-1)])
        x_old = np.concatenate([params.class_intercepts.reshape(-1),
                                params.class_slopes.reshape(-1)])
        ours = obj(x_new)
        _, best = reference.maximize(obj, [x_old, x_new])
        assert ours == pytest.approx(best, abs=1e-6)

        obj = lambda v: reference.type_block_objective_vec(data, post, spec, v)
        x_new = np.concatenate([new.type_intercepts,
                                new.type_slopes.reshape(-1)])
        ours = obj(x_new)
        _, best = reference.maximize(obj, [np.concatenate(
            [params.type_intercepts, params.type_slopes.reshape(-1)]), x_new])
        assert ours == pytest.approx(best, abs=1e-6)

    def test_gradient_vanishes_at_block_solutions(self):
        """Central finite differences at the block solutions, M-steps
        repeated on fixed posteriors until they stop moving, are < 1e-4."""
        rng = np.random.default_rng(8)
        spec = make_spec(n_items=3, n_classes=2, n_types=2, m_v=1, m_u=1)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=2, school_size=3)
        post = e_step(data, params, spec)
        new = stationary_m_step(data, post, params, spec)
        grad = reference.finite_difference_gradient(
            lambda v: reference.item_block_objective_vec(data, post, spec,
                                                         params, v),
            reference.pack_item_block(spec, new))
        assert np.max(np.abs(grad)) < 1e-4
        grad = reference.finite_difference_gradient(
            lambda v: reference.class_block_objective_vec(data, post, spec, v),
            np.concatenate([new.class_intercepts.reshape(-1),
                            new.class_slopes.reshape(-1)]))
        assert np.max(np.abs(grad)) < 1e-4
        grad = reference.finite_difference_gradient(
            lambda v: reference.type_block_objective_vec(data, post, spec, v),
            np.concatenate([new.type_intercepts, new.type_slopes.reshape(-1)]))
        assert np.max(np.abs(grad)) < 1e-4


def _item_unknowns(spec, params):
    """The item block's unknowns at ``params``, in the order of the Newton
    step: free slopes (2PL only), free intercepts, abilities."""
    free = ~spec.item_bank.is_reference
    slopes = params.discrimination[free]
    return np.concatenate([
        slopes if spec.parameterization is Parameterization.TWO_PL else [],
        -slopes * params.difficulty[free], params.abilities.reshape(-1)])


def _item_parts(spec, params, x):
    """The (r,) slopes and intercepts and the (k_V, D) abilities at the
    item-block unknowns ``x``; fixed entries are taken from ``params``."""
    free = np.flatnonzero(~spec.item_bank.is_reference)
    n_slope = free.size if spec.parameterization is Parameterization.TWO_PL else 0
    slope = params.discrimination.copy()
    slope[free[:n_slope]] = x[:n_slope]
    inter = -params.discrimination * params.difficulty
    inter[free] = x[n_slope:n_slope + free.size]
    return slope, inter, x[n_slope + free.size:].reshape(params.abilities.shape)


def _item_logits(spec, params, x):
    """(k_V, r) response logits at the item-block unknowns ``x``."""
    slope, inter, abilities = _item_parts(spec, params, x)
    return slope * abilities[:, spec.item_bank.dim_index] + inter


def _item_objective(data, post, spec, params):
    """``reference.item_block_objective_vec`` as a function of the Newton
    step's unknowns, each difficulty being -intercept / slope."""
    free = ~spec.item_bank.is_reference
    two_pl = spec.parameterization is Parameterization.TWO_PL

    def objective(x):
        slope, inter, abilities = _item_parts(spec, params, x)
        return reference.item_block_objective_vec(
            data, post, spec, params,
            np.concatenate([-inter[free] / slope[free],
                            slope[free] if two_pl else [], abilities.reshape(-1)]))

    return objective


def _second_differences(objective, x, step=1e-4):
    """Central second differences of ``objective`` at ``x``."""
    n, e = x.size, np.eye(x.size) * step
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            hess[i, j] = hess[j, i] = (
                objective(x + e[i] + e[j]) - objective(x + e[i] - e[j])
                - objective(x - e[i] + e[j]) + objective(x - e[i] - e[j])) / (4 * step**2)
    return hess


def _fisher_information(data, post, spec, params, x, step=1e-4):
    """J'diag(total p (1-p))J, with J the Jacobian of the response logits
    in the unknowns: exact by central differences, the logits being
    bilinear."""
    _, total = mlcirt.em._answer_counts(data.patterns,
                                        mlcirt.em._pattern_mass(data, post))
    e = np.eye(x.size) * step
    jac = np.stack([(_item_logits(spec, params, x + e[k])
                     - _item_logits(spec, params, x - e[k])).reshape(-1) / (2 * step)
                    for k in range(x.size)], axis=1)
    p = 1.0 / (1.0 + np.exp(-_item_logits(spec, params, x).reshape(-1)))
    return jac.T @ ((total.reshape(-1) * p * (1.0 - p))[:, None] * jac)


def _item_case(parameterization):
    """A small two-dimensional instance with one type, its posteriors, and
    its item-block objective in the Newton step's unknowns."""
    spec = make_spec(dim_of=[0, 0, 1, 1], n_classes=3, n_types=1, m_v=0, m_u=0,
                     parameterization=parameterization)
    rng = np.random.default_rng(0)
    params = random_params(spec, rng)
    data = random_dataset(spec, rng, n_schools=4, school_size=6)
    post = e_step(data, params, spec)
    return spec, params, data, post, _item_objective(data, post, spec, params)


class TestItemInformation:
    """The item block's Newton step uses the observed information, the
    exact negative Hessian of the block objective, where it is positive
    definite, and the Fisher information elsewhere."""

    @pytest.mark.parametrize("parameterization", [Parameterization.TWO_PL,
                                                  Parameterization.ONE_PL])
    def test_positive_definite_information_is_the_negative_hessian(
            self, parameterization, newton_blocks):
        """At the block maximum the observed information is positive
        definite, and it equals minus the second differences of the
        reference objective; under 2PL it is not the Fisher information,
        under 1PL it is."""
        spec, params, data, post, objective = _item_case(parameterization)
        top = stationary_m_step(data, post, params, spec)
        x = _item_unknowns(spec, top)
        np.testing.assert_allclose(x, newton_blocks["item-ability"]["x"],
                                   rtol=1e-12, atol=1e-12)
        _, info = newton_blocks["item-ability"]["derivatives"](x)
        hessian = _second_differences(objective, x)
        assert np.linalg.eigvalsh(-hessian).min() > 1e-3
        np.testing.assert_allclose(info, -hessian, atol=2e-5)
        fisher = _fisher_information(data, post, spec, params, x)
        if parameterization is Parameterization.TWO_PL:
            assert np.max(np.abs(info - fisher)) > 1e-2
        else:
            np.testing.assert_allclose(info, fisher, atol=1e-6)

    def test_indefinite_information_falls_back_to_fisher(self, newton_blocks):
        """At a random start the observed information has a negative
        eigenvalue: the step solves the Fisher system instead, and the
        block objective does not fall."""
        spec, params, data, post, objective = _item_case(Parameterization.TWO_PL)
        new = m_step(data, post, params, spec)
        block = newton_blocks["item-ability"]
        x0 = _item_unknowns(spec, params)
        np.testing.assert_array_equal(block["x0"], x0)
        assert np.linalg.eigvalsh(-_second_differences(objective, x0)).min() < -0.1
        grad, info = block["derivatives"](x0)
        fisher = _fisher_information(data, post, spec, params, x0)
        np.testing.assert_allclose(info, fisher, atol=1e-6)
        step = _item_unknowns(spec, new) - x0
        direction = np.linalg.solve(info, grad)
        t = step @ direction / (direction @ direction)
        assert t > 0
        np.testing.assert_allclose(step, t * direction, atol=1e-9)
        assert objective(_item_unknowns(spec, new)) >= objective(x0) - 1e-9


class TestDampedNewton:
    """The damped Newton step that every M-step block takes."""

    def test_returns_start_when_no_step_ascends(self):
        """At the top of a concave quadratic every halving of the step
        lowers the objective, so the step stays where it started."""
        center = np.array([0.5, -1.0])
        values, steps = [], []

        def value(x):
            values.append(x)
            return -float(((x - center) ** 2).sum())

        def derivatives(x):
            steps.append(x)
            return np.array([1e6, -1e6]), np.eye(2)

        out = mlcirt.em._newton_step(value, derivatives, center.copy(),
                                     "item-ability")
        np.testing.assert_array_equal(out, center)
        assert len(steps) == 1
        assert len(values) == 1 + mlcirt.em._MAX_HALVINGS + 1

    @pytest.mark.parametrize("block", ["item-ability", "class-membership",
                                       "type-membership"])
    def test_non_finite_candidates_raise_with_block_name(self, block):
        """Every candidate is -inf or NaN: MStepError names the block."""
        calls = []

        def value(x):
            calls.append(x)
            if len(calls) == 1:
                return -3.0
            return -np.inf if len(calls) % 2 else np.nan

        with pytest.raises(mlcirt.em.MStepError) as err:
            mlcirt.em._newton_step(value, lambda x: (np.ones(3), np.eye(3)),
                                   np.zeros(3), block)
        assert err.value.block == block
        assert str(err.value).startswith(f"[{block}] non-finite objective")
        assert len(calls) == 1 + mlcirt.em._MAX_HALVINGS + 1

    def test_steps_solve_the_information_system(self):
        """On a concave quadratic with Hessian -A the full step lands on the
        maximum, and a matrix-shaped unknown keeps its shape."""
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        top = np.array([[1.0, -2.0]])

        def value(x):
            d = (x - top).reshape(-1)
            return -0.5 * float(d @ a @ d)

        out = mlcirt.em._newton_step(
            value, lambda x: (-a @ (x - top).reshape(-1), a), np.zeros((1, 2)),
            "class-membership")
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out, top, atol=1e-12)

    def test_singular_information_takes_the_minimum_norm_step(self, lstsq_calls):
        """An unknown the objective ignores gives the information a zero row
        and column: LU reports it singular, and the least-squares step
        leaves that unknown where it was."""
        out = mlcirt.em._newton_step(
            lambda x: -float((x[0] - 3.0) ** 2),
            lambda x: (np.array([-2.0 * (x[0] - 3.0), 0.0]), np.diag([2.0, 0.0])),
            np.array([0.0, 7.0]), "item-ability")
        np.testing.assert_allclose(out, [3.0, 7.0], atol=1e-12)
        assert out[1] == 7.0
        assert lstsq_calls


def _pattern_dataset(n_schools, school_size, n_patterns, rng):
    """One-item schools whose student covariate cycles through n_patterns."""
    schools = []
    for h in range(n_schools):
        first = h * school_size
        x = (np.arange(first, first + school_size) % n_patterns) / n_patterns
        schools.append(SchoolGroup(
            school_id=f"s{h}", covariates=np.zeros(0),
            student_ids=tuple(f"s{h}-i{i}" for i in range(school_size)),
            student_covariates=x[:, None],
            responses=rng.integers(0, 2, size=(school_size, 1)).astype(np.int8)))
    return ResponseDataset.from_schools(schools)


def _mnlogit_optimum(design, weights, coef, n_steps=100):
    """The class-membership regression's maximum: its Newton step, repeated."""
    for _ in range(n_steps):
        coef = mlcirt.em._mnlogit_step(design, weights, coef, "class-membership")
    return coef


class TestClassBlockCases:

    def test_pattern_aggregate_equals_per_student_sum(self):
        rng = np.random.default_rng(31)
        data = _pattern_dataset(30, 20, 37, rng)
        z_joint = rng.dirichlet(np.ones(6), size=data.n_students).reshape(-1, 2, 3)
        design, weights = mlcirt.em._class_block_cases(
            data.x_patterns, data.x_pattern_index, z_joint, 2)

        n_pat = data.x_patterns.shape[0]
        expected = np.zeros((2, n_pat, 3))
        for i, p in enumerate(data.x_pattern_index):
            expected[:, p, :] += z_joint[i]
        np.testing.assert_array_equal(weights, expected.reshape(2 * n_pat, 3))
        np.testing.assert_array_equal(
            design, mlcirt.weights.class_design(data.x_patterns, 2))

    def test_class_design_rows_are_type_major(self):
        x = np.array([[0.5, -1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(mlcirt.weights.class_design(x, 3), [
            [1, 0, 0, 0.5, -1.0], [1, 0, 0, 2.0, 3.0],
            [0, 1, 0, 0.5, -1.0], [0, 1, 0, 2.0, 3.0],
            [0, 0, 1, 0.5, -1.0], [0, 0, 1, 2.0, 3.0]])
        assert mlcirt.weights.class_design(np.zeros((2, 0)), 3).shape == (6, 3)

    @pytest.mark.parametrize("n_patterns", [400, 1200])
    def test_merged_cases_match_per_student_cases(self, n_patterns):
        """1,200 students with 400 distinct covariate rows, or all distinct:
        one case per (type, pattern), and the same objective and optimum as
        one case per (type, student)."""
        rng = np.random.default_rng(33)
        data = _pattern_dataset(60, 20, n_patterns, rng)
        n_pat = np.unique(data.student_covariates, axis=0).shape[0]
        assert (data.n_students, n_pat) == (1200, n_patterns)
        z_joint = rng.dirichlet(np.ones(6), size=data.n_students).reshape(-1, 2, 3)
        merged = mlcirt.em._class_block_cases(data.x_patterns, data.x_pattern_index,
                                              z_joint, 2)
        per_student = reference.per_student_class_block_cases(
            data.student_covariates, z_joint, 2)
        assert merged[0].shape[0] == merged[1].shape[0] == 2 * n_pat

        for coef in rng.normal(size=(5, 2, 3)):
            values = [(w * mlcirt.weights.log_mnlogit(d, coef)).sum()
                      for d, w in (merged, per_student)]
            np.testing.assert_allclose(values[0], values[1], rtol=1e-12)
        optima = [_mnlogit_optimum(d, w, np.zeros((2, 3)))
                  for d, w in (merged, per_student)]
        np.testing.assert_allclose(optima[0], optima[1], rtol=0, atol=1e-8)

    def test_membership_derivatives_match_the_blockwise_sums(self, monkeypatch):
        """The gradient and the information the class-membership block hands
        the Newton step equal the case-by-case, block-by-block sums."""
        seen = []
        monkeypatch.setattr(mlcirt.em, "_newton_step",
                            lambda value, derivatives, x, block:
                            seen.append(derivatives(x)) or x)
        rng = np.random.default_rng(34)
        for n_cat, n_feat in ((2, 1), (3, 2), (5, 4)):
            design = rng.normal(size=(30, n_feat))
            weights = rng.dirichlet(np.ones(n_cat), size=30) * rng.uniform(0, 3, (30, 1))
            coef = rng.normal(size=(n_cat - 1, n_feat))
            mlcirt.em._mnlogit_step(design, weights, coef, "class-membership")
            for ours, ref in zip(seen.pop(), reference.mnlogit_derivatives(
                    design, weights, coef)):
                np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)

    def test_membership_objectives_are_the_e_step_log_weights(self, monkeypatch):
        """Each membership block hands the Newton step the objective that the
        E-step's log weights give, bit for bit: case weights times
        ``log_class_weight_matrix`` (cases type-major, as
        ``_class_block_cases`` lays them out) or ``log_type_weight_matrix``.
        The student covariate is not binary and the school covariate has
        three levels, so a second statement of the logits would differ in
        the last bits."""
        seen = {}
        monkeypatch.setattr(mlcirt.em, "_newton_step",
                            lambda value, derivatives, x, block:
                            seen.update({block: value(x)}) or x)
        spec = make_spec(n_items=4, n_classes=3, n_types=3, m_v=1, m_u=2)
        design = SimulationDesign(
            spec=spec, truth=random_params(spec, np.random.default_rng(35)),
            n_schools=40, school_size=(3, 8),
            student_covariates=(CyclicCovariate((-1.3, -0.45, 0.2, 0.85, 1.7)),),
            school_covariates=(CategoricalCovariate((0.3, 0.3, 0.4)),), seed=35)
        data = simulate_full(design).dataset
        params = random_params(spec, np.random.default_rng(36))
        post = e_step(data, params, spec)
        m_step(data, post, params, spec)

        _, weights = mlcirt.em._class_block_cases(
            data.x_patterns, data.patterns.x_index,
            mlcirt.em._pattern_mass(data, post), spec.n_types)
        log_w = log_class_weight_matrix(data.x_patterns, params)
        assert seen["class-membership"] == float(
            (weights * log_w.transpose(1, 0, 2).reshape(weights.shape)).sum())
        assert seen["type-membership"] == float(
            (post.type_posterior
             * log_type_weight_matrix(data.school_covariates, params)).sum())

    def test_pattern_aggregate_allocates_no_student_by_pattern_array(self):
        rng = np.random.default_rng(32)
        data = _pattern_dataset(500, 40, 200, rng)
        n, n_pat = data.n_students, data.x_patterns.shape[0]
        assert (n, n_pat) == (20_000, 200)
        z_joint = rng.dirichlet(np.ones(6), size=n).reshape(n, 2, 3)
        tracemalloc.start()
        try:
            mlcirt.em._class_block_cases(data.x_patterns, data.x_pattern_index,
                                         z_joint, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An (n, P) float64 one-hot alone would take 8 * n * P = 32 MB.
        assert peak < 2_000_000, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

class TestInitialize:

    def make_data(self, patterns):
        spec = make_spec(n_items=len(patterns[0]), n_classes=3, n_types=1,
                         m_v=0, m_u=0)
        rng = np.random.default_rng(0)
        data = random_dataset(spec, rng, n_schools=1, school_size=len(patterns))
        responses = np.asarray(patterns, dtype=np.int8)
        school = data.schools[0].__class__(
            school_id="s0", covariates=np.zeros(0),
            student_ids=data.schools[0].student_ids,
            student_covariates=np.zeros((len(patterns), 0)),
            responses=responses)
        return spec, ResponseDataset.from_schools((school,))

    def test_half_correct_item_has_zero_raw_difficulty(self):
        """An item answered correctly by 50% sits at the reference difficulty."""
        spec, data = self.make_data([[1, 1], [0, 1], [1, 0], [0, 0]])
        params = initialize(data, spec)
        # both items at 50%: anchored difficulties are all zero
        np.testing.assert_allclose(params.difficulty, [0.0, 0.0], atol=1e-12)

    def test_difficulty_reflects_item_logits(self):
        spec, data = self.make_data([[1, 1], [1, 1], [1, 0], [1, 0]])
        params = initialize(data, spec)
        # item 0 at 100% clamps to -5; item 1 at 50% has raw 0; anchoring
        # subtracts the reference item's raw value.
        assert params.difficulty[0] == 0.0
        assert params.difficulty[1] == pytest.approx(5.0)

    def test_ability_grid(self):
        spec, data = self.make_data([[1, 0], [0, 1]])
        params = initialize(data, spec)
        np.testing.assert_allclose(params.abilities[:, 0], [-1.5, 0.0, 1.5])

    def test_same_seed_same_params(self):
        rng = np.random.default_rng(9)
        spec, params, data = random_instance(rng)
        a = initialize(data, spec, seed=123)
        b = initialize(data, spec, seed=123)
        assert max_abs_change(a, b) == 0.0
        c = initialize(data, spec, seed=124)
        assert max_abs_change(a, c) > 0.0

    # SHA-256 of every start block's bytes, recorded from the code that
    # wrote one start path per (deterministic or random) x (lc or IRT)
    # case.  A start that moves by one bit, or turns a -0.0 into 0.0,
    # changes its digest.
    START_DIGESTS = {
        ("2pl", None):
            "8c9eedd0fe98c563ad18ed957fc89bf967c91fd1e0a3c4f71428ca1b29e8ad00",
        ("2pl", 5):
            "aa1968dd6c4d1dc419d27c6bf2767a69ad7494aa0ca6c061b59ad54722aab395",
        ("1pl", None):
            "8c9eedd0fe98c563ad18ed957fc89bf967c91fd1e0a3c4f71428ca1b29e8ad00",
        ("1pl", 5):
            "aa1968dd6c4d1dc419d27c6bf2767a69ad7494aa0ca6c061b59ad54722aab395",
        ("lc", None):
            "59765827762e11308cdd45dfe1294ee9302224d5f83a1bf8477879bffdf363a5",
        ("lc", 5):
            "a80329395dd2fdbfca00543be7ecefe9825824dfedeb613d9829525f64000680",
    }

    @pytest.mark.parametrize("parameterization, seed", list(START_DIGESTS))
    def test_start_values_are_pinned(self, parameterization, seed):
        """Two dimensions whose reference items are not their first; items
        2 (the reference of dimension 1) and 6 are right exactly half the
        time, so their raw item logit is -0.0."""
        bank = ItemBank.from_dim_of([0, 0, 0, 1, 1, 1, 1], reference_items=[1, 4])
        spec = ModelSpec(bank, n_classes=3, n_types=3,
                         parameterization=Parameterization(parameterization),
                         n_student_covariates=1, n_school_covariates=1)
        data = random_dataset(spec, np.random.default_rng(24), n_schools=6,
                              school_size=5, missing_rate=0.1)
        raw = reference.initial_item_logits(data)
        assert np.signbit(raw[[1, 5]]).all() and not raw[[1, 5]].any()
        start = initialize(data, spec, seed)
        digest = hashlib.sha256()
        for name in PARAM_BLOCKS:
            block = getattr(start, name)
            digest.update(name.encode() + (b"-" if block is None else block.tobytes()))
        assert digest.hexdigest() == self.START_DIGESTS[parameterization, seed]


# ---------------------------------------------------------------------------
# fit / multistart_fit
# ---------------------------------------------------------------------------

class TestFit:

    def test_degenerate_model_reaches_independence_maximum(self):
        """k_V = k_U = 1 converges to the saturated per-item Bernoulli fit."""
        rng = np.random.default_rng(11)
        spec = make_spec(n_items=4, n_classes=1, n_types=1, m_v=0, m_u=0,
                         parameterization=Parameterization.ONE_PL)
        data = random_dataset(spec, rng, n_schools=3, school_size=10)
        tight = FitControls(max_iter=2000, tol_loglik=1e-13, tol_param=1e-10,
                            n_starts=1)
        result = fit(data, spec, tight, initialize(data, spec))
        ceiling = reference.independence_model_max_loglik(data)
        assert result.loglik == pytest.approx(ceiling, abs=1e-6)
        # fitted difficulties reproduce the observed item logits relative
        # to the reference item
        phat = data.responses.mean(axis=0)
        raw = -np.log(phat / (1 - phat))
        np.testing.assert_allclose(result.params.difficulty, raw - raw[0],
                                   atol=1e-6)
        # and the same ceiling under the 2PL parameterization
        spec2 = spec.replace(parameterization=Parameterization.TWO_PL)
        result2 = fit(data, spec2, tight, initialize(data, spec2))
        assert result2.loglik == pytest.approx(ceiling, abs=1e-6)

    def test_trace_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            spec, params, data = random_instance(rng, max_schools=3,
                                                 max_students=4)
            result = fit(data, spec, QUICK, initialize(data, spec))
            trace = np.asarray(result.trace)
            assert np.all(np.diff(trace) >= -1e-8)
            assert result.loglik == trace[-1]

    def test_nonconvergence_flagged_not_raised(self):
        rng = np.random.default_rng(13)
        spec = make_spec(n_items=3, n_classes=2, n_types=2)
        data = random_dataset(spec, rng, n_schools=4, school_size=4)
        controls = FitControls(max_iter=1, tol_loglik=1e-14, tol_param=1e-14,
                               n_starts=1)
        result = fit(data, spec, controls, initialize(data, spec))
        assert result.converged is False
        assert result.n_iter == 1

    def test_label_permutation_of_init_preserves_loglik(self):
        """Permuting the initial class order only relabels the solution."""
        rng = np.random.default_rng(14)
        spec = make_spec(n_items=4, n_classes=3, n_types=1, m_v=0, m_u=0)
        data = random_dataset(spec, rng, n_schools=3, school_size=8)
        controls = FitControls(max_iter=250, tol_loglik=1e-8, n_starts=1)
        init = initialize(data, spec, seed=7)
        base = fit(data, spec, controls, init)
        perm = np.array([2, 0, 1])
        permuted_init = permute_parameters(init, spec, perm, np.array([0]))
        other = fit(data, spec, controls, permuted_init)
        assert other.loglik == pytest.approx(base.loglik, abs=1e-6)

    def test_rasch_nested_in_2pl(self):
        rng = np.random.default_rng(15)
        spec = make_spec(n_items=4, n_classes=2, n_types=1, m_v=0, m_u=0)
        data = random_dataset(spec, rng, n_schools=3, school_size=8)
        controls = FitControls(max_iter=500, tol_loglik=1e-9, n_starts=4, seed=3)
        two = multistart_fit(data, spec, controls)
        one = multistart_fit(
            data, spec.replace(parameterization=Parameterization.ONE_PL),
            controls)
        assert one.loglik <= two.loglik + 1e-6

    def test_empty_type_categories_fit_without_warnings(self):
        """More school types than 4 schools can fill: the empty types'
        coefficients run away, and trial steps that overflow score -inf
        instead of leaking numpy warnings."""
        for n_types in (4, 5, 6):
            spec = make_spec(n_items=3, n_classes=2, n_types=n_types)
            data = random_dataset(spec, np.random.default_rng(0), n_schools=4,
                                  school_size=5)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = multistart_fit(data, spec, FitControls(n_starts=3))
            assert np.isfinite(result.loglik)

    def test_invalid_inputs_rejected(self):
        """Parameters or a dataset that do not fit the spec are rejected
        before any step, with every problem on one line."""
        rng = np.random.default_rng(16)
        spec = make_spec(n_items=3, n_classes=2, n_types=1)
        data = random_dataset(spec, rng, n_schools=2, school_size=2)
        three_classes = initialize(data, spec.replace(n_classes=3))
        with pytest.raises(ValueError, match="^invalid fit inputs: abilities has "
                                             r"shape \(3, 1\), expected \(2, 1\); "):
            fit(data, spec, QUICK, three_classes)
        narrow = random_dataset(spec.replace(n_student_covariates=0), rng,
                                n_schools=2, school_size=2)
        with pytest.raises(ValueError, match="^invalid fit inputs: student "
                                             "covariates have 0 columns, expected 1$"):
            multistart_fit(narrow, spec, QUICK)


    def test_tol_param_can_end_a_fit_before_tol_loglik(self):
        """On 100,000 students the log-likelihood still moves by 3.5e-8 when
        no parameter moves by 1e-6 any more: the default ``tol_param`` ends
        the fit three M-steps before ``tol_loglik`` would."""
        design = desk_design(4, n_schools=5000)
        data = simulate_full(design).dataset
        init = initialize(data, design.spec)
        default = fit(data, design.spec, FitControls(), init)
        assert default.converged
        assert abs(default.trace[-1] - default.trace[-2]) >= FitControls().tol_loglik
        by_loglik = fit(data, design.spec, FitControls(tol_param=1e-300), init)
        assert (default.n_iter, by_loglik.n_iter) == (24, 27)


class TestReferencePin:
    """The scale is pinned by construction: no step moves a reference item,
    so every fit returns them at difficulty +0.0 and discrimination 1.0."""

    @staticmethod
    def assert_pinned(params, spec):
        refs = list(spec.item_bank.reference_items)
        assert np.all(params.difficulty[refs] == 0.0)
        assert not np.any(np.signbit(params.difficulty[refs]))
        assert np.all(params.discrimination[refs] == 1.0)
        assert validate_params(params, spec) == []

    @pytest.mark.parametrize("dim_of", [[0, 0, 0, 0], [0, 0, 1, 1, 1]],
                             ids=["one-dim", "two-dims"])
    @pytest.mark.parametrize("parameterization",
                             [Parameterization.TWO_PL, Parameterization.ONE_PL])
    def test_fits_return_the_reference_items_pinned(self, parameterization, dim_of):
        rng = np.random.default_rng(len(dim_of))
        for _ in range(3):
            spec = make_spec(dim_of=dim_of, n_classes=int(rng.integers(1, 4)),
                             n_types=int(rng.integers(1, 3)),
                             parameterization=parameterization)
            data = random_dataset(spec, rng, n_schools=4, school_size=(2, 6),
                                  missing_rate=0.1)
            for seed in (None, int(rng.integers(1000))):
                self.assert_pinned(fit(data, spec, QUICK,
                                       initialize(data, spec, seed)).params, spec)
            self.assert_pinned(multistart_fit(data, spec, QUICK.replace(
                n_starts=3, seed=int(rng.integers(1000)))).params, spec)


class TestMultistart:

    def test_single_start_equals_deterministic_fit(self):
        rng = np.random.default_rng(17)
        spec, params, data = random_instance(rng, max_schools=3, max_students=4)
        controls = FitControls(max_iter=200, n_starts=1, seed=0)
        a = multistart_fit(data, spec, controls)
        b = fit(data, spec, controls, initialize(data, spec))
        assert a.loglik == b.loglik
        assert a.start_index == 0

    def test_tied_starts_keep_first(self, monkeypatch):
        """Every start is the deterministic one, so the short runs tie and
        start 0 leads: the result is its short run continued."""
        rng = np.random.default_rng(18)
        spec = make_spec(n_items=3, n_classes=2, n_types=2, m_v=0, m_u=0)
        data = random_dataset(spec, rng, n_schools=4, school_size=10)
        controls = FitControls(max_iter=500, n_starts=3, seed=4)
        deterministic = mlcirt.em.initialize
        monkeypatch.setattr(mlcirt.em, "initialize",
                            lambda data, spec, seed=None: deterministic(data, spec))
        result = multistart_fit(data, spec, controls)
        short = fit(data, spec, controls.replace(tol_loglik=mlcirt.em._SHORT_TOL),
                    deterministic(data, spec))
        assert result.start_index == 0
        assert result.trace[:len(short.trace)] == short.trace

    def test_multistart_never_worse_than_single(self):
        rng = np.random.default_rng(19)
        spec = make_spec(n_items=4, n_classes=3, n_types=2, m_v=0, m_u=0)
        data = random_dataset(spec, rng, n_schools=4, school_size=6)
        controls = FitControls(max_iter=120, tol_loglik=1e-7, n_starts=1)
        single = fit(data, spec, controls, initialize(data, spec))
        best = multistart_fit(data, spec,
                              controls.replace(n_starts=5, seed=5))
        assert best.loglik >= single.loglik - 1e-8

    @pytest.mark.parametrize("parameterization, n_iter, start_index, loglik", [
        (Parameterization.TWO_PL, 28, 1, -33433.254837312415),
        (Parameterization.ONE_PL, 24, 1, -33638.14871441343),
        (Parameterization.LC, 26, 1, -33426.13090874571),
    ])
    def test_desk_fit_is_pinned(self, parameterization, n_iter, start_index,
                                loglik):
        """Two starts on the seed-1 desk data land on these M-step counts,
        winning starts and log-likelihoods: a refactor that keeps the
        estimator's arithmetic keeps them."""
        from mlcirt.simulate import desk_design, simulate_full

        design = desk_design(1)
        data = simulate_full(design).dataset
        spec = design.spec.replace(parameterization=parameterization)
        result = multistart_fit(data, spec, FitControls(n_starts=2, seed=1))
        assert (result.n_iter, result.start_index, len(result.trace)) == (
            n_iter, start_index, n_iter + 1)
        assert result.loglik == pytest.approx(loglik, rel=0, abs=1e-9)

    def test_fit_with_a_non_binary_covariate_is_pinned(self):
        """The desk fit with a seven-valued student covariate in place of the
        binary one: its logits are inexact sums, so a change to how they are
        computed shows in these counts and this log-likelihood."""
        design = dataclasses.replace(
            desk_design(1),
            student_covariates=(CyclicCovariate(tuple(np.linspace(-1.5, 1.5, 7))),))
        data = simulate_full(design).dataset
        result = multistart_fit(data, design.spec, FitControls(n_starts=2, seed=1))
        assert (result.n_iter, result.start_index, len(result.trace)) == (
            30, 1, 31)
        assert result.loglik == pytest.approx(-33298.46747059273, rel=0, abs=1e-9)

    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_unanchored_reference_item_warns_once(self, parameterization):
        """The reference item of dimension 2 answered right by every student
        who answered it: one UserWarning names it under 2pl and 1pl; lc has
        no reference items and warns of none."""
        spec = make_spec(dim_of=[0, 0, 1, 1], n_classes=2, n_types=1, m_v=0,
                         m_u=0, parameterization=parameterization)
        data = random_dataset(spec, np.random.default_rng(21), n_schools=3,
                              school_size=6, missing_rate=0.1)
        schools = []
        for school in data.schools:
            y = school.responses.copy()
            y[y[:, 2] == 0, 2] = 1
            schools.append(dataclasses.replace(school, responses=y))
        data = ResponseDataset.from_schools(schools)
        controls = FitControls(max_iter=20, n_starts=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            multistart_fit(data, spec, controls)
        messages = [str(w.message) for w in caught]
        if parameterization is Parameterization.LC:
            assert messages == []
        else:
            assert [w.category for w in caught] == [UserWarning]
            assert messages == [
                "reference item 3 of dimension 2 has no wrong answer, so the "
                "abilities and difficulties of its dimension have no finite "
                "estimate"]

    def test_all_starts_failed(self, monkeypatch):
        rng = np.random.default_rng(20)
        spec, params, data = random_instance(rng)

        def boom(*args, **kwargs):
            raise mlcirt.em.MStepError("class-membership", "synthetic failure")

        monkeypatch.setattr(mlcirt.em, "fit", boom)
        with pytest.raises(MultistartError) as excinfo:
            multistart_fit(data, spec, FitControls(max_iter=10, n_starts=3))
        assert len(excinfo.value.failures) == 3

    def test_failed_continuation_hands_over_to_the_next_ranked_start(self, monkeypatch):
        """The leader's continuation raises: the next-ranked short run
        continues and wins, and its trace starts with its short run."""
        spec = make_spec(n_items=4, n_classes=3, n_types=2, m_v=0, m_u=0)
        data = random_dataset(spec, np.random.default_rng(19), n_schools=4,
                              school_size=6)
        controls = FitControls(max_iter=200, n_starts=4, seed=5)
        shorts, continued, real_fit = [], [], mlcirt.em.fit

        def flaky(data, spec, run_controls, init):
            if run_controls.tol_loglik == mlcirt.em._SHORT_TOL:
                shorts.append(real_fit(data, spec, run_controls, init))
                return shorts[-1]
            continued.append(next(s for s in shorts if s.params is init))
            if len(continued) == 1:
                raise mlcirt.em.MStepError("item-ability", "synthetic failure")
            return real_fit(data, spec, run_controls, init)

        monkeypatch.setattr(mlcirt.em, "fit", flaky)
        result = multistart_fit(data, spec, controls)
        ranked = sorted(range(4), key=lambda i: -shorts[i].loglik)
        assert len(continued) == 2
        assert [shorts.index(s) for s in continued] == ranked[:2]
        assert result.start_index == ranked[1]
        assert result.trace[:len(continued[1].trace)] == continued[1].trace
        assert result.n_iter == len(result.trace) - 1

    def test_every_start_failing_raises_with_each_failure(self, monkeypatch):
        """Start 1 fails in its short run and every continuation fails:
        no start finishes, and the error lists each start once."""
        spec = make_spec(n_items=4, n_classes=2, n_types=2, m_v=0, m_u=0)
        data = random_dataset(spec, np.random.default_rng(20), n_schools=4,
                              school_size=6)
        real_fit, calls = mlcirt.em.fit, []

        def flaky(data, spec, run_controls, init):
            calls.append(run_controls.tol_loglik)
            if run_controls.tol_loglik != mlcirt.em._SHORT_TOL or len(calls) == 2:
                raise mlcirt.em.MStepError("type-membership", "synthetic failure")
            return real_fit(data, spec, run_controls, init)

        monkeypatch.setattr(mlcirt.em, "fit", flaky)
        with pytest.raises(MultistartError) as excinfo:
            multistart_fit(data, spec, FitControls(max_iter=50, n_starts=3))
        starts = sorted(int(f.split(":")[0].split()[1]) for f in excinfo.value.failures)
        assert starts == [0, 1, 2]
        assert excinfo.value.failures[0].startswith("start 1: [type-membership]")

    def test_max_iter_caps_both_phases_together(self, monkeypatch):
        """The leader continues with the M-steps it has left of ``max_iter``,
        and a leader whose short run used them all up is final."""
        spec = make_spec(n_items=4, n_classes=2, n_types=2, m_v=0, m_u=0)
        data = random_dataset(spec, np.random.default_rng(21), n_schools=4,
                              school_size=6)
        runs, real_fit = [], mlcirt.em.fit

        def spy(data, spec, run_controls, init):
            runs.append((run_controls.max_iter, real_fit(data, spec, run_controls, init)))
            return runs[-1][1]

        monkeypatch.setattr(mlcirt.em, "fit", spy)
        for max_iter, n_runs in ((2, 3), (40, 4)):
            runs.clear()
            result = multistart_fit(data, spec,
                                    FitControls(max_iter=max_iter, n_starts=3, seed=2))
            assert result.n_iter == len(result.trace) - 1 <= max_iter
            assert [cap for cap, _ in runs[:3]] == [max_iter] * 3
            assert len(runs) == n_runs
        short = runs[result.start_index][1]
        assert runs[3][0] == 40 - short.n_iter

    @pytest.mark.slow
    def test_reaches_the_full_multistart_in_fewer_m_steps(self, monkeypatch):
        """On the twenty seeded desk datasets the short phase ranks the
        starts well: the multistart ends within 1e-6 of running every start
        to convergence, from at most 0.7 of its M-steps."""
        m_steps, real_fit = [0], mlcirt.em.fit

        def counted(*args):
            result = real_fit(*args)
            m_steps[0] += result.n_iter
            return result

        monkeypatch.setattr(mlcirt.em, "fit", counted)
        totals = {"em-EM": 0, "full": 0}
        for seed in range(20):
            design = desk_design(seed=1000 + seed)
            data = simulate_full(design).dataset
            controls = FitControls(n_starts=4, seed=seed)
            results = {}
            for name, run in (("em-EM", multistart_fit),
                              ("full", reference.full_multistart)):
                m_steps[0] = 0
                results[name] = run(data, design.spec, controls)
                totals[name] += m_steps[0]
            assert results["em-EM"].loglik == pytest.approx(
                results["full"].loglik, rel=0, abs=1e-6), f"seed {seed}"
        assert totals["em-EM"] <= 0.7 * totals["full"], totals

    def test_failure_message_is_one_line(self):
        exc = MultistartError(["start 0: [item-ability] a", "start 1: [class] b"])
        assert str(exc) == ("all starts failed: start 0: [item-ability] a; "
                            "start 1: [class] b")
