"""Shared builders for small test instances."""

import numpy as np

from mlcirt import (
    ItemBank,
    ModelSpec,
    ParameterSet,
    Parameterization,
    ResponseDataset,
    SchoolGroup,
    m_step,
    student_class_posteriors,
)
from mlcirt.model import max_abs_change


def make_spec(n_items=4, dim_of=None, n_classes=2, n_types=2,
              parameterization=Parameterization.TWO_PL, m_v=1, m_u=1):
    if dim_of is None:
        bank = ItemBank.single_dimension(n_items)
    else:
        bank = ItemBank.from_dim_of(dim_of)
    return ModelSpec(bank, n_classes=n_classes, n_types=n_types,
                     parameterization=parameterization,
                     n_student_covariates=m_v, n_school_covariates=m_u)


def random_params(spec, rng, scale=0.8):
    """A valid, identifiability-constrained random parameter set.  Under
    "lc" the item and ability draws are made as under "2pl" and dropped."""
    bank = spec.item_bank
    difficulty = scale * rng.normal(size=bank.n_items)
    discrimination = np.exp(0.3 * rng.normal(size=bank.n_items))
    for d in range(bank.n_dims):
        difficulty[bank.reference_items[d]] = 0.0
        discrimination[bank.reference_items[d]] = 1.0
    if spec.parameterization is Parameterization.ONE_PL:
        discrimination = np.ones(bank.n_items)
    lc = None
    if spec.parameterization is Parameterization.LC:
        lc = rng.uniform(0.15, 0.85, size=(spec.n_classes, bank.n_items))
    abilities = np.sort(scale * rng.normal(size=(spec.n_classes, bank.n_dims)), axis=0)
    if lc is not None:
        difficulty = discrimination = abilities = None
    return ParameterSet(
        difficulty=difficulty,
        discrimination=discrimination,
        abilities=abilities,
        class_intercepts=scale * rng.normal(size=(spec.n_types, spec.n_classes - 1)),
        class_slopes=scale * rng.normal(size=(spec.n_classes - 1,
                                              spec.n_student_covariates)),
        type_intercepts=scale * rng.normal(size=spec.n_types - 1),
        type_slopes=scale * rng.normal(size=(spec.n_types - 1,
                                             spec.n_school_covariates)),
        lc_success=lc,
    )


def random_dataset(spec, rng, n_schools=3, school_size=3, missing_rate=0.0):
    """Random responses and covariates matching a spec (no model structure)."""
    r = spec.item_bank.n_items
    schools = []
    for h in range(n_schools):
        n_h = school_size if np.isscalar(school_size) else int(
            rng.integers(school_size[0], school_size[1] + 1))
        responses = rng.integers(0, 2, size=(n_h, r)).astype(np.int8)
        if missing_rate > 0:
            mask = rng.random((n_h, r)) < missing_rate
            responses[mask] = -1
        schools.append(SchoolGroup(
            school_id=f"s{h}",
            covariates=rng.normal(size=spec.n_school_covariates),
            student_ids=tuple(f"s{h}-i{i}" for i in range(n_h)),
            student_covariates=rng.normal(size=(n_h, spec.n_student_covariates)),
            responses=responses,
        ))
    return ResponseDataset.from_schools(schools)


def random_instance(rng, *, max_schools=3, max_students=3, max_items=4,
                    max_classes=3, max_types=2, missing_rate=0.0):
    """Spec, parameters, and data for one randomized small instance."""
    n_items = int(rng.integers(1, max_items + 1))
    n_dims = int(rng.integers(1, min(2, n_items) + 1))
    dim_of = np.sort(rng.integers(0, n_dims, size=n_items))
    dim_of[:n_dims] = np.arange(n_dims)  # every dimension non-empty
    spec = make_spec(
        dim_of=np.sort(dim_of),
        n_classes=int(rng.integers(1, max_classes + 1)),
        n_types=int(rng.integers(1, max_types + 1)),
        parameterization=rng.choice([Parameterization.TWO_PL,
                                     Parameterization.ONE_PL,
                                     Parameterization.LC]),
        m_v=int(rng.integers(0, 3)),
        m_u=int(rng.integers(0, 3)),
    )
    params = random_params(spec, rng)
    data = random_dataset(spec, rng,
                          n_schools=int(rng.integers(1, max_schools + 1)),
                          school_size=(1, max_students),
                          missing_rate=missing_rate)
    return spec, params, data


def check_posterior_invariants(posteriors, data, atol=1e-10):
    """Normalization and consistency of the posterior tables of ``data``
    and of the class posteriors they give each student."""
    z_hu = posteriors.type_posterior
    cond = posteriors.cond_posterior
    assert z_hu.shape[0] == data.n_schools
    assert cond.shape[:2] == (data.patterns.n_patterns, z_hu.shape[1])
    np.testing.assert_allclose(z_hu.sum(axis=1), 1.0, atol=atol)
    assert np.all(z_hu >= 0)
    np.testing.assert_allclose(cond.sum(axis=2), 1.0, atol=atol)
    assert np.all(cond >= 0)
    z_class = student_class_posteriors(data, posteriors)
    assert z_class.shape == (data.n_students, cond.shape[2])
    np.testing.assert_allclose(z_class.sum(axis=1), 1.0, atol=atol)
    assert np.all(z_class >= 0)


def single_student_dataset(y=(1,), m_v=0, m_u=0):
    """One school with one student, whose responses are ``y``."""
    return ResponseDataset.from_schools((SchoolGroup(
        school_id="s0",
        covariates=np.zeros(m_u),
        student_ids=("s0-i0",),
        student_covariates=np.zeros((1, m_v)),
        responses=np.array([y], dtype=np.int8),
    ),))


def stationary_m_step(data, post, params, spec, max_steps=600):
    """``m_step`` repeated on the fixed posteriors ``post`` until one moves
    no parameter by 1e-9.  Given the posteriors the three block objectives
    are separate, so this runs every block to its maximum."""
    for _ in range(max_steps):
        new = m_step(data, post, params, spec)
        if max_abs_change(params, new) < 1e-9:
            return new
        params = new
    raise AssertionError(f"m_step still moving after {max_steps} steps")
