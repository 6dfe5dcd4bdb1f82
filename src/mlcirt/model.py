"""Core model types for multilevel latent-class IRT.

The measurement model covers binary items grouped into disjoint dimensions.
A student belongs to one of ``n_classes`` latent classes, each carrying an
ability support point per dimension; a school belongs to one of ``n_types``
latent school types.  Item response probabilities follow a two-parameter
logistic curve,

    P(correct | class v, item j) = sigmoid(disc_j * (ability[v, d(j)] - diff_j)),

with a reference item per dimension pinned to difficulty 0 and
discrimination 1 so the latent scale is identified.  The Rasch variant
("1pl") fixes all discriminations to 1; the plain latent-class variant
("lc") replaces the curve by a free success probability per (class, item)
cell and ignores the dimension structure.
"""

from __future__ import annotations

import dataclasses
import enum
import numbers
from dataclasses import dataclass

import numpy as np


# Every parameter block of a ``ParameterSet`` but ``lc_success``, which only
# the "lc" parameterization has, in field order (also the order of reports
# and of the packed parameter vector).
PARAM_BLOCKS = ("difficulty", "discrimination", "abilities", "class_intercepts",
                "class_slopes", "type_intercepts", "type_slopes")


def check_integer(value, name: str, lowest: int | None = None):
    """``value`` if it is an integer (``numbers.Integral``, not bool) and not
    below ``lowest``; otherwise ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if lowest is not None and value < lowest:
        raise ValueError(f"{name} must be >= {lowest}, got {value}")
    return value


def check_number(value, name: str):
    """``value`` if it is a number (``numbers.Real``, not bool), else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


class Parameterization(enum.Enum):
    """Item response parameterization."""

    LC = "lc"
    ONE_PL = "1pl"
    TWO_PL = "2pl"


@dataclass(frozen=True)
class ItemBank:
    """Item-to-dimension layout of a test.

    Parameters
    ----------
    n_items : int
        Number of binary items.
    n_dims : int
        Number of latent dimensions.
    dim_of : tuple of int
        For each item, the 0-based dimension it measures.
    reference_items : tuple of int
        For each dimension, the 0-based index of the item whose difficulty
        and discrimination are pinned to (0, 1).
    """

    n_items: int
    n_dims: int
    dim_of: tuple[int, ...]
    reference_items: tuple[int, ...]

    @classmethod
    def from_dim_of(cls, dim_of, reference_items=None) -> "ItemBank":
        """Build a bank from a dimension map; reference defaults to the
        first item of each dimension."""
        dim_of = tuple(int(d) for d in dim_of)
        n_items = len(dim_of)
        n_dims = max(dim_of) + 1 if dim_of else 0
        if reference_items is None:
            reference_items = []
            for d in range(n_dims):
                members = [j for j, dj in enumerate(dim_of) if dj == d]
                if not members:
                    raise ValueError(f"dimension {d + 1} has no items")
                reference_items.append(members[0])
        return cls(n_items, n_dims, dim_of, tuple(int(j) for j in reference_items))

    @classmethod
    def single_dimension(cls, n_items: int) -> "ItemBank":
        return cls.from_dim_of([0] * n_items)

    def items_in_dim(self, d: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.dim_of) == d)

    @property
    def dim_index(self) -> np.ndarray:
        return np.asarray(self.dim_of, dtype=int)

    @property
    def is_reference(self) -> np.ndarray:
        mask = np.zeros(self.n_items, dtype=bool)
        mask[list(self.reference_items)] = True
        return mask


@dataclass(frozen=True)
class ModelSpec:
    """Model shape: item bank, class/type counts, covariate arities.

    Construction, ``replace`` included, raises ``ValueError`` listing every
    structural problem (items and dimensions numbered from 1, as the files
    number them), so a spec that exists is valid.
    """

    item_bank: ItemBank
    n_classes: int
    n_types: int
    parameterization: Parameterization = Parameterization.TWO_PL
    n_student_covariates: int = 0
    n_school_covariates: int = 0

    def __post_init__(self):
        problems: list[str] = []
        bank = self.item_bank
        for name, lowest in (("n_classes", 1), ("n_types", 1),
                             ("n_student_covariates", 0), ("n_school_covariates", 0)):
            try:
                check_integer(getattr(self, name), name, lowest)
            except ValueError as exc:
                problems.append(str(exc))
        if len(bank.dim_of) != bank.n_items:
            problems.append(f"dim_of has length {len(bank.dim_of)}, expected {bank.n_items}")
        if bank.n_items < 1:
            problems.append("item bank is empty")
        for j, d in enumerate(bank.dim_of):
            if not 0 <= d < bank.n_dims:
                problems.append(f"item {j + 1} assigned to dimension {d + 1}, "
                                f"outside 1..{bank.n_dims}")
        if len(bank.reference_items) != bank.n_dims:
            problems.append(f"expected {bank.n_dims} reference items, "
                            f"got {len(bank.reference_items)}")
        for d in range(bank.n_dims):
            if d not in bank.dim_of:
                problems.append(f"empty dimension {d + 1}")
            elif d < len(bank.reference_items):
                ref = bank.reference_items[d]
                if not 0 <= ref < bank.n_items:
                    problems.append(f"reference item {ref + 1} of dimension {d + 1} "
                                    "out of range")
                elif bank.dim_of[ref] != d:
                    problems.append(f"reference item {ref + 1} does not belong to "
                                    f"dimension {d + 1}")
        if problems:
            raise ValueError("invalid model spec: " + "; ".join(problems))

    def replace(self, **changes) -> "ModelSpec":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, eq=False)
class ParameterSet:
    """All free parameters of a fitted or hypothesised model.

    Arrays are copied on construction and frozen (non-writeable).  Shapes,
    with k_V classes, k_U types, r items, s dimensions:

    - ``difficulty``: (r,)
    - ``discrimination``: (r,)
    - ``abilities``: (k_V, s) class ability support points
    - ``class_intercepts``: (k_U, k_V - 1) membership logit intercepts,
      one row per school type; class 0 is the reference
    - ``class_slopes``: (k_V - 1, m_V) student covariate effects, shared
      across school types
    - ``type_intercepts``: (k_U - 1,) school-type logit intercepts;
      type 0 is the reference
    - ``type_slopes``: (k_U - 1, m_U) school covariate effects
    - ``lc_success``: (k_V, r) success probabilities, only under the "lc"
      parameterization (otherwise None)
    """

    difficulty: np.ndarray
    discrimination: np.ndarray
    abilities: np.ndarray
    class_intercepts: np.ndarray
    class_slopes: np.ndarray
    type_intercepts: np.ndarray
    type_slopes: np.ndarray
    lc_success: np.ndarray | None = None

    def __post_init__(self):
        for name in PARAM_BLOCKS + ("lc_success",):
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.array(value, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # Shape accessors used throughout the package.
    @property
    def n_items(self) -> int:
        return self.difficulty.shape[0]

    @property
    def n_classes(self) -> int:
        return self.abilities.shape[0]

    @property
    def n_dims(self) -> int:
        return self.abilities.shape[1]

    @property
    def n_types(self) -> int:
        return self.class_intercepts.shape[0]

    @property
    def n_student_covariates(self) -> int:
        return self.class_slopes.shape[1]

    @property
    def n_school_covariates(self) -> int:
        return self.type_slopes.shape[1]

    def replace(self, **changes) -> "ParameterSet":
        return dataclasses.replace(self, **changes)


def apply_identifiability(params: ParameterSet, bank: ItemBank) -> ParameterSet:
    """Re-express item and ability parameters on the constrained scale.

    For every dimension the reference item ends with difficulty 0 and
    discrimination 1; remaining items and the class abilities are shifted
    and rescaled so that all implied response probabilities are unchanged.
    The map is the identity on already-constrained parameters, and on the
    "lc" success table.
    """
    diff = np.array(params.difficulty)
    disc = np.array(params.discrimination)
    abil = np.array(params.abilities)
    for d in range(bank.n_dims):
        ref = bank.reference_items[d]
        scale = disc[ref]
        if scale == 0:
            raise ValueError(f"reference item {ref} has zero discrimination; "
                             f"scale of dimension {d} undefined")
        loc = diff[ref]
        members = bank.items_in_dim(d)
        abil[:, d] = scale * (abil[:, d] - loc)
        diff[members] = scale * (diff[members] - loc)
        disc[members] = disc[members] / scale
    return params.replace(difficulty=diff, discrimination=disc, abilities=abil)


def count_free_parameters(spec: ModelSpec) -> int:
    """Number of free parameters under the identifiability constraints."""
    kv, ku = spec.n_classes, spec.n_types
    mv, mu = spec.n_student_covariates, spec.n_school_covariates
    r, s = spec.item_bank.n_items, spec.item_bank.n_dims
    mixing = (kv - 1) * (mv + ku) + (ku - 1) * (mu + 1)
    if spec.parameterization is Parameterization.LC:
        return mixing + kv * r
    n = mixing + kv * s + 2 * (r - s)
    if spec.parameterization is Parameterization.ONE_PL:
        n -= r - s
    return n


def parameter_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter block except ``lc_success`` under a spec."""
    bank = spec.item_bank
    return {
        "difficulty": (bank.n_items,),
        "discrimination": (bank.n_items,),
        "abilities": (spec.n_classes, bank.n_dims),
        "class_intercepts": (spec.n_types, spec.n_classes - 1),
        "class_slopes": (spec.n_classes - 1, spec.n_student_covariates),
        "type_intercepts": (spec.n_types - 1,),
        "type_slopes": (spec.n_types - 1, spec.n_school_covariates),
    }


def validate_params(params: ParameterSet, spec: ModelSpec) -> list[str]:
    """Check parameter shapes and constraints against a spec."""
    problems: list[str] = []
    bank = spec.item_bank
    for name, shape in parameter_shapes(spec).items():
        arr = getattr(params, name)
        if arr.shape != shape:
            problems.append(f"{name} has shape {arr.shape}, expected {shape}")
    if spec.parameterization is Parameterization.LC:
        if params.lc_success is None:
            problems.append("lc parameterization requires an lc_success table")
        elif params.lc_success.shape != (spec.n_classes, bank.n_items):
            problems.append(f"lc_success has shape {params.lc_success.shape}, "
                            f"expected {(spec.n_classes, bank.n_items)}")
        elif not (np.all(params.lc_success > 0) and np.all(params.lc_success < 1)):
            problems.append("lc_success entries must lie strictly inside (0, 1)")
    else:
        # Reference entries can only be read from item blocks of the right shape.
        if params.difficulty.shape == params.discrimination.shape == (bank.n_items,):
            for ref in bank.reference_items:
                if params.difficulty[ref] != 0.0 or params.discrimination[ref] != 1.0:
                    problems.append(f"reference item {ref + 1} not constrained to "
                                    "difficulty 0, discrimination 1")
        if spec.parameterization is Parameterization.ONE_PL:
            if params.discrimination.shape == (bank.n_items,) and \
                    not np.all(params.discrimination == 1.0):
                problems.append("1pl parameterization requires all discriminations = 1")
    all_arrays = [getattr(params, name) for name in PARAM_BLOCKS]
    if params.lc_success is not None:
        all_arrays.append(params.lc_success)
    if any(not np.all(np.isfinite(a)) for a in all_arrays if a.size):
        problems.append("non-finite parameter values")
    return problems


def max_abs_change(old: ParameterSet, new: ParameterSet) -> float:
    """Largest absolute entry-wise change between two parameter sets."""
    delta = 0.0
    for name in PARAM_BLOCKS + ("lc_success",):
        a, b = getattr(old, name), getattr(new, name)
        if a is None or b is None:
            continue
        if a.size:
            delta = max(delta, float(np.max(np.abs(a - b))))
    return delta
