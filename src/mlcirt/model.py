"""Core model types for multilevel latent-class IRT.

The measurement model covers binary items grouped into disjoint dimensions.
A student belongs to one of ``n_classes`` latent classes, each carrying an
ability support point per dimension; a school belongs to one of ``n_types``
latent school types.  Item response probabilities follow a two-parameter
logistic curve,

    P(correct | class v, item j) = sigmoid(disc_j * (ability[v, d(j)] - diff_j)),

with a reference item per dimension pinned to difficulty 0 and
discrimination 1 so the latent scale is identified.  ``validate_params``
checks the pin; the estimator never moves a reference item, so the pin
holds at every step of a fit, the last one included.  The Rasch variant
("1pl") fixes all discriminations to 1; the plain latent-class variant
("lc") replaces the curve by a free success probability per (class, item)
cell and ignores the dimension structure, so its parameter sets have no
item parameters and no abilities.
"""

from __future__ import annotations

import dataclasses
import enum
import numbers
from dataclasses import dataclass

import numpy as np


# Every parameter block of a ``ParameterSet``, in field order (also the order
# of reports and of the packed parameter vector).  A set holds the blocks of
# its parameterization (``parameter_shapes``); the others are None.
PARAM_BLOCKS = ("difficulty", "discrimination", "abilities", "class_intercepts",
                "class_slopes", "type_intercepts", "type_slopes", "lc_success")


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
        dim_of = tuple(int(check_integer(d, "dim_of entry")) for d in dim_of)
        n_items = len(dim_of)
        n_dims = max(dim_of) + 1 if dim_of else 0
        if reference_items is None:
            empty = [d for d in range(n_dims) if d not in dim_of]
            if empty:
                raise ValueError(f"dimension {empty[0] + 1} has no items")
            reference_items = [dim_of.index(d) for d in range(n_dims)]
        return cls(n_items, n_dims, dim_of,
                   tuple(int(check_integer(j, "reference_items entry"))
                         for j in reference_items))

    @classmethod
    def single_dimension(cls, n_items: int) -> "ItemBank":
        return cls.from_dim_of([0] * n_items)

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


@dataclass(frozen=True, eq=False, kw_only=True)
class ParameterSet:
    """All free parameters of a fitted or hypothesised model.

    Arrays are copied on construction and frozen (non-writeable).  A set
    holds exactly the blocks its parameterization estimates and None in
    place of the others: the item parameters and abilities under "2pl" and
    "1pl", the success table under "lc".  Shapes, with k_V classes, k_U
    types, r items, s dimensions:

    - ``difficulty``: (r,), not under "lc"
    - ``discrimination``: (r,), not under "lc"
    - ``abilities``: (k_V, s) class ability support points, not under "lc"
    - ``class_intercepts``: (k_U, k_V - 1) membership logit intercepts,
      one row per school type; class 0 is the reference
    - ``class_slopes``: (k_V - 1, m_V) student covariate effects, shared
      across school types
    - ``type_intercepts``: (k_U - 1,) school-type logit intercepts;
      type 0 is the reference
    - ``type_slopes``: (k_U - 1, m_U) school covariate effects
    - ``lc_success``: (k_V, r) success probabilities, only under "lc"
    """

    difficulty: np.ndarray | None = None
    discrimination: np.ndarray | None = None
    abilities: np.ndarray | None = None
    class_intercepts: np.ndarray
    class_slopes: np.ndarray
    type_intercepts: np.ndarray
    type_slopes: np.ndarray
    lc_success: np.ndarray | None = None

    def __post_init__(self):
        for name, value in self.blocks().items():
            arr = np.array(value, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def blocks(self) -> dict:
        """The blocks that are not None, by name in ``PARAM_BLOCKS`` order."""
        return {name: value for name in PARAM_BLOCKS
                if (value := getattr(self, name)) is not None}

    # Shape accessors used throughout the package.
    @property
    def n_classes(self) -> int:
        return self.class_intercepts.shape[1] + 1

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
    """Shape of each parameter block that a spec estimates, in
    ``PARAM_BLOCKS`` order; the blocks it leaves out are None in its sets."""
    bank = spec.item_bank
    kv, ku = spec.n_classes, spec.n_types
    lc = spec.parameterization is Parameterization.LC
    return {
        **({} if lc else {"difficulty": (bank.n_items,),
                          "discrimination": (bank.n_items,),
                          "abilities": (kv, bank.n_dims)}),
        "class_intercepts": (ku, kv - 1),
        "class_slopes": (kv - 1, spec.n_student_covariates),
        "type_intercepts": (ku - 1,),
        "type_slopes": (ku - 1, spec.n_school_covariates),
        **({"lc_success": (kv, bank.n_items)} if lc else {}),
    }


def validate_params(params: ParameterSet, spec: ModelSpec) -> list[str]:
    """Check parameter shapes and constraints against a spec: every block
    of ``parameter_shapes`` present with its shape, every other one None."""
    problems: list[str] = []
    shapes = parameter_shapes(spec)
    blocks = params.blocks()
    for name in PARAM_BLOCKS:
        if name not in shapes:
            if name in blocks:
                problems.append(f"{name} is not a parameter of the "
                                f"{spec.parameterization.value} parameterization")
        elif name not in blocks:
            problems.append(f"{name} is missing")
        elif blocks[name].shape != shapes[name]:
            problems.append(f"{name} has shape {blocks[name].shape}, "
                            f"expected {shapes[name]}")
    # Constraints are only read from the blocks of the right shape.
    shaped = {name: a for name, a in blocks.items() if a.shape == shapes.get(name)}
    if "lc_success" in shaped and not (np.all(shaped["lc_success"] > 0)
                                       and np.all(shaped["lc_success"] < 1)):
        problems.append("lc_success entries must lie strictly inside (0, 1)")
    if "difficulty" in shaped and "discrimination" in shaped:
        for ref in spec.item_bank.reference_items:
            if shaped["difficulty"][ref] != 0.0 or shaped["discrimination"][ref] != 1.0:
                problems.append(f"reference item {ref + 1} not constrained to "
                                "difficulty 0, discrimination 1")
    if spec.parameterization is Parameterization.ONE_PL and \
            "discrimination" in shaped and not np.all(shaped["discrimination"] == 1.0):
        problems.append("1pl parameterization requires all discriminations = 1")
    if any(not np.all(np.isfinite(a)) for a in blocks.values() if a.size):
        problems.append("non-finite parameter values")
    return problems


def max_abs_change(old: ParameterSet, new: ParameterSet) -> float:
    """Largest absolute entry-wise change between two parameter sets."""
    delta = 0.0
    for name, a in old.blocks().items():
        if a.size:
            delta = max(delta, float(np.max(np.abs(a - getattr(new, name)))))
    return delta
