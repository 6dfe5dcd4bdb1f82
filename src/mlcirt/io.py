"""File formats: CSV datasets, JSON model configs, JSON fit reports.

Datasets are two comma-separated files with header rows.  The students
file has columns ``school_id, student_id, item_1..item_r`` (values 0/1/NA)
followed by one column per declared student covariate; the schools file
has ``school_id`` followed by the school covariates.  Categorical
covariates are declared in the model config with their levels and a
reference level, and are expanded here to indicator columns, so the math
core only ever sees numeric vectors.

Reports are JSON with every float rounded to 12 significant digits, which
makes write -> read -> write byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import MISSING, ResponseDataset, SchoolGroup
from .em import FitControls, FitResult
from .model import (
    ItemBank,
    ModelSpec,
    ParameterSet,
    Parameterization,
    count_free_parameters,
)

_MAX_REPORTED_ERRORS = 50


class DataFormatError(ValueError):
    """Input files or configuration violate the documented format."""


# ---------------------------------------------------------------------------
# Model configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovariateDecl:
    """One declared covariate column of an input file."""

    name: str
    kind: str                      # "numeric" or "categorical"
    levels: tuple[str, ...] = ()
    reference: str = ""

    def expanded_columns(self) -> list[str]:
        if self.kind == "numeric":
            return [self.name]
        return [f"{self.name}={lvl}" for lvl in self.levels if lvl != self.reference]

    @property
    def n_columns(self) -> int:
        return len(self.expanded_columns())


@dataclass(frozen=True)
class ModelConfig:
    """Parsed model configuration file."""

    n_classes: int
    n_types: int
    parameterization: Parameterization
    dim_of: tuple[int, ...]              # 0-based
    reference_items: tuple[int, ...]     # 0-based
    student_covariates: tuple[CovariateDecl, ...]
    school_covariates: tuple[CovariateDecl, ...]
    controls: FitControls
    bic_n: str | int

    @property
    def n_items(self) -> int:
        return len(self.dim_of)

    def item_bank(self) -> ItemBank:
        return ItemBank.from_dim_of(self.dim_of, self.reference_items)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            item_bank=self.item_bank(),
            n_classes=self.n_classes,
            n_types=self.n_types,
            parameterization=self.parameterization,
            n_student_covariates=sum(d.n_columns for d in self.student_covariates),
            n_school_covariates=sum(d.n_columns for d in self.school_covariates),
        )


def _parse_covariate_decls(entries, where: str) -> tuple[CovariateDecl, ...]:
    decls = []
    for idx, entry in enumerate(entries or []):
        name = entry.get("name")
        kind = entry.get("type", "numeric")
        if not name:
            raise DataFormatError(f"{where}[{idx}]: covariate needs a name")
        if kind == "numeric":
            decls.append(CovariateDecl(name=name, kind="numeric"))
        elif kind == "categorical":
            levels = tuple(str(v) for v in entry.get("levels", ()))
            if len(levels) < 2:
                raise DataFormatError(f"{where}[{idx}] ({name}): categorical "
                                      "covariates need at least two levels")
            reference = str(entry.get("reference", levels[0]))
            if reference not in levels:
                raise DataFormatError(f"{where}[{idx}] ({name}): reference level "
                                      f"{reference!r} not among levels")
            decls.append(CovariateDecl(name=name, kind="categorical",
                                       levels=levels, reference=reference))
        else:
            raise DataFormatError(f"{where}[{idx}] ({name}): unknown covariate "
                                  f"type {kind!r}")
    return tuple(decls)


def parse_config(path) -> ModelConfig:
    """Read and validate a model configuration file (JSON)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if "dim_of" not in raw or not raw["dim_of"]:
        raise DataFormatError(f"{path}: config must declare a non-empty dim_of list")
    dim_of = tuple(int(d) - 1 for d in raw["dim_of"])
    if any(d < 0 for d in dim_of):
        raise DataFormatError(f"{path}: dimension indices are 1-based")
    if "reference_items" in raw and raw["reference_items"] is not None:
        reference = tuple(int(j) - 1 for j in raw["reference_items"])
    else:
        n_dims = max(dim_of) + 1
        reference = tuple(dim_of.index(d) for d in range(n_dims))
    try:
        parameterization = Parameterization(str(raw.get("parameterization", "2pl")).lower())
    except ValueError as exc:
        raise DataFormatError(f"{path}: unknown parameterization "
                              f"{raw.get('parameterization')!r}") from exc
    controls_raw = dict(raw.get("controls") or {})
    try:
        controls = FitControls(**controls_raw)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad controls block ({exc})") from exc
    bic_n = raw.get("bic_n", "students")
    if bic_n not in ("students", "schools") and not isinstance(bic_n, int):
        raise DataFormatError(f"{path}: bic_n must be 'students', 'schools', "
                              "or an integer")
    return ModelConfig(
        n_classes=int(raw.get("n_classes", 1)),
        n_types=int(raw.get("n_types", 1)),
        parameterization=parameterization,
        dim_of=dim_of,
        reference_items=reference,
        student_covariates=_parse_covariate_decls(
            raw.get("student_covariates"), "student_covariates"),
        school_covariates=_parse_covariate_decls(
            raw.get("school_covariates"), "school_covariates"),
        controls=controls,
        bic_n=bic_n,
    )


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------

def _expand_tokens(decls, tokens, path, line, first_col, errors) -> np.ndarray:
    values: list[float] = []
    for offset, (decl, token) in enumerate(zip(decls, tokens)):
        col = first_col + offset
        if decl.kind == "numeric":
            try:
                values.append(float(token))
            except ValueError:
                errors.append(f"{path}:{line}: column {col} ({decl.name}): "
                              f"non-numeric value {token!r}")
                values.append(np.nan)
        else:
            if token not in decl.levels:
                errors.append(f"{path}:{line}: column {col} ({decl.name}): "
                              f"level {token!r} not declared")
                values.extend([np.nan] * decl.n_columns)
            else:
                for lvl in decl.levels:
                    if lvl != decl.reference:
                        values.append(1.0 if token == lvl else 0.0)
    return np.asarray(values, dtype=float)


def _read_rows(path: Path):
    with open(path, newline="") as handle:
        yield from enumerate(csv.reader(handle), start=1)


def load_dataset(students_path, schools_path, config: ModelConfig) -> ResponseDataset:
    """Parse and validate the two dataset files into a ``ResponseDataset``.

    Every format violation is reported with file, line, and column; schools
    appear in the order of the schools file.
    """
    students_path = Path(students_path)
    schools_path = Path(schools_path)
    for p in (students_path, schools_path):
        if not p.exists():
            raise DataFormatError(f"missing input file: {p}")
    errors: list[str] = []

    school_cov: dict[str, np.ndarray] = {}
    school_order: list[str] = []
    expected = ["school_id"] + [d.name for d in config.school_covariates]
    for line, row in _read_rows(schools_path):
        if line == 1:
            if row != expected:
                raise DataFormatError(f"{schools_path}:1: header must be "
                                      f"{','.join(expected)}, got {','.join(row)}")
            continue
        if not row:
            continue
        if len(row) != len(expected):
            errors.append(f"{schools_path}:{line}: expected {len(expected)} "
                          f"fields, got {len(row)}")
            continue
        sid = row[0]
        if sid in school_cov:
            errors.append(f"{schools_path}:{line}: column 1 (school_id): "
                          f"duplicate school id {sid!r}")
            continue
        school_cov[sid] = _expand_tokens(config.school_covariates, row[1:],
                                         schools_path, line, 2, errors)
        school_order.append(sid)

    r = config.n_items
    item_names = [f"item_{j + 1}" for j in range(r)]
    expected = (["school_id", "student_id"] + item_names
                + [d.name for d in config.student_covariates])
    students: dict[str, list] = {sid: [] for sid in school_order}
    seen: set[tuple[str, str]] = set()
    for line, row in _read_rows(students_path):
        if line == 1:
            if row != expected:
                raise DataFormatError(f"{students_path}:1: header must be "
                                      f"{','.join(expected)}, got {','.join(row)}")
            continue
        if not row:
            continue
        if len(row) != len(expected):
            errors.append(f"{students_path}:{line}: expected {len(expected)} "
                          f"fields, got {len(row)}")
            continue
        sid, stid = row[0], row[1]
        if sid not in students:
            errors.append(f"{students_path}:{line}: column 1 (school_id): "
                          f"unknown school id {sid!r}")
            continue
        if (sid, stid) in seen:
            errors.append(f"{students_path}:{line}: column 2 (student_id): "
                          f"duplicate student {stid!r} in school {sid!r}")
            continue
        seen.add((sid, stid))
        responses = np.empty(r, dtype=np.int8)
        for j in range(r):
            token = row[2 + j]
            if token == "0":
                responses[j] = 0
            elif token == "1":
                responses[j] = 1
            elif token == "NA":
                responses[j] = MISSING
            else:
                errors.append(f"{students_path}:{line}: column {3 + j} "
                              f"(item_{j + 1}): response {token!r} is not "
                              "0, 1, or NA")
                responses[j] = MISSING
        x = _expand_tokens(config.student_covariates, row[2 + r:],
                           students_path, line, 3 + r, errors)
        students[sid].append((stid, x, responses))

    for sid in school_order:
        if not students[sid]:
            errors.append(f"{schools_path}: school {sid!r} has no students in "
                          f"{students_path}")

    if errors:
        shown = errors[:_MAX_REPORTED_ERRORS]
        if len(errors) > _MAX_REPORTED_ERRORS:
            shown.append(f"... and {len(errors) - _MAX_REPORTED_ERRORS} more")
        raise DataFormatError("\n".join(shown))

    m_v = sum(d.n_columns for d in config.student_covariates)
    schools = []
    for sid in school_order:
        recs = students[sid]
        schools.append(SchoolGroup(
            school_id=sid,
            covariates=school_cov[sid],
            student_ids=tuple(rec[0] for rec in recs),
            student_covariates=(np.stack([rec[1] for rec in recs])
                                if recs else np.zeros((0, m_v))),
            responses=np.stack([rec[2] for rec in recs]),
        ))
    return ResponseDataset(tuple(schools))


# ---------------------------------------------------------------------------
# Dataset writing (used by the simulate command)
# ---------------------------------------------------------------------------

# CSV token of each response value, indexed by value + 1 (MISSING is -1).
_RESPONSE_TOKENS = np.array(["NA", "0", "1"])


def write_dataset_files(out_dir, sim, student_decls, school_decls) -> None:
    """Write students.csv and schools.csv for a ``SimulatedData`` bundle."""
    out_dir = Path(out_dir)
    data = sim.dataset
    r = data.n_items
    with open(out_dir / "schools.csv", "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["school_id"] + [d.name for d in school_decls])
        for h, school in enumerate(data.schools):
            writer.writerow([school.school_id] + list(sim.school_tokens[h]))
    with open(out_dir / "students.csv", "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["school_id", "student_id"]
                        + [f"item_{j + 1}" for j in range(r)]
                        + [d.name for d in student_decls])
        for h, school in enumerate(data.schools):
            tokens = _RESPONSE_TOKENS[school.responses + 1].tolist()
            for i, stid in enumerate(school.student_ids):
                writer.writerow([school.school_id, stid] + tokens[i]
                                + list(sim.student_tokens[h][i]))


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------

def round12(obj):
    """Round every float in a nested structure to 12 significant digits.

    NaN becomes None so the result is valid strict JSON.
    """
    if isinstance(obj, dict):
        return {key: round12(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return round12(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if np.isnan(value):
            return None
        return float(f"{value:.12g}")
    return obj


def params_to_dict(params: ParameterSet) -> dict:
    return {
        "difficulty": params.difficulty.tolist(),
        "discrimination": params.discrimination.tolist(),
        "abilities": params.abilities.tolist(),
        "class_intercepts": params.class_intercepts.tolist(),
        "class_slopes": params.class_slopes.tolist(),
        "type_intercepts": params.type_intercepts.tolist(),
        "type_slopes": params.type_slopes.tolist(),
        "lc_success": (params.lc_success.tolist()
                       if params.lc_success is not None else None),
    }


def params_from_dict(raw: dict) -> ParameterSet:
    return ParameterSet(
        difficulty=np.asarray(raw["difficulty"], dtype=float),
        discrimination=np.asarray(raw["discrimination"], dtype=float),
        abilities=np.asarray(raw["abilities"], dtype=float),
        class_intercepts=np.asarray(raw["class_intercepts"], dtype=float),
        class_slopes=np.asarray(raw["class_slopes"], dtype=float),
        type_intercepts=np.asarray(raw["type_intercepts"], dtype=float),
        type_slopes=np.asarray(raw["type_slopes"], dtype=float),
        lc_success=(np.asarray(raw["lc_success"], dtype=float)
                    if raw.get("lc_success") is not None else None),
    )


def spec_to_dict(spec: ModelSpec) -> dict:
    bank = spec.item_bank
    return {
        "parameterization": spec.parameterization.value,
        "n_classes": spec.n_classes,
        "n_types": spec.n_types,
        "n_items": bank.n_items,
        "n_dims": bank.n_dims,
        "dim_of": [d + 1 for d in bank.dim_of],
        "reference_items": [j + 1 for j in bank.reference_items],
        "n_student_covariates": spec.n_student_covariates,
        "n_school_covariates": spec.n_school_covariates,
    }


def spec_from_dict(raw: dict) -> ModelSpec:
    bank = ItemBank.from_dim_of([d - 1 for d in raw["dim_of"]],
                                [j - 1 for j in raw["reference_items"]])
    return ModelSpec(
        item_bank=bank,
        n_classes=int(raw["n_classes"]),
        n_types=int(raw["n_types"]),
        parameterization=Parameterization(raw["parameterization"]),
        n_student_covariates=int(raw["n_student_covariates"]),
        n_school_covariates=int(raw["n_school_covariates"]),
    )


def build_report(spec: ModelSpec, config: ModelConfig, result: FitResult,
                 classification, n_bic: int, profile_matrix,
                 profile_probs) -> dict:
    """Assemble the fit report structure (pre-rounding)."""
    student_cols = [c for d in config.student_covariates
                    for c in d.expanded_columns()]
    school_cols = [c for d in config.school_covariates
                   for c in d.expanded_columns()]
    n_par = count_free_parameters(spec)
    from .selection import bic as bic_value

    model = spec_to_dict(spec)
    model["student_covariate_columns"] = student_cols
    model["school_covariate_columns"] = school_cols
    report = {
        "model": model,
        "fit": {
            "loglik": result.loglik,
            "n_par": n_par,
            "bic": bic_value(result.loglik, n_par, n_bic),
            "bic_n": n_bic,
            "n_iterations": result.n_iter,
            "converged": result.converged,
            "start_index": result.start_index,
            "trace": list(result.trace),
        },
        "parameters": params_to_dict(result.params),
        "summary": {
            "avg_class_weights": classification.avg_class_weights.tolist(),
            "avg_type_weights": classification.avg_type_weights.tolist(),
            "support_points_raw": classification.support_points.raw.tolist(),
            "support_points_std": classification.support_points.standardized.tolist(),
            "abilities_std": classification.abilities_std.tolist(),
            "type_probabilities_by_profile": {
                "profiles": [list(p) for p in profile_matrix],
                "probabilities": [list(p) for p in profile_probs],
            },
        },
        "files": {
            "student_assignments": "students_assign.csv",
            "school_assignments": "schools_assign.csv",
        },
    }
    return round12(report)


def write_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())


def write_assignments(out_dir, data: ResponseDataset, classification) -> None:
    """Write the per-student and per-school MAP assignment files."""
    out_dir = Path(out_dir)
    students = classification.student_assignments
    with open(out_dir / "students_assign.csv", "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["school_id", "student_id", "class", "posterior"])
        for h, school in enumerate(data.schools):
            for i, stid in enumerate(school.student_ids):
                writer.writerow([school.school_id, stid,
                                 int(students.labels[h][i]) + 1,
                                 f"{students.posteriors[h][i]:.12g}"])
    schools = classification.school_assignments
    with open(out_dir / "schools_assign.csv", "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["school_id", "type", "posterior"])
        for h, school in enumerate(data.schools):
            writer.writerow([school.school_id, int(schools.labels[h]) + 1,
                             f"{schools.posteriors[h]:.12g}"])
