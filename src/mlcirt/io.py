"""File formats: CSV datasets and every JSON file.

Datasets are two comma-separated files with header rows.  The students
file has columns ``school_id, student_id, item_1..item_r`` (values 0/1/NA)
followed by one column per declared student covariate; the schools file
has ``school_id`` followed by the school covariates.  Categorical
covariates are declared in the model config with their levels and a
reference level, and are expanded here to indicator columns, so the math
core only ever sees numeric vectors.  ``write_dataset_files`` is the
inverse: it writes a dataset's numeric arrays back as tokens through the
same declarations.

Every JSON input (model config, simulation design, fit report) is read
through ``_read_input``, and every JSON output is written here.  The files
number items and dimensions from 1, and round every float to 12 significant
digits, which makes write -> read -> write byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .data import MISSING, ResponseDataset
from .em import FitControls, FitResult
from .model import (
    PARAM_BLOCKS,
    ItemBank,
    ModelSpec,
    ParameterSet,
    Parameterization,
    count_free_parameters,
    parameter_shapes,
    validate_params,
)
from .selection import SweepResult, bic as bic_value
from .simulate import CategoricalCovariate, CyclicCovariate, SimulationDesign

_MAX_REPORTED_ERRORS = 50


class DataFormatError(ValueError):
    """Input files or configuration violate the documented format."""


# ---------------------------------------------------------------------------
# JSON inputs: model config, simulation design, fit report
# ---------------------------------------------------------------------------

def _read_input(path, what: str, build):
    """``build`` applied to the JSON value of the file at ``path``.  Errors
    become one ``DataFormatError``: ``missing input file: <path>``, ``<path>:
    <message>`` for ``build``'s own, else ``<path>: bad <what> (<error>)``."""
    path = Path(path)
    try:
        return build(json.loads(path.read_text(encoding="utf-8-sig")))
    except FileNotFoundError:
        raise DataFormatError(f"missing input file: {path}") from None
    except DataFormatError as exc:
        message = str(exc)
    except KeyError as exc:
        message = f"bad {what} (missing key {exc})"
    except (AttributeError, TypeError, ValueError) as exc:
        message = f"bad {what} ({exc})"
    raise DataFormatError(f"{path}: {message}")


def _integer(value, name: str) -> int:
    """``value`` if it is a JSON integer (not ``2.5``, ``2.0`` or ``true``)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _zero_based(values, name: str) -> list[int]:
    """0-based indices of a file's list of 1-based item or dimension numbers."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return [_integer(v, f"{name} entry") - 1 for v in values]


def _bank_from_json(raw: dict) -> ItemBank:
    """The item bank of a file's ``dim_of`` and ``reference_items`` (default:
    each dimension's first item); any ``n_items`` and ``n_dims`` must agree."""
    refs = raw.get("reference_items")
    bank = ItemBank.from_dim_of(_zero_based(raw["dim_of"], "dim_of"),
                                None if refs is None
                                else _zero_based(refs, "reference_items"))
    for name, value in (("n_items", bank.n_items), ("n_dims", bank.n_dims)):
        if name in raw and _integer(raw[name], name) != value:
            raise ValueError(f"{name} is {raw[name]}, but dim_of gives {value}")
    return bank


def _bank_to_json(bank: ItemBank) -> dict:
    """Inverse of ``_bank_from_json``: ``dim_of`` and ``reference_items``."""
    return {"dim_of": [d + 1 for d in bank.dim_of],
            "reference_items": [j + 1 for j in bank.reference_items]}


def _entries(raw: dict, key: str) -> list[dict]:
    """The list of JSON objects under ``key`` (none if absent or null)."""
    entries = raw.get(key) or []
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise TypeError(f"{key} must be a list of JSON objects")
    return entries


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

    spec: ModelSpec
    student_covariates: tuple[CovariateDecl, ...]
    school_covariates: tuple[CovariateDecl, ...]
    controls: FitControls
    bic_n: str | int


def _parse_covariate_decls(raw: dict, key: str) -> tuple[CovariateDecl, ...]:
    decls = []
    for idx, entry in enumerate(_entries(raw, key)):
        name = entry.get("name")
        kind = entry.get("type", "numeric")
        at = f"{key}[{idx}]"
        if not name:
            raise DataFormatError(f"{at}: covariate needs a name")
        if kind == "numeric":
            decls.append(CovariateDecl(name=name, kind="numeric"))
        elif kind == "categorical":
            levels = tuple(str(v) for v in entry.get("levels", ()))
            if len(levels) < 2:
                raise DataFormatError(f"{at} ({name}): categorical "
                                      "covariates need at least two levels")
            for k, level in enumerate(levels):
                if level in levels[:k]:
                    raise DataFormatError(f"{at} ({name}): repeated level {level!r}")
            reference = str(entry.get("reference", levels[0]))
            if reference not in levels:
                raise DataFormatError(f"{at} ({name}): reference level "
                                      f"{reference!r} not among levels")
            decls.append(CovariateDecl(name=name, kind="categorical",
                                       levels=levels, reference=reference))
        else:
            raise DataFormatError(f"{at} ({name}): unknown covariate "
                                  f"type {kind!r}")
    return tuple(decls)


def parse_config(path) -> ModelConfig:
    """Read and validate a model configuration file (JSON)."""
    def build(raw):
        bic_n = raw.get("bic_n", "students")
        if bic_n not in ("students", "schools"):
            bic_n = _integer(bic_n, "bic_n, if not 'students' or 'schools',")
        student_covariates = _parse_covariate_decls(raw, "student_covariates")
        school_covariates = _parse_covariate_decls(raw, "school_covariates")
        spec = ModelSpec(
            item_bank=_bank_from_json(raw),
            n_classes=_integer(raw.get("n_classes", 1), "n_classes"),
            n_types=_integer(raw.get("n_types", 1), "n_types"),
            parameterization=Parameterization(
                str(raw.get("parameterization", "2pl")).lower()),
            n_student_covariates=sum(d.n_columns for d in student_covariates),
            n_school_covariates=sum(d.n_columns for d in school_covariates),
        )
        return ModelConfig(spec=spec, student_covariates=student_covariates,
                           school_covariates=school_covariates,
                           controls=FitControls(**dict(raw.get("controls") or {})),
                           bic_n=bic_n)
    return _read_input(path, "config", build)


def _covariate_generators(raw: dict, key: str) -> tuple:
    kinds = {"categorical": (CategoricalCovariate, "probs"),
             "cyclic": (CyclicCovariate, "values")}
    gens = []
    for idx, entry in enumerate(_entries(raw, key)):
        if entry.get("type") not in kinds:
            raise ValueError(f"{key}[{idx}]: unknown covariate generator "
                             f"type {entry.get('type')!r}")
        make, arg = kinds[entry["type"]]
        gens.append(make(tuple(entry[arg])))
    return tuple(gens)


def parse_design(path, seed_override=None) -> SimulationDesign:
    """Read a simulation design file (JSON), with ``seed_override`` if given."""
    def build(raw):
        spec = spec_from_dict(raw["spec"])
        size = raw["school_size"]
        many = isinstance(size, list)
        sizes = tuple(_integer(s, "school_size") for s in (size if many else [size]))
        seed = raw.get("seed", 0) if seed_override is None else seed_override
        return SimulationDesign(
            spec=spec,
            truth=params_from_dict(raw["truth"], spec),
            n_schools=_integer(raw["n_schools"], "n_schools"),
            school_size=sizes if many else sizes[0],
            student_covariates=_covariate_generators(raw, "student_covariates"),
            school_covariates=_covariate_generators(raw, "school_covariates"),
            seed=_integer(seed, "seed"),
            missing_rate=float(raw.get("missing_rate", 0.0)),
        )
    return _read_input(path, "design", build)


def parse_report(path) -> tuple[ModelSpec, ParameterSet]:
    """The model spec and the parameters of a fit report (JSON), validated."""
    def build(raw):
        spec = spec_from_dict(raw["model"])
        params = params_from_dict(raw["parameters"], spec)
        if problems := validate_params(params, spec):
            raise DataFormatError("; ".join(problems))
        return spec, params
    return _read_input(path, "report", build)


def read_report(path) -> dict:
    return _read_input(path, "report", lambda raw: raw)


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------

# Rows converted at once.  The reader holds the tokens of one block at a
# time, so its memory beyond the converted arrays does not grow with the file.
# Small blocks also let the row lists die before the garbage collector moves
# them to older generations: loading 200k rows spent about 0.6 s in
# collections with 16384-row blocks and 0.1 s with 1024-row blocks.
_BLOCK_ROWS = 1024

# Code of each valid response token; any other token maps to _BAD_RESPONSE.
_RESPONSE_CODES = {"0": 0, "1": 1, "NA": MISSING}
_BAD_RESPONSE = -2


def _read_blocks(path: Path, expected: list[str], problems: list):
    """Yield ``(lines, columns)`` for each block of rows of a CSV file.

    Only rows with the expected number of fields are kept: ``columns`` holds
    one tuple of tokens per column and ``lines`` their row numbers (the
    header is row 1; blank rows are counted and skipped).  Rows with another
    field count are appended to ``problems`` as ``(line, column, message)``.
    The caller drops its reference to a block before asking for the next.
    """
    width = len(expected)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                return
            if header != expected:
                raise DataFormatError(f"{path}:1: header must be "
                                      f"{','.join(expected)}, "
                                      f"got {','.join(header)}")
            first = 2
            while rows := list(islice(reader, _BLOCK_ROWS)):
                lines = np.arange(first, first + len(rows))
                first += len(rows)
                lengths = np.fromiter(map(len, rows), np.intp, len(rows))
                ok = lengths == width
                for i in np.flatnonzero(~ok & (lengths > 0)):
                    problems.append((int(lines[i]), 0,
                                     f"{path}:{lines[i]}: expected {width} "
                                     f"fields, got {lengths[i]}"))
                columns = list(zip(*compress(rows, ok))) or [()] * width
                del rows
                yield lines[ok], columns
                del columns
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _mark_repeats(seen: dict, keys, start: int, n: int) -> np.ndarray:
    """True for each of the ``n`` keys already in ``seen`` or earlier in
    ``keys``; the first occurrences are added to ``seen``.

    ``start`` must exceed every value stored in ``seen`` so far: each key is
    offered ``start + k``, and only a repeat gets an older value back.
    """
    first = np.fromiter(map(seen.setdefault, keys, count(start)), np.int64, n)
    return first != np.arange(start, start + n)


def _token_table(decl: CovariateDecl, tokens) -> tuple[dict, np.ndarray]:
    """``(lookup, table)`` for one covariate column.

    ``table[lookup[token]]`` is the token's expanded row: the indicator row
    of a categorical level, or ``float(token)`` for a numeric column.
    Invalid tokens are missing from ``lookup``; index -1 is a NaN row.
    """
    rows: list[list[float]] = []
    lookup: dict[str, int] = {}
    if decl.kind == "numeric":
        for token in dict.fromkeys(tokens):     # each distinct token once
            try:
                value = float(token)
            except ValueError:
                continue
            lookup[token] = len(rows)
            rows.append([value])
    else:
        kept = [lvl for lvl in decl.levels if lvl != decl.reference]
        for level in dict.fromkeys(decl.levels):
            lookup[level] = len(rows)
            rows.append([1.0 if level == lvl else 0.0 for lvl in kept])
    rows.append([np.nan] * decl.n_columns)
    return lookup, np.array(rows, dtype=float).reshape(len(rows), decl.n_columns)


def _convert_covariates(decls, columns, first_col: int, lines: np.ndarray,
                        keep: np.ndarray, path: Path, problems: list) -> np.ndarray:
    """(rows, expanded columns) covariate values of one block.

    Invalid tokens become NaN and, like non-finite numbers, are appended to
    ``problems`` in the ``keep`` rows.
    """
    parts = [np.zeros((len(lines), 0))]
    for offset, (decl, tokens) in enumerate(zip(decls, columns)):
        lookup, table = _token_table(decl, tokens)
        index = np.fromiter(map(lookup.get, tokens, repeat(-1)), np.intp, len(tokens))
        parts.append(table[index])
        col = first_col + offset
        for i in np.flatnonzero(~np.isfinite(parts[-1]).all(axis=1) & keep):
            what = (f"level {tokens[i]!r} not declared" if decl.kind != "numeric"
                    else f"non-numeric value {tokens[i]!r}" if index[i] < 0
                    else f"non-finite value {tokens[i]!r}")
            problems.append((int(lines[i]), col, f"{path}:{lines[i]}: column {col} "
                                                 f"({decl.name}): {what}"))
    return np.concatenate(parts, axis=1)


def _convert_responses(columns, lines: np.ndarray, keep: np.ndarray,
                       path: Path, problems: list) -> np.ndarray:
    """(rows, items) int8 response codes of one block.

    Invalid tokens become MISSING and, in the ``keep`` rows, are appended to
    ``problems``.
    """
    tokens = chain.from_iterable(columns)
    codes = np.fromiter(map(_RESPONSE_CODES.get, tokens, repeat(_BAD_RESPONSE)),
                        np.int8, len(columns) * len(lines)).reshape(len(columns), -1)
    bad = codes == _BAD_RESPONSE
    for j, i in zip(*np.nonzero(bad & keep)):
        problems.append((int(lines[i]), 3 + j, f"{path}:{lines[i]}: column {3 + j} "
                                               f"(item_{j + 1}): response "
                                               f"{columns[j][i]!r} is not 0, 1, or NA"))
    codes[bad] = MISSING
    return codes.T


def _in_file_order(problems: list) -> list[str]:
    return [message for _, _, message in sorted(problems, key=itemgetter(0, 1))]


def load_dataset(students_path, schools_path, config: ModelConfig) -> ResponseDataset:
    """Parse and validate the two dataset files into a ``ResponseDataset``.

    Every format violation is reported with file, line, and column; schools
    appear in the order of the schools file, and each school's students in
    the order of the students file.  Both files are read in blocks of
    ``_BLOCK_ROWS`` rows, each converted with array operations.
    """
    students_path = Path(students_path)
    schools_path = Path(schools_path)
    for p in (students_path, schools_path):
        if not p.exists():
            raise DataFormatError(f"missing input file: {p}")

    school_problems: list = []
    school_ids: list[str] = []
    m_u = sum(d.n_columns for d in config.school_covariates)
    w_blocks = [np.zeros((0, m_u))]
    seen: dict = {}
    n_rows = 0
    expected = ["school_id"] + [d.name for d in config.school_covariates]
    for lines, columns in _read_blocks(schools_path, expected, school_problems):
        ids = columns[0]
        repeated = _mark_repeats(seen, ids, n_rows, len(ids))
        n_rows += len(ids)
        for i in np.flatnonzero(repeated):
            school_problems.append((int(lines[i]), 1, f"{schools_path}:{lines[i]}: "
                                    "column 1 (school_id): duplicate school id "
                                    f"{ids[i]!r}"))
        keep = ~repeated
        school_ids.extend(compress(ids, keep))
        w_blocks.append(_convert_covariates(config.school_covariates, columns[1:], 2,
                                            lines, keep, schools_path,
                                            school_problems)[keep])
        del columns

    r = config.spec.item_bank.n_items
    m_v = sum(d.n_columns for d in config.student_covariates)
    item_names = [f"item_{j + 1}" for j in range(r)]
    expected = (["school_id", "student_id"] + item_names
                + [d.name for d in config.student_covariates])
    problems: list = []
    school_pos = dict(zip(school_ids, count()))
    seen = {}
    n_known = 0
    sidx_blocks = [np.zeros(0, dtype=np.intp)]
    response_blocks = [np.zeros((0, r), dtype=np.int8)]
    x_blocks = [np.zeros((0, m_v))]
    student_ids: list[str] = []
    for lines, columns in _read_blocks(students_path, expected, problems):
        sids, stids = columns[0], columns[1]
        sidx = np.fromiter(map(school_pos.get, sids, repeat(-1)), np.intp, len(sids))
        known = sidx >= 0
        n = int(known.sum())
        repeated = np.zeros(len(sids), dtype=bool)
        repeated[known] = _mark_repeats(seen, compress(zip(sids, stids), known),
                                        n_known, n)
        n_known += n
        for i in np.flatnonzero(~known):
            problems.append((int(lines[i]), 1, f"{students_path}:{lines[i]}: column 1 "
                             f"(school_id): unknown school id {sids[i]!r}"))
        for i in np.flatnonzero(repeated):
            problems.append((int(lines[i]), 2, f"{students_path}:{lines[i]}: column 2 "
                             f"(student_id): duplicate student {stids[i]!r} in "
                             f"school {sids[i]!r}"))
        keep = known & ~repeated
        sidx_blocks.append(sidx[keep])
        student_ids.extend(compress(stids, keep))
        response_blocks.append(_convert_responses(columns[2:2 + r], lines, keep,
                                                  students_path, problems)[keep])
        x_blocks.append(_convert_covariates(config.student_covariates, columns[2 + r:],
                                            3 + r, lines, keep, students_path,
                                            problems)[keep])
        del columns

    sidx = np.concatenate(sidx_blocks)
    counts = np.bincount(sidx, minlength=len(school_ids))
    errors = _in_file_order(school_problems) + _in_file_order(problems)
    errors += [f"{schools_path}: school {sid!r} has no students in {students_path}"
               for sid in compress(school_ids, counts == 0)]
    if errors:
        shown = errors[:_MAX_REPORTED_ERRORS]
        if len(errors) > _MAX_REPORTED_ERRORS:
            shown.append(f"... and {len(errors) - _MAX_REPORTED_ERRORS} more")
        raise DataFormatError("\n".join(shown))

    # Group the students by school, keeping file order within each school.
    order = np.argsort(sidx, kind="stable")
    return ResponseDataset(
        school_ids=school_ids,
        school_covariates=np.concatenate(w_blocks),
        sizes=counts,
        student_ids=np.array(student_ids, dtype=object)[order],
        student_covariates=np.concatenate(x_blocks)[order],
        responses=np.concatenate(response_blocks)[order],
    )


# ---------------------------------------------------------------------------
# Dataset writing (used by the simulate command)
# ---------------------------------------------------------------------------

# CSV token of each response value, indexed by value + 1 (MISSING is -1).
_RESPONSE_TOKENS = np.array(["NA", "0", "1"])


def _write_csv(path, header: list, rows) -> None:
    """Write a header row and ``rows`` as UTF-8 CSV with "\\n" line ends."""
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _dataset_rows(ids, responses: np.ndarray, covariates: np.ndarray, decls):
    """CSV rows: the ``ids`` columns, the tokens of the (rows, items)
    ``responses``, and one token per declared covariate, built
    ``_BLOCK_ROWS`` rows at a time.  Covariate tokens invert
    ``_token_table``: a numeric value is written as ``format(v, ".12g")``
    and an indicator row as its level, the reference level if all zero."""
    bounds = np.cumsum([0] + [d.n_columns for d in decls])
    for a in range(0, len(covariates), _BLOCK_ROWS):
        b = a + _BLOCK_ROWS
        cells = [column[a:b] for column in ids]
        cells += _RESPONSE_TOKENS[responses[a:b].T + 1].tolist()
        for decl, lo, hi in zip(decls, bounds, bounds[1:]):
            block = covariates[a:b, lo:hi]
            if decl.kind == "numeric":
                cells.append(list(map(format, block[:, 0].tolist(), repeat(".12g"))))
            else:
                kept = [lvl for lvl in decl.levels if lvl != decl.reference]
                code = (block @ np.arange(1.0, len(kept) + 1)).astype(np.intp)
                cells.append(np.array([decl.reference, *kept], object)[code].tolist())
        yield from zip(*cells)


def write_dataset_files(out_dir, data: ResponseDataset, student_decls,
                        school_decls) -> None:
    """Write students.csv and schools.csv of a dataset, each covariate column
    through its declaration, so that ``load_dataset`` reads the dataset back
    (bit for bit if no numeric covariate has more than 12 significant digits).
    """
    out_dir = Path(out_dir)
    _write_csv(out_dir / "schools.csv", ["school_id"] + [d.name for d in school_decls],
               _dataset_rows([data.school_ids], np.zeros((data.n_schools, 0), np.int8),
                             data.school_covariates, school_decls))
    items = [f"item_{j + 1}" for j in range(data.n_items)]
    _write_csv(out_dir / "students.csv",
               ["school_id", "student_id"] + items + [d.name for d in student_decls],
               _dataset_rows([np.repeat(data.school_ids, data.sizes), data.student_ids],
                             data.responses, data.student_covariates, student_decls))


# ---------------------------------------------------------------------------
# JSON outputs, and the parameter and spec blocks that reports share
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
    lc = params.lc_success
    return {**{name: getattr(params, name).tolist() for name in PARAM_BLOCKS},
            "lc_success": None if lc is None else lc.tolist()}


def params_from_dict(raw: dict, spec: ModelSpec | None = None) -> ParameterSet:
    """Inverse of ``params_to_dict``.

    JSON writes an empty (0, m) block as ``[]``; given the ``spec``, such a
    block gets its (0, m) shape back.  Other blocks keep the shape they were
    written with, for ``validate_params`` to check.
    """
    blocks = {name: np.asarray(raw[name], dtype=float) for name in PARAM_BLOCKS}
    for name, shape in (parameter_shapes(spec) if spec is not None else {}).items():
        if blocks[name].size == 0 and 0 in shape:
            blocks[name] = blocks[name].reshape(shape)
    lc = raw.get("lc_success")
    return ParameterSet(**blocks,
                        lc_success=None if lc is None else np.asarray(lc, dtype=float))


def stored_params(params: ParameterSet, spec: ModelSpec) -> ParameterSet:
    """``params`` as a report stores them: to 12 significant digits."""
    return params_from_dict(round12(params_to_dict(params)), spec)


def spec_to_dict(spec: ModelSpec) -> dict:
    bank = spec.item_bank
    return {
        "parameterization": spec.parameterization.value,
        "n_classes": spec.n_classes,
        "n_types": spec.n_types,
        "n_items": bank.n_items,
        "n_dims": bank.n_dims,
        **_bank_to_json(bank),
        "n_student_covariates": spec.n_student_covariates,
        "n_school_covariates": spec.n_school_covariates,
    }


def spec_from_dict(raw: dict) -> ModelSpec:
    """Inverse of ``spec_to_dict``."""
    counts = ("n_classes", "n_types", "n_student_covariates", "n_school_covariates")
    return ModelSpec(item_bank=_bank_from_json(raw),
                     parameterization=Parameterization(raw["parameterization"]),
                     **{name: _integer(raw[name], name) for name in counts})


def build_report(spec: ModelSpec, config: ModelConfig, result: FitResult,
                 classification, n_bic: int, profile_matrix,
                 profile_probs) -> dict:
    """Assemble the fit report structure (pre-rounding)."""
    student_cols = [c for d in config.student_covariates
                    for c in d.expanded_columns()]
    school_cols = [c for d in config.school_covariates
                   for c in d.expanded_columns()]
    n_par = count_free_parameters(spec)
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
    Path(path).write_text(json.dumps(report, indent=2, allow_nan=False) + "\n",
                          encoding="utf-8")


def write_sweep(path, result: SweepResult) -> None:
    """Write a sweep: its BIC sample size and choice, one row per k_U."""
    rows = [{name: getattr(row, name) for name in
             ("n_types", "loglik", "n_par", "bic", "converged", "error")}
            for row in result.rows]
    write_report(path, round12({"bic_n": result.bic_n,
                                "chosen_n_types": result.chosen_n_types, "rows": rows}))


def _covariate_decls(gens, prefix: str) -> tuple[CovariateDecl, ...]:
    """Declarations ``<prefix>1, <prefix>2, ...`` of simulated covariates; a
    categorical one has levels ``L0, L1, ...`` and reference ``L0``."""
    return tuple(
        CovariateDecl(f"{prefix}{idx}", "categorical",
                      tuple(f"L{k}" for k in range(len(gen.probs))), "L0")
        if isinstance(gen, CategoricalCovariate)
        else CovariateDecl(f"{prefix}{idx}", "numeric")
        for idx, gen in enumerate(gens, 1))


def _decl_entries(decls) -> list[dict]:
    """Config-file entries of covariate declarations."""
    return [{"name": d.name, "type": d.kind,
             **({"levels": list(d.levels), "reference": d.reference}
                if d.kind == "categorical" else {})}
            for d in decls]


def write_simulation(out_dir, design: SimulationDesign, sim) -> None:
    """Write the ``simulate_full(design)`` result ``sim`` as students.csv and
    schools.csv, the config.json that fits them, and truth.json: the design,
    its parameters and the latent labels."""
    out_dir = Path(out_dir)
    student_decls = _covariate_decls(design.student_covariates, "x")
    school_decls = _covariate_decls(design.school_covariates, "w")
    write_dataset_files(out_dir, sim.dataset, student_decls, school_decls)
    spec = design.spec
    write_report(out_dir / "config.json", {
        "n_classes": spec.n_classes, "n_types": spec.n_types,
        "parameterization": spec.parameterization.value,
        **_bank_to_json(spec.item_bank),
        "student_covariates": _decl_entries(student_decls),
        "school_covariates": _decl_entries(school_decls),
        "controls": {"seed": design.seed}, "bic_n": "students"})
    size = design.school_size
    truth = round12({
        "seed": design.seed, "n_schools": design.n_schools,
        "school_size": list(size) if isinstance(size, tuple) else size,
        "missing_rate": design.missing_rate, "spec": spec_to_dict(spec),
        "parameters": params_to_dict(design.truth)})
    truth["labels"] = {
        "types": (sim.labels.types + 1).tolist(),
        "classes": [(school + 1).tolist() for school in
                    np.split(sim.labels.classes, sim.dataset.starts[1:])],
    }
    write_report(out_dir / "truth.json", truth)


def write_assignments(out_dir, data: ResponseDataset, classification) -> None:
    """Write the per-student and per-school MAP assignment files."""
    out_dir = Path(out_dir)
    students = classification.student_assignments
    _write_csv(out_dir / "students_assign.csv",
               ["school_id", "student_id", "class", "posterior"],
               zip(np.repeat(data.school_ids, data.sizes), data.student_ids,
                   (students.labels + 1).tolist(),
                   map(format, students.posteriors.tolist(), repeat(".12g"))))
    schools = classification.school_assignments
    _write_csv(out_dir / "schools_assign.csv", ["school_id", "type", "posterior"],
               zip(data.school_ids, (schools.labels + 1).tolist(),
                   map(format, schools.posteriors.tolist(), repeat(".12g"))))
