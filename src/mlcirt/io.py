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

import codecs
import dataclasses
import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
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
    check_integer,
    check_number,
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
    """``build`` applied to the JSON object in the file at ``path``.  Errors
    become one ``DataFormatError``: ``missing input file: <path>``, ``<path>:
    <message>`` for ``build``'s own, else ``<path>: bad <what> (<error>)``."""
    path = Path(path)
    try:
        return build(_object(json.loads(path.read_text(encoding="utf-8-sig")), what))
    except FileNotFoundError:
        raise DataFormatError(f"missing input file: {path}") from None
    except DataFormatError as exc:
        message = str(exc)
    except KeyError as exc:
        message = f"bad {what} (missing key {exc})"
    except (AttributeError, TypeError, ValueError) as exc:
        message = f"bad {what} ({exc})"
    raise DataFormatError(f"{path}: {message}")


def _object(value, name: str) -> dict:
    """``value`` if it is a JSON object, else a ``TypeError`` naming ``name``."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, got {value!r}")
    return value


def _zero_based(values, name: str) -> list[int]:
    """0-based indices of a file's list of 1-based item or dimension numbers."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return [check_integer(v, f"{name} entry") - 1 for v in values]


def _bank_from_json(raw: dict) -> ItemBank:
    """The item bank of a file's ``dim_of`` and ``reference_items`` (default:
    each dimension's first item); any ``n_items`` and ``n_dims`` must agree."""
    refs = raw.get("reference_items")
    bank = ItemBank.from_dim_of(_zero_based(raw["dim_of"], "dim_of"),
                                None if refs is None
                                else _zero_based(refs, "reference_items"))
    for name, value in (("n_items", bank.n_items), ("n_dims", bank.n_dims)):
        if name in raw and check_integer(raw[name], name) != value:
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


def _parse_controls(raw: dict) -> FitControls:
    """The fit controls under ``controls`` (the defaults if absent or null)."""
    controls = {} if raw.get("controls") is None else _object(raw["controls"],
                                                              "controls")
    names = [field.name for field in dataclasses.fields(FitControls)]
    for key in controls:
        if key not in names:
            raise ValueError(f"unknown control {key!r}; the controls are "
                             + ", ".join(names))
    return FitControls(**controls)


def parse_config(path) -> ModelConfig:
    """Read and validate a model configuration file (JSON)."""
    def build(raw):
        bic_n = raw.get("bic_n", "students")
        if bic_n not in ("students", "schools"):
            bic_n = check_integer(bic_n, "bic_n, if not 'students' or 'schools',")
        student_covariates = _parse_covariate_decls(raw, "student_covariates")
        school_covariates = _parse_covariate_decls(raw, "school_covariates")
        spec = ModelSpec(
            item_bank=_bank_from_json(raw),
            n_classes=raw.get("n_classes", 1),
            n_types=raw.get("n_types", 1),
            parameterization=Parameterization(
                str(raw.get("parameterization", "2pl")).lower()),
            n_student_covariates=sum(d.n_columns for d in student_covariates),
            n_school_covariates=sum(d.n_columns for d in school_covariates),
        )
        return ModelConfig(spec=spec, student_covariates=student_covariates,
                           school_covariates=school_covariates,
                           controls=_parse_controls(raw),
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
        spec = spec_from_dict(_object(raw["spec"], "spec"))
        size = raw["school_size"]
        return SimulationDesign(
            spec=spec,
            truth=params_from_dict(_object(raw["truth"], "truth"), spec),
            n_schools=raw["n_schools"],
            school_size=tuple(size) if isinstance(size, list) else size,
            student_covariates=_covariate_generators(raw, "student_covariates"),
            school_covariates=_covariate_generators(raw, "school_covariates"),
            seed=raw.get("seed", 0) if seed_override is None else seed_override,
            missing_rate=raw.get("missing_rate", 0.0),
        )
    return _read_input(path, "design", build)


def parse_report(path) -> tuple[ModelSpec, ParameterSet]:
    """The model spec and the parameters of a fit report (JSON), validated."""
    def build(raw):
        spec = spec_from_dict(_object(raw["model"], "model"))
        params = params_from_dict(_object(raw["parameters"], "parameters"), spec)
        if problems := validate_params(params, spec):
            raise DataFormatError("; ".join(problems))
        return spec, params
    return _read_input(path, "report", build)


def read_report(path) -> dict:
    return _read_input(path, "report", lambda raw: raw)


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------

# Rows converted at once.  The reader holds the bytes and field offsets of one
# block at a time, so its memory beyond the converted arrays does not grow
# with the file; each read asks for about this many rows' bytes, taking the
# header's length as a row's.  4096-row blocks loaded the 200k-student files
# about 15% faster, but lifted the traced peak of loading the 4000-student
# desk files from 1.4 to 3.0 MB, above the 1.5 MB of a csv-module reader.
_BLOCK_ROWS = 1024

# The bytes the tokenizer looks for.
_QUOTE, _COMMA, _LF, _CR = 34, 44, 10, 13

# Code of a response field by its first two bytes as a little-endian word,
# a one-byte field's second byte and a longer field's bytes zeroed: 0 for "0",
# 1 for "1", MISSING for "NA" and _BAD_RESPONSE for anything else.
_BAD_RESPONSE = -2
_RESPONSE_CODES = np.full(1 << 16, _BAD_RESPONSE, dtype=np.int8)
_RESPONSE_CODES[[ord("0"), ord("1"), int.from_bytes(b"NA", "little")]] = [0, 1, MISSING]
_RESPONSE_MASKS = np.array([0, 0xFF, 0xFFFF, 0], dtype=np.uint16)   # by min(length, 3)

# Zero bytes after a block's bytes, so that the eight bytes from any field
# start can be read as one word; _LOW_BYTES[k] keeps a word's first k bytes.
_PAD = 8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

_QUOTE_PROBLEMS = ("quote inside an unquoted field", "text after a closing quote",
                   "quote not closed")


def _first_bad_quote(b: np.ndarray, quote: np.ndarray, outside: np.ndarray,
                     eof: bool):
    """``(position, message)`` of the first malformed quote of the bytes ``b``,
    or None.  ``outside`` is False inside quoted fields and at each opening
    quote.  A quote opens a field where one starts (after a separator, a line
    end, the start, or a closing quote, which makes the pair a doubled quote)
    and closes one where it ends (before a separator, a line end, the end of
    the bytes, or an opening quote)."""
    q = np.flatnonzero(quote)
    breaks = (_COMMA, _LF, _CR, _QUOTE)
    opens = ~outside[q]
    after_break = (q == 0) | (outside[q - 1] & np.isin(b[q - 1], breaks))
    before_break = (q + 1 == len(b)) | np.isin(b[np.minimum(q + 1, len(b) - 1)], breaks)
    kind = np.where(opens, np.where(after_break, -1, 0), np.where(before_break, -1, 1))
    bad = np.flatnonzero(kind >= 0)
    if bad.size:
        return int(q[bad[0]]), _QUOTE_PROBLEMS[kind[bad[0]]]
    if eof and not outside[-1]:
        return int(q[-1]), _QUOTE_PROBLEMS[2]
    return None


def _scan(buf: bytes, eof: bool):
    """The complete records of ``buf``, which starts at a record start.

    Returns ``(starts, stops, comma, used, bad)``: record k's text is the
    bytes ``[starts[k], stops[k])``, ``comma`` marks the field separators,
    ``used`` is where the first incomplete record starts, and ``bad`` is
    None or ``(position, message)`` of the first malformed quote, which
    lies in that record.  Records end at "\\n", "\\r\\n" or a lone "\\r"
    outside quotes; unless ``eof``, a last byte "\\r" waits for the next
    read to tell which.
    """
    b = np.frombuffer(buf, np.uint8)
    quote = b == _QUOTE
    outside = bad = None
    if quote.any():
        outside = ~np.logical_xor.accumulate(quote)
        bad = _first_bad_quote(b, quote, outside, eof)
    del quote
    ends = b == _CR
    ends[:-1] &= b[1:] != _LF
    if not eof and len(ends):
        ends[-1] = False
    ends |= b == _LF
    comma = b == _COMMA
    if outside is not None:
        ends &= outside
        comma &= outside
    ends = np.flatnonzero(ends)
    if bad is not None:
        ends = ends[:np.searchsorted(ends, bad[0])]
    used = int(ends[-1]) + 1 if len(ends) else 0
    starts = np.concatenate(([0], ends[:-1] + 1))[:len(ends)]
    stops = ends - ((b[ends] == _LF) & (b[ends - 1] == _CR) & (ends > 0))
    if eof and bad is None and used < len(b):
        starts, stops, used = np.append(starts, used), np.append(stops, len(b)), len(b)
    return starts, stops, comma, used, bad


class _Fields:
    """The rows of one block that have the expected number of fields.

    Field ``j`` of row ``i`` is the bytes ``data[start[i, j]:end[i, j]]``:
    without the quotes around a quoted field, with its doubled quotes still
    doubled.  ``text`` is the block's bytes decoded.  (A plain class: a
    dataclass would add a millisecond to every import.)
    """

    def __init__(self, lines: np.ndarray, data: np.ndarray, text: str,
                 start: np.ndarray, end: np.ndarray):
        self.lines = lines    # (rows,) row number of each row in its file
        self.data = data      # the block's bytes as uint8, then _PAD zero bytes
        self.text = text
        self.start = start    # (rows, fields) int32 byte offsets
        self.end = end

    def rows(self, keep: np.ndarray) -> "_Fields":
        return _Fields(self.lines[keep], self.data, self.text, self.start[keep],
                       self.end[keep])

    def _words(self, dtype: str) -> np.ndarray:
        """The bytes from each byte offset as one little-endian ``dtype`` word."""
        return np.ndarray((len(self.data) - _PAD + 1,), dtype=dtype, buffer=self.data,
                          strides=(1,))

    @cached_property
    def _chars_before(self) -> np.ndarray | None:
        """UTF-8 continuation bytes before each byte offset; None if ASCII."""
        if len(self.text) + _PAD == len(self.data):
            return None
        return np.concatenate(([0], np.cumsum((self.data & 0xC0) == 0x80)))

    def texts(self, j: int, rows=slice(None)) -> list[str]:
        """Field ``j`` of the ``rows`` as strings."""
        start, end = self.start[rows, j], self.end[rows, j]
        if (shift := self._chars_before) is not None:
            start, end = start - shift[start], end - shift[end]
        tokens = list(map(self.text.__getitem__, map(slice, start.tolist(), end.tolist())))
        if '"' in self.text:
            tokens = [token.replace('""', '"') for token in tokens]
        return tokens

    def _word(self, start: np.ndarray, length: np.ndarray) -> np.ndarray:
        """The first ``min(length, 8)`` bytes from each ``start`` as one uint64."""
        return self._words("<u8")[start] & _LOW_BYTES[np.minimum(length, 8)]

    def distinct(self, j: int) -> tuple[list[str], np.ndarray]:
        """``(tokens, inverse)``: field ``j`` of row ``i`` is ``tokens[inverse[i]]``.

        Only one field of each run of equal fields is decoded.  Sorting by a
        key of each field's length and first and last eight bytes places equal
        fields side by side; the key decides equality up to 16 bytes, and
        longer fields with equal keys are compared byte by byte.
        """
        start, end = self.start[:, j], self.end[:, j]
        length = end - start
        head = self._word(start, length)
        tail = self._word(np.maximum(end - 8, start), length)
        order = np.argsort(head * np.uint64(0x9E3779B97F4A7C15) ^ tail
                           ^ length.astype(np.uint64))
        a, b = order[1:], order[:-1]
        same = (length[a] == length[b]) & (head[a] == head[b]) & (tail[a] == tail[b])
        long = np.flatnonzero(same & (length[a] > 16))
        if len(long):
            same[long] = _same_bytes(self.data, start[a[long]], start[b[long]],
                                     length[a[long]])
        new = np.ones(len(order), dtype=bool)
        new[1:] = ~same
        inverse = np.empty(len(start), dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        return self.texts(j, order[new]), inverse

    def response_codes(self, columns: slice) -> np.ndarray:
        """(rows, columns) int8 codes of the response fields: 0, 1,
        MISSING for "NA", _BAD_RESPONSE for anything else."""
        start = self.start[:, columns]
        length = np.minimum(self.end[:, columns] - start, 3)
        return _RESPONSE_CODES[self._words("<u2")[start] & _RESPONSE_MASKS[length]]


def _same_bytes(data: np.ndarray, a: np.ndarray, b: np.ndarray,
                length: np.ndarray) -> np.ndarray:
    """Whether ``data[a[i]:a[i] + length[i]]`` equals ``data[b[i]:b[i] + length[i]]``."""
    pair = np.repeat(np.arange(len(a)), length)
    offset = np.arange(len(pair)) - np.repeat(np.cumsum(length) - length, length)
    differ = data[a[pair] + offset] != data[b[pair] + offset]
    return np.bincount(pair[differ], minlength=len(a)) == 0


class _CsvFile:
    """One CSV file, read as bytes in blocks of at most ``_BLOCK_ROWS`` rows.

    The format is RFC 4180's: fields end at ``,`` and records at "\\n",
    "\\r\\n" or a lone "\\r", outside quotes.  A field that starts with ``"``
    is quoted: it holds anything up to the next single ``"``, which must end
    the field, and ``""`` inside stands for one quote.  Any other quote (in
    an unquoted field, after a closing quote, or never closed) is a problem
    that ends the reading, since the rows after it cannot be told apart;
    ``truncated`` is then set.  ``problems`` holds ``(row, column, message)``,
    counting the header as row 1 and blank rows too.
    """

    def __init__(self, path: Path, expected: list[str]):
        self.path = path
        self.expected = expected
        self.problems: list = []
        self.truncated = False

    def blocks(self):
        """Yield the ``_Fields`` of each block, whose rows have the expected
        number of fields; blank rows are skipped, other rows are problems."""
        with open(self.path, "rb") as handle:
            pending = handle.readline().removeprefix(codecs.BOM_UTF8)
            size = _BLOCK_ROWS * max(len(pending), 1)
            row = 1                       # of the first record in ``pending``
            while True:
                more = handle.read(max(size, len(pending)))
                buf, eof = pending + more, not more
                del pending, more
                starts, stops, comma, used, bad = _scan(buf, eof)
                first = 0
                if row == 1 and len(starts):
                    self._check_header(buf, starts[0], stops[0], comma)
                    first = 1
                for a in range(first, len(starts), _BLOCK_ROWS):
                    yield self._fields(buf, starts[a:a + _BLOCK_ROWS],
                                       stops[a:a + _BLOCK_ROWS], comma, row + a)
                row += len(starts)
                if bad is not None:
                    column = 1 + np.count_nonzero(comma[used:bad[0]])
                    self.problems.append((row, column, f"{self.path}:{row}: column "
                                          f"{column}: {bad[1]}; the rows after it "
                                          "are not read"))
                    self.truncated = True
                    return
                if eof:
                    return
                pending = buf[used:]

    def _decode(self, raw) -> str:
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{self.path}: not UTF-8 text ({exc})") from exc

    def _check_header(self, buf: bytes, start: int, stop: int, comma: np.ndarray) -> None:
        header = []
        if start < stop:
            cuts = (start + np.flatnonzero(comma[start:stop])).tolist()
            for a, b in zip([start, *(c + 1 for c in cuts)], [*cuts, stop]):
                field = buf[a:b]
                if field[:1] == b'"':
                    field = field[1:-1].replace(b'""', b'"')
                header.append(self._decode(field))
        if header != self.expected:
            raise DataFormatError(f"{self.path}:1: header must be "
                                  f"{','.join(self.expected)}, got {','.join(header)}")

    def _fields(self, buf: bytes, starts: np.ndarray, stops: np.ndarray,
                comma: np.ndarray, row: int) -> _Fields:
        """The ``_Fields`` of the records ``[starts[k], stops[k])`` of ``buf``,
        the first of which is file row ``row``; ``comma`` marks separators."""
        width = len(self.expected)
        lo, hi = int(starts[0]), int(stops[-1])
        text = self._decode(memoryview(buf)[lo:hi])
        data = np.zeros(hi - lo + _PAD, dtype=np.uint8)
        data[:hi - lo] = np.frombuffer(buf, np.uint8, hi - lo, lo)
        sep = np.flatnonzero(comma[lo:hi])
        starts, stops = starts - lo, stops - lo
        first_sep = np.searchsorted(sep, starts)      # each record's first
        n_seps = np.diff(first_sep, append=len(sep))
        n_fields = n_seps + 1
        n_fields[starts == stops] = 0                 # a blank row has none
        lines = row + np.arange(len(starts))
        for i in np.flatnonzero((n_fields != width) & (n_fields > 0)):
            self.problems.append((int(lines[i]), 0, f"{self.path}:{lines[i]}: "
                                  f"expected {width} fields, got {n_fields[i]}"))
        good = n_fields == width
        cut = sep[np.repeat(good, n_seps)].reshape(int(good.sum()), width - 1)
        start = np.empty((len(cut), width), dtype=np.int32)
        end = np.empty_like(start)
        start[:, 0], start[:, 1:] = starts[good], cut
        start[:, 1:] += 1
        end[:, -1], end[:, :-1] = stops[good], cut
        quoted = data[start] == _QUOTE
        start += quoted
        end -= quoted
        return _Fields(lines[good], data, text, start, end)


def _first_seen(groups: np.ndarray, ids: list[str]) -> np.ndarray:
    """False for each row whose ``(groups[i], ids[i])`` pair is in an earlier row.

    The rows are sorted by a key of group and string hash, which places equal
    pairs side by side; only rows whose key equals a neighbour's are compared
    as pairs, in file order.
    """
    key = (np.fromiter(map(hash, ids), np.int64, len(ids))
           ^ groups.astype(np.int64) * np.int64(-0x61C8864680B583EB))
    order = np.argsort(key)
    tie = np.concatenate(([0], key[order[1:]] == key[order[:-1]], [0]))
    bounds = np.flatnonzero(np.diff(tie.astype(np.int8))).tolist()
    first = np.ones(len(ids), dtype=bool)
    for a, b in zip(bounds[::2], bounds[1::2]):     # order[a:b + 1] tie
        seen: set = set()
        for i in sorted(order[a:b + 1].tolist()):
            pair = (groups[i], ids[i])
            first[i] = pair not in seen
            seen.add(pair)
    return first


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


def _convert_covariates(decls, fields: _Fields, first: int, path: Path,
                        problems: list) -> np.ndarray:
    """(rows, expanded columns) covariate values of one block, whose fields
    ``first``, ``first + 1``, ... hold the tokens.  Invalid tokens become NaN
    and, like numbers whose square is not finite, are appended to
    ``problems``: the membership information sums products of covariates."""
    parts = [np.zeros((len(fields.lines), 0))]
    for j, decl in enumerate(decls, first):
        tokens, inverse = fields.distinct(j)
        lookup, table = _token_table(decl, tokens)
        index = np.fromiter(map(lookup.get, tokens, repeat(-1)), np.intp, len(tokens))
        values = table[index]
        parts.append(values[inverse])
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(values * values).all(axis=1)
        for i in np.flatnonzero(bad[inverse]):
            k = inverse[i]
            token = tokens[k]
            what = (f"level {token!r} not declared" if decl.kind != "numeric"
                    else f"non-numeric value {token!r}" if index[k] < 0
                    else f"non-finite value {token!r}" if not np.isfinite(values[k, 0])
                    else f"value {token!r} is too large (its square is not finite)")
            line = fields.lines[i]
            problems.append((int(line), j + 1, f"{path}:{line}: column {j + 1} "
                                               f"({decl.name}): {what}"))
    return np.concatenate(parts, axis=1)


def _sum_of_squares_problems(decls, values: np.ndarray, first: int,
                             path: Path) -> list[str]:
    """One line per numeric covariate column (field ``first``, ``first + 1``,
    ... of ``decls``) whose every square is finite but whose sum of squares
    over the ``values`` rows is not: the membership information adds those
    squares up."""
    columns = np.cumsum([0] + [d.n_columns for d in decls])
    problems = []
    for j, (decl, c) in enumerate(zip(decls, columns), first):
        if decl.kind != "numeric":
            continue
        with np.errstate(over="ignore"):
            squares = values[:, c] * values[:, c]
            if np.isfinite(squares).all() and not np.isfinite(squares.sum()):
                problems.append(f"{path}: column {j + 1} ({decl.name}): values too "
                                "large (their sum of squares is not finite)")
    return problems


def _convert_responses(fields: _Fields, r: int, path: Path, problems: list) -> np.ndarray:
    """(rows, items) int8 response codes of one block (fields 2 to 2 + r).
    Invalid tokens become MISSING and are appended to ``problems``."""
    codes = fields.response_codes(slice(2, 2 + r))
    bad = codes == _BAD_RESPONSE
    for i, j in zip(*np.nonzero(bad)):
        line = fields.lines[i]
        problems.append((int(line), 3 + j, f"{path}:{line}: column {3 + j} "
                                           f"(item_{j + 1}): response "
                                           f"{fields.texts(2 + j, [i])[0]!r} "
                                           "is not 0, 1, or NA"))
    codes[bad] = MISSING
    return codes


def _in_file_order(problems: list) -> list[str]:
    return [message for _, _, message in sorted(problems, key=itemgetter(0, 1))]


def _raise_if_any(errors: list[str]) -> None:
    if errors:
        shown = errors[:_MAX_REPORTED_ERRORS]
        if len(errors) > _MAX_REPORTED_ERRORS:
            shown.append(f"... and {len(errors) - _MAX_REPORTED_ERRORS} more")
        raise DataFormatError("\n".join(shown))


def _drop_repeated(first: np.ndarray, lines: np.ndarray, values: list) -> list:
    """The ``values`` problems of the rows that are kept, the ``first`` ones."""
    dropped = set(lines[~first].tolist())
    return [p for p in values if p[0] not in dropped]


def load_dataset(students_path, schools_path, config: ModelConfig) -> ResponseDataset:
    """Parse and validate the two dataset files into a ``ResponseDataset``.

    Every format violation is reported with file, line, and column; schools
    appear in the order of the schools file, and each school's students in
    the order of the students file.  Both files are read in blocks of
    ``_BLOCK_ROWS`` rows, each converted with array operations.  A repeated
    school, or student within a school, is found once the file is read;
    its row's value problems are then dropped, as it is not loaded.
    """
    students_path = Path(students_path)
    schools_path = Path(schools_path)
    for p in (students_path, schools_path):
        if not p.exists():
            raise DataFormatError(f"missing input file: {p}")

    schools = _CsvFile(schools_path,
                       ["school_id"] + [d.name for d in config.school_covariates])
    m_u = sum(d.n_columns for d in config.school_covariates)
    school_ids: list[str] = []
    line_blocks = [np.zeros(0, dtype=int)]
    w_blocks = [np.zeros((0, m_u))]
    values: list = []
    for fields in schools.blocks():
        school_ids.extend(fields.texts(0))
        line_blocks.append(fields.lines)
        w_blocks.append(_convert_covariates(config.school_covariates, fields, 1,
                                            schools_path, values))
    lines = np.concatenate(line_blocks)
    first = _first_seen(np.zeros(len(school_ids), dtype=np.intp), school_ids)
    school_problems = schools.problems + _drop_repeated(first, lines, values)
    for i in np.flatnonzero(~first):
        school_problems.append((int(lines[i]), 1, f"{schools_path}:{lines[i]}: "
                                "column 1 (school_id): duplicate school id "
                                f"{school_ids[i]!r}"))
    school_ids = list(compress(school_ids, first))
    school_covariates = np.concatenate(w_blocks)[first]
    if schools.truncated:
        _raise_if_any(_in_file_order(school_problems))

    r = config.spec.item_bank.n_items
    m_v = sum(d.n_columns for d in config.student_covariates)
    students = _CsvFile(students_path,
                        ["school_id", "student_id"] + [f"item_{j + 1}" for j in range(r)]
                        + [d.name for d in config.student_covariates])
    school_pos = dict(zip(school_ids, count()))
    student_ids: list[str] = []
    line_blocks = [np.zeros(0, dtype=int)]
    sidx_blocks = [np.zeros(0, dtype=np.intp)]
    response_blocks = [np.zeros((0, r), dtype=np.int8)]
    x_blocks = [np.zeros((0, m_v))]
    values = []
    for fields in students.blocks():
        sids, inverse = fields.distinct(0)
        sidx = np.fromiter(map(school_pos.get, sids, repeat(-1)), np.intp,
                           len(sids))[inverse]
        for i in np.flatnonzero(sidx < 0):
            students.problems.append((int(fields.lines[i]), 1, f"{students_path}:"
                                      f"{fields.lines[i]}: column 1 (school_id): "
                                      f"unknown school id {sids[inverse[i]]!r}"))
        known = sidx >= 0
        fields = fields.rows(known)
        sidx_blocks.append(sidx[known])
        line_blocks.append(fields.lines)
        student_ids.extend(fields.texts(1))
        response_blocks.append(_convert_responses(fields, r, students_path, values))
        x_blocks.append(_convert_covariates(config.student_covariates, fields, 2 + r,
                                            students_path, values))
    sidx = np.concatenate(sidx_blocks)
    lines = np.concatenate(line_blocks)
    first = _first_seen(sidx, student_ids)
    problems = students.problems + _drop_repeated(first, lines, values)
    for i in np.flatnonzero(~first):
        problems.append((int(lines[i]), 2, f"{students_path}:{lines[i]}: column 2 "
                         f"(student_id): duplicate student {student_ids[i]!r} in "
                         f"school {school_ids[sidx[i]]!r}"))
    errors = _in_file_order(school_problems) + _in_file_order(problems)
    if students.truncated:
        _raise_if_any(errors)
    sidx = sidx[first]
    counts = np.bincount(sidx, minlength=len(school_ids))
    errors += [f"{schools_path}: school {sid!r} has no students in {students_path}"
               for sid in compress(school_ids, counts == 0)]
    student_covariates = np.concatenate(x_blocks)[first]
    errors += (_sum_of_squares_problems(config.school_covariates, school_covariates,
                                        1, schools_path)
               + _sum_of_squares_problems(config.student_covariates,
                                          student_covariates, 2 + r, students_path))
    _raise_if_any(errors)

    # Group the students by school, keeping file order within each school.
    order = np.argsort(sidx, kind="stable")
    return ResponseDataset(
        school_ids=school_ids,
        school_covariates=school_covariates,
        sizes=counts,
        student_ids=np.array(student_ids, dtype=object)[first][order],
        student_covariates=student_covariates[order],
        responses=np.concatenate(response_blocks)[first][order],
    )


# ---------------------------------------------------------------------------
# Dataset and assignment writing
# ---------------------------------------------------------------------------

# A field is quoted if it holds one of these; so is a row's only field if
# empty, which would otherwise make a blank row.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_fields(values, alone: bool = False) -> list[str]:
    """``values`` as CSV fields, their ``str``: quoted, with each quote doubled,
    where they hold ``,``, ``"``, "\\r" or "\\n", or are empty and ``alone``
    (the only field of their rows)."""
    values = list(map(str, values))
    if not _NEEDS_QUOTES.search("".join(values)) and not (alone and "" in values):
        return values
    return ['"' + v.replace('"', '""') + '"'
            if _NEEDS_QUOTES.search(v) or (alone and not v) else v for v in values]


def _write_csv(path, header: list[str], fmt: str, columns) -> None:
    """Write ``header`` and one line ``fmt % row`` per row of ``columns``,
    ``_BLOCK_ROWS`` rows at a time: UTF-8 with "\\n" line ends.  Each column
    is a sequence whose slices are lists."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_csv_fields(header, alone=len(header) == 1)) + "\n")
        for a in range(0, len(columns[0]), _BLOCK_ROWS):
            rows = zip(*(column[a:a + _BLOCK_ROWS] for column in columns))
            handle.write("".join(map(fmt.__mod__, rows)))


# ",NA", ",0" and ",1": each response value's field with the comma before it,
# indexed by value + 1 (MISSING is -1) and zero-padded to three bytes.
_RESPONSE_FIELDS = np.array([[_COMMA, ord("N"), ord("A")], [_COMMA, ord("0"), 0],
                             [_COMMA, ord("1"), 0]], dtype=np.uint8)


class _ResponseText:
    """Rows of a (rows, items) response matrix as ",t1,t2,...", sliced."""

    def __init__(self, responses: np.ndarray):
        self.responses = responses

    def __len__(self) -> int:
        return len(self.responses)

    def __getitem__(self, rows: slice) -> list[str]:
        block = self.responses[rows]
        cells = np.empty((len(block), 3 * block.shape[1] + 1), dtype=np.uint8)
        cells[:, :-1] = _RESPONSE_FIELDS[block + 1].reshape(len(block), -1)
        cells[:, -1] = _LF
        return cells[cells != 0].tobytes().decode("ascii").split("\n")[:-1]


def _covariate_columns(covariates: np.ndarray, decls) -> tuple[str, list]:
    """``(format, columns)`` of the declared covariates, which invert
    ``_token_table``: a numeric value is written as ``%.12g`` and an
    indicator row as its level, the reference level if all zero."""
    fmt, columns = "", []
    bounds = np.cumsum([0] + [d.n_columns for d in decls])
    for decl, lo, hi in zip(decls, bounds, bounds[1:]):
        block = covariates[:, lo:hi]
        if decl.kind == "numeric":
            fmt += ",%.12g"
            columns.append(block[:, 0].tolist())
        else:
            kept = [lvl for lvl in decl.levels if lvl != decl.reference]
            code = (block @ np.arange(1.0, len(kept) + 1)).astype(np.intp)
            fmt += ",%s"
            columns.append(np.array(_csv_fields([decl.reference, *kept]),
                                    dtype=object)[code].tolist())
    return fmt, columns


def write_dataset_files(out_dir, data: ResponseDataset, student_decls,
                        school_decls) -> None:
    """Write students.csv and schools.csv of a dataset, each covariate column
    through its declaration, so that ``load_dataset`` reads the dataset back
    (bit for bit if no numeric covariate has more than 12 significant digits).
    """
    out_dir = Path(out_dir)
    fmt, columns = _covariate_columns(data.school_covariates, school_decls)
    school_ids = _csv_fields(data.school_ids, alone=not school_decls)
    _write_csv(out_dir / "schools.csv", ["school_id"] + [d.name for d in school_decls],
               "%s" + fmt + "\n", [school_ids, *columns])
    items = [f"item_{j + 1}" for j in range(data.n_items)]
    fmt, columns = _covariate_columns(data.student_covariates, student_decls)
    _write_csv(out_dir / "students.csv",
               ["school_id", "student_id"] + items + [d.name for d in student_decls],
               "%s,%s%s" + fmt + "\n",
               [np.repeat(np.array(_csv_fields(data.school_ids), dtype=object),
                          data.sizes).tolist(),
                _csv_fields(data.student_ids), _ResponseText(data.responses), *columns])


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
    """Every block of ``PARAM_BLOCKS`` as nested lists, ``None`` if absent."""
    return {name: None if (block := getattr(params, name)) is None else block.tolist()
            for name in PARAM_BLOCKS}


def params_from_dict(raw: dict, spec: ModelSpec | None = None) -> ParameterSet:
    """Inverse of ``params_to_dict``; an absent or ``None`` block is ``None``.

    JSON writes an empty (0, m) block as ``[]``; given the ``spec``, such a
    block gets its (0, m) shape back.  Other blocks keep the shape they were
    written with, for ``validate_params`` to check.
    """
    blocks = {name: None if (value := raw.get(name)) is None else _numbers(value, name)
              for name in PARAM_BLOCKS}
    for name, shape in (parameter_shapes(spec) if spec is not None else {}).items():
        if blocks[name] is not None and blocks[name].size == 0 and 0 in shape:
            blocks[name] = blocks[name].reshape(shape)
    return ParameterSet(**blocks)


def _numbers(value, name: str) -> np.ndarray:
    """``value``, a number or nested lists of them, as a float array; a
    string, bool or null anywhere in it is a ``ValueError``."""
    pending = [value]
    while pending:
        entry = pending.pop()
        if isinstance(entry, list):
            pending.extend(entry)
        else:
            check_number(entry, f"{name} entry")
    return np.asarray(value, dtype=float)


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
                     **{name: raw[name] for name in counts})


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
            "avg_class_weights": classification.avg_class_weights,
            "avg_type_weights": classification.avg_type_weights,
            "support_points_raw": classification.support_points.raw,
            "support_points_std": classification.support_points.standardized,
            "abilities_std": classification.abilities_std,
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
    # One line: large designs have hundreds of thousands of labels.
    (out_dir / "truth.json").write_text(
        json.dumps(truth, separators=(",", ":"), allow_nan=False) + "\n",
        encoding="utf-8")


def write_assignments(out_dir, data: ResponseDataset, classification) -> None:
    """Write the per-student and per-school MAP assignment files."""
    out_dir = Path(out_dir)
    school_ids = _csv_fields(data.school_ids)
    students = classification.student_assignments
    _write_csv(out_dir / "students_assign.csv",
               ["school_id", "student_id", "class", "posterior"], "%s,%s,%d,%.12g\n",
               [np.repeat(np.array(school_ids, dtype=object), data.sizes).tolist(),
                _csv_fields(data.student_ids), (students.labels + 1).tolist(),
                students.posteriors.tolist()])
    schools = classification.school_assignments
    _write_csv(out_dir / "schools_assign.csv", ["school_id", "type", "posterior"],
               "%s,%d,%.12g\n",
               [school_ids, (schools.labels + 1).tolist(), schools.posteriors.tolist()])
