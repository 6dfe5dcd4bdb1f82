"""The block-wise CSV loader against the row-by-row oracle, and its memory."""

import csv
import dataclasses
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlcirt import io as mio
from mlcirt.data import MISSING, ResponseDataset
from mlcirt.em import FitControls
from mlcirt.io import CovariateDecl, DataFormatError, ModelConfig, load_dataset
from mlcirt.model import ItemBank, ModelSpec

from reference import load_dataset_per_row

# Ids that need CSV quoting, a non-ASCII letter, and one that differs only
# in padding.
IDS = ["a", "b", "a,b", 'q"t', "Città", " a", ""]
RESPONSE_TOKENS = ["0", "1", "NA", "0", "1", "NA", "2", "", "na", " 1"]
NUMERIC_TOKENS = ["1.5", "-2", "0", "1_0", " 3 ", "-0.0", "nan", "inf", "-inf",
                  "1e400", "abc", "", "1,5"]
LEVELS = ("M", "F", "x,y")


def make_config(n_items, student_kinds, school_kinds) -> ModelConfig:
    def decls(kinds, prefix):
        return tuple(
            CovariateDecl(f"{prefix}{k}", "numeric") if kind == "numeric"
            else CovariateDecl(f"{prefix}{k}", "categorical", LEVELS, LEVELS[k % 3])
            for k, kind in enumerate(kinds))

    student, school = decls(student_kinds, "x"), decls(school_kinds, "w")
    spec = ModelSpec(ItemBank.single_dimension(n_items), n_classes=1, n_types=1,
                     n_student_covariates=sum(d.n_columns for d in student),
                     n_school_covariates=sum(d.n_columns for d in school))
    return ModelConfig(spec=spec, student_covariates=student,
                       school_covariates=school, controls=FitControls(),
                       bic_n="students")


VALID_NUMERIC = NUMERIC_TOKENS[:6]


def covariate_token(draw, kind, faulty):
    if kind == "numeric":
        return draw(st.sampled_from(NUMERIC_TOKENS if faulty() else VALID_NUMERIC))
    return draw(st.sampled_from(("X", "", "m") if faulty() else LEVELS))


@st.composite
def dataset_files(draw):
    """(config, schools rows, students rows); ``None`` rows are blank.

    Each kind of fault is injected at a drawn rate, zero for about a third
    of the examples, so clean files that load are generated too.
    """
    rate = draw(st.sampled_from([0, 0, 2, 10, 40, 80]))

    def faulty(share=1.0):
        return rate > 0 and draw(st.integers(0, 99)) < rate * share

    n_items = draw(st.integers(1, 3))
    kinds = st.lists(st.sampled_from(["numeric", "categorical"]), max_size=2)
    student_kinds, school_kinds = draw(kinds), draw(kinds)
    config = make_config(n_items, student_kinds, school_kinds)

    school_pool = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4,
                                unique=True))
    schools = [["school_id"] + [d.name for d in config.school_covariates]]
    for sid in school_pool + (school_pool[:1] if faulty() else []):
        if draw(st.integers(0, 9)) == 0:
            schools.append(None)
        row = [sid] + [covariate_token(draw, kind, faulty) for kind in school_kinds]
        if faulty():
            row = row[:-1] if len(row) > 1 else row + ["extra"]
        schools.append(row)

    students = [["school_id", "student_id"]
                + [f"item_{j + 1}" for j in range(n_items)]
                + [d.name for d in config.student_covariates]]
    if rate and draw(st.integers(0, 19)) == 0:
        students[0] = students[0][:-1]          # a bad header
    owners = school_pool + draw(st.lists(st.sampled_from(school_pool),
                                         min_size=40 if rate == 80 else 0, max_size=60))
    if faulty():
        owners = owners[1:]                     # a school may get no students
    owners = draw(st.permutations(owners))      # students out of school order
    ids = []
    for k, sid in enumerate(owners):
        if draw(st.integers(0, 9)) == 0:
            students.append(None)
        if faulty(0.2):
            sid = "unknown"
        stid = (draw(st.sampled_from(ids)) if ids and faulty(0.5)
                else draw(st.sampled_from(IDS)) + str(k))
        ids.append(stid)
        row = [sid, stid]
        for _ in range(n_items):
            row.append(draw(st.sampled_from(RESPONSE_TOKENS[6:] if faulty()
                                            else RESPONSE_TOKENS[:3])))
        row += [covariate_token(draw, kind, faulty) for kind in student_kinds]
        if faulty(0.2):
            cut = draw(st.integers(1, len(row) + 1))
            row = row[:cut] if cut < len(row) else row + ["1"]
        students.append(row)
    return config, schools, students


def write_csv(path: Path, rows, bom=False) -> None:
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in rows:
            writer.writerow([] if row is None else row)


def load_or_error(loader, students, schools, config):
    try:
        return loader(students, schools, config)
    except DataFormatError as exc:
        return str(exc)


def assert_same_dataset(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert [g.school_id for g in got.schools] == [g.school_id for g in want.schools]
    for g, w in zip(got.schools, want.schools):
        assert g.student_ids == w.student_ids
        for a, b in ((g.covariates, w.covariates),
                     (g.student_covariates, w.student_covariates),
                     (g.responses, w.responses)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(files=dataset_files(), block_rows=st.sampled_from([1, 2, 3, 7, 1024]))
def test_matches_row_by_row_loader(files, block_rows):
    """Same dataset (ids equal, arrays bitwise equal) or the same error text,
    whatever the block size."""
    config, schools, students = files
    with tempfile.TemporaryDirectory() as tmp:
        schools_path = Path(tmp) / "schools.csv"
        students_path = Path(tmp) / "students.csv"
        write_csv(schools_path, schools)
        write_csv(students_path, students)
        want = load_or_error(load_dataset_per_row, students_path, schools_path, config)
        with mock.patch.object(mio, "_BLOCK_ROWS", block_rows):
            got = load_or_error(load_dataset, students_path, schools_path, config)
    assert_same_dataset(got, want)


def test_more_than_fifty_errors_are_capped_in_file_order(tmp_path):
    config = make_config(2, ["numeric"], [])
    write_csv(tmp_path / "schools.csv", [["school_id"], ["s"], ["t"]])
    rows = [["school_id", "student_id", "item_1", "item_2", "x0"]]
    rows += [["s", f"i{k}", "2", "1", "abc"] for k in range(30)]
    rows += [["u", "j", "1", "1", "1"], ["s", "i0", "7", "7", "z"], ["s", "k"]]
    write_csv(tmp_path / "students.csv", rows)
    with mock.patch.object(mio, "_BLOCK_ROWS", 4):
        got = load_or_error(load_dataset, tmp_path / "students.csv",
                            tmp_path / "schools.csv", config)
    want = load_or_error(load_dataset_per_row, tmp_path / "students.csv",
                         tmp_path / "schools.csv", config)
    assert got == want
    lines = got.splitlines()
    assert len(lines) == 51 and lines[-1] == "... and 14 more"
    students = tmp_path / "students.csv"
    assert lines[:3] == [
        f"{students}:2: column 3 (item_1): response '2' is not 0, 1, or NA",
        f"{students}:2: column 5 (x0): non-numeric value 'abc'",
        f"{students}:3: column 3 (item_1): response '2' is not 0, 1, or NA",
    ]


def test_bom_prefixed_file_loads_like_plain(tmp_path):
    config = make_config(2, ["categorical"], ["numeric"])
    schools = [["school_id", "w0"], ["Città", "1.5"], ["b", "2"]]
    students = [["school_id", "student_id", "item_1", "item_2", "x0"],
                ["b", "s1", "1", "NA", "F"], ["Città", "s2", "0", "1", "M"]]
    for bom in (False, True):
        write_csv(tmp_path / f"schools{bom}.csv", schools, bom=bom)
        write_csv(tmp_path / f"students{bom}.csv", students, bom=bom)
    assert (tmp_path / "studentsTrue.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    plain = load_dataset(tmp_path / "studentsFalse.csv", tmp_path / "schoolsFalse.csv",
                         config)
    with_bom = load_dataset(tmp_path / "studentsTrue.csv", tmp_path / "schoolsTrue.csv",
                            config)
    assert_same_dataset(with_bom, plain)
    assert [g.student_ids for g in with_bom.schools] == [("s2",), ("s1",)]


def test_peak_memory_below_row_by_row_loader(tmp_path):
    """Reading block by block keeps the traced peak under the row-by-row
    loader's on a 40k-row file; holding every row at once does not."""
    config = make_config(15, ["categorical"], ["categorical"])
    rng = np.random.default_rng(0)
    n_schools, size = 1000, 40
    write_csv(tmp_path / "schools.csv",
              [["school_id", "w0"]] + [[f"sch{h:04d}", LEVELS[h % 3]]
                                       for h in range(n_schools)])
    tokens = np.array(["0", "1", "NA"])[rng.integers(0, 3, (n_schools * size, 15))]
    rows = [["school_id", "student_id"] + [f"item_{j + 1}" for j in range(15)] + ["x0"]]
    rows += [[f"sch{k // size:04d}", f"sch{k // size:04d}-stu{k % size:04d}"]
             + tokens[k].tolist() + [LEVELS[k % 2]] for k in range(n_schools * size)]
    write_csv(tmp_path / "students.csv", rows)
    del rows, tokens

    def traced_peak(loader):
        tracemalloc.start()
        try:
            data = loader(tmp_path / "students.csv", tmp_path / "schools.csv", config)
            return tracemalloc.get_traced_memory()[1], data
        finally:
            tracemalloc.stop()

    peak_blocks, got = traced_peak(load_dataset)
    peak_rows, want = traced_peak(load_dataset_per_row)
    assert_same_dataset(got, want)
    assert peak_blocks < peak_rows, (peak_blocks, peak_rows)


ROUND_TRIP_IDS = IDS + ["l\nm", "x\r\ny"]
LEVEL_POOL = ("M", "F", "x,y", 'q"t', "0", "")
SPECIAL_VALUES = [0.0, -0.0, 5e-324, 1e300]


@st.composite
def datasets_with_decls(draw):
    """(dataset, student decls, school decls): 0-3 covariates per file,
    numeric or categorical with 2-4 levels and the reference anywhere,
    ragged schools, NA responses, and ids that need CSV quoting."""
    def decls(prefix):
        out = []
        for k in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                out.append(CovariateDecl(f"{prefix}{k}", "numeric"))
                continue
            levels = tuple(draw(st.lists(st.sampled_from(LEVEL_POOL), min_size=2,
                                         max_size=4, unique=True)))
            out.append(CovariateDecl(f"{prefix}{k}", "categorical", levels,
                                     draw(st.sampled_from(levels))))
        return tuple(out)

    # Values that survive 12 significant digits, as every written value must.
    numeric = st.one_of(st.sampled_from(SPECIAL_VALUES),
                        st.floats(allow_nan=False, allow_infinity=False)
                        .map(lambda v: float(format(v, ".12g"))))

    def values(decls, n):
        columns = [np.zeros((n, 0))]
        for decl in decls:
            if decl.kind == "numeric":
                columns.append(np.array(draw(st.lists(numeric, min_size=n,
                                                      max_size=n)))[:, None])
            else:
                kept = [lvl for lvl in decl.levels if lvl != decl.reference]
                drawn = draw(st.lists(st.sampled_from(decl.levels), min_size=n,
                                      max_size=n))
                columns.append(np.array([[float(lvl == k) for k in kept]
                                         for lvl in drawn]).reshape(n, len(kept)))
        return np.hstack(columns)

    student_decls, school_decls = decls("x"), decls("w")
    school_ids = draw(st.lists(st.sampled_from(ROUND_TRIP_IDS), min_size=1,
                               max_size=4, unique=True))
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(school_ids),
                          max_size=len(school_ids)))
    student_ids = [draw(st.sampled_from(ROUND_TRIP_IDS)) + str(k)
                   for size in sizes for k in range(size)]
    n, r = sum(sizes), draw(st.integers(1, 3))
    responses = np.array(draw(st.lists(st.sampled_from([0, 1, MISSING]),
                                       min_size=n * r, max_size=n * r)))
    data = ResponseDataset(school_ids=school_ids,
                           school_covariates=values(school_decls, len(sizes)),
                           sizes=sizes, student_ids=student_ids,
                           student_covariates=values(student_decls, n),
                           responses=responses.reshape(n, r))
    return data, student_decls, school_decls


def written_files(out_dir: Path, data, student_decls, school_decls) -> dict:
    out_dir.mkdir()
    mio.write_dataset_files(out_dir, data, student_decls, school_decls)
    return {name: (out_dir / name).read_bytes() for name in ("students.csv",
                                                             "schools.csv")}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=datasets_with_decls(), block_rows=st.sampled_from([1, 2, 1024]))
def test_written_files_load_back_bitwise(case, block_rows):
    """write -> load gives the dataset back (ids equal, arrays bitwise
    equal), and writing the loaded dataset gives the same bytes."""
    data, student_decls, school_decls = case
    config = make_config(data.n_items, [], [])
    config = dataclasses.replace(config, student_covariates=student_decls,
                                 school_covariates=school_decls)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(mio, "_BLOCK_ROWS", block_rows):
        first = written_files(Path(tmp) / "a", data, student_decls, school_decls)
        loaded = load_dataset(Path(tmp) / "a" / "students.csv",
                              Path(tmp) / "a" / "schools.csv", config)
        second = written_files(Path(tmp) / "b", loaded, student_decls, school_decls)
    for name in ("school_ids", "student_ids"):
        assert getattr(loaded, name).tolist() == getattr(data, name).tolist()
    for name in ("sizes", "school_covariates", "student_covariates", "responses"):
        got, want = getattr(loaded, name), getattr(data, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert second == first
