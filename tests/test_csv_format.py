"""The CSV format of the dataset and assignment files: RFC 4180 quoting, line
ends, blank rows, malformed quotes, long fields, and what the writers quote."""

import csv
import io
import json
from unittest import mock

import numpy as np
import pytest

from mlcirt import io as mio
from mlcirt.cli import main
from mlcirt.data import ResponseDataset
from mlcirt.io import load_dataset, parse_config

from reference import load_dataset_per_row
from test_loader import assert_same_dataset, load_or_error

CONFIG = {
    "n_classes": 1, "n_types": 1, "parameterization": "2pl", "dim_of": [1, 1],
    "student_covariates": [{"name": "g", "type": "categorical", "levels": ["M", "F"]}],
    "controls": {"n_starts": 1, "seed": 3},
}
HEADER = b"school_id,student_id,item_1,item_2,g"
SCHOOLS = b"school_id\ns1\ns2\n"


def write_files(tmp_path, students: bytes, schools: bytes = SCHOOLS, config=None):
    (tmp_path / "students.csv").write_bytes(students)
    (tmp_path / "schools.csv").write_bytes(schools)
    (tmp_path / "config.json").write_text(json.dumps(config or CONFIG))
    return tmp_path / "students.csv", tmp_path / "schools.csv", tmp_path / "config.json"


def load(tmp_path, students: bytes, schools: bytes = SCHOOLS, config=None):
    students_path, schools_path, config_path = write_files(tmp_path, students, schools,
                                                           config)
    return load_or_error(load_dataset, students_path, schools_path,
                         parse_config(config_path))


# Rows with quoted ids holding a separator, a quote and line ends, quoted
# responses and levels, and a quoted school id.
ROWS = [b's1,a,1,0,M', b's1,"b,c","1","NA",F', b's2,"q""t",0,1,"M"',
        b's2,"l\nm",NA,1,F', b's1,"x\r\ny",1,1,M', b'"s2",z,0,0,F']
# Rows with problems: a bad response, an unknown school, a repeated student,
# a fourth item, and a quoted response that is not "1".
BAD_ROWS = [b's1,e,2,1,M', b's3,f,1,1,M', b's1,a,1,1,F', b's2,g,1,1,1,M',
            b's2,"h","1 ",1,F']


def variants():
    """(name, students bytes): ROWS, then BAD_ROWS too, each joined by every
    line end, with blank rows, without a final line end, or after a BOM."""
    for rows_name, rows in (("good", ROWS), ("bad", ROWS + BAD_ROWS)):
        for end_name, end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
            body = end.join([HEADER] + rows)
            yield f"{rows_name}-{end_name}", body + end
            yield f"{rows_name}-{end_name}-blank", end.join(
                [HEADER, b""] + rows[:2] + [b"", b""] + rows[2:]) + end
            yield f"{rows_name}-{end_name}-unterminated", body
            yield f"{rows_name}-{end_name}-bom", b"\xef\xbb\xbf" + body + end


@pytest.mark.parametrize("students", [v for _, v in variants()],
                         ids=[name for name, _ in variants()])
@pytest.mark.parametrize("block_rows", [1, 2, 3, 1024])
def test_quoting_and_line_ends_match_csv_reader(tmp_path, students, block_rows):
    """The same dataset as Python's csv reader gives, or the same errors: so
    a quoted line end or a blank row shifts the row numbers of later errors
    as the csv reader counts records, and a read that ends inside a quoted
    field or between "\\r" and "\\n" continues in the next."""
    paths = write_files(tmp_path, students)
    config = parse_config(paths[2])
    want = load_or_error(load_dataset_per_row, paths[0], paths[1], config)
    with mock.patch.object(mio, "_BLOCK_ROWS", block_rows):
        got = load_or_error(load_dataset, paths[0], paths[1], config)
    assert_same_dataset(got, want)


def test_quoted_line_end_counts_one_row(tmp_path):
    got = load(tmp_path, b"\n".join([HEADER, b's1,"a\nb\r\nc",1,0,M',
                                     b's2,d,1,2,F']) + b"\n")
    assert got == f"{tmp_path / 'students.csv'}:3: column 4 (item_2): response '2' " \
                  "is not 0, 1, or NA"


def test_quoted_responses_and_levels_are_their_text(tmp_path):
    got = load(tmp_path, b"\n".join([HEADER, b's1,a,"1","NA","F"',
                                     b's2,"b","0",1,M']) + b"\n")
    assert not isinstance(got, str), got
    np.testing.assert_array_equal(got.responses, [[1, -1], [0, 1]])
    np.testing.assert_array_equal(got.student_covariates, [[1.0], [0.0]])
    assert got.student_ids.tolist() == ["a", "b"]


@pytest.mark.parametrize("row, column, what", [
    (b's1,ab"c,1,0,M', 2, "quote inside an unquoted field"),
    (b's1,a"",1,0,M', 2, "quote inside an unquoted field"),
    (b's1,"ab"c,1,0,M', 2, "text after a closing quote"),
    (b's1,b,1,0,"M" ', 5, "text after a closing quote"),
    (b's1,c,1,"0,M', 4, "quote not closed"),
])
def test_malformed_quote_is_one_error_and_ends_the_file(tmp_path, row, column, what):
    """Errors before the quote are kept, the quote is one error with its row
    and column, and the rows after it are not read."""
    rows = [HEADER, b"s1,x,1,0,M", b"s2,y,2,0,F", row, b"s2,z,7,7,M", b"s9,w,1,1,M"]
    got = load(tmp_path, b"\n".join(rows) + b"\n")
    students = tmp_path / "students.csv"
    assert got.splitlines() == [
        f"{students}:3: column 3 (item_1): response '2' is not 0, 1, or NA",
        f"{students}:4: column {column}: {what}; the rows after it are not read"]


def test_malformed_quote_in_schools_file_stops_before_students(tmp_path):
    got = load(tmp_path, HEADER + b"\ns1,a,1,0,M\n", schools=b'school_id\ns1\ns"2\ns3\n')
    assert got == (f"{tmp_path / 'schools.csv'}:3: column 1: quote inside an "
                   "unquoted field; the rows after it are not read")


@pytest.mark.parametrize("quote_at", ["middle", "end"])
def test_cli_malformed_quote_is_one_error_line(tmp_path, capsys, quote_at):
    row = b's2,a"b,1,0,M' if quote_at == "middle" else b's2,"ab,1,0,M'
    students, schools, config = write_files(
        tmp_path, b"\n".join([HEADER, b"s1,a,1,0,M", row]) + b"\n")
    code = main(["fit", "--students", str(students), "--schools", str(schools),
                 "--config", str(config), "--out", str(tmp_path / "fit")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: {students}:3: column 2: " + (
        "quote inside an unquoted field" if quote_at == "middle"
        else "quote not closed") + "; the rows after it are not read"]


@pytest.mark.parametrize("quoted", [False, True])
def test_oversized_field_loads(tmp_path, capsys, quoted):
    """A 200,000-character id is a field like any other: fit and classify
    write it to the assignments."""
    long_id = "x" * 100_000 + ("," if quoted else "") + "y" * 99_999
    field = f'"{long_id}"' if quoted else long_id
    students, schools, config = write_files(tmp_path, "\n".join([
        HEADER.decode(), f"s1,{field},1,0,M", "s1,b,0,1,F", "s2,c,1,1,F",
        "s2,d,0,0,M"]).encode() + b"\n")
    files = ["--students", str(students), "--schools", str(schools),
             "--config", str(config)]
    assert main(["fit", *files, "--out", str(tmp_path / "fit")]) == 0
    assert main(["classify", "--report", str(tmp_path / "fit" / "report.json"), *files,
                 "--out", str(tmp_path / "cls")]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "cls" / "students_assign.csv").read_text().splitlines()
    assert lines[1].startswith(f"s1,{field},1,")
    assert [line.split(",")[1] for line in lines[2:]] == ["b", "c", "d"]


def test_blank_row_is_skipped_and_empty_quoted_field_is_a_school(tmp_path):
    got = load(tmp_path, HEADER + b"\n,a,1,0,M\n\ns1,b,0,1,F\n",
               schools=b'school_id\n\n""\ns1\n')
    assert not isinstance(got, str), got
    assert got.school_ids.tolist() == ["", "s1"]
    assert got.student_ids.tolist() == ["a", "b"]


def test_long_fields_equal_at_both_ends_stay_apart(tmp_path):
    """Ids and levels longer than 16 bytes that share their first and last
    eight bytes and their length are told apart by the bytes between."""
    levels = ["north-east-region-A-zone1", "north-east-region-B-zone1"]
    config = dict(CONFIG, student_covariates=[
        {"name": "g", "type": "categorical", "levels": levels}])
    schools = ["school-number-0001-of-the-region", "school-number-0002-of-the-region"]
    rows = [HEADER.decode()] + [f"{schools[k % 2]},s{k},1,0,{levels[k // 2 % 2]}"
                                for k in range(8)]
    got = load(tmp_path, "\n".join(rows).encode() + b"\n",
               schools=("school_id\n" + "\n".join(schools) + "\n").encode(),
               config=config)
    assert not isinstance(got, str), got
    assert got.school_ids.tolist() == schools
    assert got.student_ids.tolist() == ["s0", "s2", "s4", "s6", "s1", "s3", "s5", "s7"]
    np.testing.assert_array_equal(got.student_covariates[:, 0],
                                  [0, 1, 0, 1, 0, 1, 0, 1])


def test_quoted_header_names_match(tmp_path):
    got = load(tmp_path, b'"school_id",student_id,"item_1",item_2,g\ns1,a,1,0,M\n'
               b"s2,b,0,1,F\n")
    assert not isinstance(got, str), got


def test_invalid_utf8_is_one_error(tmp_path):
    got = load(tmp_path, HEADER + b"\ns1,a\xff,1,0,M\ns2,b,0,1,F\n")
    assert got.startswith(f"{tmp_path / 'students.csv'}: not UTF-8 text (")


def dataset_with_ids(school_ids, student_ids) -> ResponseDataset:
    return ResponseDataset(school_ids=school_ids, school_covariates=np.zeros((2, 0)),
                           sizes=[1, 1], student_ids=student_ids,
                           student_covariates=np.zeros((2, 0)),
                           responses=np.array([[1, 0], [0, 1]]))


def test_ids_with_a_bare_carriage_return_are_quoted_and_round_trip(tmp_path):
    """"a\\rb" is written quoted, so that both this loader and Python's csv
    reader read it back as one field."""
    data = dataset_with_ids(["a\rb", "s2"], ["c\rd", "e"])
    mio.write_dataset_files(tmp_path, data, (), ())
    assert b'"a\rb"\n' in (tmp_path / "schools.csv").read_bytes()
    assert b'"a\rb","c\rd",1,0\n' in (tmp_path / "students.csv").read_bytes()
    (tmp_path / "config.json").write_text(json.dumps(dict(CONFIG,
                                                          student_covariates=[])))
    loaded = load_dataset(tmp_path / "students.csv", tmp_path / "schools.csv",
                          parse_config(tmp_path / "config.json"))
    assert loaded.school_ids.tolist() == ["a\rb", "s2"]
    assert loaded.student_ids.tolist() == ["c\rd", "e"]

    classification = mock.Mock()
    classification.student_assignments.labels = np.array([0, 0])
    classification.student_assignments.posteriors = np.array([1.0, 0.25])
    classification.school_assignments.labels = np.array([0, 0])
    classification.school_assignments.posteriors = np.array([1.0, 0.5])
    mio.write_assignments(tmp_path, loaded, classification)
    with open(tmp_path / "students_assign.csv", newline="") as handle:
        assert list(csv.reader(handle)) == [
            ["school_id", "student_id", "class", "posterior"],
            ["a\rb", "c\rd", "1", "1"], ["s2", "e", "1", "0.25"]]
    with open(tmp_path / "schools_assign.csv", newline="") as handle:
        assert list(csv.reader(handle)) == [["school_id", "type", "posterior"],
                                            ["a\rb", "1", "1"], ["s2", "1", "0.5"]]


def test_writer_quotes_as_the_csv_module_does_otherwise(tmp_path):
    """Outside bare carriage returns, the fields are what csv.writer writes;
    an empty id alone on its row is written as "" so the row is not blank."""
    ids = ["plain", "a,b", 'q"t', " pad ", "l\nm", "x\r\ny", ""]
    data = ResponseDataset(school_ids=ids, school_covariates=np.zeros((7, 0)),
                           sizes=[1] * 7, student_ids=ids[::-1],
                           student_covariates=np.zeros((7, 0)),
                           responses=np.zeros((7, 1)))
    mio.write_dataset_files(tmp_path, data, (), ())
    for name, rows in (("schools.csv", [["school_id"]] + [[i] for i in ids]),
                       ("students.csv", [["school_id", "student_id", "item_1"]]
                        + [[a, b, "0"] for a, b in zip(ids, ids[::-1])])):
        want = io.StringIO(newline="")
        csv.writer(want, lineterminator="\n").writerows(rows)
        assert (tmp_path / name).read_bytes() == want.getvalue().encode()
