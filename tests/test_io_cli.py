"""File formats and the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mlcirt
from mlcirt import ResponseDataset, SchoolGroup, count_free_parameters
from mlcirt.cli import main
from mlcirt.io import (
    CovariateDecl,
    DataFormatError,
    load_dataset,
    params_to_dict,
    parse_config,
    parse_design,
    parse_report,
    read_report,
    round12,
    write_assignments,
    write_report,
)
from mlcirt.selection import SchoolAssignments, StudentAssignments


BASE_CONFIG = {
    "n_classes": 2,
    "n_types": 2,
    "parameterization": "2pl",
    "dim_of": [1, 1, 1],
    "student_covariates": [
        {"name": "gender", "type": "categorical", "levels": ["M", "F"],
         "reference": "M"}],
    "school_covariates": [
        {"name": "area", "type": "categorical",
         "levels": ["NW", "NE", "South"], "reference": "NW"}],
    "controls": {"max_iter": 200, "n_starts": 2, "seed": 9},
}

STUDENTS_CSV = """school_id,student_id,item_1,item_2,item_3,gender
sch1,a,1,0,1,M
sch1,b,0,NA,1,F
sch2,c,1,1,0,F
sch2,d,0,0,NA,M
"""

SCHOOLS_CSV = """school_id,area
sch1,NW
sch2,South
"""


# A categorical student and school covariate, each with a repeated level.
REPEATED_LEVELS = (
    [{"name": "gender", "type": "categorical", "levels": ["M", "F", "M"],
      "reference": "F"}],
    [{"name": "area", "type": "categorical", "levels": ["NW", "NW"]}],
)


# The accepted forms that a bad ``sweep --ku`` value's error lists.
KU_ACCEPTS = "expected a count N >= 1 or a range LO..HI with 1 <= LO <= HI, e.g. 1..6"


def write_inputs(tmp_path, students=STUDENTS_CSV, schools=SCHOOLS_CSV,
                 config=None):
    (tmp_path / "students.csv").write_text(students)
    (tmp_path / "schools.csv").write_text(schools)
    (tmp_path / "config.json").write_text(json.dumps(config or BASE_CONFIG))
    return (tmp_path / "students.csv", tmp_path / "schools.csv",
            tmp_path / "config.json")


class TestLoadDataset:

    def test_well_formed(self, tmp_path):
        students, schools, config_path = write_inputs(tmp_path)
        config = parse_config(config_path)
        data = load_dataset(students, schools, config)
        assert data.n_schools == 2
        assert data.n_items == 3
        assert data.schools[0].student_ids == ("a", "b")
        np.testing.assert_array_equal(data.schools[0].responses,
                                      [[1, 0, 1], [0, -1, 1]])

    def test_categorical_expansion(self, tmp_path):
        """gender with reference M becomes one indicator column for F, and
        a three-level school covariate becomes two columns."""
        students, schools, config_path = write_inputs(tmp_path)
        config = parse_config(config_path)
        data = load_dataset(students, schools, config)
        np.testing.assert_array_equal(data.schools[0].student_covariates,
                                      [[0.0], [1.0]])
        np.testing.assert_array_equal(data.schools[0].covariates, [0.0, 0.0])
        np.testing.assert_array_equal(data.schools[1].covariates, [0.0, 1.0])
        decl = config.student_covariates[0]
        assert decl.expanded_columns() == ["gender=F"]

    def test_bad_response_token_names_line_and_column(self, tmp_path):
        students, schools, config_path = write_inputs(
            tmp_path, students=STUDENTS_CSV.replace("sch2,c,1,1,0,F",
                                                    "sch2,c,1,2,0,F"))
        config = parse_config(config_path)
        with pytest.raises(DataFormatError) as err:
            load_dataset(students, schools, config)
        message = str(err.value)
        assert "students.csv:4" in message
        assert "column 4" in message
        assert "item_2" in message

    def test_unknown_school_id(self, tmp_path):
        students, schools, config_path = write_inputs(
            tmp_path, students=STUDENTS_CSV.replace("sch2,d", "sch9,d"))
        config = parse_config(config_path)
        with pytest.raises(DataFormatError, match="unknown school id 'sch9'"):
            load_dataset(students, schools, config)

    def test_duplicate_student(self, tmp_path):
        students, schools, config_path = write_inputs(
            tmp_path, students=STUDENTS_CSV.replace("sch1,b", "sch1,a"))
        config = parse_config(config_path)
        with pytest.raises(DataFormatError, match="duplicate student"):
            load_dataset(students, schools, config)

    def test_undeclared_level(self, tmp_path):
        students, schools, config_path = write_inputs(
            tmp_path, students=STUDENTS_CSV.replace("sch1,b,0,NA,1,F",
                                                    "sch1,b,0,NA,1,X"))
        config = parse_config(config_path)
        with pytest.raises(DataFormatError, match="level 'X' not declared"):
            load_dataset(students, schools, config)

    def test_missing_file(self, tmp_path):
        students, schools, config_path = write_inputs(tmp_path)
        config = parse_config(config_path)
        with pytest.raises(DataFormatError, match="missing input file"):
            load_dataset(tmp_path / "nope.csv", schools, config)

    def test_school_without_students(self, tmp_path):
        students, schools, config_path = write_inputs(
            tmp_path, schools=SCHOOLS_CSV + "sch3,NE\n")
        config = parse_config(config_path)
        with pytest.raises(DataFormatError, match="has no students"):
            load_dataset(students, schools, config)

    def test_bad_header(self, tmp_path):
        students, schools, config_path = write_inputs(
            tmp_path, students=STUDENTS_CSV.replace("item_2", "q2"))
        config = parse_config(config_path)
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(students, schools, config)

    @pytest.mark.parametrize("entry, message", [
        (dict(student_covariates=REPEATED_LEVELS[0]),
         "student_covariates[0] (gender): repeated level 'M'"),
        (dict(school_covariates=REPEATED_LEVELS[1]),
         "school_covariates[0] (area): repeated level 'NW'")],
        ids=["student", "school"])
    def test_repeated_level(self, tmp_path, entry, message):
        """Repeated levels would expand to duplicate indicator columns, or
        to none at all."""
        config_path = write_inputs(tmp_path, config=dict(BASE_CONFIG, **entry))[2]
        with pytest.raises(DataFormatError) as info:
            parse_config(config_path)
        assert str(info.value) == f"{config_path}: {message}"


class TestWriteAssignments:

    def test_bytes_equal_per_row_formula(self, tmp_path):
        """One ``writerows`` per file writes what the per-row formula
        wrote: quoted ids, labels + 1, posteriors to 12 digits."""
        ids = ["plain", "a,b", 'q"t', "Città", " pad ", "line\nbreak", ""]
        posteriors = [1.0, 0.5, 1e-300, 0.123456789012345, 2 / 3, 1 - 1e-13, 0.7]
        schools = [SchoolGroup(sid, np.zeros(0), tuple(ids[h:] + ids[:h]),
                               np.zeros((len(ids), 0)),
                               np.zeros((len(ids), 1), dtype=np.int8))
                   for h, sid in enumerate(['s"1', "s,2", "s3"])]
        data = ResponseDataset.from_schools(schools)
        student_labels = tuple(np.arange(len(ids)) % 3 + h for h in range(3))
        student_posteriors = tuple(np.roll(posteriors, h) for h in range(3))
        classification = SimpleNamespace(
            student_assignments=StudentAssignments(np.concatenate(student_labels),
                                                   np.concatenate(student_posteriors)),
            school_assignments=SchoolAssignments(np.array([2, 0, 1]),
                                                 np.array([1.0, 0.5, 1e-300])))
        write_assignments(tmp_path, data, classification)

        def per_row(path, header, rows):
            with open(path, "w", newline="\n", encoding="utf-8") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow(row)

        per_row(tmp_path / "students_old.csv",
                ["school_id", "student_id", "class", "posterior"],
                ([g.school_id, stid, int(student_labels[h][i]) + 1,
                  f"{student_posteriors[h][i]:.12g}"]
                 for h, g in enumerate(schools)
                 for i, stid in enumerate(g.student_ids)))
        per_row(tmp_path / "schools_old.csv", ["school_id", "type", "posterior"],
                ([g.school_id, int(label) + 1, f"{post:.12g}"]
                 for g, label, post in zip(schools, [2, 0, 1],
                                           np.array([1.0, 0.5, 1e-300]))))
        assert ((tmp_path / "students_assign.csv").read_bytes()
                == (tmp_path / "students_old.csv").read_bytes())
        assert ((tmp_path / "schools_assign.csv").read_bytes()
                == (tmp_path / "schools_old.csv").read_bytes())
        assert b"1e-300" in (tmp_path / "schools_assign.csv").read_bytes()


class TestRound12:

    def test_floats_rounded(self):
        out = round12({"x": 0.123456789012345678, "y": [1.0, float("nan")]})
        assert out["x"] == float("0.123456789012")
        assert out["y"] == [1.0, None]

    def test_ints_and_bools_preserved(self):
        out = round12({"n": 3, "flag": True, "name": "abc"})
        assert out == {"n": 3, "flag": True, "name": "abc"}
        assert isinstance(out["n"], int)


DESIGN = {
    "n_schools": 6,
    "school_size": 5,
    "seed": 77,
    "spec": {
        "parameterization": "2pl",
        "n_classes": 2,
        "n_types": 2,
        "n_items": 4,
        "n_dims": 1,
        "dim_of": [1, 1, 1, 1],
        "reference_items": [1],
        "n_student_covariates": 1,
        "n_school_covariates": 1,
    },
    "truth": {
        "difficulty": [0.0, -0.6, 0.3, 0.9],
        "discrimination": [1.0, 0.8, 1.2, 1.0],
        "abilities": [[-1.0], [1.0]],
        "class_intercepts": [[0.8], [-0.8]],
        "class_slopes": [[0.5]],
        "type_intercepts": [0.0],
        "type_slopes": [[0.5]],
        "lc_success": None,
    },
    "student_covariates": [{"type": "categorical", "probs": [0.5, 0.5]}],
    "school_covariates": [{"type": "categorical", "probs": [0.5, 0.5]}],
}


def run_simulate(tmp_path, out_name="sim", seed=None):
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(DESIGN))
    out = tmp_path / out_name
    argv = ["simulate", "--design", str(design_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    return out


class TestSimulateCommand:

    def test_outputs_exist_with_expected_rows(self, tmp_path):
        out = run_simulate(tmp_path)
        students = (out / "students.csv").read_text().strip().splitlines()
        assert len(students) == 1 + 6 * 5
        schools = (out / "schools.csv").read_text().strip().splitlines()
        assert len(schools) == 1 + 6
        assert (out / "config.json").exists()
        text = (out / "truth.json").read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        truth = json.loads(text)
        assert len(truth["labels"]["types"]) == 6

    def test_byte_identical_across_runs(self, tmp_path):
        out1 = run_simulate(tmp_path, "sim1")
        out2 = run_simulate(tmp_path, "sim2")
        for name in ("students.csv", "schools.csv", "config.json", "truth.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        out1 = run_simulate(tmp_path, "sim1")
        out2 = run_simulate(tmp_path, "sim3", seed=123)
        assert (out1 / "students.csv").read_bytes() != \
            (out2 / "students.csv").read_bytes()

    def test_round_trip_equals_in_memory_dataset(self, tmp_path):
        """Loading the written files reproduces the generating dataset."""
        from mlcirt.simulate import simulate_full

        out = run_simulate(tmp_path)
        design = parse_design(tmp_path / "design.json")
        data = simulate_full(design).dataset
        config = parse_config(out / "config.json")
        loaded = load_dataset(out / "students.csv", out / "schools.csv", config)
        assert loaded.n_schools == data.n_schools
        for ga, gb in zip(loaded.schools, data.schools):
            assert ga.school_id == gb.school_id
            assert ga.student_ids == gb.student_ids
            np.testing.assert_array_equal(ga.responses, gb.responses)
            np.testing.assert_array_equal(ga.covariates, gb.covariates)
            np.testing.assert_array_equal(ga.student_covariates,
                                          gb.student_covariates)

    def test_bad_design_exits_one(self, tmp_path):
        design_path = tmp_path / "design.json"
        bad = dict(DESIGN)
        bad["truth"] = dict(DESIGN["truth"], abilities=[[-1.0]])  # wrong shape
        design_path.write_text(json.dumps(bad))
        assert main(["simulate", "--design", str(design_path),
                     "--out", str(tmp_path / "x")]) == 1


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fitcmd")
    return tmp_path, run_simulate(tmp_path)


class TestFitCommand:

    def test_fit_writes_report_and_assignments(self, sim_dir):
        tmp_path, out = sim_dir
        fit_out = tmp_path / "fit"
        code = main(["fit", "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(fit_out),
                     "--seed", "3", "--starts", "2", "--max-iter", "300"])
        assert code == 0
        report = read_report(fit_out / "report.json")
        assert report["fit"]["converged"] is True
        trace = report["fit"]["trace"]
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))
        assert report["fit"]["n_par"] == 13
        lines = (fit_out / "students_assign.csv").read_text().splitlines()
        assert lines[0] == "school_id,student_id,class,posterior"
        assert len(lines) == 1 + 30
        lines = (fit_out / "schools_assign.csv").read_text().splitlines()
        assert len(lines) == 1 + 6

    def test_lc_report_has_null_support_points(self, sim_dir):
        """"lc" has no item parameters and no class abilities, so the report
        writes them, and every summary of the abilities, as null; such a
        report reads back and writes the same bytes."""
        tmp_path, out = sim_dir
        code = main(["fit", "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(tmp_path / "fit_lc"),
                     "--parameterization", "lc", "--starts", "2"])
        assert code == 0
        path = tmp_path / "fit_lc" / "report.json"
        report = read_report(path)
        summary = report["summary"]
        assert summary["support_points_raw"] == [None, None]
        assert summary["support_points_std"] == [None, None]
        assert summary["abilities_std"] is None
        for block in ("difficulty", "discrimination", "abilities"):
            assert report["parameters"][block] is None
        write_report(tmp_path / "copy.json", report)
        assert path.read_bytes() == (tmp_path / "copy.json").read_bytes()

    def test_report_round_trip_is_byte_identical(self, sim_dir):
        tmp_path, out = sim_dir
        path = tmp_path / "fit" / "report.json"
        report = read_report(path)
        write_report(tmp_path / "copy.json", report)
        assert path.read_bytes() == (tmp_path / "copy.json").read_bytes()

    def test_parameterization_counts(self, sim_dir):
        """2PL and 1PL parameter counts differ by items minus dimensions."""
        tmp_path, out = sim_dir
        results = {}
        for label in ("1pl", "2pl"):
            code = main(["fit", "--students", str(out / "students.csv"),
                         "--schools", str(out / "schools.csv"),
                         "--config", str(out / "config.json"),
                         "--out", str(tmp_path / f"fit_{label}"),
                         "--parameterization", label,
                         "--starts", "1", "--max-iter", "60", "--tol", "1e-6"])
            assert code in (0, 2)
            results[label] = read_report(tmp_path / f"fit_{label}"
                                         / "report.json")["fit"]["n_par"]
        assert results["2pl"] - results["1pl"] == 4 - 1

    def test_loglik_reproducible_to_12_digits(self, sim_dir):
        tmp_path, out = sim_dir
        values = []
        for run in ("rep1", "rep2"):
            code = main(["fit", "--students", str(out / "students.csv"),
                         "--schools", str(out / "schools.csv"),
                         "--config", str(out / "config.json"),
                         "--out", str(tmp_path / run),
                         "--seed", "3", "--starts", "2", "--max-iter", "200"])
            assert code in (0, 2)
            values.append(read_report(tmp_path / run / "report.json")
                          ["fit"]["loglik"])
        assert f"{values[0]:.12g}" == f"{values[1]:.12g}"

    def test_bic_sample_size_conventions(self, sim_dir):
        """--bic-n switches the BIC sample size between students, schools,
        and an explicit integer."""
        import math

        tmp_path, out = sim_dir
        values = {}
        for mode in ("students", "schools", "77"):
            code = main(["fit", "--students", str(out / "students.csv"),
                         "--schools", str(out / "schools.csv"),
                         "--config", str(out / "config.json"),
                         "--out", str(tmp_path / f"bic_{mode}"),
                         "--seed", "3", "--starts", "1", "--max-iter", "80",
                         "--tol", "1e-6", "--bic-n", mode])
            assert code in (0, 2)
            values[mode] = read_report(tmp_path / f"bic_{mode}"
                                       / "report.json")["fit"]
        assert values["students"]["bic_n"] == 30
        assert values["schools"]["bic_n"] == 6
        assert values["77"]["bic_n"] == 77
        for mode, n in (("students", 30), ("schools", 6), ("77", 77)):
            fit_block = values[mode]
            expected = -2 * fit_block["loglik"] + math.log(n) * fit_block["n_par"]
            assert fit_block["bic"] == pytest.approx(expected, rel=1e-10)

    def test_missing_schools_file_exits_one(self, sim_dir, capsys):
        tmp_path, out = sim_dir
        code = main(["fit", "--students", str(out / "students.csv"),
                     "--schools", str(out / "missing.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(tmp_path / "nope")])
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_nonconvergence_exits_two_but_writes_report(self, sim_dir):
        tmp_path, out = sim_dir
        fit_out = tmp_path / "shallow"
        code = main(["fit", "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(fit_out),
                     "--starts", "1", "--max-iter", "1", "--tol", "1e-14"])
        assert code == 2
        assert read_report(fit_out / "report.json")["fit"]["converged"] is False


class TestSweepCommand:

    @pytest.mark.filterwarnings("ignore:n_types=1 is below")
    def test_sweep_rows_and_count_column(self, tmp_path):
        out = run_simulate(tmp_path)
        sweep_out = tmp_path / "sweep"
        code = main(["sweep", "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(sweep_out), "--ku", "1..2",
                     "--starts", "2", "--max-iter", "300", "--seed", "1"])
        assert code in (0, 2)
        payload = json.loads((sweep_out / "sweep.json").read_text())
        assert [row["n_types"] for row in payload["rows"]] == [1, 2]
        config = parse_config(out / "config.json")
        for row in payload["rows"]:
            spec = config.spec.replace(n_types=row["n_types"])
            assert row["n_par"] == count_free_parameters(spec)
        assert payload["chosen_n_types"] in (1, 2)

    def test_single_value_range(self, tmp_path):
        out = run_simulate(tmp_path)
        sweep_out = tmp_path / "sweep1"
        code = main(["sweep", "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(sweep_out), "--ku", "2",
                     "--starts", "1", "--max-iter", "150"])
        assert code in (0, 2)
        payload = json.loads((sweep_out / "sweep.json").read_text())
        assert payload["chosen_n_types"] == 2
        assert len(payload["rows"]) == 1

    def test_empty_range_exits_one(self, tmp_path, capsys):
        out = run_simulate(tmp_path)
        sweep_out = tmp_path / "sweep_empty"
        code = main(["sweep", "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(sweep_out), "--ku", "3..1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'3..1'" in err
        assert not (sweep_out / "sweep.json").exists()


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("classify")
    out = run_simulate(tmp_path)
    fit_out = tmp_path / "fit"
    code = main(["fit", "--students", str(out / "students.csv"),
                 "--schools", str(out / "schools.csv"),
                 "--config", str(out / "config.json"),
                 "--out", str(fit_out),
                 "--seed", "3", "--starts", "2", "--max-iter", "300"])
    assert code in (0, 2)
    return tmp_path, out, fit_out


class TestClassifyCommand:

    def test_classify_matches_fit_assignments(self, fitted):
        tmp_path, out, fit_out = fitted
        cls_out = tmp_path / "cls"
        code = main(["classify", "--report", str(fit_out / "report.json"),
                     "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(cls_out)])
        assert code == 0
        for name in ("students_assign.csv", "schools_assign.csv"):
            assert (cls_out / name).read_bytes() == \
                (fit_out / name).read_bytes()

    def test_classify_new_dataset_same_spec(self, fitted, tmp_path):
        """A fresh dataset with the same layout classifies fine."""
        _, _, fit_out = fitted
        out2 = run_simulate(tmp_path, "other", seed=4242)
        cls_out = tmp_path / "cls2"
        code = main(["classify", "--report", str(fit_out / "report.json"),
                     "--students", str(out2 / "students.csv"),
                     "--schools", str(out2 / "schools.csv"),
                     "--config", str(out2 / "config.json"),
                     "--out", str(cls_out)])
        assert code == 0
        lines = (cls_out / "schools_assign.csv").read_text().splitlines()
        assert len(lines) == 1 + 6

    def test_spec_mismatch_exits_one(self, fitted, tmp_path, capsys):
        tmp_path_local = tmp_path
        _, out, fit_out = fitted
        config = json.loads((out / "config.json").read_text())
        config["n_classes"] = 3
        bad_config = tmp_path_local / "bad_config.json"
        bad_config.write_text(json.dumps(config))
        code = main(["classify", "--report", str(fit_out / "report.json"),
                     "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(bad_config),
                     "--out", str(tmp_path_local / "clsbad")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: report/config mismatch: n_classes: report has 2, config has 3"]

    def classify_with_report(self, fitted, tmp_path, edit):
        """Run classify on a copy of the fit report changed by ``edit``."""
        _, out, fit_out = fitted
        report = json.loads((fit_out / "report.json").read_text())
        edit(report)
        bad_report = tmp_path / "bad_report.json"
        bad_report.write_text(json.dumps(report))
        return main(["classify", "--report", str(bad_report),
                     "--students", str(out / "students.csv"),
                     "--schools", str(out / "schools.csv"),
                     "--config", str(out / "config.json"),
                     "--out", str(tmp_path / "clsbad")])

    def test_report_missing_key_exits_one(self, fitted, tmp_path, capsys):
        code = self.classify_with_report(
            fitted, tmp_path, lambda r: r["parameters"].pop("class_slopes"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "class_slopes" in err
        assert len(err.strip().splitlines()) == 1

    def test_report_null_parameter_exits_one(self, fitted, tmp_path, capsys):
        def null_difficulty(report):
            report["parameters"]["difficulty"][1] = None

        code = self.classify_with_report(fitted, tmp_path, null_difficulty)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bad report (difficulty entry must be a number, got None)" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("block, value", [("difficulty", "0.5"),
                                              ("discrimination", True)])
    def test_report_non_number_parameter_exits_one(self, fitted, tmp_path, capsys,
                                                   block, value):
        """A string or bool entry is not read as the number it resembles."""
        def edit(report):
            report["parameters"][block][1] = value

        code = self.classify_with_report(fitted, tmp_path, edit)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"bad report ({block} entry must be a number, got {value!r})" in err
        assert len(err.strip().splitlines()) == 1

    def test_report_misshaped_abilities_exits_one(self, fitted, tmp_path,
                                                  capsys):
        def widen(report):
            report["parameters"]["abilities"] = [
                row + [0.0] for row in report["parameters"]["abilities"]]

        code = self.classify_with_report(fitted, tmp_path, widen)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "abilities has shape (2, 2)" in err
        assert len(err.strip().splitlines()) == 1

    def test_report_empty_difficulty_exits_one(self, fitted, tmp_path, capsys):
        """The reference-item check reads no entry of a misshaped item block."""
        code = self.classify_with_report(
            fitted, tmp_path, lambda r: r["parameters"].update(difficulty=[]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {tmp_path / 'bad_report.json'}: "
                                    "difficulty has shape (0,), expected (4,)"]


class TestSingleSchoolType:
    """k_U = 1 with school covariates: the (0, m_U) ``type_slopes`` block is
    written to JSON as ``[]`` and must come back as (0, m_U)."""

    def test_fit_exits_zero_and_classify_reproduces_assignments(self, tmp_path):
        students, schools, config_path = write_inputs(
            tmp_path, config=dict(BASE_CONFIG, n_types=1))
        files = ["--students", str(students), "--schools", str(schools),
                 "--config", str(config_path)]
        assert main(["fit", *files, "--out", str(tmp_path / "fit"),
                     "--starts", "1"]) == 0
        report = read_report(tmp_path / "fit" / "report.json")
        assert report["parameters"]["type_slopes"] == []
        assert main(["classify", "--report", str(tmp_path / "fit" / "report.json"),
                     *files, "--out", str(tmp_path / "cls")]) == 0
        for name in ("students_assign.csv", "schools_assign.csv"):
            assert (tmp_path / "cls" / name).read_bytes() == \
                (tmp_path / "fit" / name).read_bytes()

    def test_simulate_exits_zero(self, tmp_path):
        design = dict(DESIGN, spec=dict(DESIGN["spec"], n_types=1),
                      truth=dict(DESIGN["truth"], class_intercepts=[[0.8]],
                                 type_intercepts=[], type_slopes=[]))
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(design))
        assert main(["simulate", "--design", str(design_path),
                     "--out", str(tmp_path / "sim")]) == 0
        truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
        assert truth["labels"]["types"] == [1] * 6

    def test_empty_blocks_take_spec_shape_and_others_keep_theirs(self):
        from mlcirt.io import params_from_dict, params_to_dict, spec_from_dict
        from mlcirt.model import validate_params

        spec = spec_from_dict(dict(DESIGN["spec"], n_types=1, n_classes=1,
                                   n_school_covariates=2))
        raw = dict(DESIGN["truth"], abilities=[[0.5]], class_intercepts=[[]],
                   class_slopes=[], type_intercepts=[], type_slopes=[])
        params = params_from_dict(raw, spec)
        assert params.class_slopes.shape == (0, 1)
        assert params.type_slopes.shape == (0, 2)
        assert validate_params(params, spec) == []
        assert params_to_dict(params_from_dict(params_to_dict(params), spec)) \
            == params_to_dict(params)
        two_types = spec.replace(n_types=2)
        transposed = dict(raw, class_intercepts=[[], []], type_intercepts=[0.1],
                          type_slopes=[[0.2], [0.3]])
        params = params_from_dict(transposed, two_types)
        assert params.type_slopes.shape == (2, 1)
        assert validate_params(params, two_types) == [
            "type_slopes has shape (2, 1), expected (1, 2)"]


def desk_inputs(tmp_path):
    """The desk design (200 schools x 20 students) written by ``simulate``."""
    from mlcirt.io import params_to_dict, spec_to_dict
    from mlcirt.simulate import desk_design

    design = desk_design()
    design_path = tmp_path / "desk.json"
    design_path.write_text(json.dumps({
        "n_schools": 200, "school_size": 20, "seed": 1,
        "spec": spec_to_dict(design.spec), "truth": params_to_dict(design.truth),
        "student_covariates": [{"type": "categorical", "probs": [0.5, 0.5]}],
        "school_covariates": [{"type": "categorical", "probs": [0.5, 0.5]}]}))
    out = tmp_path / "desk"
    assert main(["simulate", "--design", str(design_path), "--out", str(out)]) == 0
    return ["--students", str(out / "students.csv"),
            "--schools", str(out / "schools.csv"),
            "--config", str(out / "config.json")]


class TestOverParameterisedWarning:
    """More free parameters than students: one stderr line per fit and per
    sweep row; exit codes and outputs unchanged."""

    def test_fit_on_four_students_warns_once(self, tmp_path, capsys):
        students, schools, config_path = write_inputs(tmp_path)
        code = main(["fit", "--students", str(students), "--schools", str(schools),
                     "--config", str(config_path), "--out", str(tmp_path / "fit"),
                     "--starts", "1"])
        assert code == 0
        err = capsys.readouterr().err
        assert err.splitlines() == ["warning: 12 free parameters for 4 students"]
        assert read_report(tmp_path / "fit" / "report.json")["fit"]["n_par"] == 12

    @pytest.mark.filterwarnings("ignore:n_types=1 is below")
    def test_sweep_warns_for_each_row(self, tmp_path, capsys):
        students, schools, config_path = write_inputs(tmp_path)
        main(["sweep", "--students", str(students), "--schools", str(schools),
              "--config", str(config_path), "--out", str(tmp_path / "sweep"),
              "--ku", "1..2", "--starts", "1", "--max-iter", "50"])
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == ["warning: 8 free parameters for 4 students",
                            "warning: 12 free parameters for 4 students"]

    def test_types_below_classes_is_one_line_per_row_every_call(self, tmp_path,
                                                                 capsys):
        """The library's UserWarning reaches stderr as one ``warning:`` line
        per low row, on every in-process call, with no Python source line."""
        students, schools, config_path = write_inputs(tmp_path)
        argv = ["sweep", "--students", str(students), "--schools", str(schools),
                "--config", str(config_path), "--out", str(tmp_path / "sweep"),
                "--ku", "1..2", "--kv", "3", "--starts", "1", "--max-iter", "5"]
        for _ in range(2):
            main(argv)
            err = capsys.readouterr().err
            assert "UserWarning" not in err and "sweep_school_types(" not in err
            assert [line for line in err.splitlines() if "is below" in line] == [
                f"warning: n_types={k} is below n_classes=3; the school-level "
                "mixture may be too coarse" for k in (1, 2)]

    @pytest.mark.filterwarnings("ignore:n_types=")
    def test_desk_dataset_prints_no_warning(self, tmp_path, capsys):
        files = desk_inputs(tmp_path)
        main(["fit", *files, "--out", str(tmp_path / "fit"), "--starts", "1",
              "--max-iter", "3"])
        main(["sweep", *files, "--out", str(tmp_path / "sweep"), "--ku", "1..2",
              "--starts", "1", "--max-iter", "3"])
        assert "warning:" not in capsys.readouterr().err


def edit_desk_students(files, tmp_path, edit):
    """``files`` with the students file replaced by a copy whose data rows,
    split into fields, went through ``edit(index, fields)``."""
    lines = Path(files[1]).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for i, fields in enumerate(rows):
        edit(i, fields)
    path = tmp_path / "edited_students.csv"
    path.write_text("\n".join([lines[0]] + [",".join(f) for f in rows]) + "\n")
    return ["--students", str(path)] + files[2:]


class TestDegenerateDeskInputs:
    """The seed-1 desk data made degenerate: one stderr line, and the exit
    code says how the fit ended."""

    @staticmethod
    def fit_with_numeric_x1(tmp_path, capsys, value, n_rows=1):
        """The exit code and stderr lines of a 2-start fit with ``x1`` read
        as a number (L0 -> 0, L1 -> 1) and the first ``n_rows`` students'
        ``value``."""
        files = desk_inputs(tmp_path)
        config = json.loads(Path(files[5]).read_text())
        config["student_covariates"] = [{"name": "x1", "type": "numeric"}]
        (tmp_path / "numeric.json").write_text(json.dumps(config))
        files[5] = str(tmp_path / "numeric.json")

        def numeric_x1(i, fields):
            fields[-1] = value if i < n_rows else {"L0": "0", "L1": "1"}[fields[-1]]

        files = edit_desk_students(files, tmp_path, numeric_x1)
        capsys.readouterr()
        code = main(["fit", *files, "--out", str(tmp_path / "fit"), "--starts", "2"])
        return code, capsys.readouterr().err.splitlines(), files[1]

    def test_extreme_covariate_is_one_error_line(self, tmp_path, capsys):
        """A covariate whose square overflows would overflow every
        class-membership step: the loader reports it as an input error with
        its file, row and column."""
        for value in ("1e200", "-1e155"):
            (tmp_path / value).mkdir()
            code, err, students = self.fit_with_numeric_x1(tmp_path / value,
                                                           capsys, value)
            assert code == 1
            assert err == [f"error: {students}:2: column 18 (x1): value {value!r} "
                           "is too large (its square is not finite)"]

    def test_large_covariate_with_a_finite_square_still_fits(self, tmp_path, capsys):
        code, err, _ = self.fit_with_numeric_x1(tmp_path, capsys, "1e153")
        assert (code, err) == (0, [])

    def test_overflowing_covariate_sum_of_squares_is_one_error_line(self, tmp_path,
                                                                    capsys):
        """Two students at 1e154: each square is finite, but their sum, which
        every class-membership information adds up, is not.  One input
        error names the file and the column, where every start used to fail."""
        code, err, students = self.fit_with_numeric_x1(tmp_path, capsys, "1e154",
                                                       n_rows=2)
        assert code == 1
        assert err == [f"error: {students}: column 18 (x1): values too large "
                       "(their sum of squares is not finite)"]

    def test_unanchored_reference_item_is_one_warning_line(self, tmp_path, capsys):
        """Item 1, the reference item, answered wrong by every student: one
        ``warning:`` line names it, and the fit still exits 0."""
        def all_wrong(i, fields):
            fields[2] = "0"

        files = edit_desk_students(desk_inputs(tmp_path), tmp_path, all_wrong)
        capsys.readouterr()
        code = main(["fit", *files, "--out", str(tmp_path / "fit"), "--starts", "1"])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: reference item 1 of dimension 1 has no right answer, so the "
            "abilities and difficulties of its dimension have no finite estimate"]


# A fit call on the files of ``write_inputs``, formatted with their paths.
FIT_ARGV = ["fit", "--students", "{students}", "--schools", "{schools}",
            "--config", "{config}", "--out", "{out}"]


class TestInputErrorsBeforeFitting:
    """A bad --bic-n, --ku or --seed value, or any other usage error, exits
    1 before any start is fitted or any dataset simulated."""

    @pytest.fixture
    def no_fitting(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("multistart_fit or simulate_full was called")
        monkeypatch.setattr("mlcirt.cli.multistart_fit", fail)
        monkeypatch.setattr("mlcirt.selection.multistart_fit", fail)
        monkeypatch.setattr("mlcirt.cli.simulate_full", fail)

    @pytest.mark.parametrize("command", ["fit", "sweep", "simulate"])
    def test_negative_seed(self, tmp_path, capsys, no_fitting, command):
        if command == "simulate":
            path = tmp_path / "design.json"
            path.write_text(json.dumps(DESIGN))
            argv = ["simulate", "--design", str(path)]
            expected = f"error: {path}: bad design (seed must be >= 0, got -1)"
        else:
            students, schools, config_path = write_inputs(tmp_path)
            argv = [command, "--students", str(students), "--schools", str(schools),
                    "--config", str(config_path), "--starts", "2"]
            argv += ["--ku", "1..2"] if command == "sweep" else []
            expected = "error: seed must be >= 0, got -1"
        assert main(argv + ["--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == [expected]
        assert not (tmp_path / "out").exists()

    def test_fit_rejects_zero_bic_n(self, tmp_path, capsys, no_fitting):
        students, schools, config_path = write_inputs(tmp_path)
        code = main(["fit", "--students", str(students), "--schools", str(schools),
                     "--config", str(config_path), "--out", str(tmp_path / "fit"),
                     "--starts", "1", "--bic-n", "0"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: bic_n must be >= 1, got 0"]
        assert not (tmp_path / "fit" / "report.json").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("fit", ["--bic-n", "2.5"],
         "argument --bic-n: expected students, schools or an integer, got '2.5'"),
        ("sweep", ["--ku", "abc"], f"argument --ku: {KU_ACCEPTS}, got 'abc'"),
        ("sweep", ["--ku", "1..x"], f"argument --ku: {KU_ACCEPTS}, got '1..x'"),
        ("sweep", ["--ku", "..3"], f"argument --ku: {KU_ACCEPTS}, got '..3'"),
        ("fit", ["--tol", "inf"], "tol_loglik must be a finite number > 0, got inf"),
        ("fit", ["--tol", "nan"], "tol_loglik must be a finite number > 0, got nan"),
    ], ids=["bic-n-2.5", "ku-abc", "ku-1..x", "ku-..3", "tol-inf", "tol-nan"])
    def test_bad_flag_value_is_one_error_line(self, tmp_path, capsys, no_fitting,
                                              command, flags, message):
        students, schools, config_path = write_inputs(tmp_path)
        assert main([command, "--students", str(students), "--schools", str(schools),
                     "--config", str(config_path), "--out", str(tmp_path / "out"),
                     "--starts", "1", *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("template", [
        [*FIT_ARGV, "--seed", "abc"], [*FIT_ARGV, "--starts", "abc"],
        [*FIT_ARGV, "--max-iter", "abc"], [*FIT_ARGV, "--kv", "abc"],
        [*FIT_ARGV, "--ku", "abc"], [*FIT_ARGV, "--tol", "abc"],
        [*FIT_ARGV, "--parameterization", "3pl"],
        ["fit", "--students", "{students}", "--config", "{config}", "--out", "{out}"],
        [*FIT_ARGV, "--no-such-flag"], ["nosuchcommand"], []],
        ids=["seed-abc", "starts-abc", "max-iter-abc", "kv-abc", "ku-abc", "tol-abc",
             "parameterization-3pl", "no-schools", "unknown-flag", "unknown-command",
             "no-command"])
    def test_usage_error_is_one_error_line(self, tmp_path, capsys, no_fitting,
                                           template):
        """A usage error is an input error: exit 1, not argparse's exit 2
        after a usage block."""
        students, schools, config_path = write_inputs(tmp_path)
        argv = [arg.format(students=students, schools=schools, config=config_path,
                           out=tmp_path / "out") for arg in template]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ku", ["0..1", "0"])
    def test_sweep_rejects_zero_school_types(self, tmp_path, capsys, no_fitting,
                                             ku):
        students, schools, config_path = write_inputs(tmp_path)
        code = main(["sweep", "--students", str(students), "--schools", str(schools),
                     "--config", str(config_path), "--out", str(tmp_path / "sweep"),
                     "--ku", ku, "--starts", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(ku) in err
        assert not (tmp_path / "sweep" / "sweep.json").exists()


@pytest.mark.parametrize("command, entry", [
    ("fit", {"dim_of": 5}),
    ("fit", {"controls": [1, 2]}),
    ("fit", {"student_covariates": ["x"]}),
    ("fit", {"student_covariates": {"name": "x"}}),
    ("fit", {"n_classes": None}),
    ("simulate", {"student_covariates": ["x"]}),
    ("fit", {"student_covariates": REPEATED_LEVELS[0]}),
    ("fit", {"school_covariates": REPEATED_LEVELS[1]}),
    ("simulate", {"student_covariates": [{"type": "cyclic", "values": []}]}),
    ("fit", {"n_classes": 0}),
    ("simulate", {"spec": dict(DESIGN["spec"], n_classes=0)}),
    ("simulate", {"school_size": 0}),
    ("simulate", {"school_size": -1}),
    ("simulate", {"school_size": [0, 3]}),
    ("simulate", {"school_size": [5, 2]}),
    ("simulate", {"student_covariates": [{"type": "categorical",
                                          "probs": [math.nan, 1.0]}]}),
    ("simulate", {"student_covariates": [{"type": "cyclic",
                                          "values": [math.nan, 1.0]}]}),
    ("fit", {"controls": {"seed": 1.5}}),
    ("fit", {"controls": {"n_starts": 1.5}}),
    ("fit", {"controls": {"max_iter": 2.5}}),
    ("fit", {"controls": {"newton_max_iter": 1}}),
    ("fit", {"n_classes": 2.5}),
    ("fit", {"reference_items": [1.7]}),
    ("fit", {"dim_of": [1, 1.5, 1]}),
    ("simulate", {"n_schools": 2.5}),
    ("simulate", {"school_size": 2.5}),
    ("simulate", {"spec": dict(DESIGN["spec"], n_items=9, n_dims=3)}),
    ("fit", {"bic_n": True}),
    ("simulate", {"school_size": True}),
    ("fit", {"controls": {"seed": -1}}),
    ("simulate", {"seed": -1}),
    ("fit", {"controls": {"tol_loglik": True}}),
    ("fit", {"controls": {"tol_param": math.nan}}),
    ("fit", {"controls": {"newton_tol": math.inf}}),
    ("simulate", {"missing_rate": "0.1"}),
])
def test_malformed_config_or_design_is_a_one_line_input_error(tmp_path, capsys,
                                                              command, entry):
    if command == "fit":
        path = write_inputs(tmp_path, config=dict(BASE_CONFIG, **entry))[2]
        argv = ["fit", "--students", str(tmp_path / "students.csv"),
                "--schools", str(tmp_path / "schools.csv"), "--config", str(path)]
    else:
        path = tmp_path / "design.json"
        path.write_text(json.dumps(dict(DESIGN, **entry)))
        argv = ["simulate", "--design", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err


@pytest.mark.parametrize("entry, message", [
    ({"dim_of": [1] * 15, "reference_items": [99]},
     "invalid model spec: reference item 99 of dimension 1 out of range"),
    ({"dim_of": [1, 1, 3, 3]}, "dimension 2 has no items"),
], ids=["reference-99", "dimension-gap"])
def test_config_spec_problem_numbers_items_from_one(tmp_path, capsys, entry,
                                                     message):
    path = write_inputs(tmp_path, config=dict(BASE_CONFIG, **entry))[2]
    assert main(["fit", "--students", str(tmp_path / "students.csv"),
                 "--schools", str(tmp_path / "schools.csv"), "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: bad config ({message})"]


@pytest.mark.parametrize("controls, message", [
    ({"newton_max_iter": 50}, "unknown control 'newton_max_iter'; the controls "
                              "are max_iter, tol_loglik, tol_param, n_starts, seed"),
    ({"seed": 2, "newton_tol": 1}, "unknown control 'newton_tol'; the controls "
                                   "are max_iter, tol_loglik, tol_param, n_starts, seed"),
    ([1], "controls must be a JSON object, got [1]"),
], ids=["newton-max-iter", "newton-tol", "list"])
def test_config_controls_name_the_unknown_control(tmp_path, capsys, controls,
                                                   message):
    """``controls`` is a JSON object of ``FitControls`` fields; any other key
    is named with the list of controls, in one line."""
    path = write_inputs(tmp_path, config=dict(BASE_CONFIG, controls=controls))[2]
    assert main(["fit", "--students", str(tmp_path / "students.csv"),
                 "--schools", str(tmp_path / "schools.csv"), "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: bad config ({message})"]


@pytest.mark.parametrize("flags, covariate, message", [
    (["--kv", "0"], "1", "invalid model spec: n_classes must be >= 1, got 0"),
    ([], "nan", "{students}:4: column 6 (gender): non-finite value 'nan'"),
], ids=["kv-0", "nan-covariate"])
def test_bad_override_or_dataset_is_a_one_line_input_error(tmp_path, capsys, flags,
                                                           covariate, message):
    """A numeric covariate of ``nan`` is a bad token of the students file,
    reported with its row and column."""
    students = (STUDENTS_CSV.replace(",M\n", ",0\n").replace(",F\n", ",1\n")
                .replace("sch2,c,1,1,0,1", f"sch2,c,1,1,0,{covariate}"))
    config = dict(BASE_CONFIG, student_covariates=[{"name": "gender"}])
    write_inputs(tmp_path, students=students, config=config)
    assert main(["fit", "--students", str(tmp_path / "students.csv"),
                 "--schools", str(tmp_path / "schools.csv"),
                 "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out"), *flags]) == 1
    message = message.format(students=tmp_path / "students.csv")
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _without(raw: dict, key: str) -> dict:
    return {k: v for k, v in raw.items() if k != key}


@pytest.mark.parametrize("kind, edit, message", [
    ("design", lambda d: _without(d, "school_size"), "missing key 'school_size'"),
    ("design", lambda d: dict(d, student_covariates=[{"type": "categorical"}]),
     "missing key 'probs'"),
    ("design", lambda d: dict(d, n_schools=2.5), "n_schools must be an integer, got 2.5"),
    ("design", lambda d: dict(d, spec=dict(d["spec"], n_items=9, n_dims=3)),
     "n_items is 9, but dim_of gives 4"),
    ("config", lambda c: dict(c, n_classes=2.5),
     "invalid model spec: n_classes must be an integer, got 2.5"),
    ("config", lambda c: dict(c, reference_items=[1.7]),
     "reference_items entry must be an integer, got 1.7"),
    ("config", lambda c: dict(c, controls={"seed": 1.5}),
     "seed must be an integer, got 1.5"),
], ids=["design-no-school-size", "design-no-probs", "design-n-schools-2.5",
        "design-n-items-9", "config-n-classes-2.5", "config-reference-1.7",
        "config-seed-1.5"])
def test_json_input_error_is_bad_kind_with_message(fitted, tmp_path, capsys, kind,
                                                   edit, message):
    """A design or config is read as a report is (see
    ``test_bad_report_error_gives_the_message``): one ``<path>: bad <kind>
    (<message>)`` line, exit 1."""
    path = tmp_path / f"{kind}.json"
    if kind == "design":
        path.write_text(json.dumps(edit(DESIGN)))
        argv = ["simulate", "--design", str(path), "--out", str(tmp_path / "out")]
    else:
        config = json.loads((fitted[1] / "config.json").read_text())
        path.write_text(json.dumps(edit(config)))
        argv = classify_argv(fitted, tmp_path / "out", config=path)
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: bad {kind} ({message})"]


@pytest.mark.parametrize("value", [[1], "x", 1, None],
                         ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("kind, key", [
    ("config", None), ("design", None), ("design", "spec"), ("design", "truth"),
    ("report", None), ("report", "model"), ("report", "parameters"),
], ids=["config", "design", "design-spec", "design-truth", "report",
        "report-model", "report-parameters"])
def test_json_value_that_is_not_an_object_is_named(fitted, tmp_path, capsys, kind,
                                                   key, value):
    """A file, or a key of one, that must hold a JSON object and holds another
    value is one ``<path>: bad <kind> (<name> must be a JSON object, got
    <value>)`` line, exit 1, as ``controls`` is."""
    raw = (DESIGN if kind == "design" else json.loads(
        (fitted[1] / "config.json" if kind == "config"
         else fitted[2] / "report.json").read_text()))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(value if key is None else dict(raw, **{key: value})))
    if kind == "design":
        argv = ["simulate", "--design", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = classify_argv(fitted, tmp_path / "out", **{kind: path})
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: bad {kind} ({key or kind} must be a JSON object, "
        f"got {value!r})"]


@pytest.mark.parametrize("flag", ["config", "report", "design"])
def test_missing_json_input_is_a_missing_input_file(fitted, tmp_path, capsys, flag):
    path = tmp_path / "nope.json"
    if flag == "design":
        argv = ["simulate", "--design", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = classify_argv(fitted, tmp_path / "out", **{flag: path})
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: missing input file: {path}"]


def test_simulated_config_reads_back_the_design(tmp_path):
    """``parse_config`` on the config.json that ``simulate`` writes gives the
    design's spec, covariate declarations and seed."""
    out = run_simulate(tmp_path, seed=5)
    design = parse_design(tmp_path / "design.json", seed_override=5)
    config = parse_config(out / "config.json")
    assert config.spec == design.spec
    assert config.student_covariates == (
        CovariateDecl("x1", "categorical", ("L0", "L1"), "L0"),)
    assert config.school_covariates == (
        CovariateDecl("w1", "categorical", ("L0", "L1"), "L0"),)
    assert config.controls.seed == 5 and config.bic_n == "students"


def test_parse_report_reads_back_the_fit(fitted):
    """``parse_report`` gives the fitted spec and the parameters as written."""
    tmp_path, sim, fit_out = fitted
    spec, params = parse_report(fit_out / "report.json")
    assert spec == parse_config(sim / "config.json").spec
    assert spec == parse_design(tmp_path / "design.json").spec
    assert params_to_dict(params) == read_report(fit_out / "report.json")["parameters"]


def classify_argv(fitted, out, **paths):
    """``classify`` on the fitted report and data, with ``paths`` (flag
    name without dashes -> path) in place of the given ones."""
    _, sim, fit_out = fitted
    files = {"report": fit_out / "report.json", "students": sim / "students.csv",
             "schools": sim / "schools.csv", "config": sim / "config.json", **paths}
    return ["classify", *(f"--{flag}={path}" for flag, path in files.items()),
            "--out", str(out)]


@pytest.mark.parametrize("command", ["classify", "simulate"])
@pytest.mark.parametrize("reference_items", [[9], []], ids=["item-9", "none"])
def test_malformed_reference_items_are_an_input_error(fitted, tmp_path, capsys,
                                                      command, reference_items):
    """A report or design whose spec names no valid reference item exits 1
    with an error line naming the file, not a traceback."""
    if command == "classify":
        path = tmp_path / "report.json"
        report = json.loads((fitted[2] / "report.json").read_text())
        report["model"]["reference_items"] = reference_items
        path.write_text(json.dumps(report))
        argv = classify_argv(fitted, tmp_path / "out", report=path)
        expected = f"error: {path}: "
    else:
        path = tmp_path / "design.json"
        path.write_text(json.dumps(dict(
            DESIGN, spec=dict(DESIGN["spec"], reference_items=reference_items))))
        argv = ["simulate", "--design", str(path), "--out", str(tmp_path / "out")]
        expected = f"error: {path}: bad design"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected) and "Traceback" not in err, err
    assert len(err.splitlines()) == 1, err
    if reference_items:
        assert "reference item 9 " in err, err


def as_old_lc_report(report):
    """The 2PL ``report`` turned into an "lc" report as written before
    "lc" sets lost their item and ability blocks: those blocks still hold
    numbers next to the success table."""
    report["model"]["parameterization"] = "lc"
    report["parameters"]["lc_success"] = [[0.5] * 4] * 2


@pytest.mark.parametrize("edit, message", [
    (lambda report: report["model"].update(reference_items=[99]),
     "bad report (invalid model spec: reference item 99 of dimension 1 out of range)"),
    (lambda report: report.pop("parameters"), "bad report (missing key 'parameters')"),
    (lambda report: report["model"].update(n_classes=2.9),
     "bad report (invalid model spec: n_classes must be an integer, got 2.9)"),
    (lambda report: report["model"].update(n_items=7),
     "bad report (n_items is 7, but dim_of gives 4)"),
    (lambda report: report["parameters"].update(lc_success=[[0.5] * 4] * 2),
     "lc_success is not a parameter of the 2pl parameterization"),
    (as_old_lc_report,
     "; ".join(f"{block} is not a parameter of the lc parameterization"
               for block in ("difficulty", "discrimination", "abilities"))),
    # Type logits that overflow: no numpy warning line, no traceback.
    (lambda report: report["parameters"].update(type_intercepts=[1e308],
                                                type_slopes=[[1e308]]),
     "log-likelihood is not finite at the current parameters"),
], ids=["reference-99", "no-parameters", "n-classes-2.9", "n-items-7",
        "lc-table-in-2pl", "old-lc-report", "overflowing-type-logits"])
def test_bad_report_error_gives_the_message(fitted, tmp_path, capsys, edit,
                                            message):
    path = tmp_path / "report.json"
    report = json.loads((fitted[2] / "report.json").read_text())
    edit(report)
    path.write_text(json.dumps(report))
    assert main(classify_argv(fitted, tmp_path / "out", report=path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


@pytest.mark.parametrize("flag", ["config", "students", "schools", "report",
                                  "design"])
def test_directory_as_input_file_is_a_one_line_input_error(fitted, tmp_path,
                                                           capsys, flag):
    if flag == "design":
        argv = ["simulate", "--design", str(tmp_path), "--out", str(tmp_path / "out")]
    else:
        argv = classify_argv(fitted, tmp_path / "out", **{flag: tmp_path})
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path) in err[0]


@pytest.mark.parametrize("flag, content", [
    ("config", b"\xff{}"),
    ("students", b"\xffschool_id"),
    ("schools", b"\xffschool_id"),
    ("report", b"not JSON"),
    ("config", json.dumps(dict(BASE_CONFIG, student_covariates=[{"type": "numeric"}]))
     .encode()),
], ids=["config-not-utf8", "students-not-utf8", "schools-not-utf8",
        "report-not-json", "covariate-without-name"])
def test_input_error_names_its_file(fitted, tmp_path, capsys, flag, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main(classify_argv(fitted, tmp_path / "out", **{flag: path})) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err


def test_cli_pipeline_runs_without_scipy(tmp_path):
    """numpy is the only run-time dependency: with scipy unimportable,
    simulate -> fit -> classify all exit 0."""
    design = tmp_path / "design.json"
    design.write_text(json.dumps(DESIGN))
    sim = tmp_path / "sim"
    files = ["--students", str(sim / "students.csv"), "--schools",
             str(sim / "schools.csv"), "--config", str(sim / "config.json")]
    commands = [
        ["simulate", "--design", str(design), "--out", str(sim)],
        ["fit", *files, "--out", str(tmp_path / "fit"), "--starts", "2"],
        ["classify", "--report", str(tmp_path / "fit" / "report.json"), *files,
         "--out", str(tmp_path / "cls")],
    ]
    script = ("import json, sys\n"
              "sys.modules['scipy'] = None\n"
              "from mlcirt.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    code = main(argv)\n"
              "    if code:\n"
              "        sys.exit(code)\n")
    src = str(Path(mlcirt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cls" / "students_assign.csv").exists()


class TestModuleEntryPoint:

    def test_python_dash_m(self, tmp_path):
        import subprocess
        import sys

        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(DESIGN))
        proc = subprocess.run(
            [sys.executable, "-m", "mlcirt", "simulate", "--design",
             str(design_path), "--out", str(tmp_path / "sim")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "sim" / "students.csv").exists()


class TestFileEncoding:

    def test_fit_under_ascii_locale_matches_utf8_locale(self, tmp_path):
        """Files are UTF-8 whatever the locale: a non-ASCII school id fits
        under ``LC_ALL=C`` with UTF-8 mode off and gives the same bytes."""
        (tmp_path / "students.csv").write_bytes(
            STUDENTS_CSV.replace("sch2", "Scuola-Città").encode("utf-8"))
        (tmp_path / "schools.csv").write_bytes(
            SCHOOLS_CSV.replace("sch2", "Scuola-Città").encode("utf-8"))
        (tmp_path / "config.json").write_bytes(json.dumps(BASE_CONFIG).encode("utf-8"))
        src = str(Path(mlcirt.__file__).resolve().parents[1])
        base = {key: value for key, value in os.environ.items()
                if not key.startswith("LC_") and key not in ("LANG", "PYTHONUTF8")}
        base["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        for name, env in (("utf8", {"PYTHONUTF8": "1"}),
                          ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0"})):
            proc = subprocess.run(
                [sys.executable, "-m", "mlcirt", "fit",
                 "--students", str(tmp_path / "students.csv"),
                 "--schools", str(tmp_path / "schools.csv"),
                 "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / name), "--starts", "1"],
                env={**base, **env}, capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        for file in ("students_assign.csv", "schools_assign.csv", "report.json"):
            assert ((tmp_path / "ascii" / file).read_bytes()
                    == (tmp_path / "utf8" / file).read_bytes())
        assert "Scuola-Città".encode("utf-8") in (
            tmp_path / "ascii" / "schools_assign.csv").read_bytes()

