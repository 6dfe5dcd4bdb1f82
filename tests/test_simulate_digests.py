"""Simulated datasets pinned by SHA-256 across versions.

The digests are of the files ``mlcirt simulate`` writes.  They were
recorded before the class and type draws were batched, and any change to
the simulator's random stream, its draw order, the weight arithmetic or
the CSV writer shows up here.  The datasets behind acceptance criteria 6
and 7 come from the same simulator, so a moved digest means those checks
run on different data.
"""

import hashlib
import json

import pytest

from mlcirt import io as mio
from mlcirt.cli import main
from mlcirt.simulate import desk_design


def desk_design_json():
    """The desk model at 12 schools of 8 students."""
    design = desk_design(n_schools=12, school_size=8)
    return {
        "n_schools": 12, "school_size": 8, "seed": 5,
        "spec": mio.spec_to_dict(design.spec),
        "truth": mio.params_to_dict(design.truth),
        "student_covariates": [{"type": "categorical", "probs": [0.5, 0.5]}],
        "school_covariates": [{"type": "categorical", "probs": [0.5, 0.5]}],
    }


# Two dimensions, three classes and types, a 3-level categorical plus a
# cyclic student covariate, a cyclic school covariate, ragged schools and
# missing responses.
MIXED_DESIGN = {
    "n_schools": 9, "school_size": [3, 11], "seed": 31, "missing_rate": 0.15,
    "spec": {"parameterization": "2pl", "n_classes": 3, "n_types": 3,
             "n_items": 6, "n_dims": 2, "dim_of": [1, 1, 1, 2, 2, 2],
             "reference_items": [1, 4], "n_student_covariates": 3,
             "n_school_covariates": 1},
    "truth": {"difficulty": [0.0, -0.7, 0.45, 0.0, 0.3, -0.25],
              "discrimination": [1.0, 0.85, 1.3, 1.0, 1.15, 0.7],
              "abilities": [[-1.1, -0.6], [0.1, 0.35], [1.3, 0.9]],
              "class_intercepts": [[0.7, -0.3], [-0.2, 0.45], [0.1, -0.9]],
              "class_slopes": [[0.37, -0.61, 0.83], [-0.29, 0.53, -1.07]],
              "type_intercepts": [0.2, -0.35],
              "type_slopes": [[0.71], [-0.43]],
              "lc_success": None},
    "student_covariates": [
        {"type": "categorical", "probs": [0.3, 0.45, 0.25]},
        {"type": "cyclic", "values": [-1.3, -0.4, 0.2, 0.9, 1.7]}],
    "school_covariates": [{"type": "cyclic", "values": [-0.8, 0.15, 1.1]}],
}

DIGESTS = {
    "desk": {
        "students.csv": "cc40e8748a35033cd1c1a260b69bb8343f9772449783bbfaf906d69f97f2fc4a",
        "schools.csv": "416dedbc6e0a5334630b8b45d63d932ebb4775a26912d5e56c52cfbc6630f304",
    },
    "mixed": {
        "students.csv": "332e4f297106439ee87bdbf60f71f101ab6815b458e52672ee5bb0365b2082af",
        "schools.csv": "dcdea6cbb2ea3351aeca66aad19f3f09e9122b7836858950091955eda591d682",
    },
}


@pytest.mark.parametrize("name", ["desk", "mixed"])
def test_simulated_files_match_pinned_digests(name, tmp_path):
    design = desk_design_json() if name == "desk" else MIXED_DESIGN
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design))
    out = tmp_path / "sim"
    assert main(["simulate", "--design", str(design_path),
                 "--out", str(out)]) == 0
    for filename, digest in DIGESTS[name].items():
        assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == digest
