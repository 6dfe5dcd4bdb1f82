"""Benchmark workloads: simulation designs and the CLI command sequence.

Each workload fixes a design (model shape, true parameters, sample sizes,
covariate generators) and the command flags.  The datasets of a run are
simulated, and their multistarts seeded, from the run's ``--seed`` (see
``dataset_seed``), so the same seed gives the same inputs.  The program
sees only the generated files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    fit_starts: int
    sweep_ku: str
    sweep_starts: int
    sweep_expected: int   # n_types the sweep must choose


# The deterministic start is symmetric in the school types and can stay on
# that saddle (it does on `large`), so every fit also runs random starts.
# Sweep rows above the true k_U took 2-20x as long as the rest of the desk
# sweep and on some seeds hit max_iter (exit 2), so the timed sweeps stop at
# the true k_U on desk and fit k_U = 1 only elsewhere.  Why each workload
# exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("desk", fit_starts=4, sweep_ku="1..2", sweep_starts=4, sweep_expected=2),
    Workload("large", fit_starts=2, sweep_ku="1..1", sweep_starts=1, sweep_expected=1),
    Workload("covariates", fit_starts=2, sweep_ku="1..1", sweep_starts=1,
             sweep_expected=1),
    # Not in BENCHMARK.json: a seconds-long design for check_smoke.py.
    Workload("tiny", fit_starts=2, sweep_ku="1..1", sweep_starts=1, sweep_expected=1),
)}


def _covariate_entries(generators):
    from mlcirt.simulate import CategoricalCovariate

    entries = []
    for gen in generators:
        if isinstance(gen, CategoricalCovariate):
            entries.append({"type": "categorical", "probs": list(gen.probs)})
        else:
            entries.append({"type": "cyclic", "values": list(gen.values)})
    return entries


def _design_dict(design) -> dict:
    from mlcirt import io as mio

    size = design.school_size
    return {
        "spec": mio.spec_to_dict(design.spec),
        "truth": mio.params_to_dict(design.truth),
        "n_schools": design.n_schools,
        "school_size": list(size) if isinstance(size, tuple) else size,
        "student_covariates": _covariate_entries(design.student_covariates),
        "school_covariates": _covariate_entries(design.school_covariates),
        "missing_rate": design.missing_rate,
        "seed": design.seed,
    }


def _covariates_design():
    # Class abilities rise together in both dimensions and k_U is 2: with
    # independent dimensions or k_U = 3 the fits of some seeds took 3-40x
    # the usual EM iterations or ended below the truth's log-likelihood.
    import numpy as np
    from mlcirt.model import ItemBank, ModelSpec, ParameterSet, Parameterization
    from mlcirt.simulate import CategoricalCovariate, CyclicCovariate, SimulationDesign

    per_dim = 12
    bank = ItemBank.from_dim_of([0] * per_dim + [1] * per_dim)
    spec = ModelSpec(bank, n_classes=4, n_types=2,
                     parameterization=Parameterization.TWO_PL,
                     n_student_covariates=1, n_school_covariates=2)
    ramp = np.linspace(-1.2, 1.2, per_dim - 1)
    slopes = np.linspace(1.0, 2.0, per_dim - 1)
    truth = ParameterSet(
        difficulty=np.concatenate([[0.0], ramp, [0.0], ramp[::-1]]),
        discrimination=np.concatenate([[1.0], slopes, [1.0], slopes[::-1]]),
        abilities=np.array([[-2.0, -1.5], [-0.7, -0.2], [0.7, 0.2], [2.0, 1.5]]),
        class_intercepts=np.array([[2.0, 0.0, -2.0],
                                   [-2.0, 0.0, 2.0]]),
        class_slopes=np.array([[0.4], [0.8], [1.2]]),
        type_intercepts=np.array([0.0]),
        type_slopes=np.array([[0.5, -0.5]]),
    )
    return SimulationDesign(
        spec=spec, truth=truth, n_schools=500, school_size=(10, 40),
        student_covariates=(CyclicCovariate(tuple(np.linspace(-1.0, 1.0, 1009))),),
        school_covariates=(CategoricalCovariate((0.4, 0.3, 0.3)),),
        missing_rate=0.1)


def build_design(name: str):
    """The workload's ``SimulationDesign`` (seed 0; the CLI overrides it)."""
    from mlcirt.simulate import desk_design

    if name == "desk":
        return desk_design()
    if name == "large":
        return desk_design(n_schools=5000, school_size=40)
    if name == "covariates":
        return _covariates_design()
    if name == "tiny":
        return desk_design(n_schools=12, school_size=8)
    raise KeyError(name)


def write_design(name: str, path: Path) -> None:
    """Write the workload's design file for ``mlcirt simulate --design``."""
    path.write_text(json.dumps(_design_dict(build_design(name)), indent=2) + "\n")


def timed_setup(name: str, path: Path) -> float:
    """Seconds to import mlcirt and write the design file.

    Meant for a fresh interpreter, where the import loads numpy and scipy
    too; this module itself imports neither.
    """
    start = time.perf_counter()
    import mlcirt  # noqa: F401
    write_design(name, path)
    return time.perf_counter() - start


def dataset_seed(seed: int, dataset: int) -> int:
    """Simulation and multistart seed of a run's ``dataset``-th dataset."""
    return seed + 1_000_000 * dataset


# classify is short (0.05-3 s) and single timings of it varied by 40% on a
# shared host, so each pipeline times it this many times.
CLASSIFY_REPEATS = 3


def commands(workload: Workload, work: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's CLI sequence as (command, argv) pairs.

    Each ``classify`` writes to its own directory, ``classify-<k>``.
    """
    data = work / "data"
    files = ["--students", str(data / "students.csv"),
             "--schools", str(data / "schools.csv"),
             "--config", str(data / "config.json")]
    return [
        ("simulate", ["simulate", "--design", str(work / "design.json"),
                      "--out", str(data), "--seed", str(seed)]),
        ("fit", ["fit", *files, "--out", str(work / "fit"), "--seed", str(seed),
                 "--starts", str(workload.fit_starts)]),
        ("sweep", ["sweep", *files, "--out", str(work / "sweep"),
                   "--seed", str(seed), "--ku", workload.sweep_ku,
                   "--starts", str(workload.sweep_starts)]),
    ] + [
        ("classify", ["classify", "--report", str(work / "fit" / "report.json"),
                      *files, "--out", str(work / f"classify-{k}")])
        for k in range(CLASSIFY_REPEATS)
    ]
