"""End-to-end and per-layer benchmark of the mlcirt command-line interface.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

The benchmark imports the program from ``src/`` and calls
``mlcirt.cli.main`` in-process: one caller, one command at a time (a
closed loop), BLAS fixed to one thread.  A pipeline is the workload's
sequence ``simulate -> fit -> sweep -> classify`` (classify three times) on
a dataset simulated from ``--seed``; it is repeated until ``--seconds`` are
used up and every timing is the median over all invocations.  Each command's output is
checked (see ``check_outputs`` and ``truth_check``); a command that exits
non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced pipelines and reports the
per-layer metrics of BENCHMARK.json, derived from spans recorded around
the program's public functions (see ``tracing.py``), plus the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
the environment, goes to ``--results`` (default ``.bench_results/``),
and a traced run also writes its spans there.

    python3 perfbench/run.py --compare DIR_A DIR_B

compares two such result sets (see ``compare.py``).
"""

from __future__ import annotations

import os

# Fixed before numpy is first imported, so BLAS never picks its own count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import compare
import workloads
from layers import COMPUTED, pipeline_layers
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROBE_REPEATS = 5


@dataclass
class Rep:
    """One pipeline: wall (and CPU) seconds of each command invocation and
    of the whole sequence, and the invocations that failed."""

    traced: bool
    dataset: int
    times: dict[str, list[float]] = field(default_factory=dict)
    cpu: dict[str, list[float]] = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)

    def add(self, name: str, wall: float, cpu: float) -> None:
        self.times.setdefault(name, []).append(wall)
        self.cpu.setdefault(name, []).append(cpu)

    def n_commands(self) -> int:
        return sum(len(t) for name, t in self.times.items() if name != "pipeline")

    def n_failed(self) -> int:
        """Failed invocations; a command that both exits non-zero and fails
        a check counts once."""
        return sum(min(self.failed.count(name), len(self.times.get(name, ())))
                   for name in set(self.failed))


def _die(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Pipeline and checks
# ---------------------------------------------------------------------------

def run_pipeline(cli, workload, work: Path, seed: int, dataset: int,
                 tracer=None) -> Rep:
    """Run the workload's commands once; time each and the whole sequence."""
    for stale in work.iterdir():   # outputs of the previous pipeline
        if stale.is_dir():
            shutil.rmtree(stale)
    rep = Rep(tracer is not None, dataset)
    begin, begin_cpu = time.perf_counter(), time.process_time()
    for cmd, argv in workloads.commands(workload, work, seed):
        sink = io.StringIO()
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span(f"cli.{cmd}"):
                        code = cli.main(argv)
        except Exception:
            code = None
            sink.write(traceback.format_exc())
        rep.add(cmd, time.perf_counter() - start, time.process_time() - start_cpu)
        if code != 0:
            rep.failed.append(cmd)
            print(f"{cmd} exited {code}:\n{sink.getvalue()}", file=sys.stderr)
    rep.add("pipeline", time.perf_counter() - begin, time.process_time() - begin_cpu)
    return rep


def check_outputs(work: Path, workload, rep: Rep, reference: dict) -> None:
    """Record in ``rep.failed`` each command whose output is wrong.

    - the fit's log-likelihood is at least the truth's minus 1e-6
      (``truth_check``, once per dataset);
    - ``report.json`` is byte-identical to the one written the first time
      this dataset (same seed) was fitted;
    - the sweep chooses the workload's expected number of school types;
    - each ``classify`` reproduces the fit's assignment files byte for byte.
    """
    bad = []
    try:
        report = (work / "fit" / "report.json").read_bytes()
        if rep.dataset not in reference:
            reference[rep.dataset] = report
            if not truth_check(work):
                bad.append("fit")
        if report != reference[rep.dataset]:
            bad.append("fit")
    except OSError:
        bad.append("fit")
    try:
        sweep = json.loads((work / "sweep" / "sweep.json").read_text())
        if sweep["chosen_n_types"] != workload.sweep_expected:
            bad.append("sweep")
    except (OSError, ValueError, KeyError):
        bad.append("sweep")
    for k in range(workloads.CLASSIFY_REPEATS):
        try:
            if any((work / f"classify-{k}" / name).read_bytes()
                   != (work / "fit" / name).read_bytes()
                   for name in ("students_assign.csv", "schools_assign.csv")):
                bad.append("classify")
        except OSError:
            bad.append("classify")
    for cmd in bad:
        print(f"{cmd}: output check failed", file=sys.stderr)
    rep.failed.extend(bad)


def _load_fitted(work: Path):
    from mlcirt import io as mio

    data_dir = work / "data"
    config = mio.parse_config(data_dir / "config.json")
    data = mio.load_dataset(data_dir / "students.csv", data_dir / "schools.csv",
                            config)
    report = mio.read_report(work / "fit" / "report.json")
    return config, data, report


def truth_check(work: Path) -> bool:
    """The fit's log-likelihood is at least the truth's minus 1e-6."""
    from mlcirt import io as mio
    from mlcirt.likelihood import marginal_loglik

    _, data, report = _load_fitted(work)
    truth = json.loads((work / "data" / "truth.json").read_text())
    spec = mio.spec_from_dict(truth["spec"])
    loglik_truth = marginal_loglik(data, mio.params_from_dict(truth["parameters"]),
                                   spec)
    ok = report["fit"]["loglik"] >= loglik_truth - 1e-6
    if not ok:
        print(f"fit: loglik {report['fit']['loglik']} below the truth's "
              f"{loglik_truth}", file=sys.stderr)
    return ok


def probe_steps(work: Path) -> dict[str, float]:
    """Median ms of the public ``e_step`` and ``m_step`` at the fitted
    parameters."""
    from mlcirt import io as mio
    from mlcirt.em import e_step, m_step

    config, data, report = _load_fitted(work)
    spec = mio.spec_from_dict(report["model"])
    params = mio.params_from_dict(report["parameters"])
    posteriors = e_step(data, params, spec)

    def median_ms(call):
        samples = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            call()
            samples.append(1e3 * (time.perf_counter() - start))
        return statistics.median(samples)

    return {
        "em.e_step_ms": median_ms(lambda: e_step(data, params, spec)),
        "em.m_step_ms": median_ms(
            lambda: m_step(data, posteriors, params, spec, config.controls)),
    }


# ---------------------------------------------------------------------------
# Set-up and environment
# ---------------------------------------------------------------------------

def measure_setup(name: str, work: Path) -> float:
    """Median seconds, in fresh interpreters, to import mlcirt and write the
    design file."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import workloads; "
            "print(workloads.timed_setup(sys.argv[3], workloads.Path(sys.argv[4])))")
    samples = []
    for k in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(BENCH_DIR), name,
             str(work / f"design-probe{k}.json")],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mlcirt").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def _median(reps: list[Rep], key: str) -> float:
    return statistics.median(t for rep in reps for t in rep.times[key])


def end_to_end(reps: list[Rep], setup_s: float, peak_rss_mb: float) -> dict:
    """Median command and pipeline times; ``peak_rss_mb`` is the process's
    high-water mark over the whole run, output checks included."""
    return {
        "simulate_s": _median(reps, "simulate"),
        "fit_s": _median(reps, "fit"),
        "sweep_s": _median(reps, "sweep"),
        "classify_s": _median(reps, "classify"),
        "pipeline_s": _median(reps, "pipeline"),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, reps: list[Rep], probes: dict) -> dict:
    rows = []
    for run, rep in enumerate(reps):
        if rep.traced:
            rows.append(pipeline_layers([sp for sp in tracer.spans if sp.run == run]))
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics.update(probes)
    metrics["trace.overhead_s"] = (_median([r for r in reps if r.traced], "pipeline")
                                   - _median([r for r in reps if not r.traced],
                                             "pipeline"))
    return metrics


def bench(args) -> int:
    manifest = load_manifest()
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = measure_setup(args.workload, work)
        from mlcirt import cli

        workloads.write_design(args.workload, work / "design.json")
        tracer = Tracer() if args.trace else None
        reps: list[Rep] = []
        reference: dict = {}
        deadline = time.perf_counter() + args.seconds
        while True:
            # An untraced run repeats its first dataset once, to check
            # determinism, then draws a new dataset per pipeline, so that
            # medians average over datasets.  A traced run runs each dataset
            # untraced and then traced.
            if tracer is None:
                dataset, traced = max(len(reps) - 1, 0), False
            else:
                dataset, traced = len(reps) // 2, len(reps) % 2 == 1
            seed = workloads.dataset_seed(args.seed, dataset)
            gc.collect()
            if traced:
                tracer.run = len(reps)
                with tracer.patched():
                    rep = run_pipeline(cli, workload, work, seed, dataset, tracer)
            else:
                rep = run_pipeline(cli, workload, work, seed, dataset)
            check_outputs(work, workload, rep, reference)
            reps.append(rep)
            enough = len(reps) >= (2 if tracer else 1)
            if enough and time.perf_counter() + rep.times["pipeline"][0] > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        attempted = sum(rep.n_commands() for rep in reps)
        failed = sum(rep.n_failed() for rep in reps)
        if tracer is None:
            metrics = end_to_end(reps, setup_s, peak_rss_mb)
            declared = manifest["end_to_end"]
        else:
            tracer.write(results / f"{args.workload}-s{args.seed}-t1.spans.json")
            # Spans of a failed command lack the counts the layers need.
            metrics = {} if failed else per_layer(tracer, reps, probe_steps(work))
            declared = manifest["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {decl["name"]: {"value": metrics[decl["name"]], "unit": decl["unit"]}
           for decl in declared if decl["name"] in metrics}
    record = {
        "workload": args.workload,
        "environment": environment(args),
        "reps": [{"dataset": rep.dataset, "traced": rep.traced, "times": rep.times,
                  "cpu": rep.cpu, "failed": rep.failed} for rep in reps],
        "computed": [name for name in COMPUTED if name in out],
        "error_rate": failed / attempted,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, traced {args.trace}: "
          f"{len(reps)} pipelines, BLAS threads {BLAS_THREADS}")
    print("environment " + json.dumps(record["environment"]))
    for name, entry in out.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"  {'error_rate':34s} {record['error_rate']:.6g} "
          f"({failed} of {attempted} commands)")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(ROOT / ".bench_results"),
                        help="directory for result records and spans")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two result directories and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, load_manifest())
    if not (SRC / "mlcirt" / "cli.py").is_file():
        return _die(f"no program to benchmark: {SRC / 'mlcirt'} is missing")
    if args.workload not in workloads.WORKLOADS:
        return _die(f"unknown workload {args.workload!r}")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
