"""Command-line interface: fit, sweep, simulate, classify.

Exit codes: 0 success, 1 input/validation error (including a usage error
and a file that cannot be read or written), 2 the estimator did not
converge (reports are still written).  An error is one ``error: <message>``
line on stderr, and so is a Python warning: ``warning: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

from . import io as mio
from .data import unique_rows, validate_dataset
from .em import MultistartError, NonFiniteLikelihoodError, e_step, multistart_fit
from .model import Parameterization, count_free_parameters
from .selection import classify, resolve_bic_n, sweep_school_types, type_probabilities_by_profile
from .simulate import simulate_full

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2


def _apply_overrides(config: mio.ModelConfig, args) -> mio.ModelConfig:
    """``config`` with the values of the fit flags that were given."""
    def given(value, default):
        return default if value is None else value

    spec, controls = config.spec, config.controls
    return dataclasses.replace(
        config,
        spec=spec.replace(
            n_classes=given(args.kv, spec.n_classes),
            n_types=given(args.ku, spec.n_types),
            parameterization=Parameterization(args.parameterization
                                              or spec.parameterization)),
        controls=controls.replace(
            seed=given(args.seed, controls.seed),
            n_starts=given(args.starts, controls.n_starts),
            max_iter=given(args.max_iter, controls.max_iter),
            tol_loglik=given(args.tol, controls.tol_loglik)),
        bic_n=given(args.bic_n, config.bic_n))


def _load_inputs(args):
    config = _apply_overrides(mio.parse_config(args.config), args)
    spec = config.spec
    data = mio.load_dataset(args.students, args.schools, config)
    problems = validate_dataset(data, spec)
    if problems:
        raise mio.DataFormatError("invalid dataset: " + "; ".join(problems))
    print(f"loaded {data.n_schools} schools / {data.n_students} students / "
          f"{data.n_items} items "
          f"({spec.n_student_covariates} student covariate columns, "
          f"{spec.n_school_covariates} school covariate columns)")
    return config, spec, data


def _warn_if_overparameterised(n_par: int, n_students: int) -> None:
    if n_par > n_students:
        print(f"warning: {n_par} free parameters for {n_students} students",
              file=sys.stderr)


def cmd_fit(args) -> int:
    config, spec, data = _load_inputs(args)
    n_bic = resolve_bic_n(data, config.bic_n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _warn_if_overparameterised(count_free_parameters(spec), data.n_students)
    result = multistart_fit(data, spec, config.controls)
    # Classify with the parameters as the report stores them, so `classify`
    # on the report reproduces the assignment files byte for byte.
    stored = mio.stored_params(result.params, spec)
    result = dataclasses.replace(result, params=stored)
    classification = classify(data, stored, spec, e_step(data, stored, spec))
    profiles = unique_rows(data.school_covariates)[0]
    report = mio.build_report(spec, config, result, classification, n_bic, profiles,
                              type_probabilities_by_profile(stored, profiles))
    mio.write_report(out / "report.json", report)
    mio.write_assignments(out, data, classification)
    print(f"fit: loglik={result.loglik:.6f} n_par={count_free_parameters(spec)} "
          f"iterations={result.n_iter} converged={result.converged} "
          f"start={result.start_index}")
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_sweep(args) -> int:
    config, spec, data = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = sweep_school_types(data, spec, args.ku_range, config.controls,
                                bic_n=config.bic_n)
    mio.write_sweep(out / "sweep.json", result)
    for row in result.rows:
        _warn_if_overparameterised(row.n_par, data.n_students)
        if row.error is not None:
            print(f"n_types={row.n_types}: FAILED ({row.error})")
        else:
            print(f"n_types={row.n_types}: loglik={row.loglik:.4f} "
                  f"n_par={row.n_par} bic={row.bic:.4f}")
    print(f"chosen n_types: {result.chosen_n_types}")
    trouble = any(row.error is not None or row.converged is False
                  for row in result.rows)
    return EXIT_NOT_CONVERGED if trouble else EXIT_OK


def cmd_simulate(args) -> int:
    design = mio.parse_design(args.design, seed_override=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sim = simulate_full(design)
    mio.write_simulation(out, design, sim)
    print(f"simulated {design.n_schools} schools / {sim.dataset.n_students} "
          f"students into {out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    spec, params = mio.parse_report(args.report)
    config = mio.parse_config(args.config)
    in_report, in_config = mio.spec_to_dict(spec), mio.spec_to_dict(config.spec)
    mismatches = [f"{key}: report has {in_report[key]}, config has {in_config[key]}"
                  for key in in_report if in_report[key] != in_config[key]]
    if mismatches:
        raise mio.DataFormatError("report/config mismatch: " + "; ".join(mismatches))
    data = mio.load_dataset(args.students, args.schools, config)
    problems = validate_dataset(data, spec)
    if problems:
        raise mio.DataFormatError("invalid dataset: " + "; ".join(problems))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        classification = classify(data, params, spec)
    except NonFiniteLikelihoodError as exc:
        raise mio.DataFormatError(f"{args.report}: {exc}") from None
    mio.write_assignments(out, data, classification)
    print(f"assignments written to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors."""

    def error(self, message):
        raise mio.DataFormatError(message)


def _bic_n(value: str):
    """``--bic-n``: students, schools or an integer."""
    try:
        return value if value in ("students", "schools") else int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected students, schools or an integer, got {value!r}") from None


def _ku_range(value: str) -> list[int]:
    """``sweep --ku``: the school-type counts N or LO..HI."""
    lo, dots, hi = value.partition("..")
    try:
        ks = list(range(int(lo), int(hi) + 1)) if dots else [int(value)]
    except ValueError:
        ks = []
    if not ks or ks[0] < 1:
        raise argparse.ArgumentTypeError("expected a count N >= 1 or a range LO..HI "
                                         f"with 1 <= LO <= HI, e.g. 1..6, got {value!r}")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlcirt",
        description="Multilevel latent-class IRT: fit, model selection, "
                    "simulation, and classification for binary test data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--students", required=True, help="students CSV file")
        p.add_argument("--schools", required=True, help="schools CSV file")
        p.add_argument("--config", required=True, help="model config JSON")
        p.add_argument("--out", required=True, help="output directory")

    def add_fit_flags(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--starts", type=int)
        p.add_argument("--max-iter", type=int)
        p.add_argument("--tol", type=float, help="log-likelihood change tolerance")
        p.add_argument("--parameterization", choices=["lc", "1pl", "2pl"])
        p.add_argument("--kv", type=int, help="number of student classes")
        p.add_argument("--bic-n", type=_bic_n,
                       help="BIC sample size: students, schools, or an integer")

    p_fit = sub.add_parser("fit", help="fit one model and write a report")
    add_data_flags(p_fit)
    add_fit_flags(p_fit)
    p_fit.add_argument("--ku", type=int, help="number of school types")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="BIC sweep over school-type counts")
    add_data_flags(p_sweep)
    add_fit_flags(p_sweep)
    p_sweep.add_argument("--ku", dest="ku_range", type=_ku_range, required=True,
                         help="range of school-type counts, e.g. 1..6")
    p_sweep.set_defaults(func=cmd_sweep, ku=None)   # rows set their own n_types

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    p_sim.add_argument("--design", required=True, help="design JSON file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, help="override the design seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_cls = sub.add_parser("classify",
                           help="recompute MAP assignments from a report")
    p_cls.add_argument("--report", required=True, help="fit report JSON")
    add_data_flags(p_cls)
    p_cls.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            return args.func(args)
    except (mio.DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MultistartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
