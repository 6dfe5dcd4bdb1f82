"""Command-line interface: fit, sweep, simulate, classify.

Exit codes: 0 success, 1 input/validation error (including a file that
cannot be read or written), 2 the estimator did not converge (reports
are still written).  A Python warning raised during a command is printed
as one ``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io as mio
from .data import validate_dataset
from .em import MultistartError, e_step, multistart_fit
from .model import Parameterization, count_free_parameters, validate_params, validate_spec
from .selection import classify, resolve_bic_n, sweep_school_types, type_probabilities_by_profile
from .simulate import (
    CategoricalCovariate,
    CyclicCovariate,
    SimulationDesign,
    simulate_full,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2


def _apply_overrides(config: mio.ModelConfig, args) -> mio.ModelConfig:
    changes = {}
    if getattr(args, "kv", None) is not None:
        changes["n_classes"] = args.kv
    if getattr(args, "ku", None) is not None and not isinstance(args.ku, str):
        changes["n_types"] = args.ku
    if getattr(args, "parameterization", None):
        changes["parameterization"] = Parameterization(args.parameterization)
    if getattr(args, "bic_n", None):
        raw = args.bic_n
        changes["bic_n"] = raw if raw in ("students", "schools") else int(raw)
    controls = config.controls
    for flag, name in (("seed", "seed"), ("starts", "n_starts"),
                       ("max_iter", "max_iter"), ("tol", "tol_loglik")):
        if getattr(args, flag, None) is not None:
            controls = controls.replace(**{name: getattr(args, flag)})
    changes["controls"] = controls
    return dataclasses.replace(config, **changes)


def _load_inputs(args):
    config = mio.parse_config(args.config)
    config = _apply_overrides(config, args)
    spec = config.model_spec()
    problems = validate_spec(spec)
    if problems:
        raise mio.DataFormatError("invalid model spec:\n" + "\n".join(problems))
    data = mio.load_dataset(args.students, args.schools, config)
    problems = validate_dataset(data, spec)
    if problems:
        raise mio.DataFormatError("invalid dataset:\n" + "\n".join(problems))
    print(f"loaded {data.n_schools} schools / {data.n_students} students / "
          f"{data.n_items} items "
          f"({spec.n_student_covariates} student covariate columns, "
          f"{spec.n_school_covariates} school covariate columns)")
    return config, spec, data


def _profile_table(data, params, spec):
    """Type-weight rows for each distinct observed school covariate profile."""
    if spec.n_school_covariates == 0:
        profiles = np.zeros((1, 0))
    else:
        profiles = np.unique(data.school_covariates, axis=0)
    return profiles, type_probabilities_by_profile(params, profiles)


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
    # Classify with the parameters exactly as published in the report
    # (12 significant digits), so `classify` on the report reproduces the
    # assignment files byte for byte.
    stored = mio.params_from_dict(mio.round12(mio.params_to_dict(result.params)),
                                  spec)
    result = dataclasses.replace(result, params=stored)
    posteriors = e_step(data, stored, spec)
    classification = classify(data, stored, spec, posteriors)
    profiles, probs = _profile_table(data, stored, spec)
    report = mio.build_report(spec, config, result, classification, n_bic,
                              profiles, probs)
    mio.write_report(out / "report.json", report)
    mio.write_assignments(out, data, classification)
    print(f"fit: loglik={result.loglik:.6f} n_par={count_free_parameters(spec)} "
          f"iterations={result.n_iter} converged={result.converged} "
          f"start={result.start_index}")
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _parse_ku_range(value: str):
    if ".." in value:
        lo, hi = value.split("..", 1)
        ks = list(range(int(lo), int(hi) + 1))
        if not ks:
            raise mio.DataFormatError(f"--ku range {value!r} is empty")
    else:
        ks = [int(value)]
    if ks[0] < 1:
        raise mio.DataFormatError(f"--ku {value!r}: the number of school "
                                  "types must be >= 1")
    return ks


def cmd_sweep(args) -> int:
    ks = _parse_ku_range(args.ku)
    config, spec, data = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = sweep_school_types(data, spec, ks, config.controls,
                                bic_n=config.bic_n)
    rows = [{name: getattr(row, name) for name in
             ("n_types", "loglik", "n_par", "bic", "converged", "error")}
            for row in result.rows]
    mio.write_report(out / "sweep.json", mio.round12({
        "bic_n": result.bic_n,
        "chosen_n_types": result.chosen_n_types,
        "rows": rows,
    }))
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


def _covariate_generators(entries, where: str):
    if not isinstance(entries or [], list) or not all(
            isinstance(e, dict) for e in entries or []):
        raise TypeError(f"{where} must be a list of JSON objects")
    gens = []
    for idx, entry in enumerate(entries or []):
        kind = entry.get("type")
        if kind == "categorical":
            gens.append(CategoricalCovariate(tuple(entry["probs"])))
        elif kind == "cyclic":
            gens.append(CyclicCovariate(tuple(entry["values"])))
        else:
            raise mio.DataFormatError(f"{where}[{idx}]: unknown covariate "
                                      f"generator type {kind!r}")
    return tuple(gens)


def _covariate_decls(gens, prefix: str):
    decls = []
    for idx, gen in enumerate(gens):
        name = f"{prefix}{idx + 1}"
        if isinstance(gen, CategoricalCovariate):
            levels = tuple(f"L{k}" for k in range(len(gen.probs)))
            decls.append(mio.CovariateDecl(name=name, kind="categorical",
                                           levels=levels, reference="L0"))
        else:
            decls.append(mio.CovariateDecl(name=name, kind="numeric"))
    return tuple(decls)


def _decl_entries(decls) -> list[dict]:
    """Config-file entries of covariate declarations."""
    return [{"name": d.name, "type": d.kind,
             **({"levels": list(d.levels), "reference": d.reference}
                if d.kind == "categorical" else {})}
            for d in decls]


def parse_design(path, seed_override=None) -> SimulationDesign:
    """Read a simulation design file (JSON)."""
    path = Path(path)
    if not path.exists():
        raise mio.DataFormatError(f"missing design file: {path}")
    raw = mio.read_json(path)
    try:
        spec = mio.spec_from_dict(raw["spec"])
        truth = mio.params_from_dict(raw["truth"], spec)
        size = raw["school_size"]
        design = SimulationDesign(
            spec=spec,
            truth=truth,
            n_schools=int(raw["n_schools"]),
            school_size=tuple(size) if isinstance(size, list) else int(size),
            student_covariates=_covariate_generators(
                raw.get("student_covariates"), "student_covariates"),
            school_covariates=_covariate_generators(
                raw.get("school_covariates"), "school_covariates"),
            seed=int(seed_override if seed_override is not None
                     else raw.get("seed", 0)),
            missing_rate=float(raw.get("missing_rate", 0.0)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise mio.DataFormatError(f"{path}: bad design ({exc})") from exc
    return design


def cmd_simulate(args) -> int:
    design = parse_design(args.design, seed_override=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sim = simulate_full(design)
    student_decls = _covariate_decls(design.student_covariates, "x")
    school_decls = _covariate_decls(design.school_covariates, "w")
    mio.write_dataset_files(out, sim.dataset, student_decls, school_decls)

    config = {
        "n_classes": design.spec.n_classes,
        "n_types": design.spec.n_types,
        "parameterization": design.spec.parameterization.value,
        "dim_of": [d + 1 for d in design.spec.item_bank.dim_of],
        "reference_items": [j + 1 for j in design.spec.item_bank.reference_items],
        "student_covariates": _decl_entries(student_decls),
        "school_covariates": _decl_entries(school_decls),
        "controls": {"seed": design.seed},
        "bic_n": "students",
    }
    mio.write_report(out / "config.json", config)

    truth = mio.round12({
        "seed": design.seed,
        "n_schools": design.n_schools,
        "school_size": (list(design.school_size)
                        if isinstance(design.school_size, tuple)
                        else design.school_size),
        "missing_rate": design.missing_rate,
        "spec": mio.spec_to_dict(design.spec),
        "parameters": mio.params_to_dict(design.truth),
    })
    truth["labels"] = {
        "types": (sim.labels.types + 1).tolist(),
        "classes": [(school + 1).tolist() for school in
                    np.split(sim.labels.classes, sim.dataset.starts[1:])],
    }
    mio.write_report(out / "truth.json", truth)
    n_students = sim.dataset.n_students
    print(f"simulated {design.n_schools} schools / {n_students} students "
          f"into {out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    report = mio.read_report(args.report)
    try:
        spec = mio.spec_from_dict(report["model"])
        params = mio.params_from_dict(report["parameters"], spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise mio.DataFormatError(f"{args.report}: bad report ({exc!r})") from exc
    problems = validate_params(params, spec)
    if problems:
        raise mio.DataFormatError(f"{args.report}: {'; '.join(problems)}")
    config = mio.parse_config(args.config)
    config_spec = config.model_spec()
    mismatches = []
    for attr in ("n_classes", "n_types", "n_student_covariates",
                 "n_school_covariates"):
        if getattr(config_spec, attr) != getattr(spec, attr):
            mismatches.append(f"{attr}: report has {getattr(spec, attr)}, "
                              f"config has {getattr(config_spec, attr)}")
    if config_spec.item_bank != spec.item_bank:
        mismatches.append("item bank (dim_of/reference_items) differs between "
                          "report and config")
    if config_spec.parameterization is not spec.parameterization:
        mismatches.append("parameterization differs between report and config")
    if mismatches:
        raise mio.DataFormatError("report/config mismatch:\n" + "\n".join(mismatches))
    data = mio.load_dataset(args.students, args.schools, config)
    problems = validate_dataset(data, spec)
    if problems:
        raise mio.DataFormatError("invalid dataset:\n" + "\n".join(problems))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    classification = classify(data, params, spec)
    mio.write_assignments(out, data, classification)
    print(f"assignments written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--starts", type=int, default=None)
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        p.add_argument("--tol", type=float, default=None,
                       help="log-likelihood change tolerance")
        p.add_argument("--parameterization", choices=["lc", "1pl", "2pl"],
                       default=None)
        p.add_argument("--kv", type=int, default=None,
                       help="number of student classes")
        p.add_argument("--bic-n", default=None, dest="bic_n",
                       help="BIC sample size: students, schools, or an integer")

    p_fit = sub.add_parser("fit", help="fit one model and write a report")
    add_data_flags(p_fit)
    add_fit_flags(p_fit)
    p_fit.add_argument("--ku", type=int, default=None,
                       help="number of school types")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="BIC sweep over school-type counts")
    add_data_flags(p_sweep)
    add_fit_flags(p_sweep)
    p_sweep.add_argument("--ku", required=True,
                         help="range of school-type counts, e.g. 1..6")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    p_sim.add_argument("--design", required=True, help="design JSON file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the design seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_cls = sub.add_parser("classify",
                           help="recompute MAP assignments from a report")
    p_cls.add_argument("--report", required=True, help="fit report JSON")
    add_data_flags(p_cls)
    p_cls.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
