"""Per-layer metrics of one traced pipeline, derived from its spans.

Layer metrics describe the ``fit`` command unless their name says
otherwise (``simulate.*`` and ``io.write_dataset_s`` the ``simulate``
command, ``selection.sweep_*`` the ``sweep`` command, ``selection.classify_s``
and ``cli.classify_self_s`` the median ``classify`` command,
``io.load_dataset_s`` the median load).  ``COMPUTED`` names the metrics that are derived rather than
measured.
"""

from __future__ import annotations

import statistics

from tracing import Span, descendants, self_times

_AT_BEST_TOL = 1e-6
# Derived from array shapes or as a count over a measured time, not measured.
COMPUTED = ("likelihood.cond_matrix_bytes", "likelihood.cond_matrix_flops",
            "simulate.students_per_s", "io.rows_per_s")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def _total(spans):
    return sum(sp.duration for sp in spans)


def cond_matrix_work(n: int, r: int, k_v: int) -> tuple[int, int]:
    """Computed bytes and flops of one ``conditional_loglik_matrix`` call.

    Reads the two (n, r) float64 masks and the two (k_V, r) log-probability
    tables, writes the (n, k_V) result; two matrix products of 2·n·r·k_V
    flops each plus one (n, k_V) addition.
    """
    n_bytes = 8 * (2 * n * r + 2 * k_v * r + n * k_v)
    flops = 4 * n * r * k_v + n * k_v
    return n_bytes, flops


def pipeline_layers(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of one traced pipeline (the spans of one run id)."""
    own = self_times(spans)
    command = {sp.name: sp for sp in spans if sp.parent is None}
    fit_cmd = command["cli.fit"]
    classify_cmds = [sp for sp in spans if sp.name == "cli.classify"]

    def under(root, name):
        return descendants(spans, root, name)

    out: dict[str, float] = {}

    # em: the fit command's multistart and each EM run in it.
    (multistart,) = under(fit_cmd, "em.multistart_fit")
    fits = under(fit_cmd, "em.fit")
    done = [sp for sp in fits if "error" not in sp.attrs]
    best = max(sp.attrs["loglik"] for sp in done)
    iters_total = sum(sp.attrs["n_iter"] for sp in done)
    fit_s = _total(fits)
    in_fits = [sp for f in fits for sp in under(f, "likelihood.stacked_loglik_terms")]
    out["em.multistart_s"] = multistart.duration
    out["em.fit_s"] = fit_s
    out["em.starts"] = len(fits)
    out["em.starts_converged"] = sum(sp.attrs["converged"] for sp in done)
    out["em.starts_failed"] = len(fits) - len(done)
    out["em.starts_at_best"] = sum(sp.attrs["loglik"] >= best - _AT_BEST_TOL
                                   for sp in done)
    out["em.iters"] = multistart.attrs["n_iter"]
    out["em.iters_total"] = iters_total
    out["em.iter_ms"] = 1e3 * fit_s / iters_total
    out["em.estep_share"] = _total(in_fits) / fit_s
    out["em.rest_ms_per_iter"] = 1e3 * sum(own[f.id] for f in fits) / iters_total
    out["em.initialize_ms"] = 1e3 * _mean([sp.duration for sp in
                                           under(fit_cmd, "em.initialize")])

    # likelihood and weights, over every call in the fit command.
    terms = under(fit_cmd, "likelihood.stacked_loglik_terms")
    cond = under(fit_cmd, "likelihood.conditional_loglik_matrix")
    stacks = under(fit_cmd, "likelihood.stack_dataset")
    weights = under(fit_cmd, "weights.log_class_weight_matrix")
    out["likelihood.loglik_terms_ms"] = 1e3 * _mean([sp.duration for sp in terms])
    out["likelihood.loglik_terms_calls"] = len(terms)
    out["likelihood.cond_matrix_ms"] = 1e3 * _mean([sp.duration for sp in cond])
    shape = cond[0].attrs
    n_bytes, flops = cond_matrix_work(shape["n"], shape["r"], shape["k_v"])
    out["likelihood.cond_matrix_bytes"] = n_bytes
    out["likelihood.cond_matrix_flops"] = flops
    out["likelihood.stack_dataset_s"] = _total(stacks)
    out["likelihood.stack_dataset_calls"] = len(stacks)
    out["weights.class_weight_ms"] = 1e3 * _mean([sp.duration for sp in weights])
    out["weights.class_weight_rows"] = _mean([sp.attrs["rows"] for sp in weights])

    # io
    loads = [sp for sp in spans if sp.name == "io.load_dataset"]
    load_s = statistics.median(sp.duration for sp in loads)
    out["io.load_dataset_s"] = load_s
    out["io.rows_per_s"] = loads[0].attrs["rows"] / load_s
    out["io.write_dataset_s"] = _total(under(command["cli.simulate"],
                                             "io.write_dataset_files"))
    out["io.write_outputs_s"] = (_total(under(fit_cmd, "io.write_report"))
                                 + _total(under(fit_cmd, "io.write_assignments")))

    # simulate
    (sim,) = under(command["cli.simulate"], "simulate.simulate_full")
    out["simulate.simulate_full_s"] = sim.duration
    out["simulate.students_per_s"] = sim.attrs["rows"] / sim.duration

    # selection
    (sweep,) = under(command["cli.sweep"], "selection.sweep_school_types")
    out["selection.sweep_rows"] = sweep.attrs["rows"]
    out["selection.chosen_n_types"] = sweep.attrs["chosen"]
    out["selection.classify_s"] = statistics.median(
        _total(under(cmd, "selection.classify")) for cmd in classify_cmds)

    # cli: what the commands do outside every wrapped call.
    out["cli.fit_self_s"] = own[fit_cmd.id]
    out["cli.classify_self_s"] = statistics.median(own[cmd.id] for cmd in classify_cmds)
    return out
