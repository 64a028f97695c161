"""Metric names, units and the per-layer numbers computed from spans.

END_TO_END and PER_LAYER are read from BENCHMARK.json at the checkout's
root, the one place the metric list is kept.  A per-layer metric a
workload never exercises reads 0 (no calls, no busy time), which is the
prediction for that workload: e.g. no bath time on curve.
"""
from __future__ import annotations

import json
import os
import statistics

from tracing import with_self_times

MODULES = ("bath", "dephasing", "codes", "oracle", "residual", "cli")
CLI_SUBCOMMANDS = ("gamma", "fig1", "oracle", "codes", "scalability", "beta", "residual")
CLI_JOBS2 = ("fig1", "scalability", "codes")

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])
UNITS = dict(END_TO_END + PER_LAYER)


def _sum(rows, name, pred=None):
    return sum(r["dur"] for r in rows if r["name"] == name and (pred is None or pred(r)))


def _count(rows, name, pred=None):
    return sum(1 for r in rows if r["name"] == name and (pred is None or pred(r)))


def _route(kind):
    return lambda r: r.get("attrs", {}).get("route") == kind


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers from spans: `.s`, `.calls` and self times are for the
    first (cold) pass, `warm_s` the median over the later passes."""
    rows = with_self_times(spans)
    cold = [r for r in rows if r["pass"] == 0]
    warm_ids = sorted({r["pass"] for r in rows} - {0})

    def warm(name):
        if not warm_ids:
            return 0.0
        return statistics.median(_sum([r for r in rows if r["pass"] == p], name) for p in warm_ids)

    m = {
        "bath.gamma_detailed.near.calls": _count(cold, "bath.gamma_detailed", _route("near")),
        "bath.gamma_detailed.near.s": _sum(cold, "bath.gamma_detailed", _route("near")),
        "bath.gamma_detailed.far.calls": _count(cold, "bath.gamma_detailed", _route("far")),
        "bath.gamma_detailed.far.s": _sum(cold, "bath.gamma_detailed", _route("far")),
        "dephasing.log_beta.cold_s": _sum(cold, "dephasing.log_beta"),
        "dephasing.log_beta.warm_s": warm("dephasing.log_beta"),
        "dephasing.dense_bytes": sum(
            (8 if r["name"] == "dephasing.alpha_matrix" else 16) * 4 ** r["attrs"]["n"]
            for r in cold if r["name"] in ("dephasing.alpha_matrix", "dephasing.apply_channel")),
        "codes.sample_random_css.calls": _count(cold, "codes.sample_random_css"),
        "codes.codewords.cold_s": _sum(cold, "codes.codewords"),
        "codes.codewords.warm_s": warm("codes.codewords"),
        "residual.code_avg_residual.calls": _count(cold, "residual.code_avg_residual"),
        "residual.code_avg_residual.cold_s": _sum(cold, "residual.code_avg_residual"),
        "residual.code_avg_residual.warm_s": warm("residual.code_avg_residual"),
        "trace.spans": len(cold),
    }
    for name in ("bath.gamma_pair", "dephasing.apply_channel", "dephasing.alpha_matrix",
                 "codes.sample_random_css", "codes.min_weight", "oracle.encode",
                 "oracle.to_density", "oracle.apply_recovery", "oracle.residual_exact",
                 "oracle.fidelity_formula", "residual.asymptotic_residual",
                 "residual.independent_residual", "residual.scalability_row",
                 "residual.gamma_budget", "residual.scalability_summary"):
        m[f"{name}.s"] = _sum(cold, name)
    durs = [1e3 * r["dur"] for r in cold if r["name"] == "residual.code_avg_residual"]
    m["residual.code_avg_residual.p95_ms"] = (
        statistics.quantiles(durs, n=20)[18] if len(durs) >= 2 else (durs[0] if durs else 0.0))
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(r["self"] for r in cold if r["name"].startswith(mod + "."))
    return m


def per_layer(values: dict[str, float]) -> dict[str, dict]:
    """Every PER_LAYER metric, 0 where the run produced no value for it."""
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
