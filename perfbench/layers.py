"""Per-layer metrics and workload shape, derived from a traced run.

Times are means per call, in milliseconds, over the spans of the traced
half of the run.  Counts are per-instance means over the workload's
instances; they repeat exactly for a fixed seed.
"""

from collections import Counter, defaultdict
import statistics

from tracing import END, ID, INSTANCE, NAME, PARENT, START, root_names, self_times
from workloads import degrees

# metric, span name, top-level spans whose calls count
LAYER_TIMES = (
    ("model.parse_ms", "model.parse_model", ("op.lift",)),
    ("model.serialize_ms", "model.serialize_model", ("op.lift",)),
    ("benchgen.generate_ms", "benchgen.generate", ("setup",)),
    ("benchgen.remove_ms", "benchgen.remove_potentials", ("setup",)),
    ("cp.initial_colours_ms", "cp.initial_colours", ("op.lift",)),
    ("cp.round_ms", "cp.cp_round", ("op.lift",)),
    ("cp.run_cp_ms", "cp.run_cp", ("op.lift",)),
    ("cp.compress_ms", "cp.compress", ("op.lift", "op.bp")),
    ("lifg.signatures_ms", "lifg.all_signatures", ("op.lift",)),
    ("lifg.select_ms", "lifg.select_candidates", ("op.lift",)),
    ("lifg.transfer_ms", "lifg.transfer_potentials", ("op.lift",)),
)


def _rounds_per_instance(spans, roots):
    """cp_round calls under the first run_cp of each instance's lift."""
    first_run_cp = {}
    for s, root in zip(spans, roots):
        if s[NAME] == "cp.run_cp" and root == "op.lift":
            first_run_cp.setdefault(s[INSTANCE], s[ID])
    wanted = set(first_run_cp.values())
    rounds = Counter(s[PARENT] for s in spans if s[NAME] == "cp.cp_round" and s[PARENT] in wanted)
    return {inst: rounds[sid] for inst, sid in first_run_cp.items()}


def shape(tracer, loop, instances):
    """Input properties per instance: what a later change's gain may depend on."""
    rounds = _rounds_per_instance(tracer.spans, root_names(tracer.spans))
    rows = []
    for inst in instances:
        result = loop.results[inst.id]
        g = result.completed
        degree = degrees(g)
        rows.append({
            "instance": inst.id,
            "rvs": len(g.rvs),
            "factors": len(g.factors),
            "unknowns": len(result.report.records),
            "evidence_fraction": sum(rv.evidence is not None for rv in g.rvs.values()) / len(g.rvs),
            "max_degree": max(degree.values()),
            "sum_deg_sq": sum(v * v for v in degree.values()),
            "cp_rounds": rounds[inst.id],
            "rv_groups": len(result.partition.rv_groups),
            "factor_groups": len(result.partition.factor_groups),
            "runs_bp": inst.run_bp,
        })
    return rows


def per_layer(tracer, loop, plain, instances, iters):
    spans = tracer.spans
    roots = root_names(spans)
    own = self_times(spans)
    by_name = defaultdict(list)
    for s, root, self_ns in zip(spans, roots, own):
        by_name[s[NAME], root].append((s[END] - s[START], self_ns))

    def mean_ms(name, allowed, use_self=False, per=1):
        values = [pair[1 if use_self else 0] for root in allowed for pair in by_name[name, root]]
        return statistics.fmean(values) / 1e6 / per if values else 0.0

    metrics = {}
    for metric, name, allowed in LAYER_TIMES:
        metrics[metric] = mean_ms(name, allowed)
    metrics["lifg.run_lifg_self_ms"] = mean_ms("lifg.run_lifg", ("op.lift",), use_self=True)
    metrics["inference.bp_iter_ms"] = mean_ms("op.bp", ("op.bp",), use_self=True, per=iters)
    metrics["inference.cbp_iter_ms"] = mean_ms("op.cbp", ("op.cbp",), per=iters)
    metrics["inference.ve_query_ms"] = mean_ms("op.ve", ("op.ve",))
    out = {name: {"value": v, "unit": "ms"} for name, v in metrics.items()}

    rows = shape(tracer, loop, instances)
    n = len(rows)
    nodes = sum(r["rvs"] + r["factors"] for r in rows)
    groups = sum(r["rv_groups"] + r["factor_groups"] for r in rows)
    unknowns = sum(r["unknowns"] for r in rows)
    transferred = sum(rec.transferred for inst in instances
                      for rec in loop.results[inst.id].report.records)
    bp_rows = [r for r in rows if r["runs_bp"]]
    bp_edges = [sum(len(f.args) for f in loop.results[inst.id].completed.factors.values())
                for inst in instances if inst.run_bp]
    counts = {
        "cp.rounds": (sum(r["cp_rounds"] for r in rows) / n, "count"),
        "cp.rv_groups": (sum(r["rv_groups"] for r in rows) / n, "count"),
        "cp.factor_groups": (sum(r["factor_groups"] for r in rows) / n, "count"),
        "cp.compression_ratio": (nodes / groups, "ratio"),
        "lifg.unknowns": (unknowns / n, "count"),
        "lifg.transfer_ratio": (transferred / unknowns if unknowns else 1.0, "ratio"),
        "inference.bp_edges": (statistics.fmean(bp_edges), "count"),
        "inference.bp_sum_deg_sq": (statistics.fmean(r["sum_deg_sq"] for r in bp_rows), "count"),
    }
    for name, (value, unit) in counts.items():
        out[name] = {"value": value, "unit": unit}
    overhead = _round_time(loop) / _round_time(plain) - 1.0
    out["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return out


def _round_time(loop):
    """Operation time of one round, from per-operation medians of host-scaled timings."""
    return sum(len(ns) / loop.rounds * statistics.median(ns) for ns in loop.scaled.values())
