"""Seeded closed-loop benchmark of liftfg: lift, counting BP, ground BP and VE.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 35 --trace 0

One caller in one thread runs whole rounds until they have taken
``--seconds`` and every operation has at least 20 samples.  A round takes each instance
of the workload in turn through four operations, timed as library calls:

* ``lift``: ``parse_model`` on the serialised text, ``run_lifg(theta=0)``,
  then ``serialize_model``, ``serialize_lifted`` and the report (``liftfg lift``);
* ``bp``: ``loopy_bp`` on the completed graph (only on instances marked for it);
* ``cbp``: ``counting_bp`` on the lifted model;
* ``ve``: ``variable_elimination``, once per query of the instance.

Every execution passes a correctness gate; failures are counted with a
named reason and never stop the run.  A known, unfixed defect of the
package is not one of the timed operations: after the loop each run asks
the query that shows it once and reports the answer (see ``known_defects``).

The host's speed drifts by up to a factor of two within seconds, and every
timing drifts with it.  So before each operation the loop times a fixed
reference call, and each timing is scaled by how much slower than nominal
the nearest reference calls ran (see ``reference``).  Raw timings are
printed beside the scaled ones.

``attempted`` and ``failed`` count distinct operations (instance, op,
query), which every round repeats: an operation fails if any of its
executions fails.  Both are therefore fixed by the seed, not by how many
rounds fit into ``--seconds``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
See perfbench/README.md for the metrics and workloads.
"""

import argparse
from collections import Counter
from contextlib import nullcontext
import hashlib
import json
import math
import os
from pathlib import Path
import platform
import resource
import statistics
import sys
import time

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("cohort", "chain", "population")
OPS = ("lift", "bp", "cbp", "ve")
BP_ITERS = 4
MIN_SAMPLES = 20          # the tail needs 10 samples beyond it; 20 keeps it above the median
CBP_TOL = 1e-9            # acceptance criterion 7
NORM_TOL = 1e-9
KL_MAX = 0.05             # acceptance criterion 5, per query
NONFINITE = "non-finite marginal"
REFERENCE_NOMINAL_NS = 1_000_000  # scaled timings are ms on a host where reference() takes 1 ms
PROBE_WINDOW = 2                  # an operation is scaled by the reference calls this close
SETUP_PROBES = 5                  # reference calls before and after each timed build

_REF_ARRAY = np.arange(64.0).reshape(8, 8)


def reference() -> float:
    """Fixed host-speed probe: the package's mix of dict and int work and small numpy ops.

    It does not touch liftfg, so a change to the package cannot move it; it
    moves only with the host.
    """
    counts, acc = {}, 0.0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += (i * 7) % 13
    for i in range(200):
        acc += float((_REF_ARRAY * 1.0001).sum(axis=0)[i % 8])
    return acc + len(counts)


def probe_ns() -> int:
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0


def host_scale(probes) -> float:
    """Factor that turns a timing taken beside these probes into nominal-host time."""
    return REFERENCE_NOMINAL_NS / statistics.median(probes)


def pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_package():
    """Import liftfg from this checkout's src/, never from anywhere else."""
    if not (SRC / "liftfg" / "__init__.py").is_file():
        sys.exit(f"error: no liftfg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import liftfg
    if Path(liftfg.__file__).resolve().parent != (SRC / "liftfg").resolve():
        sys.exit(f"error: imported liftfg from {liftfg.__file__}, not from {SRC}")


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def marginals_text(marginals: dict) -> str:
    return "\n".join(f"{name} {m.probs!r}" for name, m in sorted(marginals.items()))


def bad_marginal(probs) -> str | None:
    if not all(math.isfinite(p) for p in probs):
        return NONFINITE
    if abs(sum(probs) - 1.0) > NORM_TOL:
        return "unnormalised marginal"
    return None


def bad_marginals(marginals: dict) -> str | None:
    return next(filter(None, (bad_marginal(m.probs) for m in marginals.values())), None)


class Loop:
    """Closed-loop rounds over one workload's instances with the correctness gate."""

    def __init__(self, workload, instances, oracles, tracer=None):
        from liftfg import cp, inference, lifg, model
        self.cp, self.inference, self.lifg, self.model = cp, inference, lifg, model
        self.workload = workload
        self.instances = instances
        self.oracles = oracles            # (instance id, query) -> truth Marginal (cohort)
        self.tracer = tracer
        self.times = {op: [] for op in OPS}      # raw wall-clock ns
        self.scaled = {op: [] for op in OPS}     # ns scaled by the nearby reference calls
        self.scales: list[float] = []            # host_scale of each whole round
        self.probes: list[int] = []              # current round: reference ns before each execution
        self.timed: list[tuple] = []             # current round: (op, raw ns) of each execution
        self.rounds = 0
        self.executions = 0
        self.operations: set[tuple] = set()      # distinct (instance, op, query) run so far
        self.failed_ops: dict[tuple, tuple] = {}  # (instance, op, query) -> first (op, reason)
        self.answers: dict[tuple, str] = {}   # first-round digest per (instance, op, query)
        self.results: dict[str, object] = {}  # first lift result per instance

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _attempt(self, inst, op, query):
        self.executions += 1
        self.operations.add((inst.id, op, query))

    def _fail(self, inst, op, query, reason):
        self.failed_ops.setdefault((inst.id, op, query), (op, reason))

    def _op(self, op, inst, query, fn, check, render):
        """Time fn() and gate its answer; returns (answer or None if fn raised, passed)."""
        self._attempt(inst, op, query)
        self.probes.append(probe_ns())
        with self._span("op." + op):
            t0 = time.perf_counter_ns()
            try:
                value = fn()
            except Exception as exc:      # a failing operation must not stop the run
                value, reason = None, f"raised {type(exc).__name__}"
            else:
                reason = None
            elapsed = time.perf_counter_ns() - t0
        self.times[op].append(elapsed)
        self.timed.append((op, elapsed))
        if reason is None:
            answer = digest(render(value))
            if self.answers.setdefault((inst.id, op, query), answer) != answer:
                reason = "answer changed between rounds"
            else:
                reason = check(value)
        if reason is not None:
            self._fail(inst, op, query, reason)
        return value, reason is None

    def lift(self, text):
        g = self.model.parse_model(text)
        result = self.lifg.run_lifg(g, 0.0)
        lifted = "" if result.lifted is None else self.cp.serialize_lifted(result.lifted)
        outputs = (self.model.serialize_model(result.completed), lifted, result.report.to_text())
        return result, outputs

    def check_lift(self, inst, value):
        result, _ = value
        if not result.report.complete:
            return "lift incomplete"
        if result.lifted is None:
            return "no lifted model"
        if inst.planted is not None and result.partition.rv_groups != inst.planted:
            return "planted cohorts not recovered"
        if self.workload == "chain" and result.completed != inst.truth:
            return "transferred tables differ from the truth"
        return None

    def check_bp(self, completed, beliefs):
        if set(beliefs) != set(completed.rvs):
            return "marginals do not cover the variables"
        return bad_marginals(beliefs)

    def check_cbp(self, result, bp, beliefs):
        reason = bad_marginals(beliefs)
        if reason or bp is None:
            return reason
        supervar_of = result.lifted.supervar_of()
        for rv, m in bp.items():
            lifted = beliefs[supervar_of[rv]].probs
            if max(abs(a - b) for a, b in zip(m.probs, lifted)) > CBP_TOL:
                return "counting BP differs from ground BP"
        return None

    def check_ve(self, truth, marginal):
        reason = bad_marginal(marginal.probs)
        if reason or truth is None:
            return reason
        try:
            kl = self.inference.kl_divergence(truth, marginal)
        except ValueError:
            return "KL undefined"
        return None if kl <= KL_MAX else "KL above the criterion 5 bound"

    def one_round(self):
        self.probes, self.timed = [], []
        for inst in self.instances:
            if self.tracer:
                self.tracer.instance = inst.id
            value, _ = self._op("lift", inst, None, lambda: self.lift(inst.text),
                             lambda v: self.check_lift(inst, v),
                             lambda v: "\0".join(v[1]) + repr(v[0].partition))
            if value is None or value[0].lifted is None:
                skipped = ([("bp", None)] if inst.run_bp else []) + [("cbp", None)]
                for op, query in skipped + [("ve", q) for q in inst.queries]:
                    self._attempt(inst, op, query)
                    self._fail(inst, op, query, "no lifted model to run on")
                continue
            result = value[0]
            self.results.setdefault(inst.id, result)
            bp = None
            if inst.run_bp:
                bp, passed = self._op("bp", inst, None,
                                      lambda: self.inference.loopy_bp(result.completed, BP_ITERS),
                                      lambda b: self.check_bp(result.completed, b), marginals_text)
                bp = bp if passed else None
            self._op("cbp", inst, None,
                     lambda: self.inference.counting_bp(result.lifted, BP_ITERS),
                     lambda c: self.check_cbp(result, bp, c), marginals_text)
            for q in inst.queries:
                truth = self.oracles.get((inst.id, q))
                self._op("ve", inst, q,
                         lambda: self.inference.variable_elimination(result.completed, q),
                         lambda m: self.check_ve(truth, m), lambda m: repr(m.probs))
        self.scales.append(host_scale(self.probes))
        for i, (op, elapsed) in enumerate(self.timed):
            near = self.probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
            self.scaled[op].append(elapsed * host_scale(near))
        self.rounds += 1

    def run(self, seconds: float, between_rounds=None):
        """Whole rounds until `seconds` of rounds and MIN_SAMPLES per operation."""
        measured = 0.0
        while True:
            start = time.perf_counter()
            self.one_round()
            measured += time.perf_counter() - start
            if measured >= seconds and min(len(v) for v in self.scaled.values()) >= MIN_SAMPLES:
                return
            if between_rounds:
                between_rounds()

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def failures(self) -> Counter:
        """Failed distinct operations, counted by (op, reason)."""
        return Counter(self.failed_ops.values())

    def correct(self) -> bool:
        return not self.failed_ops


def latency(samples_ns):
    """Median, and the highest percentile with at least 10 samples beyond it."""
    ms = sorted(x / 1e6 for x in samples_ns)
    n = len(ms)
    return statistics.median(ms), ms[n - 11], 100.0 * (n - 10) / n, n


def setup(slots, tracer=None):
    from workloads import build
    span = tracer.span if tracer else (lambda name: nullcontext())
    instances = []
    for slot in slots:
        if tracer:
            tracer.instance = slot.id
        with span("setup"):
            instances.append(build(slot, span))
    return instances


class TimedSetup:
    """Builds the instances once up front and once more between rounds.

    Spreading the builds over the run lets `setup_s` see the same mix of
    host load as the operations do.  Each build is scaled by the reference
    calls made just before and after it.  Every rebuild must equal the first.
    """

    def __init__(self, slots):
        self.slots = slots
        self.raw: list[float] = []
        self.times: list[float] = []
        self.instances = self.build()

    def build(self):
        probes = [probe_ns() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        instances = setup(self.slots)
        elapsed = time.perf_counter() - start
        probes += [probe_ns() for _ in range(SETUP_PROBES)]
        self.raw.append(elapsed)
        self.times.append(elapsed * host_scale(probes))
        return instances

    def rebuild(self):
        if self.build() != self.instances:
            sys.exit("error: set-up is not deterministic for a fixed seed")


def known_defects(loop, instances):
    """Ask each instance's defect queries once, untimed, and report the answers.

    variable_elimination multiplies the hub's incoming factors without
    rescaling, so on population at N = 300 the answer for Epid overflows
    to (nan, nan).  The query stays out of the timed operations, which must
    all pass, but every run shows whether the defect is still there.
    """
    from liftfg import inference
    out = []
    for inst in instances:
        for q in inst.defect_queries:
            result = loop.results.get(inst.id)
            if result is None:
                continue        # its lift failed, which the gate already counted
            m = inference.variable_elimination(result.completed, q)
            out.append({"instance": inst.id, "op": "ve", "query": q, "answer": repr(m.probs),
                        "defect": bad_marginal(m.probs) or "none: finite and normalised"})
    return out


def oracles_for(workload, instances):
    from liftfg import inference
    if workload != "cohort":
        return {}
    return {(inst.id, q): inference.variable_elimination(inst.truth, q)
            for inst in instances for q in inst.queries}


def machine_info():
    """nproc, CPU model, Python and numpy versions; the model comes from the kernel."""
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "os": f"{platform.system()} {platform.release()}"}


def digests(loop, instances):
    answers = "\n".join(f"{k!r} {v}" for k, v in sorted(loop.answers.items()))
    partitions = "\n".join(repr(loop.results[inst.id].partition) for inst in instances)
    return {"answers": digest(answers), "partitions": digest(partitions)}


def end_to_end(loop, builds):
    metrics, lines, tails = {}, [], {}
    for op in OPS:
        p50, tail, pct, n = latency(loop.scaled[op])
        raw_p50, raw_tail, _, _ = latency(loop.times[op])
        metrics[f"{op}_ms_p50"] = {"value": p50, "unit": "ms"}
        metrics[f"{op}_ms_tail"] = {"value": tail, "unit": "ms"}
        tails[op] = {"percentile": round(pct, 2), "samples": n,
                     "raw_ms_p50": raw_p50, "raw_ms_tail": raw_tail}
        lines.append(f"{op}_ms_p50 {p50:.4f} ms (n={n}; raw {raw_p50:.4f} ms)")
        lines.append(f"{op}_ms_tail {tail:.4f} ms (p{pct:.2f}, n={n}; raw {raw_tail:.4f} ms)")
    fail_ratio = loop.failed / loop.attempted
    lines.append(f"fail_ratio {fail_ratio:.6f} ratio ({loop.failed}/{loop.attempted})")
    metrics["ok_ratio"] = {"value": 1.0 - fail_ratio, "unit": "ratio"}
    setup_s = statistics.median(builds.times)
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    lines.append(f"setup_s {setup_s:.6f} s (median of {len(builds.times)} builds; "
                 f"raw {statistics.median(builds.raw):.6f} s)")
    lines.append(f"host_scale {statistics.median(loop.scales):.4f} (median over "
                 f"{len(loop.scales)} rounds; 1 is the nominal host)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    lines.append(f"peak_rss_mb {rss:.2f} MB")
    return metrics, lines, tails


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    import_package()
    import workloads
    import layers
    from tracing import Tracer

    slots = workloads.slots(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        instances = setup(slots, tracer)
        tracer.uninstall()
    else:
        builds = TimedSetup(slots)
        instances = builds.instances
    oracles = oracles_for(args.workload, instances)
    # one untimed round on the first (smallest) instance, so lazy set-up settles
    Loop(args.workload, instances[:1], oracles).one_round()

    if tracer:
        plain = Loop(args.workload, instances, oracles)
        plain.run(args.seconds / 2)
        loop = Loop(args.workload, instances, oracles, tracer)
        tracer.install()
        try:
            loop.run(args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics = layers.per_layer(tracer, loop, plain, instances, BP_ITERS)
        lines = [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
        extra = {"shape": layers.shape(tracer, loop, instances)}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        extra["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        loop = Loop(args.workload, instances, oracles)
        loop.run(args.seconds, builds.rebuild)
        metrics, lines, tails = end_to_end(loop, builds)
        extra = {"tails": tails, "host_scale": statistics.median(loop.scales)}

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": loop.rounds, "executions": loop.executions, "machine": machine_info(),
              "digests": digests(loop, instances),
              "failures": [{"op": op, "reason": reason, "count": c}
                           for (op, reason), c in sorted(loop.failures.items())],
              "known_defects": known_defects(loop, instances),
              **extra}
    print(f"# liftfg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{loop.rounds} rounds, {loop.executions} executions of {loop.attempted} operations, "
          f"{loop.failed} failed")
    for line in lines:
        print("  " + line)
    for d in detail["known_defects"]:
        print(f"  known defect: {d['op']}({d['query']}) on {d['instance']} "
              f"returned {d['answer']}: {d['defect']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": loop.correct(), "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
