"""Synthetic instance generator and benchmark runner.

The generator plants symmetry groups ("cohorts") that colour passing must
recover exactly, then hides a fraction of the potentials so the lifting
pipeline can be scored against the fully-known ground truth.

Topology (a modelling choice, not canon; numbers produced here are not
comparable across differently-shaped generators):

* k cohorts of Boolean member variables plus k-1 shared Boolean hub
  variables; no evidence.
* Every member of cohort i carries one "spoke" factor tying it to a fixed
  subset of hubs.  Arities are a bijection cohorts -> {1..k}, so a spoke's
  arity identifies its cohort structurally; the arity-k cohort covers all
  hubs, which keeps every hub distinguishable.
* Members of cohorts with arity >= 2 also carry a unary anchor factor, and
  each hub carries two unary anchors.  Anchor tables are shared across all
  factors whose local structure is indistinguishable, so hiding any factor
  always leaves a structurally identical peer with the right table.
* Spoke tables are drawn once per cohort, entries uniform in [0.5, 2.0].

One cohort holds about half of the member variables (capped so every
cohort keeps at least one member at very small sizes); the rest of the
pool is split uniformly at random.  The factor count is 2n minus the size
of the arity-1 cohort, which stays within [n, 2n].

Potential removal follows the stated constraint: a factor may be hidden
only while at least one structurally identical factor with known
potentials survives.
"""

from dataclasses import dataclass, replace
import concurrent.futures
import hashlib
import math
import random
import statistics
import time

from .model import FactorGraph, Factor, PotentialTable, RandomVariable, validate
from . import cp, lifg
from .inference import variable_elimination, loopy_bp, counting_bp, kl_divergence

BOOL = ("true", "false")
CSV_HEADER = ("d,seed,instance,n_rvs,n_factors,n_unknown,n_rv_groups,"
              "n_factor_groups,kl_mean,kl_max,t_exact_ns,t_lifted_ns,complete")


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from arbitrary labelled parts."""
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class GenParams:
    d: int
    seed: int
    cohort_count_range: tuple[int, int] = (3, 5)
    rv_count_range: tuple[int, int] | None = None   # defaults to (2d, 3d)
    unknown_fraction_range: tuple[float, float] = (0.05, 0.10)
    theta: float = 0.0

    def rv_range(self) -> tuple[int, int]:
        return self.rv_count_range if self.rv_count_range else (2 * self.d, 3 * self.d)


@dataclass(frozen=True)
class Cohorts:
    """Planted labelling: cohort label -> member rv names (hubs are singletons)."""

    groups: dict[str, tuple[str, ...]]

    def as_partition_blocks(self) -> tuple[tuple[str, ...], ...]:
        return tuple(sorted(tuple(sorted(m)) for m in self.groups.values()))


@dataclass(frozen=True)
class RemovalResult:
    graph: FactorGraph
    removed: tuple[str, ...]
    fraction: float
    truncated: bool   # set when the constraint cut the removal short


@dataclass(frozen=True)
class BenchRecord:
    d: int
    seed: int
    instance: int
    n_rvs: int
    n_factors: int
    n_unknown: int
    n_rv_groups: int
    n_factor_groups: int
    kl_values: tuple[float, ...]
    t_exact_ns: int
    t_lifted_ns: int
    complete: bool
    max_group_size: int = 0

    @property
    def kl_mean(self) -> float | None:
        return sum(self.kl_values) / len(self.kl_values) if self.kl_values else None

    @property
    def kl_max(self) -> float | None:
        return max(self.kl_values) if self.kl_values else None

    def csv_row(self) -> str:
        kl_mean = "" if self.kl_mean is None else repr(self.kl_mean)
        kl_max = "" if self.kl_max is None else repr(self.kl_max)
        return (f"{self.d},{self.seed},{self.instance},{self.n_rvs},{self.n_factors},"
                f"{self.n_unknown},{self.n_rv_groups},{self.n_factor_groups},"
                f"{kl_mean},{kl_max},{self.t_exact_ns},{self.t_lifted_ns},"
                f"{int(self.complete)}")


@dataclass(frozen=True)
class Aggregate:
    d: int
    n_instances: int
    n_complete: int
    kl_mean: float | None
    kl_std: float | None
    t_exact_ns: int
    t_lifted_ns: int
    mean_rv_groups: float = 0.0
    max_group_size: int = 0

    def csv_comment(self) -> str:
        kl_mean = "" if self.kl_mean is None else repr(self.kl_mean)
        kl_std = "" if self.kl_std is None else repr(self.kl_std)
        return (f"# aggregate d={self.d} instances={self.n_instances} "
                f"complete={self.n_complete} kl_mean={kl_mean} kl_std={kl_std} "
                f"t_exact_ns={self.t_exact_ns} t_lifted_ns={self.t_lifted_ns} "
                f"mean_rv_groups={self.mean_rv_groups!r} "
                f"max_group_size={self.max_group_size}")


def _draw_shape(rng: random.Random, params: GenParams) -> tuple[int, int]:
    """Joint draw of cohort count and rv count; n < 2k hosts too few cohorts."""
    lo_k, hi_k = params.cohort_count_range
    lo_n, hi_n = params.rv_range()
    for _ in range(10000):
        k = rng.randint(lo_k, hi_k)
        n = rng.randint(lo_n, hi_n)
        if n >= 2 * k:
            return k, n
    raise ValueError(f"cannot host {lo_k}..{hi_k} cohorts within {lo_n}..{hi_n} rvs")


def _split_sizes(rng: random.Random, pool: int, k: int) -> list[int]:
    """Cohort sizes: ~half the pool for the first, the rest split uniformly."""
    big = min(max(1, math.ceil(pool / 2)), pool - (k - 1))
    rest = pool - big
    if k == 1:
        return [big]
    # uniform composition of `rest` into k-1 positive parts via sorted cuts
    cuts = sorted(rng.sample(range(1, rest), k - 2)) if k > 2 else []
    bounds = [0] + cuts + [rest]
    sizes = [big] + [bounds[i + 1] - bounds[i] for i in range(k - 1)]
    assert all(s >= 1 for s in sizes) and sum(sizes) == pool
    return sizes


def _draw_table(rng: random.Random, arity: int) -> PotentialTable:
    values = [rng.uniform(0.5, 2.0) for _ in range(2 ** arity)]
    return PotentialTable((2,) * arity, values)


def generate_instance(params: GenParams) -> tuple[FactorGraph, Cohorts]:
    """Build a fully-known ground-truth graph with planted cohorts.

    Deterministic in params; asserts that colour passing recovers exactly
    the planted variable partition and that the factor count is in [n, 2n].
    """
    rng = random.Random(derive_seed(params.seed, "gen", params.d))
    k, n = _draw_shape(rng, params)
    n_hubs = k - 1
    pool = n - n_hubs
    sizes = _split_sizes(rng, pool, k)
    arities = rng.sample(range(1, k + 1), k)   # bijection cohort -> spoke arity

    hubs = [f"hub{h}" for h in range(1, n_hubs + 1)]
    hub_subsets = []
    for i in range(k):
        a = arities[i]
        if a == 1:
            hub_subsets.append([])
        elif a == k:
            hub_subsets.append(list(hubs))
        else:
            hub_subsets.append(sorted(rng.sample(hubs, a - 1)))

    # arity-1 tables must stay pairwise distinct or cohorts could merge
    while True:
        spoke_tables = [_draw_table(rng, arities[i]) for i in range(k)]
        anchor_table = _draw_table(rng, 1)
        hub_anchor_table = _draw_table(rng, 1)
        unary = [t.values for t in spoke_tables if len(t.range_sizes) == 1]
        unary += [anchor_table.values, hub_anchor_table.values]
        if len(set(unary)) == len(unary):
            break

    rvs = [RandomVariable(h, BOOL) for h in hubs]
    factors = []
    groups: dict[str, tuple[str, ...]] = {h: (h,) for h in hubs}
    for i in range(k):
        members = [f"c{i + 1}m{j + 1}" for j in range(sizes[i])]
        groups[f"cohort{i + 1}"] = tuple(members)
        rvs.extend(RandomVariable(m, BOOL) for m in members)
        for j, m in enumerate(members, start=1):
            factors.append(Factor(f"spoke{i + 1}_{j}", (m, *hub_subsets[i]),
                                  spoke_tables[i]))
            if arities[i] >= 2:
                factors.append(Factor(f"anchor{i + 1}_{j}", (m,), anchor_table))
    for h_idx, h in enumerate(hubs, start=1):
        factors.append(Factor(f"hubanchor{h_idx}_1", (h,), hub_anchor_table))
        factors.append(Factor(f"hubanchor{h_idx}_2", (h,), hub_anchor_table))

    g = FactorGraph(rvs, factors)
    problems = validate(g)
    assert not problems, f"generator produced an invalid graph: {problems}"
    assert n <= len(g.factors) <= 2 * n, "factor count left [n, 2n]"

    cohorts = Cohorts(groups)
    recovered = cp.run_cp(g).rv_groups
    assert recovered == cohorts.as_partition_blocks(), (
        "colour passing did not recover the planted cohorts")
    return g, cohorts


def remove_potentials(g: FactorGraph, params: GenParams) -> RemovalResult:
    """Hide a 5-10% fraction of the potentials under the peer constraint.

    A factor is eligible while its structural class still has at least two
    known members, so every hidden factor keeps a known possibly-identical
    peer in the post-removal graph.  Truncates with a flag when the
    constraint runs out of eligible factors.
    """
    if g.has_unknown:
        raise ValueError("remove_potentials expects a fully-known graph")
    rng = random.Random(derive_seed(params.seed, "removal", params.d))
    lo, hi = params.unknown_fraction_range
    fraction = rng.uniform(lo, hi)
    target = max(1, round(fraction * len(g.factors)))

    signatures = lifg.all_signatures(g)
    known_in_class: dict[lifg.NeighbourhoodSignature, int] = {}
    for name, sig in signatures.items():
        known_in_class[sig] = known_in_class.get(sig, 0) + 1

    removed: list[str] = []
    candidates = sorted(g.factors)
    while len(removed) < target:
        eligible = [name for name in candidates
                    if known_in_class[signatures[name]] >= 2]
        if not eligible:
            break
        pick = eligible[rng.randrange(len(eligible))]
        candidates.remove(pick)
        known_in_class[signatures[pick]] -= 1
        removed.append(pick)

    replacements = {name: Factor(name, g.factors[name].args, None) for name in removed}
    return RemovalResult(g.replace_factors(replacements), tuple(sorted(removed)),
                         len(removed) / len(g.factors), len(removed) < target)


def _median_time_ns(fn, reps: int) -> int:
    fn()   # warm-up, discarded
    times = []
    for _ in range(max(1, reps)):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def run_instance(params: GenParams, instance: int, iters: int = 50, reps: int = 5,
                 kl_cap_d: int = 32) -> BenchRecord:
    """Generate, remove, lift and score a single benchmark instance."""
    inst_params = replace(params, seed=derive_seed(params.seed, params.d, instance))
    g_truth, _ = generate_instance(inst_params)
    removal = remove_potentials(g_truth, inst_params)
    result = lifg.run_lifg(removal.graph, params.theta)

    rng = random.Random(derive_seed(inst_params.seed, "queries", params.d))
    queries = rng.sample(sorted(g_truth.rvs), params.d)

    kl_values: tuple[float, ...] = ()
    t_exact = t_lifted = 0
    if result.report.complete:
        if params.d <= kl_cap_d:
            supervar_of = result.lifted.supervar_of()
            cbp = counting_bp(result.lifted, iters)
            ground = loopy_bp(result.completed, iters)
            for rv, m in ground.items():
                lifted_m = cbp[supervar_of[rv]]
                delta = max(abs(a - b) for a, b in zip(m.probs, lifted_m.probs))
                assert delta <= 1e-9, (
                    f"lifted/ground BP cross-check failed at {rv}: delta {delta}")
            kl_values = tuple(kl_divergence(variable_elimination(g_truth, q),
                                            variable_elimination(result.completed, q))
                              for q in queries)
        t_exact = _median_time_ns(
            lambda: [variable_elimination(g_truth, q) for q in queries], reps)
        t_lifted = _median_time_ns(lambda: counting_bp(result.lifted, iters), reps)

    rv_groups = result.partition.rv_groups
    return BenchRecord(
        d=params.d, seed=inst_params.seed, instance=instance,
        n_rvs=len(g_truth.rvs), n_factors=len(g_truth.factors),
        n_unknown=len(removal.removed),
        n_rv_groups=len(rv_groups),
        n_factor_groups=len(result.partition.factor_groups),
        kl_values=kl_values, t_exact_ns=t_exact, t_lifted_ns=t_lifted,
        complete=result.report.complete,
        max_group_size=max(len(grp) for grp in rv_groups),
    )


def aggregate_records(records: list[BenchRecord]) -> list[Aggregate]:
    by_d: dict[int, list[BenchRecord]] = {}
    for r in records:
        by_d.setdefault(r.d, []).append(r)
    out = []
    for d in sorted(by_d):
        rows = by_d[d]
        complete = [r for r in rows if r.complete]
        kls = [v for r in complete for v in r.kl_values]
        out.append(Aggregate(
            d=d, n_instances=len(rows), n_complete=len(complete),
            kl_mean=sum(kls) / len(kls) if kls else None,
            kl_std=statistics.pstdev(kls) if len(kls) > 1 else (0.0 if kls else None),
            t_exact_ns=int(statistics.median([r.t_exact_ns for r in complete])) if complete else 0,
            t_lifted_ns=int(statistics.median([r.t_lifted_ns for r in complete])) if complete else 0,
            mean_rv_groups=sum(r.n_rv_groups for r in rows) / len(rows),
            max_group_size=max(r.max_group_size for r in rows),
        ))
    return out


def run_benchmark(battery: list[GenParams], instances_per_d: int, out=None,
                  iters: int = 50, reps: int = 5, kl_cap_d: int = 32,
                  workers: int = 1) -> tuple[list[BenchRecord], list[Aggregate]]:
    """Run the full battery; returns per-instance records plus per-d aggregates.

    ``out`` may be a path or file object; records are written as CSV with
    aggregate lines appended as '#' comments.  Instances are independent,
    so they may run in a process pool; output order is fixed by (d,
    instance) regardless of worker count.
    """
    jobs = [(params, inst) for params in battery for inst in range(instances_per_d)]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_instance, p, i, iters, reps, kl_cap_d)
                       for p, i in jobs]
            records = [f.result() for f in futures]
    else:
        records = [run_instance(p, i, iters, reps, kl_cap_d)
                   for p, i in jobs]
    records.sort(key=lambda r: (r.d, r.instance))
    aggregates = aggregate_records(records)
    if out is not None:
        text = render_csv(records, aggregates)
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    return records, aggregates


def render_csv(records: list[BenchRecord], aggregates: list[Aggregate]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    lines.extend(a.csv_comment() for a in aggregates)
    return "\n".join(lines) + "\n"
