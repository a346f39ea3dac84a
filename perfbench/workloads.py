"""Seeded instance sets for the three benchmark workloads.

Every workload is a fixed list of slots.  A slot fixes the sizes that set an
instance's cost; the seed draws everything else (tables, generator
structure, hidden factors, evidence, queries).  Every seed therefore runs
the same spread of work, which keeps run-to-run spread small.

* ``cohort``: the package's generator (``benchgen.GenParams``) at
  d = 32, 48, 64 with 5-10 % of factors hidden.  Ground BP cost grows with
  the sum over variables of degree squared, which the generator varies by
  almost an order of magnitude between seeds at one size.  Each slot
  therefore draws generator seeds until that sum lands in the slot's band;
  the three bands per size sit at the 1/6, 1/2 and 5/6 quantiles of the
  generator's own distribution (k = 4 cohorts, n = 2.5 d).
* ``chain``: an anchored chain of one shared pairwise table with a few
  hidden factors.  Colour passing needs about n rounds.
* ``population``: the epidemic template (one ``Epid`` hub, N people, M = 3
  treatments each, ternary tables) with evidence on 30 % of the non-hub
  variables and a few hidden factors.  The evidence layout is fixed per
  size; the seed draws tables, names, hidden factors and queries.  Ground BP runs only on the three
  small slots, because its cost grows with the hub degree squared.  The
  largest slot (1501 variables) is past the size where variable
  elimination overflows on ``Epid``, a known, unfixed defect.  It has no
  timed queries; instead it carries ``Epid`` as its defect query, which
  every run asks once, untimed, and reports.

Slot counts are odd, so each median falls inside one slot's samples
instead of between two slots of different cost.
"""

from dataclasses import dataclass
import random
from typing import Callable

from liftfg import benchgen, model
from liftfg.model import Factor, FactorGraph, PotentialTable, RandomVariable

BOOL = ("true", "false")
QUERIES_PER_INSTANCE = 3

COHORT_SIZES = (32, 48, 64)
# sum of deg^2 over variables, as a multiple of n^2; [lo, hi) per slot
COHORT_BANDS = ((0.41, 0.49), (0.83, 0.97), (1.40, 1.64))
COHORT_MAX_DRAWS = 400

CHAIN_SIZES = (250, 325, 400)

# (people N, run ground BP, timed queries, defect queries)
POPULATION_SLOTS = ((10, True, 3, ()), (20, True, 3, ()), (30, True, 3, ()), (100, False, 3, ()),
                    (300, False, 0, ("Epid",)))
POPULATION_TREATMENTS = 3
POPULATION_EVIDENCE = 0.3

HIDDEN_FEW = (0.01, 0.02)   # fraction of factors hidden on chain and population


@dataclass(frozen=True)
class Instance:
    """One model of a workload, ready for the four timed operations."""

    id: str
    text: str                      # serialised model with hidden factors: the lift input
    truth: FactorGraph             # the fully-known graph before hiding
    planted: tuple | None          # cohort: rv blocks colour passing must recover
    queries: tuple[str, ...]
    run_bp: bool
    defect_queries: tuple[str, ...] = ()   # asked once per run, untimed: known defects


@dataclass(frozen=True)
class Slot:
    """What a workload needs to build one instance; fixed before set-up is timed."""

    id: str
    build: Callable[[], tuple]     # () -> (truth graph, planted blocks or None)
    hide: benchgen.GenParams       # seed and fraction for remove_potentials
    query_seed: int
    queries: int
    run_bp: bool
    defect_queries: tuple[str, ...] = ()


def degrees(g: FactorGraph) -> dict[str, int]:
    degree = dict.fromkeys(g.rvs, 0)
    for f in g.factors.values():
        for a in f.args:
            degree[a] += 1
    return degree


def sum_deg_sq(g: FactorGraph) -> int:
    """Sum over variables of degree squared: what one ground BP iteration costs."""
    return sum(v * v for v in degrees(g).values())


def _table(rng: random.Random, arity: int) -> PotentialTable:
    return PotentialTable((2,) * arity, [rng.uniform(0.5, 2.0) for _ in range(2 ** arity)])


def _cohort_params(seed: int, d: int, band: int) -> benchgen.GenParams:
    n = 5 * d // 2
    lo, hi = COHORT_BANDS[band]
    for draw in range(COHORT_MAX_DRAWS):
        params = benchgen.GenParams(d=d, seed=benchgen.derive_seed(seed, "cohort", d, band, draw),
                                    cohort_count_range=(4, 4), rv_count_range=(n, n))
        g, _ = benchgen.generate_instance(params)
        if lo * n * n <= sum_deg_sq(g) < hi * n * n:
            return params
    raise RuntimeError(f"no cohort instance for d={d} in band {band} after {COHORT_MAX_DRAWS} draws")


def _build_cohort(params: benchgen.GenParams):
    g, cohorts = benchgen.generate_instance(params)
    return g, cohorts.as_partition_blocks()


def _build_chain(seed: int, n: int):
    rng = random.Random(seed)
    pair, anchor = _table(rng, 2), _table(rng, 1)
    rvs = [RandomVariable(f"x{i}", BOOL) for i in range(n)]
    factors = [Factor("anchor", ("x0",), anchor)]
    factors += [Factor(f"p{i}", (f"x{i}", f"x{i + 1}"), pair) for i in range(n - 1)]
    return FactorGraph(rvs, factors), None


def _build_population(seed: int, people: int):
    """Epidemic template; which variables are observed is fixed per size.

    Evidence decides the lifted structure and with it the cost of every
    operation, so the observed positions and values come from a design
    fixed for each N.  The seed draws the tables and which person takes
    which position, so the same lifted structure appears under new names.
    """
    design = random.Random(f"population-evidence-{people}")
    rng = random.Random(seed)
    prior, travel, treat = _table(rng, 1), _table(rng, 3), _table(rng, 3)
    names = list(range(people))
    rng.shuffle(names)
    rvs = [RandomVariable("Epid", BOOL)]
    factors = [Factor("f0", ("Epid",), prior)]
    for i in names:
        sick, trav = f"Sick_p{i}", f"Travel_p{i}"
        rvs += [RandomVariable(sick, BOOL), RandomVariable(trav, BOOL)]
        factors.append(Factor(f"f1_p{i}", (trav, sick, "Epid"), travel))
        for m in range(POPULATION_TREATMENTS):
            tr = f"Treat_p{i}_m{m}"
            rvs.append(RandomVariable(tr, BOOL))
            factors.append(Factor(f"f2_p{i}_m{m}", (tr, sick, "Epid"), treat))
    observed = design.sample(range(1, len(rvs)), round(POPULATION_EVIDENCE * (len(rvs) - 1)))
    for i in sorted(observed):
        rvs[i] = RandomVariable(rvs[i].name, rvs[i].range, design.randrange(2))
    return FactorGraph(rvs, factors), None


def slots(workload: str, seed: int) -> list[Slot]:
    """The workload's slots for one seed; cohort slots already hold their chosen draw."""
    out = []
    if workload == "cohort":
        for d in COHORT_SIZES:
            for band in range(len(COHORT_BANDS)):
                params = _cohort_params(seed, d, band)
                out.append(Slot(f"cohort-d{d}-b{band}", lambda p=params: _build_cohort(p),
                                params, benchgen.derive_seed(seed, "queries", d, band),
                                QUERIES_PER_INSTANCE, True))
    elif workload == "chain":
        for n in CHAIN_SIZES:
            out.append(Slot(f"chain-n{n}",
                            lambda s=benchgen.derive_seed(seed, "chain", n), n=n: _build_chain(s, n),
                            benchgen.GenParams(d=n, seed=benchgen.derive_seed(seed, "hide", n),
                                               unknown_fraction_range=HIDDEN_FEW),
                            benchgen.derive_seed(seed, "queries", n), QUERIES_PER_INSTANCE, True))
    elif workload == "population":
        for people, run_bp, queries, defect_queries in POPULATION_SLOTS:
            out.append(Slot(f"population-N{people}",
                            lambda s=benchgen.derive_seed(seed, "population", people), p=people:
                            _build_population(s, p),
                            benchgen.GenParams(d=people, seed=benchgen.derive_seed(seed, "hide", people),
                                               unknown_fraction_range=HIDDEN_FEW),
                            benchgen.derive_seed(seed, "queries", people), queries, run_bp,
                            defect_queries))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _queries(g: FactorGraph, query_seed: int, count: int) -> tuple[str, ...]:
    """Seeded subset of unobserved variables; population always asks about Epid."""
    if count == 0:
        return ()
    free = sorted(name for name, rv in g.rvs.items() if rv.evidence is None)
    fixed = ["Epid"] if "Epid" in g.rvs else []
    rest = [name for name in free if name not in fixed]
    picked = random.Random(query_seed).sample(rest, count - len(fixed))
    return tuple(fixed + picked)


def build(slot: Slot, span) -> Instance:
    """Generate, hide and serialise one instance: the work ``setup_s`` times.

    ``span(name)`` returns a context manager.  A traced set-up records
    generation as ``benchgen.generate``, whether the package's generator or
    one of the template functions above makes the graph.
    """
    with span("benchgen.generate"):
        truth, planted = slot.build()
    removal = benchgen.remove_potentials(truth, slot.hide)
    text = model.serialize_model(removal.graph)
    return Instance(slot.id, text, truth, planted, _queries(truth, slot.query_seed, slot.queries),
                    slot.run_bp, slot.defect_queries)
