import random

import pytest

from liftfg import FactorGraph, Factor, PotentialTable, RandomVariable, parse_model

THREE_RV_TEXT = """\
randvar A true false
randvar B true false
randvar C true false
factor phi1 A B | 2 3 3 5
factor phi2 C B | 2 3 3 5
"""

# every product of these tables overflows to inf
OVERFLOWING_TEXT = """\
randvar A x y
randvar B x y
factor f A B | 1e308 1e308 1e308 1e308
factor g B | 1e308 1e308
factor h A | 1e308 1
"""


def group_of(groups) -> dict[str, int]:
    """Index of the group that holds each name."""
    return {name: i for i, grp in enumerate(groups) for name in grp}


@pytest.fixture
def three_rv():
    """Two factors sharing B with identical argument-symmetric tables."""
    return parse_model(THREE_RV_TEXT)


def make_epidemic(seed=5):
    """One central rv, two people, two medications: the classic lifted shape.

    f0 touches the centre; per person one ternary factor over (travel,
    sick, centre); per person and medication one ternary factor over
    (treat, sick, centre).  All instances of a template share its table.
    """
    rng = random.Random(seed)

    def tab(n):
        return " ".join(repr(rng.uniform(0.5, 2.0)) for _ in range(n))

    lines = ["randvar Epid true false", f"factor f0 Epid | {tab(2)}"]
    t1, t2 = tab(8), tab(8)
    for who in ("alice", "bob"):
        lines += [f"randvar Sick_{who} true false",
                  f"randvar Travel_{who} true false",
                  f"factor f1_{who} Travel_{who} Sick_{who} Epid | {t1}"]
        for med in ("m1", "m2"):
            lines += [f"randvar Treat_{who}_{med} true false",
                      f"factor f2_{who}_{med} Treat_{who}_{med} Sick_{who} Epid | {t2}"]
    return parse_model("\n".join(lines))


@pytest.fixture
def epidemic():
    return make_epidemic()


def random_graph(rng: random.Random, max_rvs=8, with_evidence=False,
                 shared_tables=False) -> FactorGraph:
    """Small random graph where every rv appears in at least one factor."""
    n = rng.randint(1, max_rvs)
    rvs = [RandomVariable(f"X{i}", ("a", "b")) for i in range(n)]
    factors = []
    tables = []
    for j in range(rng.randint(0, n + 2)):
        k = rng.randint(1, min(3, n))
        args = tuple(f"X{i}" for i in rng.sample(range(n), k))
        if shared_tables and tables and rng.random() < 0.5:
            candidates = [t for t in tables if len(t.range_sizes) == k]
            table = rng.choice(candidates) if candidates else None
        else:
            table = None
        if table is None:
            table = PotentialTable((2,) * k,
                                   [rng.uniform(0.2, 3.0) for _ in range(2 ** k)])
            tables.append(table)
        factors.append(Factor(f"f{j}", args, table))
    anchor = PotentialTable((2,), (1.0, 1.3))
    for i in range(n):
        factors.append(Factor(f"u{i}", (f"X{i}",), anchor))
    if with_evidence:
        for i in range(n):
            if rng.random() < 0.25:
                rvs[i] = RandomVariable(rvs[i].name, rvs[i].range, rng.randrange(2))
    return FactorGraph(rvs, factors)
