from itertools import permutations
import random

import numpy as np
import pytest

from liftfg import (FactorGraph, Factor, PotentialTable, RandomVariable, counting_bp,
                    loopy_bp, parse_model)

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


PAIR = PotentialTable((2, 2), (1.0, 2.0, 0.5, 3.0))        # no argument symmetry
ANCHOR = PotentialTable((2,), (1.0, 2.0))


def chain_graph(n: int, anchors=(0,), ring=False, table=PAIR, hidden=()) -> FactorGraph:
    """x0 - p0 - x1 - ... - x{n-1}, every pairwise factor sharing one table.

    ``anchors`` get a unary factor each, ``ring`` adds p{n-1} from x{n-1}
    back to x0, and the pairwise factors named by index in ``hidden`` are
    unknown.  One anchor at an end makes colour passing take about n/2
    rounds.
    """
    rvs = [RandomVariable(f"x{i}", ("a", "b")) for i in range(n)]
    factors = [Factor(f"a{i}", (f"x{i}",), ANCHOR) for i in anchors]
    factors += [Factor(f"p{i}", (f"x{i}", f"x{(i + 1) % n}"), None if i in hidden else table)
                for i in range(n if ring else n - 1)]
    return FactorGraph(rvs, factors)


def swap_generated_table(rng: random.Random, shape) -> np.ndarray:
    """Random values, made symmetric in some equal-range axes with probability 0.4.

    The values are generic, so the table's automorphisms are exactly the
    permutations of the symmetrised axes: a group generated by swaps.
    """
    arr = np.array([rng.uniform(0.2, 3.0) for _ in range(int(np.prod(shape)))]).reshape(shape)
    size = rng.choice(shape)
    axes = [i for i, s in enumerate(shape) if s == size]
    if len(axes) > 1 and rng.random() < 0.4:
        axes = rng.sample(axes, rng.randint(2, len(axes)))
        total = np.zeros(shape)
        for perm in permutations(axes):
            order = list(range(len(shape)))
            for a, b in zip(axes, perm):
                order[a] = b
            total = total + arr.transpose(order)
        arr = total
    return arr


def random_model(rng: random.Random, hidden: float) -> FactorGraph:
    """2-8 rvs of range 2 or 3, factors of arity 1-3, some hidden, 20% evidence.

    70% of factors reuse the first table drawn for their multiset of range
    sizes, 30% of those transposed to another argument order; every table
    comes from swap_generated_table.  Only rvs that a factor uses are kept.
    """
    n = rng.randint(2, 8)
    mixed = rng.random() < 0.5
    ranges = [rng.choice((2, 3)) if mixed else 2 for _ in range(n)]
    names = [f"X{i}" for i in range(n)]
    pool: dict[tuple, np.ndarray] = {}
    factors = []
    for j in range(rng.randint(1, n + 3)):
        args = tuple(rng.sample(names, rng.randint(1, min(3, n))))
        shape = tuple(ranges[names.index(a)] for a in args)
        key = tuple(sorted(shape))
        if key in pool and rng.random() < 0.7:
            fitting = [p for p in permutations(range(len(shape)))
                       if tuple(pool[key].shape[i] for i in p) == shape]
            arr = pool[key].transpose(rng.choice(fitting) if rng.random() < 0.3 else fitting[0])
        else:
            arr = swap_generated_table(rng, shape)
            pool.setdefault(key, arr)
        table = None if rng.random() < hidden else PotentialTable.from_array(arr)
        factors.append(Factor(f"f{j}", args, table))
    used = {a for f in factors for a in f.args}
    rvs = [RandomVariable(name, ("a", "b", "c")[:size],
                          rng.randrange(size) if rng.random() < 0.2 else None)
           for name, size in zip(names, ranges) if name in used]
    return FactorGraph(rvs, factors)


def assert_lifted_matches_bp(g: FactorGraph, lifted, iters=10):
    """Counting BP on the lifted model equals ground BP on g at 1e-9."""
    bp, cbp = loopy_bp(g, iters), counting_bp(lifted, iters)
    sv = lifted.supervar_of()
    for rv in g.rvs:
        assert np.abs(bp[rv].array() - cbp[sv[rv]].array()).max() <= 1e-9
