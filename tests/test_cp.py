import random
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from liftfg import (ColourAssignment, Factor, FactorGraph, Partition, PotentialTable,
                    RandomVariable, argument_symmetry_classes, compress, cp_round,
                    initial_colours, parse_model, run_cp, serialize_lifted,
                    singleton_partition)
from liftfg import cp
from liftfg.cp import _partition_from
from liftfg.benchgen import GenParams, generate_instance
from conftest import THREE_RV_TEXT, group_of, random_graph


def blocks(groups):
    return {frozenset(grp) for grp in groups}


# --- argument symmetry classes -------------------------------------------

def test_symmetric_pair_table_is_one_class():
    t = PotentialTable((2, 2), (2, 3, 3, 5))
    assert argument_symmetry_classes(t) == [(0, 1)]


def test_asymmetric_table_splits_positions():
    t = PotentialTable((2, 2), (1, 2, 3, 4))
    assert argument_symmetry_classes(t) == [(0,), (1,)]


def test_unary_table_single_class():
    assert argument_symmetry_classes(PotentialTable((2,), (1, 2))) == [(0,)]


def test_partial_symmetry_three_args():
    # symmetric in the last two positions only: t[a][b][c] == t[a][c][b]
    values = [1, 2, 2, 3,
              4, 5, 5, 6]
    t = PotentialTable((2, 2, 2), values)
    assert argument_symmetry_classes(t) == [(0,), (1, 2)]


def test_different_range_sizes_never_merge():
    t = PotentialTable((2, 3), (1.0,) * 6)
    assert argument_symmetry_classes(t) == [(0,), (1,)]


# --- initial colours -------------------------------------------------------

def test_initial_colours_three_rv(three_rv):
    c = initial_colours(three_rv)
    assert c.rv_colour["A"] == c.rv_colour["B"] == c.rv_colour["C"]
    assert c.factor_colour["phi1"] == c.factor_colour["phi2"]


def test_initial_colours_split_by_evidence():
    g = parse_model(THREE_RV_TEXT + "evidence B true\n")
    c = initial_colours(g)
    assert c.rv_colour["A"] == c.rv_colour["C"] != c.rv_colour["B"]


def test_initial_colours_unknowns_unique():
    g = parse_model("""
    randvar A x y
    randvar B x y
    factor f1 A | unknown
    factor f2 B | unknown
    """)
    c = initial_colours(g)
    assert c.factor_colour["f1"] != c.factor_colour["f2"]


def test_initial_colours_dense_ids(epidemic):
    c = initial_colours(epidemic)
    assert sorted(set(c.rv_colour.values())) == list(range(len(set(c.rv_colour.values()))))
    assert sorted(set(c.factor_colour.values())) == list(range(len(set(c.factor_colour.values()))))


def test_initial_colours_potential_tolerance():
    # tables are compared exactly: a 1e-12 difference splits the colours
    t1 = PotentialTable((2,), (1.0, 2.0))
    t2 = PotentialTable((2,), (1.0, 2.0 + 1e-12))
    g = FactorGraph([RandomVariable("A", ("x", "y")), RandomVariable("B", ("x", "y"))],
                    [Factor("f1", ("A",), t1), Factor("f2", ("B",), t2)])
    exact = initial_colours(g)
    assert exact.factor_colour["f1"] != exact.factor_colour["f2"]


# --- one refinement round --------------------------------------------------

def test_round_recolours_three_rv(three_rv):
    c1 = cp_round(three_rv, initial_colours(three_rv))
    assert c1.factor_colour["phi1"] == c1.factor_colour["phi2"]
    assert c1.rv_colour["A"] == c1.rv_colour["C"] != c1.rv_colour["B"]


def test_round_is_idempotent_at_fixed_point(three_rv):
    c = initial_colours(three_rv)
    for _ in range(3):
        c = cp_round(three_rv, c)
    again = cp_round(three_rv, c)
    assert _partition_from(again) == _partition_from(c)


def test_round_singleton_graph():
    g = parse_model("randvar A x y\nfactor f A | 1 2\n")
    c = cp_round(g, initial_colours(g))
    assert c.rv_colour == {"A": 0}
    assert c.factor_colour == {"f": 0}


def test_refinement_is_monotone():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, with_evidence=True, shared_tables=True)
        c = initial_colours(g)
        for _ in range(4):
            before = _partition_from(c)
            c = cp_round(g, c)
            after = _partition_from(c)
            old_rv = blocks(before.rv_groups)
            for grp in after.rv_groups:
                assert any(set(grp) <= old for old in old_rv)
            old_f = blocks(before.factor_groups)
            for grp in after.factor_groups:
                assert any(set(grp) <= old for old in old_f)


# --- full runs ---------------------------------------------------------------

def test_run_cp_three_rv(three_rv):
    part = run_cp(three_rv)
    assert blocks(part.rv_groups) == {frozenset("AC"), frozenset("B")}
    assert blocks(part.factor_groups) == {frozenset({"phi1", "phi2"})}


def test_run_cp_epidemic(epidemic):
    part = run_cp(epidemic)
    assert blocks(part.rv_groups) == {
        frozenset({"Epid"}),
        frozenset({"Sick_alice", "Sick_bob"}),
        frozenset({"Travel_alice", "Travel_bob"}),
        frozenset({"Treat_alice_m1", "Treat_alice_m2", "Treat_bob_m1", "Treat_bob_m2"}),
    }
    assert blocks(part.factor_groups) == {
        frozenset({"f0"}),
        frozenset({"f1_alice", "f1_bob"}),
        frozenset({"f2_alice_m1", "f2_alice_m2", "f2_bob_m1", "f2_bob_m2"}),
    }


def test_run_cp_distinct_tables_all_singletons():
    g = parse_model("""
    randvar A x y
    randvar B x y
    randvar C x y
    factor f1 A B | 1 2 3 4
    factor f2 C B | 5 6 7 8
    """)
    part = run_cp(g)
    assert all(len(grp) == 1 for grp in part.rv_groups)
    assert all(len(grp) == 1 for grp in part.factor_groups)


def test_run_cp_keeps_unknowns_in_singletons():
    g = parse_model("""
    randvar A x y
    randvar B x y
    factor f1 A | unknown
    factor f2 B | unknown
    """)
    part = run_cp(g)
    assert blocks(part.factor_groups) == {frozenset({"f1"}), frozenset({"f2"})}


def test_run_cp_deterministic(three_rv, epidemic):
    for g in (three_rv, epidemic):
        assert run_cp(g) == run_cp(g)


def test_evidence_splits_groups():
    g = parse_model(THREE_RV_TEXT + "evidence A true\n")
    part = run_cp(g)
    assert blocks(part.rv_groups) == {frozenset("A"), frozenset("B"), frozenset("C")}


def oracle_run_cp(g, initial=None):
    """Reference loop: build and compare the whole partition after every round."""
    colours = initial if initial is not None else initial_colours(g)
    part = _partition_from(colours)
    for _ in range(len(g.rvs) + len(g.factors) + 1):
        colours = cp.cp_round(g, colours)
        new_part = _partition_from(colours)
        if new_part == part:
            return part
        part = new_part
    raise AssertionError("colour refinement failed to stabilise within its bound")


def counted_rounds(run, g, initial):
    """Result of run(g, initial) and its number of cp.cp_round calls."""
    with mock.patch.object(cp, "cp_round", wraps=cp.cp_round) as spy:
        result = run(g, initial)
    return result, spy.call_count


@st.composite
def refinement_cases(draw):
    """A random graph and the initial colouring run_cp starts from.

    Ranges 2 and 3, evidence, an optional chain of one shared table (many
    rounds when anchored), tables shared between factors or invariant under
    swapping their first two arguments, and unknown factors.  Three in four
    graphs with unknowns pre-group them into shared colours and may give
    one known factor such a colour, as run_lifg does before it calls
    run_cp; the other graphs start from initial_colours.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n, hidden = rng.randint(1, 12), rng.choice((0.05, 0.3))
    mixed = rng.random() < 0.5
    ranges = [rng.choice((2, 3)) if mixed else 2 for _ in range(n)]
    names = [f"X{i}" for i in range(n)]
    pool: dict[tuple, PotentialTable] = {}   # first table of each shape

    def table(shape, symmetric, reuse=0.7):
        if shape in pool and rng.random() < reuse:
            return pool[shape]
        arr = np.array([rng.choice((0.5, 1.0, 2.0, rng.uniform(0.2, 3.0)))
                        for _ in range(int(np.prod(shape)))]).reshape(shape)
        if symmetric and len(shape) > 1 and shape[0] == shape[1]:
            arr = arr + arr.swapaxes(0, 1)
        t = PotentialTable.from_array(arr)
        pool.setdefault(shape, t)
        return t

    factors = []
    if rng.random() < 0.6:
        for i in range(n - 1):
            shape = (ranges[i], ranges[i + 1])
            t = None if rng.random() < hidden else table(shape, True, 1.0)
            factors.append(Factor(f"c{i}", (names[i], names[i + 1]), t))
    for j in range(rng.randint(0, 4) if rng.random() < 0.6 else 0):
        args = tuple(rng.sample(names, rng.randint(1, min(3, n))))
        shape = tuple(ranges[names.index(a)] for a in args)
        t = None if rng.random() < hidden else table(shape, rng.random() < 0.4)
        factors.append(Factor(f"f{j}", args, t))
    anchor, evidence = rng.choice((0.7, 1.0)), rng.choice((0.0, 0.1, 0.3))
    for name, size in zip(names, ranges):
        if rng.random() < anchor:
            factors.append(Factor(f"u{name}", (name,), table((size,), False, anchor)))
    rvs = [RandomVariable(name, ("a", "b", "c")[:size],
                          rng.randrange(size) if rng.random() < evidence else None)
           for name, size in zip(names, ranges)]
    g = FactorGraph(rvs, factors)
    unknown = sorted(f.name for f in factors if f.is_unknown)
    known = sorted(f.name for f in factors if not f.is_unknown)
    if not unknown or rng.random() < 0.25:
        return g, None
    start = initial_colours(g)
    colour = dict(start.factor_colour)
    bucket_colour: dict[int, int] = {}
    for name in unknown:
        colour[name] = bucket_colour.setdefault(rng.randrange(2), colour[name])
    if known and rng.random() < 0.5:
        colour[rng.choice(known)] = colour[unknown[0]]
    return g, ColourAssignment(start.rv_colour, colour)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(refinement_cases())
def test_run_cp_matches_partition_comparing_oracle(case):
    g, initial = case
    part, rounds = counted_rounds(run_cp, g, initial)
    expected, oracle_rounds = counted_rounds(oracle_run_cp, g, initial)
    assert part == expected
    assert rounds == oracle_rounds
    # cp_round numbers each namespace densely, whatever ids it was given
    c = cp_round(g, initial if initial is not None else initial_colours(g))
    for ids in (c.rv_colour.values(), c.factor_colour.values()):
        assert sorted(set(ids)) == list(range(len(set(ids))))


# --- position handling -------------------------------------------------------

SHARED_ASYM = """\
randvar A x y
randvar B x y
randvar C x y
factor phi1 A B | 1 2 3 4
factor phi2 {args} | 1 2 3 4
"""

SHARED_SYM = """\
randvar A x y
randvar B x y
randvar C x y
factor phi1 A B | 2 3 3 5
factor phi2 {args} | 2 3 3 5
"""


def test_positions_asymmetric_table_aligned_args():
    g = parse_model(SHARED_ASYM.format(args="C B"))
    part = run_cp(g)
    assert blocks(part.rv_groups) == {frozenset("AC"), frozenset("B")}


def test_positions_asymmetric_table_swapped_args_split():
    # B sits at position 1 in phi1 but position 0 in phi2: with an
    # asymmetric table those roles differ, so nothing may group.
    g = parse_model(SHARED_ASYM.format(args="B C"))
    part = run_cp(g)
    assert all(len(grp) == 1 for grp in part.rv_groups)
    assert all(len(grp) == 1 for grp in part.factor_groups)


def test_positions_symmetric_table_swapped_args():
    # a symmetric table makes the argument order irrelevant
    g = parse_model(SHARED_SYM.format(args="B C"))
    part = run_cp(g)
    assert blocks(part.rv_groups) == {frozenset("AC"), frozenset("B")}


# --- compression ---------------------------------------------------------------

def test_compress_three_rv(three_rv):
    m = compress(three_rv, run_cp(three_rv))
    assert [(sv.name, sv.size) for sv in m.supervars] == [("A", 2), ("B", 1)]
    sf, = m.superfactors
    assert (sf.name, sf.size, sf.args) == ("phi1", 2, ("A", "B"))
    assert m.edge_counts == {("A", "phi1"): 1, ("B", "phi1"): 2}


def test_compress_epidemic_counts(epidemic):
    m = compress(epidemic, run_cp(epidemic))
    counts = {k: v for k, v in m.edge_counts.items() if k[0] == "Epid"}
    assert counts == {("Epid", "f0"): 1, ("Epid", "f1_alice"): 2,
                      ("Epid", "f2_alice_m1"): 4}
    assert sum(sv.size for sv in m.supervars) == len(epidemic.rvs)
    assert sum(sf.size for sf in m.superfactors) == len(epidemic.factors)


def test_compress_singleton_partition_is_isomorphic(epidemic):
    m = compress(epidemic, singleton_partition(epidemic))
    assert len(m.supervars) == len(epidemic.rvs)
    assert len(m.superfactors) == len(epidemic.factors)
    assert all(c == 1 for c in m.edge_counts.values())


def test_compress_rejects_unknown_factor():
    g = parse_model("randvar A x y\nfactor f A | unknown\n")
    with pytest.raises(ValueError, match="unknown factor"):
        compress(g, run_cp(g))


def test_compress_rejects_unstable_partition(three_rv):
    bogus = Partition((("A", "B", "C"),), (("phi1", "phi2"),))
    with pytest.raises(ValueError, match="not stable"):
        compress(three_rv, bogus)
    # every rv touches two factors of the group, but a and d only ever fill
    # the first slot of the asymmetric table and b and c only the second,
    # so one supervariable cannot stand for all four
    square = parse_model("""
    randvar a x y
    randvar b x y
    randvar c x y
    randvar d x y
    factor f1 a b | 1 2 3 4
    factor f2 a c | 1 2 3 4
    factor f3 d b | 1 2 3 4
    factor f4 d c | 1 2 3 4
    """)
    bogus = Partition((("a", "b", "c", "d"),), (("f1", "f2", "f3", "f4"),))
    with pytest.raises(ValueError, match="not stable"):
        compress(square, bogus)


@pytest.mark.parametrize("rv_groups, factor_groups, problem", [
    ((("A",),), (("f",), ("h",)), "rv 'B' is in no group"),
    ((("A",), ("B", "Z")), (("f",), ("h",)), "rv 'Z' is not in the graph"),
    ((("A",), ("B",)), (("f",),), "factor 'h' is in no group"),
    ((("A", "B"), ("B",)), (("f",), ("h",)), "rv 'B' is listed 2 times"),
    ((("A",), ("B",), ()), (("f",), ("h",)), "a rv group is empty"),
], ids=["omits_rv", "unknown_rv", "omits_factor", "rv_twice", "empty_group"])
def test_compress_rejects_partition_not_covering_graph(rv_groups, factor_groups, problem):
    g = parse_model("randvar A x y\nrandvar B x y\nfactor f A B | 1 2 3 4\nfactor h A | 1 2\n")
    with pytest.raises(ValueError, match=f"partition does not cover the graph: {problem}"):
        compress(g, Partition(rv_groups, factor_groups))


def test_compress_soundness_on_generated_instances():
    for seed in range(6):
        g, _ = generate_instance(GenParams(d=4, seed=seed))
        part = run_cp(g)
        m = compress(g, part)
        assert blocks(sv.members for sv in m.supervars) == blocks(part.rv_groups)
        assert blocks(sf.members for sf in m.superfactors) == blocks(part.factor_groups)
        for sf in m.superfactors:
            assert len(set(sf.args)) == len(sf.args)


def test_compress_edge_endpoint_accounting(three_rv, epidemic):
    # a superfactor group of size m and arity a accounts for m*a ground
    # edge endpoints, and the per-representative counts must add up to it
    for g in (three_rv, epidemic, generate_instance(GenParams(d=8, seed=3))[0]):
        m = compress(g, run_cp(g))
        size_of = {sv.name: sv.size for sv in m.supervars}
        for sf in m.superfactors:
            endpoints = sum(size_of[sv] * m.edge_counts[(sv, sf.name)]
                            for sv in sf.args)
            assert endpoints == sf.size * len(sf.args)
        assert all(sv.size >= 1 for sv in m.supervars)
        assert all(sf.size >= 1 for sf in m.superfactors)


def test_serialize_lifted_format(three_rv):
    m = compress(three_rv, run_cp(three_rv))
    text = serialize_lifted(m)
    assert "rvgroup A: A C" in text
    assert "rvgroup B: B" in text
    assert "factorgroup phi1 size 2 args A:0 B:1 |" in text
    assert "count A phi1 1" in text
    assert "count B phi1 2" in text
    assert serialize_lifted(m) == text  # deterministic


def test_termination_bound_on_long_path():
    # a path alternates rv - factor - rv ...; refinement needs many rounds.
    # the table is argument-symmetric, so reversing the path is a genuine
    # automorphism and every node must group with its mirror image.
    n = 20
    rvs = [RandomVariable(f"X{i:02d}", ("a", "b")) for i in range(n)]
    t = PotentialTable((2, 2), (2, 3, 3, 5))
    factors = [Factor(f"e{i:02d}", (f"X{i:02d}", f"X{i + 1:02d}"), t)
               for i in range(n - 1)]
    g = FactorGraph(rvs, factors)
    part = run_cp(g)   # about n/2 refining rounds, then one that adds no colour
    group = group_of(part.rv_groups)
    for i in range(n):
        assert group[f"X{i:02d}"] == group[f"X{n - 1 - i:02d}"]
    assert len(part.rv_groups) == n // 2
