from collections import Counter
import gc
from itertools import permutations
import random
import time
from unittest import mock
import weakref

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from liftfg import (ColourAssignment, Factor, FactorGraph, Partition, PotentialTable,
                    RandomVariable, argument_symmetry_classes, compress, cp_round,
                    initial_colours, parse_model, run_cp, run_lifg, serialize_lifted,
                    serialize_model, singleton_partition)
from liftfg import cp
from liftfg.cp import (LiftedModel, SuperFactor, SuperVar, _check_covers, _groups,
                       canonical_form)
from liftfg.benchgen import GenParams, generate_instance
from conftest import (ANCHOR, PAIR, THREE_RV_TEXT, assert_lifted_matches_bp, chain_graph,
                      group_of, random_graph, random_model, swap_generated_table)


def blocks(groups):
    return {frozenset(grp) for grp in groups}


def _partition_from(colours: ColourAssignment) -> Partition:
    """The partition a colouring induces, in canonical group order."""
    def groups(colour_map: dict[str, int]):
        by_colour: dict[int, list[str]] = {}
        for name, c in colour_map.items():
            by_colour.setdefault(c, []).append(name)
        return _groups(by_colour.values())

    return Partition(groups(colours.rv_colour), groups(colours.factor_colour))


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


# --- canonical forms --------------------------------------------------------

def test_canonical_form_is_shared_by_transposed_copies():
    rng = random.Random(3)
    for shape in ((2,), (2, 3), (3, 2, 2), (2, 2, 2, 2), (2, 3, 2, 3)):
        for _ in range(5):
            arr = swap_generated_table(rng, shape)
            form, order = canonical_form(PotentialTable.from_array(arr))
            assert form == PotentialTable.from_array(arr.transpose(order))
            for perm in permutations(range(len(shape))):
                copy = PotentialTable.from_array(arr.transpose(perm))
                assert canonical_form(copy)[0] == form


def test_transposed_copy_groups_with_its_table():
    # f2(D, C) is f1's table with its arguments swapped, so C plays A's role
    # and D plays B's
    g = parse_model("""
    randvar A x y
    randvar B x y
    randvar C x y
    randvar D x y
    factor f1 A B | 1 2 3 4
    factor f2 D C | 1 3 2 4
    """)
    part = run_cp(g)
    assert blocks(part.rv_groups) == {frozenset("AC"), frozenset("BD")}
    assert part.factor_groups == (("f1", "f2"),)
    assert_lifted_matches_bp(g, compress(g, part))


def permuted_arguments(g: FactorGraph, rng: random.Random) -> FactorGraph:
    """g with every factor's arguments shuffled and its table transposed to match."""
    factors = []
    for f in g.factors.values():
        perm = rng.sample(range(len(f.args)), len(f.args))
        factors.append(Factor(f.name, tuple(f.args[p] for p in perm),
                              PotentialTable.from_array(f.table.array().transpose(perm))))
    return FactorGraph(list(g.rvs.values()), factors)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_argument_permutation_keeps_partition(seed):
    # every table's automorphisms are generated by swaps; see the rotation
    # test below for a table whose are not
    rng = random.Random(seed)
    g = random_model(rng, hidden=0.0)
    assert run_cp(permuted_arguments(g, rng)) == run_cp(g)


def test_rotation_only_table_compresses_and_matches_bp():
    # t(a, b, c) = h(a, b) h(b, c) h(c, a) with asymmetric h over three
    # values: rotations fix it, swaps do not.  Copies that differ by a rotation share a form but
    # may take other canonical slots, so the partition can come out finer
    # than under a permutation of arguments; it must still compress.
    h = np.array([[1.0, 2.0, 0.5], [3.0, 5.0, 1.5], [0.7, 1.1, 2.5]])
    arr = np.einsum("ab,bc,ca->abc", h, h, h)
    table = PotentialTable.from_array(arr)
    assert argument_symmetry_classes(table) == [(0,), (1,), (2,)]
    assert PotentialTable.from_array(arr.transpose(1, 2, 0)) == table
    rng = random.Random(58)
    for _ in range(60):
        names = [f"X{i}" for i in range(rng.randint(3, 6))]
        factors = [Factor(f"f{j}", tuple(rng.sample(names, 3)),
                          PotentialTable.from_array(arr.transpose(rng.sample(range(3), 3))))
                   for j in range(rng.randint(1, 4))]
        factors += [Factor(f"u{name}", (name,), PotentialTable((3,), (1.0, 1.3, 0.6)))
                    for name in names if rng.random() < 0.5]
        used = {a for f in factors for a in f.args}
        g = FactorGraph([RandomVariable(name, ("x", "y", "z")) for name in names if name in used],
                        factors)
        assert_lifted_matches_bp(g, compress(g, run_cp(g)))


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


@pytest.mark.parametrize("change, problem", [
    (lambda rv: {k: c for k, c in rv.items() if k != "B"}, "rv 'B' has no colour"),
    (lambda rv: {**rv, "Z": 0}, "rv 'Z' is not in the graph"),
], ids=["omits_rv", "foreign_rv"])
def test_run_cp_rejects_initial_colouring_not_covering_graph(three_rv, change, problem):
    start = initial_colours(three_rv)
    initial = ColourAssignment(change(start.rv_colour), start.factor_colour)
    with pytest.raises(ValueError, match=f"initial colouring does not cover the graph: {problem}"):
        run_cp(three_rv, initial)

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


SYMMETRIC_PAIR = PotentialTable((2, 2), (2.0, 3.0, 3.0, 5.0))

# (n, anchored rvs, ring, pairwise table)
CHAIN_CASES = ([(n, (0,), False, None) for n in (2, 3, 8, 9, 30, 31, 59, 60)]
               + [(n, (0,), False, SYMMETRIC_PAIR) for n in (9, 60)]
               + [(n, (0, n - 1), False, None) for n in (9, 10, 41, 60)]
               + [(n, (), True, None) for n in (3, 12, 60)]
               + [(n, (), True, SYMMETRIC_PAIR) for n in (12,)])


def chain_case_id(case):
    n, anchors, ring, table = case
    shape = "ring" if ring else f"{len(anchors)}-anchor-chain"
    return f"{shape}-n{n}-{'symmetric' if table else 'asymmetric'}"


@pytest.mark.parametrize("n, anchors, ring, table", CHAIN_CASES,
                         ids=[chain_case_id(case) for case in CHAIN_CASES])
def test_run_cp_matches_oracle_on_chains(n, anchors, ring, table):
    g = chain_graph(n, anchors, ring, **({} if table is None else {"table": table}))
    part, rounds = counted_rounds(run_cp, g, None)
    expected, oracle_rounds = counted_rounds(oracle_run_cp, g, None)
    assert part == expected
    assert rounds == oracle_rounds


def test_run_cp_matches_oracle_on_benchmark_chain():
    # the benchmark's chain shape: n = 250, one shared table, a few hidden
    # factors given one colour through ``initial`` as run_lifg's phase 1 does
    g = chain_graph(250, hidden=(17, 90, 91, 200))
    start = initial_colours(g)
    colour = dict(start.factor_colour)
    for name in ("p90", "p91", "p200"):
        colour[name] = colour["p17"]
    initial = ColourAssignment(start.rv_colour, colour)
    part, rounds = counted_rounds(run_cp, g, initial)
    expected, oracle_rounds = counted_rounds(oracle_run_cp, g, initial)
    assert part == expected
    assert rounds == oracle_rounds


def test_run_cp_on_a_long_anchored_chain_is_fast():
    # rekeying every node every round took 6-7 s on a 2-vCPU Xeon
    g = chain_graph(2000)
    start = time.perf_counter()
    part = run_cp(g)
    assert time.perf_counter() - start < 1.0
    assert len(part.rv_groups) == 2000


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


# --- compress against the member-aligning reference ----------------------

def oracle_compress(g: FactorGraph, partition: Partition) -> LiftedModel:
    """Reference compress: aligns each member through its canonical form and
    checks repeated slots and adjacency counts with tables of its own."""
    _check_covers(g, partition)
    supervars: dict[str, SuperVar] = {}
    sv_of: dict[str, str] = {}      # ground rv -> supervar name
    for members in partition.rv_groups:
        rep = g.rvs[members[0]]
        for m in members[1:]:
            if g.rvs[m].range != rep.range or g.rvs[m].evidence != rep.evidence:
                raise ValueError(f"rv group {members} mixes ranges or evidence")
        supervars[rep.name] = SuperVar(rep.name, len(members), rep.range, rep.evidence, members)
        for m in members:
            sv_of[m] = rep.name

    superfactors = []
    classes_of: dict[PotentialTable, list[tuple[int, ...]]] = {}
    for members in partition.factor_groups:
        rep = g.factors[members[0]]
        if rep.is_unknown:
            raise ValueError(f"factor group {members} contains unknown factor {rep.name}")
        if rep.table not in classes_of:
            classes_of[rep.table] = argument_symmetry_classes(rep.table)
        classes = classes_of[rep.table]
        slots: list[str | None] = [None] * len(rep.args)
        for cls in classes:
            held = sorted(sv_of[rep.args[p]] for p in cls)
            for slot, sv in zip(cls, held):
                slots[slot] = sv
        # a supervar in several slots: count how often each ground rv fills
        # each symmetry class, which the adjacency totals below cannot see
        fills = None
        if len(set(slots)) < len(slots):
            class_of = [0] * len(slots)
            for ci, cls in enumerate(classes):
                for p in cls:
                    class_of[p] = ci
            fills = Counter(zip(rep.args, class_of))
        for m in members[1:]:
            f = g.factors[m]
            if f.is_unknown:
                raise ValueError(f"factor group {members} contains unknown factor {m}")
            # axes[p]: the member position that fills slot p
            if f.table == rep.table:
                axes = list(range(len(slots)))
            else:
                form, order = canonical_form(rep.table)
                m_form, m_order = canonical_form(f.table)
                if m_form != form:
                    raise ValueError(f"factor group {members} mixes tables of different forms")
                axes = [0] * len(slots)
                for p, q in zip(order, m_order):
                    axes[p] = q
            if [sv_of[f.args[q]] for q in axes] != slots:
                for cls in classes:
                    by_sv = sorted((axes[p] for p in cls), key=lambda q: sv_of[f.args[q]])
                    for p, q in zip(cls, by_sv):
                        axes[p] = q
                if [sv_of[f.args[q]] for q in axes] != slots:
                    raise ValueError(
                        f"factor group {members} is not stable: {m} does not span "
                        f"the supervariables {slots}")
            if fills is not None:
                fills.update(zip((f.args[q] for q in axes), class_of))
        if fills is not None:
            per_class: dict[tuple[int, int], list[int]] = {}
            for (rv, ci), c in fills.items():
                per_class.setdefault((sv_of[rv], ci), []).append(c)
            for (sv, ci), cs in per_class.items():
                if len(cs) != supervars[sv].size or min(cs) != max(cs):
                    raise ValueError(
                        f"factor group {members} is not stable: the members of "
                        f"{sv} fill the slots of symmetry class "
                        f"{classes[ci]} unequally")
        superfactors.append(SuperFactor(rep.name, len(members), rep.table,
                                        tuple(slots), members))

    factor_group_name = {m: sf.name for sf in superfactors for m in sf.members}
    counts_of: dict[str, dict[str, int]] = {name: {} for name in g.rvs}
    for fname, f in g.factors.items():
        gname = factor_group_name[fname]
        for arg in f.args:
            counts = counts_of[arg]
            counts[gname] = counts.get(gname, 0) + 1
    edge_counts: dict[tuple[str, str], int] = {}
    for sv in supervars.values():
        counts = counts_of[sv.members[0]]
        if any(counts_of[m] != counts for m in sv.members[1:]):
            raise ValueError(f"rv group {sv.members} is not stable: members have "
                             f"unequal adjacency counts")
        for gname, c in counts.items():
            edge_counts[(sv.name, gname)] = c

    return LiftedModel(tuple(supervars.values()), tuple(superfactors), edge_counts)


def repeating_graph(rng: random.Random) -> FactorGraph:
    """A ring or all-pairs model of one pairwise table, so a superfactor repeats a supervar.

    The table is asymmetric, swap-symmetric or random; each pairwise
    factor is stored transposed with its arguments swapped half the time.
    Some rvs get an anchor or evidence, and a ring may carry a chord.
    """
    n = rng.randint(2, 7)
    names = [f"X{i}" for i in range(n)]
    pair = rng.choice((PAIR, SYMMETRIC_PAIR,
                       PotentialTable.from_array(swap_generated_table(rng, (2, 2)))))
    if rng.random() < 0.5:
        edges = [(i, (i + 1) % n) for i in range(n if n > 2 else 1)]
        if n > 3 and rng.random() < 0.3:
            edges.append((0, n // 2))
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    factors = []
    for k, (i, j) in enumerate(edges):
        if rng.random() < 0.5:
            factors.append(Factor(f"p{k}", (names[i], names[j]), pair))
        else:
            factors.append(Factor(f"p{k}", (names[j], names[i]),
                                  PotentialTable.from_array(pair.array().T)))
    factors += [Factor(f"a{name}", (name,), ANCHOR) for name in names if rng.random() < 0.3]
    rvs = [RandomVariable(name, ("a", "b"), rng.randrange(2) if rng.random() < 0.15 else None)
           for name in names]
    return FactorGraph(rvs, factors)


def perturbed(part: Partition, rng: random.Random) -> Partition:
    """part with two groups of one kind merged, one split or two swapping members.

    Then the groups, and the members inside each group, are shuffled, so
    the groups are no longer in canonical order and a group's first member
    is any of them.
    """
    rv_groups = [list(grp) for grp in part.rv_groups]
    factor_groups = [list(grp) for grp in part.factor_groups]
    groups = rng.choice((rv_groups, factor_groups))
    change = rng.choice(("none", "merge", "split", "swap"))
    large = [grp for grp in groups if len(grp) > 1]
    if change == "merge" and len(groups) > 1:
        i, j = sorted(rng.sample(range(len(groups)), 2))
        groups[i] += groups.pop(j)
    elif change == "split" and large:
        grp = rng.choice(large)
        cut = rng.randint(1, len(grp) - 1)
        groups.append(grp[cut:])
        del grp[cut:]
    elif change == "swap" and large and len(groups) > 1:
        grp = rng.choice(large)
        other = rng.choice([o for o in groups if o is not grp])
        i = rng.randrange(len(grp))
        grp[i], other[0] = other[0], grp[i]
    for grp in rv_groups + factor_groups:
        rng.shuffle(grp)
    rng.shuffle(rv_groups)
    rng.shuffle(factor_groups)
    return Partition(tuple(map(tuple, rv_groups)), tuple(map(tuple, factor_groups)))


def compress_outcome(run, g, part):
    """run(g, part) with its serialisation, or None when it rejects the partition."""
    try:
        m = run(g, part)
    except ValueError:
        return None
    return m, serialize_lifted(m)


@st.composite
def compress_cases(draw):
    """A known graph and four partitions: run_cp's and three perturbed copies.

    Graphs come from random_model (evidence, shared, transposed and
    swap-symmetric tables) or repeating_graph (rings and all-pairs).
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = random_model(rng, hidden=0.0) if rng.random() < 0.5 else repeating_graph(rng)
    part = run_cp(g)
    return g, [part] + [perturbed(part, rng) for _ in range(3)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(compress_cases())
def test_compress_matches_member_aligning_oracle(case):
    g, partitions = case
    for part in partitions:
        assert compress_outcome(compress, g, part) == compress_outcome(oracle_compress, g, part)


def test_run_lifg_lays_out_a_graph_once():
    g = parse_model(serialize_model(generate_instance(GenParams(d=4, seed=3))[0]))
    equal = parse_model(serialize_model(g))
    with mock.patch.object(cp, "_roles_of", wraps=cp._roles_of) as spy:
        result = run_lifg(g, theta=0.0)
        assert spy.call_count == 1
        assert compress(equal, result.partition) == result.lifted
        assert spy.call_count == 2
    ref = weakref.ref(equal)
    del equal, spy     # the spy's call list holds the graph too
    gc.collect()
    assert ref() is None
