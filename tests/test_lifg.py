from collections import Counter
import random
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from liftfg import (Factor, FactorGraph, PotentialTable, RandomVariable, all_signatures,
                    compress, parse_model, run_cp, run_lifg, select_candidates,
                    transfer_potentials)
from liftfg import cp, lifg
from liftfg.benchgen import GenParams, generate_instance, remove_potentials
from liftfg.lifg import CandidateSet, LiftReport, LiftResult
from conftest import THREE_RV_TEXT, group_of, random_graph

BOOL = ("true", "false")


def unary(v0, v1):
    return PotentialTable((2,), (v0, v1))


def star_of_unaries(known_tables, n_unknown=1):
    """Disjoint degree-1 rvs, each under one unary factor: all factors share
    one neighbourhood signature, so candidate sets mix freely."""
    rvs, factors = [], []
    for i, t in enumerate(known_tables):
        rvs.append(RandomVariable(f"X{i}", BOOL))
        factors.append(Factor(f"f{i}", (f"X{i}",), t))
    for j in range(n_unknown):
        rvs.append(RandomVariable(f"Y{j}", BOOL))
        factors.append(Factor(f"u{j}", (f"Y{j}",), None))
    return FactorGraph(rvs, factors)


# --- the paper's definitions, written out as test oracles ------------------

def two_step_neighbourhood(g: FactorGraph, factor_name: str) -> frozenset[str]:
    """All rvs adjacent to the factor plus all factors adjacent to those rvs.

    The factor itself is always included.  Names are unambiguous because the
    validator rejects rv/factor name collisions.
    """
    if factor_name not in g.factors:
        raise KeyError(f"no factor named {factor_name!r}")
    f = g.factors[factor_name]
    nodes = set(f.args)
    for rv in f.args:
        for other_name, other in g.factors.items():
            if rv in other.args:
                nodes.add(other_name)
    return frozenset(nodes)


def symmetric_neighbourhoods(g: FactorGraph, f_i: str, f_j: str) -> bool:
    """True iff the two factors' 2-step neighbourhoods are symmetric.

    Equality of the sorted triple multisets is equivalent to the existence
    of a neighbour bijection preserving evidence, range and degree.
    """
    signatures = all_signatures(g)
    return signatures[f_i] == signatures[f_j]


def possibly_identical(g: FactorGraph, f_i: str, f_j: str) -> bool:
    if f_i == f_j:
        raise ValueError("possibly_identical is defined for distinct factors")
    if not symmetric_neighbourhoods(g, f_i, f_j):
        return False
    a, b = g.factors[f_i], g.factors[f_j]
    return a.is_unknown or b.is_unknown or a.table == b.table


# --- 2-step neighbourhoods -----------------------------------------------

def test_two_step_three_rv(three_rv):
    assert two_step_neighbourhood(three_rv, "phi1") == frozenset({"A", "B", "phi1", "phi2"})
    assert two_step_neighbourhood(three_rv, "phi2") == frozenset({"B", "C", "phi1", "phi2"})


def test_two_step_minimal():
    g = parse_model("randvar A x y\nfactor f A | 1 2\n")
    assert two_step_neighbourhood(g, "f") == frozenset({"A", "f"})


def test_two_step_epidemic_centre(epidemic):
    nbhd = two_step_neighbourhood(epidemic, "f0")
    assert nbhd == frozenset({"Epid", "f0", "f1_alice", "f1_bob",
                              "f2_alice_m1", "f2_alice_m2", "f2_bob_m1", "f2_bob_m2"})


def test_two_step_missing_factor(three_rv):
    with pytest.raises(KeyError):
        two_step_neighbourhood(three_rv, "nope")


# --- signatures and symmetry ------------------------------------------------

def test_signature_three_rv(three_rv):
    sigs = all_signatures(three_rv)
    sig = sigs["phi1"]
    assert sig.factor_degree == 2
    assert sig.rv_signatures == ((-1, ("true", "false"), 1),
                                 (-1, ("true", "false"), 2))
    assert sig == sigs["phi2"]


def test_symmetric_three_rv(three_rv):
    assert symmetric_neighbourhoods(three_rv, "phi1", "phi2")


def test_evidence_breaks_symmetry():
    g = parse_model(THREE_RV_TEXT + "evidence A true\n")
    assert not symmetric_neighbourhoods(g, "phi1", "phi2")


def test_arity_mismatch_breaks_symmetry(epidemic):
    assert not symmetric_neighbourhoods(epidemic, "f0", "f1_alice")


def test_epidemic_template_factors_are_symmetric(epidemic):
    # both templates touch one degree-1 rv, one degree-3 rv and the centre;
    # the triple multisets coincide, so symmetry holds despite the
    # different tables.  Hand-computed expectation:
    deg = Counter(a for f in epidemic.factors.values() for a in f.args)
    assert deg["Travel_alice"] == deg["Treat_alice_m1"] == 1
    assert deg["Sick_alice"] == 3 and deg["Epid"] == 7
    assert symmetric_neighbourhoods(epidemic, "f1_alice", "f2_alice_m1")
    assert symmetric_neighbourhoods(epidemic, "f1_alice", "f1_bob")


def test_possibly_identical_cases(three_rv):
    assert possibly_identical(three_rv, "phi1", "phi2")   # equal tables

    different = parse_model(THREE_RV_TEXT.replace("factor phi2 C B | 2 3 3 5",
                                                  "factor phi2 C B | 9 3 3 5"))
    assert not possibly_identical(different, "phi1", "phi2")

    one_unknown = parse_model(THREE_RV_TEXT.replace("factor phi2 C B | 2 3 3 5",
                                                    "factor phi2 C B | unknown"))
    assert possibly_identical(one_unknown, "phi1", "phi2")

    with pytest.raises(ValueError):
        possibly_identical(three_rv, "phi1", "phi1")


# --- candidate selection ------------------------------------------------------

def test_select_mode_of_tables():
    t1, t2 = unary(1, 2), unary(3, 4)
    fa, fb, fc = Factor("fa", ("X",), t1), Factor("fb", ("Y",), t1), Factor("fc", ("Z",), t2)
    members, table, ratio = select_candidates([fc, fb, fa])
    assert members == ("fa", "fb")
    assert table == t1
    assert ratio == pytest.approx(2 / 3)


def test_select_empty_candidates():
    assert select_candidates([]) is None


def test_select_singleton():
    f = Factor("fa", ("X",), unary(1, 2))
    members, table, ratio = select_candidates([f])
    assert members == ("fa",) and ratio == 1.0


def test_select_below_threshold():
    # the threshold is run_lifg's alone: a low agreeing fraction is still
    # reported (test_lifg_threshold_blocks_transfer checks the cut-off)
    fa, fb, fc = (Factor(name, (rv,), unary(1, v))
                  for name, rv, v in (("fa", "X", 2), ("fb", "Y", 3), ("fc", "Z", 4)))
    members, table, ratio = select_candidates([fc, fb, fa])
    assert members == ("fa",) and table == unary(1, 2)
    assert ratio == pytest.approx(1 / 3)


def test_select_tie_breaks_lexicographically():
    fa, fb = Factor("fa", ("X",), unary(1, 2)), Factor("fb", ("Y",), unary(3, 4))
    members, table, ratio = select_candidates([fb, fa])
    assert members == ("fa",)
    assert ratio == 0.5
    # interleaved classes of two: the one holding the smallest name wins
    fc, fd = Factor("fc", ("Z",), unary(3, 4)), Factor("fd", ("W",), unary(1, 2))
    members, table, ratio = select_candidates([fd, fc, fb, fa])
    assert members == ("fa", "fd") and table == unary(1, 2)


# --- potential transfer ---------------------------------------------------------

def degree_asymmetric_pair():
    """Two binary factors whose argument orders are degree-reversed.

    X/Q have degree 2 (an extra unary factor each); Y/P have degree 1.
    The unknown lists (deg2, deg1) while the source lists (deg1, deg2),
    so the transferred table must be transposed.
    """
    rvs = [RandomVariable(n, BOOL) for n in "XYPQ"]
    extra = unary(1, 1.5)
    factors = [
        Factor("src", ("P", "Q"), PotentialTable((2, 2), (1, 2, 3, 4))),
        Factor("unk", ("X", "Y"), None),
        Factor("ux", ("X",), extra),
        Factor("uq", ("Q",), extra),
    ]
    return FactorGraph(rvs, factors)


def test_transfer_permutes_by_degree_blocks():
    g = degree_asymmetric_pair()
    table = transfer_potentials(g.factors["unk"], g.factors["src"], g)
    assert table.values == (1.0, 3.0, 2.0, 4.0)


def test_transfer_identity_alignment(three_rv):
    g = parse_model(THREE_RV_TEXT.replace("factor phi2 C B | 2 3 3 5",
                                          "factor phi2 C B | unknown"))
    table = transfer_potentials(g.factors["phi2"], g.factors["phi1"], g)
    # C matches A (degree 1) and B matches itself (degree 2): positions align
    assert table.values == (2.0, 3.0, 3.0, 5.0)


def test_transfer_requires_bijection(three_rv):
    g = parse_model(THREE_RV_TEXT + "randvar D x y\nfactor u D | unknown\n")
    with pytest.raises(ValueError, match="bijection"):
        transfer_potentials(g.factors["u"], g.factors["phi1"], g)


# --- the full pass ----------------------------------------------------------------

def test_lifg_completes_pair(three_rv):
    g = parse_model(THREE_RV_TEXT.replace("factor phi2 C B | 2 3 3 5",
                                          "factor phi2 C B | unknown"))
    res = run_lifg(g, theta=0.0)
    assert res.report.complete
    assert res.completed.factors["phi2"].table.values == (2.0, 3.0, 3.0, 5.0)
    assert res.partition == run_cp(three_rv)
    assert res.lifted is not None
    record, = res.report.records
    assert record.candidates == ("phi1",)
    assert record.selected == ("phi1",) and record.ratio == 1.0 and record.transferred
    assert "unknown phi2 candidates 1 selected 1 ratio 1.0 transferred phi1" in res.report.to_text()


def test_lifg_equals_cp_without_unknowns(three_rv, epidemic):
    rng = random.Random(99)
    graphs = [three_rv, epidemic] + [random_graph(rng, shared_tables=True) for _ in range(20)]
    for g in graphs:
        res = run_lifg(g, theta=0.3)
        assert res.partition == run_cp(g)
        assert res.completed == g


def test_lifg_mode_with_threshold_met():
    t1, t2 = unary(1, 2), unary(3, 4)
    g = star_of_unaries([t1, t1, t2])
    res = run_lifg(g, theta=0.5)
    assert res.report.complete
    record, = res.report.records
    assert record.ratio == pytest.approx(2 / 3)
    assert record.selected == ("f0", "f1")
    assert res.completed.factors["u0"].table == t1


def test_lifg_threshold_blocks_transfer():
    t1, t2 = unary(1, 2), unary(3, 4)
    g = star_of_unaries([t1, t1, t2])
    res = run_lifg(g, theta=0.8)
    assert not res.report.complete
    assert res.lifted is None
    assert res.completed.factors["u0"].is_unknown
    record, = res.report.records
    assert record.ratio == pytest.approx(2 / 3) and not record.transferred
    assert "transferred none" in res.report.to_text()


def test_lifg_empty_candidates_incomplete():
    g = parse_model("""
    randvar A x y
    randvar B x y
    randvar C x y
    factor pair A B | unknown
    factor s1 C | 1 2
    factor s2 A | 5 6
    factor s3 B | 5 6
    """)
    res = run_lifg(g, theta=0.0)
    assert not res.report.complete
    record = next(r for r in res.report.records if r.unknown_factor == "pair")
    assert record.candidates == () and record.ratio is None
    assert "ratio nan transferred none" in res.report.to_text()


def test_lifg_groups_unknowns_together():
    t = unary(1, 2)
    g = star_of_unaries([t, t], n_unknown=2)
    res = run_lifg(g, theta=0.0)
    assert res.report.complete
    assert res.completed.factors["u0"].table == t
    assert res.completed.factors["u1"].table == t
    group = group_of(res.partition.factor_groups)
    assert group["u0"] == group["u1"] == group["f0"] == group["f1"]


def test_lifg_never_groups_different_known_tables():
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph(rng, shared_tables=True)
        removable = [n for n, f in sorted(g.factors.items())
                     if not f.is_unknown and rng.random() < 0.3]
        replacements = {n: Factor(n, g.factors[n].args, None) for n in removable}
        g2 = g.replace_factors(replacements)
        res = run_lifg(g2, theta=0.0)
        for grp in res.partition.factor_groups:
            tables = {res.completed.factors[n].table.values
                      for n in grp if not res.completed.factors[n].is_unknown}
            assert len(tables) <= 1


def test_lifg_deterministic():
    t1, t2 = unary(1, 2), unary(3, 4)
    g = star_of_unaries([t1, t1, t2], n_unknown=2)
    a, b = run_lifg(g, theta=0.5), run_lifg(g, theta=0.5)
    assert a.report == b.report
    assert a.partition == b.partition


def test_lifg_theta_validation(three_rv):
    with pytest.raises(ValueError):
        run_lifg(three_rv, theta=1.5)


def test_lifg_completion_on_generated_instances():
    # removal guarantees a known structurally-identical peer, so a zero
    # threshold must always eliminate every unknown factor
    for seed in range(8):
        params = GenParams(d=4, seed=seed)
        g, _ = generate_instance(params)
        removed = remove_potentials(g, params)
        res = run_lifg(removed.graph, theta=0.0)
        assert res.report.complete
        assert not res.completed.has_unknown
        assert res.completed == g   # transfers recover the exact tables


CROSSED_ROLES = """\
randvar X0 a b
randvar X2 a b
randvar X4 a b
factor f0 X2 X4 X0 | 1 2 3 4 5 6 7 8
factor f2 X2 X0 X4 | {content}
factor f3 X4 X0 | 1.0 1.36 0.2 1.68
factor u0 X0 | 1.0 1.3
factor u2 X2 | 1.0 1.3
factor u4 X4 | 1.0 1.3
"""


def test_crossed_argument_roles_complete_but_uncompressible():
    # X0 and X4 swap roles between f0 and f2 (distinguishable only through
    # f3), yet factors compare neighbour colours as multisets, so the two
    # land in one stable group.  No counting-BP superfactor exists for it:
    # the lifted model is withheld while the completed graph is returned.
    g = parse_model(CROSSED_ROLES.format(content="unknown"))
    res = run_lifg(g, theta=0.0)
    assert res.report.complete
    assert not res.completed.has_unknown
    assert res.lifted is None
    group = group_of(res.partition.factor_groups)
    assert group["f0"] == group["f2"]
    assert res.partition == run_cp(res.completed)

    # the fully-known twin behaves identically under plain colour passing
    known = parse_model(CROSSED_ROLES.format(content="1 2 3 4 5 6 7 8"))
    with pytest.raises(ValueError, match="no argument alignment"):
        compress(known, run_cp(known))


# --- one selection per phase-1 class -----------------------------------------

def oracle_run_lifg(g: FactorGraph, theta: float) -> LiftResult:
    """Reference pass: phase 2 runs once per unknown factor, not per class.

    Every unknown of a class rebuilds and re-selects the class's candidate
    set; equal signatures give equal candidate sets, so the selections of
    one class must agree.
    """
    init = cp.initial_colours(g)
    colours = dict(init.factor_colour)
    signatures = lifg.all_signatures(g)
    by_signature = {}
    for name in sorted(g.factors):
        by_signature.setdefault(signatures[name], []).append(name)
    unknown_names = sorted(name for name, f in g.factors.items() if f.is_unknown)

    candidates_of = {}
    for name in unknown_names:
        peers = by_signature[signatures[name]]
        unknown_peers = [p for p in peers if g.factors[p].is_unknown]
        for p in unknown_peers:
            colours[p] = colours[unknown_peers[0]]
        candidates_of[name] = [p for p in peers if not g.factors[p].is_unknown]

    records, replacements, selected_by_colour = [], {}, {}
    for name in unknown_names:
        cand = candidates_of[name]
        selection = lifg.select_candidates([g.factors[c] for c in cand])
        if selection is None:
            records.append(CandidateSet(name, tuple(cand), None, None, None))
            continue
        members, table, ratio = selection
        if ratio < theta:
            records.append(CandidateSet(name, tuple(cand), members, table, ratio))
            continue
        colour = colours[name]
        assert selected_by_colour.setdefault(colour, members) == members
        for m in members:
            colours[m] = colour
        transferred = lifg.transfer_potentials(g.factors[name], g.factors[members[0]], g)
        replacements[name] = Factor(name, g.factors[name].args, transferred)
        records.append(CandidateSet(name, tuple(cand), members, table, ratio, True))

    completed = g.replace_factors(replacements) if replacements else g
    complete = not completed.has_unknown
    partition = cp.run_cp(completed, initial=cp.ColourAssignment(init.rv_colour, colours))
    lifted = None
    if complete:
        try:
            lifted = cp.compress(completed, partition)
        except ValueError:
            lifted = None
    return LiftResult(completed, lifted, LiftReport(tuple(records), complete), partition)


@st.composite
def lifting_graphs(draw):
    """A random graph with unknown factors whose signature classes mix tables.

    Unary factors on degree-one rvs form large signature classes that hold
    several unknowns; factors of rarer shapes often form classes with no
    known peer.  Each shape draws from a pool of two tables, copies may be
    transposed, some tables are invariant under swapping their first two
    arguments, and some rvs are observed.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = rng.randint(2, 12)
    mixed = rng.random() < 0.3
    ranges = [rng.choice((2, 3)) if mixed else 2 for _ in range(n)]
    names = [f"X{i}" for i in range(n)]
    pool: dict[tuple, list[PotentialTable]] = {}

    def table(shape):
        tables = pool.setdefault(shape, [])
        if tables and (len(tables) == 2 or rng.random() < 0.6):
            return rng.choice(tables)
        arr = np.array([rng.choice((0.5, 1.0, 2.0, rng.uniform(0.2, 3.0)))
                        for _ in range(int(np.prod(shape)))]).reshape(shape)
        if len(shape) > 1 and shape[0] == shape[1]:
            if rng.random() < 0.3:
                arr = arr + arr.swapaxes(0, 1)
            elif rng.random() < 0.3:
                tables.append(PotentialTable.from_array(arr.swapaxes(0, 1)))
        tables.append(PotentialTable.from_array(arr))
        return tables[-1]

    hidden = rng.choice((0.2, 0.5))
    factors = []
    for j in range(rng.randint(0, n)):
        args = tuple(rng.sample(names, rng.randint(2, min(3, n))))
        shape = tuple(ranges[names.index(a)] for a in args)
        factors.append(Factor(f"f{j}", args, None if rng.random() < hidden else table(shape)))
    for name, size in zip(names, ranges):
        if rng.random() < 0.8:
            factors.append(Factor(f"u{name}", (name,),
                                  None if rng.random() < hidden else table((size,))))
    evidence = rng.choice((0.0, 0.2))
    rvs = [RandomVariable(name, ("a", "b", "c")[:size],
                          rng.randrange(size) if rng.random() < evidence else None)
           for name, size in zip(names, ranges)]
    used = {a for f in factors for a in f.args}
    return FactorGraph([rv for rv in rvs if rv.name in used], factors)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lifting_graphs())
def test_run_lifg_matches_per_unknown_oracle(g):
    signatures = all_signatures(g)
    classes = {signatures[name] for name, f in g.factors.items() if f.is_unknown}
    for theta in (0.0, 0.5, 0.75, 1.0):
        with mock.patch.object(lifg, "select_candidates", wraps=lifg.select_candidates) as spy:
            res = run_lifg(g, theta)
        assert spy.call_count == len(classes)
        expected = oracle_run_lifg(g, theta)
        assert res.completed == expected.completed
        assert res.lifted == expected.lifted
        assert res.partition == expected.partition
        assert res.report == expected.report
        assert res.report.to_text() == expected.report.to_text()
