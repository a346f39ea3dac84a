import itertools
import math
import random

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from liftfg import (Factor, FactorGraph, Marginal, PotentialTable, RandomVariable,
                    compress, counting_bp, joint_enumeration, kl_divergence,
                    loopy_bp, parse_model, run_cp, singleton_partition,
                    variable_elimination)
from liftfg.inference import _BPStructure, _run_bp, _sliced_superfactors
from conftest import OVERFLOWING_TEXT, THREE_RV_TEXT, random_graph


def max_delta(p, q):
    return max(abs(a - b) for a, b in zip(p.probs, q.probs))


# --- enumeration oracle -----------------------------------------------------

def test_enumeration_single_unary():
    g = parse_model("randvar A x y\nfactor f A | 3 1\n")
    assert joint_enumeration(g, "A").probs == (0.75, 0.25)


def test_enumeration_three_rv_matches_literal_sum(three_rv):
    # independent oracle: the eight-term sum written out directly
    t = [[2.0, 3.0], [3.0, 5.0]]
    weights = [0.0, 0.0]
    for a, b, c in itertools.product((0, 1), repeat=3):
        weights[b] += t[a][b] * t[c][b]
    expected = [w / sum(weights) for w in weights]
    got = joint_enumeration(three_rv, "B")
    assert got.probs == pytest.approx(expected, abs=1e-15)
    assert expected[0] == pytest.approx(25 / 89)


def test_enumeration_fully_observed_graph_gives_indicator():
    g = parse_model(THREE_RV_TEXT + "evidence A true\nevidence B false\nevidence C true\n")
    assert joint_enumeration(g, "B").probs == (0.0, 1.0)


def test_enumeration_rejects_unknown():
    g = parse_model("randvar A x y\nfactor f A | unknown\n")
    with pytest.raises(ValueError, match="unknown"):
        joint_enumeration(g, "A")


def test_enumeration_state_cap():
    with pytest.raises(ValueError, match="exceeds cap"):
        joint_enumeration(parse_model(THREE_RV_TEXT), "B", state_cap=4)


def test_enumeration_missing_query(three_rv):
    with pytest.raises(KeyError):
        joint_enumeration(three_rv, "Q")


# --- variable elimination -------------------------------------------------------

def test_ve_matches_enumeration_on_chain():
    g = parse_model("""
    randvar A x y
    randvar B x y
    randvar C x y
    factor f1 A B | 1 2 3 4
    factor f2 B C | 5 1 2 2
    """)
    for q in "ABC":
        assert max_delta(variable_elimination(g, q), joint_enumeration(g, q)) < 1e-14


def test_ve_matches_enumeration_randomised():
    rng = random.Random(123)
    for _ in range(60):
        g = random_graph(rng, with_evidence=True)
        q = rng.choice(sorted(g.rvs))
        assert max_delta(variable_elimination(g, q), joint_enumeration(g, q)) < 1e-12


def test_ve_query_with_evidence_is_indicator():
    g = parse_model(THREE_RV_TEXT + "evidence B false\n")
    assert variable_elimination(g, "B").probs == (0.0, 1.0)


def test_ve_ignores_disconnected_component():
    g = parse_model("""
    randvar A x y
    randvar B x y
    randvar C x y
    factor f1 A B | 1 2 3 4
    factor f2 C | 9 1
    """)
    assert max_delta(variable_elimination(g, "A"), joint_enumeration(g, "A")) < 1e-14


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("engine", [variable_elimination, joint_enumeration])
def test_exact_engines_reject_overflowing_mass(engine):
    # every product overflows to inf, so the total mass is inf and a
    # division would give nan nan; ground BP normalises per message
    g = parse_model(OVERFLOWING_TEXT)
    with pytest.raises(ValueError, match="cannot normalise marginal of A: total mass inf"):
        engine(g, "A")
    assert loopy_bp(g, 10)["A"].probs == pytest.approx((1.0, 1e-308), rel=1e-12)


def test_ve_hub_with_thousands_of_observed_leaves():
    # 2000 observed leaves share one pairwise table with the hub H; the
    # unscaled products over- and underflow, the closed form is log-space
    n, table = 2000, ((3.0, 1.0), (1.0, 2.5))
    lines = ["randvar H a b", "randvar Q a b", "factor fq H Q | 1 2 3 4"]
    evidence = [i % 3 != 0 for i in range(n)]          # leaf label index 0 or 1
    for i, e in enumerate(evidence):
        lines += [f"randvar L{i} a b",
                  f"factor f{i} H L{i} | {' '.join(repr(v) for r in table for v in r)}",
                  f"evidence L{i} {'b' if e else 'a'}"]
    g = parse_model("\n".join(lines))
    log_h = np.array([sum(math.log(table[h][int(e)]) for e in evidence) for h in (0, 1)])
    fq = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def normalised(log_w):
        return np.exp(log_w - np.logaddexp.reduce(log_w))

    expected_h = normalised(log_h + np.logaddexp.reduce(fq, axis=1))
    expected_q = normalised(np.logaddexp.reduce(log_h[:, None] + fq, axis=0))
    assert variable_elimination(g, "H").probs == pytest.approx(expected_h, abs=1e-10)
    assert variable_elimination(g, "Q").probs == pytest.approx(expected_q, abs=1e-10)


def test_evidence_consistency_condition_vs_slice():
    # conditioning through the evidence field must equal querying a graph
    # whose tables were sliced by hand
    g = parse_model(THREE_RV_TEXT + "evidence A true\n")
    sliced = parse_model("""
    randvar B x y
    randvar C x y
    factor phi1 B | 2 3
    factor phi2 C B | 2 3 3 5
    """)
    for engine in (variable_elimination, joint_enumeration):
        assert max_delta(engine(g, "B"), engine(sliced, "B")) < 1e-14
    bp_g = loopy_bp(g, 8)
    bp_s = loopy_bp(sliced, 8)
    assert max_delta(bp_g["B"], bp_s["B"]) < 1e-12


# --- belief propagation ------------------------------------------------------------

def test_bp_exact_on_tree(three_rv):
    beliefs = loopy_bp(three_rv, iters=4)
    for q in "ABC":
        assert max_delta(beliefs[q], variable_elimination(three_rv, q)) <= 1e-9


def test_bp_zero_iterations_uniform_without_unary_factors():
    g = parse_model("""
    randvar A x y
    randvar B x y
    factor f A B | 1 2 3 4
    """)
    beliefs = loopy_bp(g, iters=0)
    assert beliefs["A"].probs == (0.5, 0.5)
    assert beliefs["B"].probs == (0.5, 0.5)


def test_bp_single_unary_one_iteration():
    g = parse_model("randvar A x y\nfactor f A | 3 1\n")
    assert loopy_bp(g, iters=1)["A"].probs == pytest.approx((0.75, 0.25), abs=1e-15)


def test_bp_evidence_gives_indicator():
    g = parse_model(THREE_RV_TEXT + "evidence C false\n")
    beliefs = loopy_bp(g, iters=4)
    assert beliefs["C"].probs == (0.0, 1.0)
    assert max_delta(beliefs["B"], variable_elimination(g, "B")) <= 1e-9


def test_bp_rejects_unknown():
    g = parse_model("randvar A x y\nfactor f A | unknown\n")
    with pytest.raises(ValueError, match="unknown"):
        loopy_bp(g, 5)


# --- counting BP ----------------------------------------------------------------------

def test_cbp_equals_bp_bitwise_with_unit_counts():
    rng = random.Random(77)
    for _ in range(10):
        g = random_graph(rng, with_evidence=True, shared_tables=True)
        trivial = compress(g, singleton_partition(g))
        assert all(c == 1 for c in trivial.edge_counts.values())
        ground = loopy_bp(g, iters=7)
        lifted = counting_bp(trivial, iters=7)
        for rv in g.rvs:
            assert ground[rv].probs == lifted[rv].probs   # bit-identical


@st.composite
def swap_symmetric_graphs(draw):
    """Random graphs whose tables are invariant under swapping 2 or 3 arguments.

    Each symmetric block is declared in descending name order, so compress
    reorders its slots on the trivial lifting; an extra argument, ranges 2
    and 3, a unary factor per variable and evidence ride along.
    """
    ranges = draw(st.lists(st.sampled_from((2, 3)), min_size=3, max_size=7))
    names = [f"X{i}" for i in range(len(ranges))]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    labels = {2: ("a", "b"), 3: ("a", "b", "c")}
    factors = []
    for j in range(draw(st.integers(1, 4))):
        r = draw(st.sampled_from(sorted(set(ranges))))
        same = [n for n, size in zip(names, ranges) if size == r]
        if len(same) < 2:
            continue
        k = draw(st.integers(2, min(3, len(same))))
        block = sorted(draw(st.permutations(same))[:k], reverse=True)
        rest = [n for n in names if n not in block]
        extra = draw(st.lists(st.sampled_from(rest), max_size=1)) if rest else []
        pos = draw(st.integers(0, len(block)))
        args = tuple(block[:pos] + extra + block[pos:])
        shape = tuple(ranges[names.index(a)] for a in args)
        sym = [i for i, a in enumerate(args) if a in block]
        values: dict[tuple, float] = {}
        arr = np.empty(shape)
        for idx in itertools.product(*(range(s) for s in shape)):
            key = (tuple(sorted(idx[i] for i in sym)),
                   tuple(v for i, v in enumerate(idx) if i not in sym))
            arr[idx] = values.setdefault(key, rng.uniform(0.2, 3.0))
        factors.append(Factor(f"f{j}", args, PotentialTable.from_array(arr)))
    for n, size in zip(names, ranges):
        factors.append(Factor(f"u{n}", (n,), PotentialTable((size,), [rng.uniform(0.5, 2.0)
                                                                     for _ in range(size)])))
    evidence = draw(st.lists(st.sampled_from((None, None, None, 0, 1)),
                             min_size=len(names), max_size=len(names)))
    rvs = [RandomVariable(n, labels[size], ev) for n, size, ev in zip(names, ranges, evidence)]
    return FactorGraph(rvs, factors)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(g=swap_symmetric_graphs(), iters=st.sampled_from((1, 7, 20)))
def test_bp_matches_trivial_lifting_on_swap_symmetric_tables(g, iters):
    # compress orders the slots of a symmetry class by name, loopy_bp keeps
    # argument order, so the two take products in another order: equal up
    # to rounding, not bit for bit
    trivial = compress(g, singleton_partition(g))
    reordered = [sf for sf in trivial.superfactors if sf.args != g.factors[sf.name].args]
    assert reordered or not any(len(f.args) > 1 for f in g.factors.values())
    ground = loopy_bp(g, iters)
    lifted = counting_bp(trivial, iters)
    assert list(ground) == list(lifted)
    for rv in g.rvs:
        assert max_delta(ground[rv], lifted[rv]) <= 1e-12


def test_cbp_matches_bp_on_compressed_three_rv(three_rv):
    m = compress(three_rv, run_cp(three_rv))
    cbp = counting_bp(m, iters=4)
    bp = loopy_bp(three_rv, iters=4)
    sv = m.supervar_of()
    for rv in three_rv.rvs:
        assert max_delta(bp[rv], cbp[sv[rv]]) <= 1e-9


def test_cbp_matches_bp_on_epidemic(epidemic):
    # the graph is loopy, so this checks schedule equivalence, not exactness
    m = compress(epidemic, run_cp(epidemic))
    cbp = counting_bp(m, iters=25)
    bp = loopy_bp(epidemic, iters=25)
    sv = m.supervar_of()
    for rv in epidemic.rvs:
        assert max_delta(bp[rv], cbp[sv[rv]]) <= 1e-9


def test_cbp_with_evidence(epidemic):
    g = FactorGraph(
        [RandomVariable(rv.name, rv.range, 0 if rv.name == "Epid" else None)
         for rv in epidemic.rvs.values()],
        list(epidemic.factors.values()))
    m = compress(g, run_cp(g))
    cbp = counting_bp(m, iters=15)
    bp = loopy_bp(g, iters=15)
    sv = m.supervar_of()
    assert cbp["Epid"].probs == (1.0, 0.0)
    for rv in g.rvs:
        assert max_delta(bp[rv], cbp[sv[rv]]) <= 1e-9


def assert_cbp_matches_bp(g, iters):
    """Counting BP on the colour-passing lifting equals ground BP at 1e-9."""
    m = compress(g, run_cp(g))
    cbp = counting_bp(m, iters)
    bp = loopy_bp(g, iters)
    sv = m.supervar_of()
    for rv in g.rvs:
        assert max_delta(bp[rv], cbp[sv[rv]]) <= 1e-9
    return m


def test_cbp_matches_bp_with_repeated_supervar_slots():
    # a two-cycle with a symmetric table folds both rvs into one group, so
    # the superfactor holds the same supervariable in both slots
    g = parse_model("""
    randvar A x y
    randvar B x y
    factor f1 A B | 2 3 3 5
    factor f2 B A | 2 3 3 5
    """)
    m = assert_cbp_matches_bp(g, 3)
    sf, = m.superfactors
    assert sf.args == ("A", "A")


def sliding_windows(n, values):
    """A ring of Boolean rvs X0..X{n-1}, one unary factor each, and one factor
    per i over X(i), X(i + 1), ... (mod n) as wide as the table."""
    width = int(math.log2(len(values)))
    table = PotentialTable((2,) * width, values)
    rvs = [RandomVariable(f"X{i}", ("x", "y")) for i in range(n)]
    factors = [Factor(f"f{i}", tuple(f"X{(i + o) % n}" for o in range(width)), table)
               for i in range(n)]
    factors += [Factor(f"u{i}", (f"X{i}",), PotentialTable((2,), (1.0, 1.5))) for i in range(n)]
    return FactorGraph(rvs, factors)


def torus(rows, cols):
    """One factor to the right of and one below every cell, all with one
    asymmetric table, so each rv fills either slot twice."""
    def rv(r, c):
        return f"X{r % rows}_{c % cols}"

    table = PotentialTable((2, 2), (1.0, 2.0, 0.5, 3.0))
    rvs = [RandomVariable(rv(r, c), ("x", "y")) for r in range(rows) for c in range(cols)]
    factors = [Factor(f"u{r}_{c}", (rv(r, c),), PotentialTable((2,), (1.0, 1.4)))
               for r in range(rows) for c in range(cols)]
    for r in range(rows):
        for c in range(cols):
            factors.append(Factor(f"h{r}_{c}", (rv(r, c), rv(r, c + 1)), table))
            factors.append(Factor(f"v{r}_{c}", (rv(r, c), rv(r + 1, c)), table))
    return FactorGraph(rvs, factors)


def all_pairs(n):
    """K_n with one symmetric pairwise table: each slot counts (n - 1) / 2."""
    table = PotentialTable((2, 2), (3.0, 1.0, 1.0, 2.0))
    rvs = [RandomVariable(f"X{i}", ("x", "y")) for i in range(n)]
    factors = [Factor(f"f{i}{j}", (f"X{i}", f"X{j}"), table)
               for i, j in itertools.combinations(range(n), 2)]
    factors += [Factor(f"u{i}", (f"X{i}",), PotentialTable((2,), (1.0, 1.5))) for i in range(n)]
    return FactorGraph(rvs, factors)


@pytest.mark.parametrize("g", [
    sliding_windows(8, (1, 2, 2, 1)),
    sliding_windows(8, (1, 2, 3, 4)),
    sliding_windows(7, (1.0, 2.0, 0.5, 3.0, 1.5, 0.7, 2.5, 1.2)),
    torus(4, 5),
    all_pairs(4),
], ids=["ring_symmetric", "ring_asymmetric", "ring_ternary", "torus_4x5", "all_pairs_k4"])
def test_cbp_matches_bp_on_one_supervar_models(g):
    m = assert_cbp_matches_bp(g, 30)
    sv, = m.supervars
    *_, counts = _sliced_superfactors(m)
    for sf, cc in zip(m.superfactors, counts):
        assert cc == [sf.size / sv.size] * len(sf.args)


@st.composite
def circulant_graphs(draw):
    """Small graphs built from circulant templates, then partly broken up.

    Each template places one table of arity 1-3, symmetric or not, at every
    rv index (or a drawn subset of them) with fixed index offsets, so many
    groups list one supervariable in several slots; evidence and dropped
    factors break some of the symmetry.
    """
    n = draw(st.integers(2, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    factors = []
    for t in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, min(3, n)))
        offsets = (0,) + tuple(draw(st.permutations(range(1, n)))[:k - 1])
        symmetric = draw(st.booleans())
        values = {}
        arr = np.empty((2,) * k)
        for idx in itertools.product((0, 1), repeat=k):
            key = tuple(sorted(idx)) if symmetric else idx
            arr[idx] = values.setdefault(key, rng.uniform(0.2, 3.0))
        table = PotentialTable.from_array(arr)
        at = range(n) if draw(st.integers(0, 2)) else sorted(set(draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n))))
        for i in at:
            factors.append(Factor(f"f{t}_{i}", tuple(f"X{(i + o) % n}" for o in offsets),
                                  table))
    observed = (0, 1) if draw(st.booleans()) else ()
    evidence = draw(st.lists(st.sampled_from((None, None, None, None) + observed),
                             min_size=n, max_size=n))
    rvs = [RandomVariable(f"X{i}", ("x", "y"), ev) for i, ev in enumerate(evidence)]
    return FactorGraph(rvs, factors)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(g=circulant_graphs(), iters=st.sampled_from((1, 5, 20)))
def test_cbp_matches_bp_whenever_compress_succeeds(g, iters):
    try:
        assert_cbp_matches_bp(g, iters)
    except ValueError as exc:
        assert "mixes tables" in str(exc)


# --- the flattened kernel against the nested-loop kernel ----------------------------

def nested_loop_bp(ranges, tables, slots, counts, iters):
    """Test oracle: BP with one numpy call per edge pair, written edge by edge.

    Each variable-to-factor message is rebuilt from the variable's other
    edges; the factor-to-variable messages multiply each slot's table by
    the other slots' messages one factor at a time.
    """
    def log_normalise(vec):
        m = vec.max()
        return vec - (m + math.log(np.exp(vec - m).sum()))

    incident = [[] for _ in ranges]
    for fi, ss in enumerate(slots):
        for si, vi in enumerate(ss):
            incident[vi].append((fi, si))
    log_mu = [[np.full(ranges[vi], -math.log(ranges[vi])) for vi in ss] for ss in slots]
    log_n = [[np.zeros(ranges[vi]) for vi in ss] for ss in slots]
    for _ in range(iters):
        for fi, ss in enumerate(slots):
            for si, vi in enumerate(ss):
                acc = (counts[fi][si] - 1) * log_mu[fi][si]
                for hi, ti in incident[vi]:
                    if (hi, ti) != (fi, si):
                        acc = acc + counts[hi][ti] * log_mu[hi][ti]
                log_n[fi][si] = log_normalise(acc)
        n_lin = [[np.exp(v) for v in per_factor] for per_factor in log_n]
        for fi, ss in enumerate(slots):
            for si in range(len(ss)):
                res = tables[fi]
                for ti in range(len(ss)):
                    if ti != si:
                        shape = [1] * res.ndim
                        shape[ti] = ranges[ss[ti]]
                        res = res * n_lin[fi][ti].reshape(shape)
                other_axes = tuple(i for i in range(len(ss)) if i != si)
                mu = res.sum(axis=other_axes) if other_axes else res
                log_mu[fi][si] = log_normalise(np.log(mu))
    beliefs = []
    for vi in range(len(ranges)):
        acc = np.zeros(ranges[vi])
        for fi, si in incident[vi]:
            acc = acc + counts[fi][si] * log_mu[fi][si]
        beliefs.append(np.exp(log_normalise(acc)))
    return beliefs


@st.composite
def spoke_graphs(draw):
    """Copies of a random spoke template around shared hubs, a ring and an isolated rv.

    Hub H0 (range 3) and spoke variable S0 (range 2) share the first
    template factor, so that factor always mixes range sizes and, with at
    least three copies of which at most one is observed apart, compresses
    to a superfactor whose edge count at H0 exceeds one.  The ring of
    sliding windows compresses to one supervariable that fills every slot
    of its superfactor.
    """
    copies = draw(st.integers(3, 5))
    hub_ranges = [3] + draw(st.lists(st.sampled_from((2, 3)), max_size=1))
    spoke_ranges = [2] + draw(st.lists(st.sampled_from((2, 3)), max_size=2))
    hubs = [f"H{i}" for i in range(len(hub_ranges))]
    spokes = [f"S{j}" for j in range(len(spoke_ranges))]
    scopes = [("H0", "S0")] + draw(st.lists(
        st.lists(st.sampled_from(hubs + spokes), min_size=1, max_size=3, unique=True),
        max_size=3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size = dict(zip(hubs + spokes, hub_ranges + spoke_ranges))
    tables = []
    for scope in scopes:
        shape = tuple(size[a] for a in scope)
        tables.append(PotentialTable(shape, [rng.uniform(0.2, 3.0)
                                             for _ in range(math.prod(shape))]))
    # evidence: on H1, on S1 and S2 in every copy, and on one spoke variable
    # of copy 0 alone
    hub_evidence = {h: draw(st.sampled_from((None, 0, 1))) for h in hubs[1:]}
    spoke_evidence = {s: draw(st.sampled_from((None, None, 0, 1))) for s in spokes[1:]}
    lone = draw(st.sampled_from((None,) + tuple(spokes)))
    labels = {2: ("a", "b"), 3: ("a", "b", "c")}
    rvs = [RandomVariable(h, labels[size[h]], hub_evidence.get(h)) for h in hubs]
    rvs.append(RandomVariable("Iso", labels[3]))
    factors = []
    for c in range(copies):
        for s in spokes:
            evidence = spoke_evidence.get(s)
            if c == 0 and s == lone:
                evidence = 1 if evidence == 0 else 0
            rvs.append(RandomVariable(f"{s}_{c}", labels[size[s]], evidence))
        for k, (scope, table) in enumerate(zip(scopes, tables)):
            if c > 0 and all(a in hubs for a in scope):
                continue        # a hub-only factor exists once
            args = tuple(a if a in hubs else f"{a}_{c}" for a in scope)
            factors.append(Factor(f"f{k}_{c}", args, table))
    ring = draw(st.integers(2, 4))
    width = draw(st.integers(2, ring))
    ring_range = draw(st.sampled_from((2, 3)))
    rvs += [RandomVariable(f"R{i}", labels[ring_range]) for i in range(ring)]
    window = PotentialTable((ring_range,) * width, [rng.uniform(0.2, 3.0)
                                                    for _ in range(ring_range ** width)])
    factors += [Factor(f"w{i}", tuple(f"R{(i + o) % ring}" for o in range(width)), window)
                for i in range(ring)]
    return FactorGraph(rvs, factors)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=spoke_graphs(), iters=st.sampled_from((0, 1, 7)))
def test_flat_kernel_matches_nested_loop_oracle(g, iters):
    m = compress(g, run_cp(g))
    free, tables, slots, counts = _sliced_superfactors(m)
    ranges = [len(sv.range) for sv in free]
    assert max(c for cc in counts for c in cc) > 1
    assert any(len({ranges[vi] for vi in ss}) > 1 for ss in slots)
    iso = next(i for i, sv in enumerate(free) if "Iso" in sv.members)
    assert all(iso not in ss for ss in slots)
    assert any(len(set(ss)) < len(ss) for ss in slots)
    expected = nested_loop_bp(ranges, tables, slots, counts, iters)
    got = _run_bp(_BPStructure(ranges, tables, slots, counts), iters)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12
    assert got[iso].tolist() == pytest.approx([1 / 3] * 3, abs=1e-15)
    beliefs = counting_bp(m, iters)
    for sv, b in zip(free, expected):
        assert np.abs(beliefs[sv.name].array() - b).max() <= 1e-12


# --- KL divergence --------------------------------------------------------------------

def test_kl_zero_on_identical():
    p = Marginal("x", (0.3, 0.7))
    assert kl_divergence(p, Marginal("x", (0.3, 0.7))) == 0.0


def test_kl_frozen_value():
    p, q = Marginal("x", (1.0, 0.0)), Marginal("x", (0.5, 0.5))
    assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-15)


def test_kl_non_negative_on_random_pairs():
    rng = random.Random(5)
    for _ in range(200):
        a = [rng.uniform(0.01, 1.0) for _ in range(3)]
        b = [rng.uniform(0.01, 1.0) for _ in range(3)]
        p = Marginal.normalised("x", a)
        q = Marginal.normalised("x", b)
        assert kl_divergence(p, q) >= -1e-12


def test_kl_range_mismatch():
    with pytest.raises(ValueError, match="same range"):
        kl_divergence(Marginal("x", (0.5, 0.5)), Marginal("x", (0.2, 0.3, 0.5)))


def test_kl_rejects_zero_in_q():
    with pytest.raises(ValueError, match="zero"):
        kl_divergence(Marginal("x", (0.5, 0.5)), Marginal("x", (1.0, 0.0)))


def test_marginal_normalised_sums_to_one():
    rng = random.Random(9)
    for _ in range(50):
        m = Marginal.normalised("x", [rng.uniform(0.001, 5.0) for _ in range(4)])
        assert abs(sum(m.probs) - 1.0) <= 1e-12
        assert all(p >= 0 for p in m.probs)


def test_bp_cbp_deterministic(epidemic):
    m = compress(epidemic, run_cp(epidemic))
    a = counting_bp(m, iters=9)
    b = counting_bp(m, iters=9)
    assert all(a[k].probs == b[k].probs for k in a)
