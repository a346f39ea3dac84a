"""Inference engines: exact enumeration, variable elimination, ground and counting BP.

Enumeration is the oracle everything else is checked against.  Variable
elimination uses a min-degree ordering, kept with incremental neighbour sets
and a heap, and matches enumeration to float precision.

Belief propagation is synchronous sum-product with per-round normalisation
and a fixed iteration count.  Its kernel is flat: messages live in one
array per variable range size and tables are stacked per slot shape, so an
iteration costs O(E) arithmetic for E edges in a number of numpy calls
that depends only on the distinct range sizes and slot shapes.  A
variable's log message to a factor is its count-weighted total over all
incoming log messages minus the one from that factor.  Ground BP runs the
kernel straight on the evidence-sliced factors with every count one;
counting BP runs it on a compressed model, raising messages to the ground
edge counts (Kersting, Ahmadi and Natarajan, "Counting Belief
Propagation", UAI 2009); a supervariable in k slots of one superfactor
gives each slot 1/k of its count.  Counting BP on the trivial lifting (every group a
singleton) reproduces ground BP bit for bit unless a table is symmetric
under an argument swap: ``compress`` then orders those slots by variable
name rather than argument order, so products are taken in another order
and beliefs can differ in the last bits.

Evidence is applied by slicing potential tables before any engine runs.
"""

from dataclasses import dataclass
import heapq
from itertools import product
import math

import numpy as np

from .model import FactorGraph
from .cp import LiftedModel
# unused here, but perfbench/tracing.py wraps inference.compress; without it Tracer.install() raises
from .cp import compress  # noqa: F401

DEFAULT_STATE_CAP = 2 ** 24


@dataclass(frozen=True)
class Marginal:
    """A normalised distribution over one variable's range."""

    rv: str
    probs: tuple[float, ...]

    def array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @classmethod
    def normalised(cls, rv: str, weights) -> "Marginal":
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if not 0.0 < total < math.inf:
            raise ValueError(f"cannot normalise marginal of {rv}: total mass {total}")
        return cls(rv, tuple((w / total).tolist()))


def _require_known(g: FactorGraph):
    for f in g.factors.values():
        if f.is_unknown:
            raise ValueError(f"inference requires known potentials; {f.name} is unknown")


def _indicator(rv_name: str, size: int, index: int) -> Marginal:
    probs = [0.0] * size
    probs[index] = 1.0
    return Marginal(rv_name, tuple(probs))


def kl_divergence(p: Marginal, q: Marginal) -> float:
    """Kullback-Leibler divergence sum(p * ln(p / q)), zero-aware on p."""
    if len(p.probs) != len(q.probs):
        raise ValueError("KL divergence needs marginals over the same range")
    total = 0.0
    for pi, qi in zip(p.probs, q.probs):
        if pi == 0.0:
            continue
        if qi <= 0.0:
            raise ValueError("KL divergence undefined: q has a zero where p has mass")
        total += pi * math.log(pi / qi)
    return total


def joint_enumeration(g: FactorGraph, query: str,
                      state_cap: int = DEFAULT_STATE_CAP) -> Marginal:
    """Exact marginal by brute-force summation over all assignments."""
    _require_known(g)
    if query not in g.rvs:
        raise KeyError(f"no randvar named {query!r}")
    rv_names = sorted(g.rvs)
    free = [n for n in rv_names if g.rvs[n].evidence is None]
    n_states = math.prod(len(g.rvs[n].range) for n in free) if free else 1
    if n_states > state_cap:
        raise ValueError(f"state space {n_states} exceeds cap {state_cap}")
    arrays = {name: f.table.array() for name, f in g.factors.items()}
    q_rv = g.rvs[query]
    weights = np.zeros(len(q_rv.range))
    assignment = {n: g.rvs[n].evidence for n in rv_names}
    for values in product(*(range(len(g.rvs[n].range)) for n in free)):
        for n, v in zip(free, values):
            assignment[n] = v
        w = 1.0
        for name, f in g.factors.items():
            w *= arrays[name][tuple(assignment[a] for a in f.args)]
        weights[assignment[query]] += w
    return Marginal.normalised(query, weights)


def _sliced_factors(g: FactorGraph) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """Factor tables with evidence axes fixed; fully-observed factors dropped."""
    out = []
    for name in sorted(g.factors):
        f = g.factors[name]
        arr = f.table.array()
        scope = []
        index: list[object] = []
        for a in f.args:
            rv = g.rvs[a]
            if rv.evidence is None:
                scope.append(a)
                index.append(slice(None))
            else:
                index.append(rv.evidence)
        arr = arr[tuple(index)]
        if scope:
            out.append((tuple(scope), arr))
    return out


def _multiply(scope_a, arr_a, scope_b, arr_b):
    scope = tuple(sorted(set(scope_a) | set(scope_b)))

    def expand(scope_src, arr):
        order = [scope_src.index(v) for v in scope if v in scope_src]
        arr = np.transpose(arr, order)
        shape = []
        k = 0
        for v in scope:
            if v in scope_src:
                shape.append(arr.shape[k])
                k += 1
            else:
                shape.append(1)
        return arr.reshape(shape)

    return scope, expand(scope_a, arr_a) * expand(scope_b, arr_b)


def _rescaled(arr: np.ndarray) -> np.ndarray:
    """arr times the power of two that brings its maximum into [0.5, 1).

    Scaling by a power of two is exact, so normalised results are bit for
    bit those of the unscaled products whenever these stay finite.
    """
    return np.ldexp(arr, -math.frexp(arr.max())[1])


def variable_elimination(g: FactorGraph, query: str) -> Marginal:
    """Exact marginal by sum-product elimination with a min-degree ordering.

    Every product is rescaled by a power of two, so its maximum stays in
    [0.5, 1) even at a hub with thousands of factors.
    """
    _require_known(g)
    if query not in g.rvs:
        raise KeyError(f"no randvar named {query!r}")
    q_rv = g.rvs[query]
    if q_rv.evidence is not None:
        return _indicator(query, len(q_rv.range), q_rv.evidence)
    live: dict[int, tuple[tuple[str, ...], np.ndarray]] = dict(enumerate(_sliced_factors(g)))
    next_id = len(live)
    of_var: dict[str, set[int]] = {}
    nbrs: dict[str, set[str]] = {}
    for fid, (scope, _) in live.items():
        for v in scope:
            of_var.setdefault(v, set()).add(fid)
            nbrs.setdefault(v, set()).update(scope)
    for v, ns in nbrs.items():
        ns.discard(v)

    # min-degree order by (degree, name); a heap entry is stale once its
    # variable is eliminated or its degree has changed
    remaining = set(of_var) - {query}
    heap = [(len(nbrs[v]), v) for v in remaining]
    heapq.heapify(heap)
    while remaining:
        d, var = heapq.heappop(heap)
        if var not in remaining or d != len(nbrs[var]):
            continue
        remaining.remove(var)
        bucket_ids = sorted(of_var.pop(var))
        scope, arr = live[bucket_ids[0]]
        for fid in bucket_ids[1:]:
            scope, arr = _multiply(scope, arr, *live[fid])
            arr = _rescaled(arr)
        for fid in bucket_ids:
            for v in live[fid][0]:
                if v != var:
                    of_var[v].discard(fid)
            del live[fid]
        axis = scope.index(var)
        arr = arr.sum(axis=axis)
        scope = scope[:axis] + scope[axis + 1:]
        if scope:
            live[next_id] = (scope, arr)
            for v in scope:
                of_var[v].add(next_id)
            next_id += 1
        # only the new factor's scope changes neighbourhoods: each of its
        # variables gains the scope and loses the eliminated variable
        for v in scope:
            ns = nbrs[v]
            ns.update(scope)
            ns.difference_update((v, var))
            if v in remaining:
                heapq.heappush(heap, (len(ns), v))
    weights = np.ones(len(q_rv.range))
    for scope, arr in live.values():
        if scope == (query,):
            weights = _rescaled(weights * arr)
        # scalar leftovers from disconnected components cancel on normalisation
    return Marginal.normalised(query, weights)


class _BPStructure:
    """Flattened message-passing structure shared by ground and counting BP.

    Built once per call from the free variables' range sizes and, per
    factor with at least one free slot, its evidence-sliced table, the
    variable index of each slot and the ground edge count of each slot.

    Edges are grouped by the range size r of their variable.  Range group
    ``(r, var_ids, flat, counts)`` holds the global indices of the variables
    of range r, and per edge (one row of the group's (E, r) message arrays)
    the flat index ``local_var * r + j`` of each of its r entries and its
    count as an (E, 1) column.  Factors are grouped by slot shape
    ``(r1..rk)``: shape group ``(tables, rows)`` stacks the tables to shape
    (F, r1..rk) and holds per slot the range group, the (F,) edge rows it
    reads and writes, and the shape that broadcasts its messages against
    the stacked tables.
    """

    def __init__(self, ranges, tables, slots, counts):
        self.n_vars = len(ranges)
        sizes = sorted(set(ranges))
        group_of = {r: gi for gi, r in enumerate(sizes)}
        var_ids: list[list[int]] = [[] for _ in sizes]
        local = []
        for vi, r in enumerate(ranges):
            local.append(len(var_ids[group_of[r]]))
            var_ids[group_of[r]].append(vi)
        edge_var: list[list[int]] = [[] for _ in sizes]
        edge_count: list[list[int]] = [[] for _ in sizes]
        by_shape: dict[tuple[int, ...], tuple[list, list]] = {}
        for table, ss, cc in zip(tables, slots, counts):
            shape = tuple(ranges[vi] for vi in ss)
            stacked, rows = by_shape.setdefault(shape, ([], [[] for _ in ss]))
            stacked.append(table)
            for si, (vi, c) in enumerate(zip(ss, cc)):
                gi = group_of[ranges[vi]]
                rows[si].append(len(edge_var[gi]))
                edge_var[gi].append(local[vi])
                edge_count[gi].append(c)
        self.range_groups = []
        for r, ids, ev, ec in zip(sizes, var_ids, edge_var, edge_count):
            flat = (np.asarray(ev, dtype=np.intp)[:, None] * r + np.arange(r)).ravel()
            self.range_groups.append((r, ids, flat,
                                      np.asarray(ec, dtype=float).reshape(-1, 1)))
        self.shape_groups = []
        for shape, (stacked, rows) in by_shape.items():
            slot_rows = []
            for si, (r, rr) in enumerate(zip(shape, rows)):
                broadcast = [len(stacked)] + [1] * len(shape)
                broadcast[si + 1] = r
                slot_rows.append((group_of[r], np.asarray(rr, dtype=np.intp), tuple(broadcast)))
            self.shape_groups.append((np.stack(stacked), slot_rows))


def _log_normalise(rows: np.ndarray) -> np.ndarray:
    """Each row of rows minus its log-sum-exp."""
    m = rows.max(axis=1, keepdims=True)
    return rows - (m + np.log(np.exp(rows - m).sum(axis=1, keepdims=True)))


def _totals(group, log_mu: np.ndarray) -> np.ndarray:
    """Per variable of a range group, the count-weighted sum of its incoming messages."""
    r, ids, flat, counts = group
    weighted = (counts * log_mu).ravel()
    return np.bincount(flat, weights=weighted, minlength=len(ids) * r).reshape(-1, r)


def _run_bp(s: _BPStructure, iters: int) -> list[np.ndarray]:
    """Synchronous sum-product; returns per-variable normalised beliefs.

    The message from a variable to a factor slot is the variable's total
    over all incoming messages, each raised to its edge count, divided by
    the message from that slot once.
    """
    log_mu = [np.full((len(counts), r), -math.log(r)) for r, _, _, counts in s.range_groups]
    for _ in range(iters):
        n_lin = []
        for group, mu in zip(s.range_groups, log_mu):
            r, _, flat, _ = group
            total = _totals(group, mu).ravel()[flat].reshape(-1, r)
            n_lin.append(np.exp(_log_normalise(total - mu)))
        log_mu = [np.empty_like(mu) for mu in log_mu]
        for tables, rows in s.shape_groups:
            k = len(rows)
            incoming = [n_lin[gi][idx].reshape(broadcast) for gi, idx, broadcast in rows]
            for si, (gi, idx, _) in enumerate(rows):
                res = tables
                for ti in range(k):
                    if ti != si:
                        res = res * incoming[ti]
                other_axes = tuple(ti + 1 for ti in range(k) if ti != si)
                mu = res.sum(axis=other_axes) if other_axes else res
                log_mu[gi][idx] = np.log(mu)
        log_mu = [_log_normalise(mu) for mu in log_mu]
    beliefs = [None] * s.n_vars
    for group, mu in zip(s.range_groups, log_mu):
        for vi, b in zip(group[1], np.exp(_log_normalise(_totals(group, mu)))):
            beliefs[vi] = b
    return beliefs


def _sliced_superfactors(m: LiftedModel) -> tuple[list, list, list, list]:
    """Slice evidence out of a lifted model and flatten it for the kernel.

    Returns the free supervariables and, per superfactor with a free slot,
    its sliced table, the free-supervariable index of each slot and the
    edge count of each slot.  A supervariable that fills k slots of one
    superfactor gives each of them 1/k of its edge count.
    """
    free = [sv for sv in m.supervars if sv.evidence is None]
    observed = {sv.name: sv for sv in m.supervars if sv.evidence is not None}
    var_index = {sv.name: i for i, sv in enumerate(free)}
    tables, slots, counts = [], [], []
    for sf in m.superfactors:
        arr = sf.table.array()
        index: list[object] = []
        ss, cc = [], []
        for sv_name in sf.args:
            if sv_name in observed:
                index.append(observed[sv_name].evidence)
            else:
                index.append(slice(None))
                ss.append(var_index[sv_name])
                cc.append(m.edge_counts[(sv_name, sf.name)] / sf.args.count(sv_name))
        arr = arr[tuple(index)]
        if ss:
            tables.append(arr)
            slots.append(ss)
            counts.append(cc)
    return free, tables, slots, counts


def counting_bp(m: LiftedModel, iters: int = 50) -> dict[str, Marginal]:
    """Lifted synchronous sum-product over a compressed model.

    Message products carry the ground edge counts as exponents, so the
    supervariable beliefs equal the ground BP beliefs of any group member
    under the same schedule and iteration count.
    """
    free, tables, slots, counts = _sliced_superfactors(m)
    structure = _BPStructure([len(sv.range) for sv in free], tables, slots, counts)
    beliefs = _run_bp(structure, iters)
    out = {}
    for sv, b in zip(free, beliefs):
        out[sv.name] = Marginal(sv.name, tuple(b.tolist()))
    for sv in m.supervars:
        if sv.evidence is not None:
            out[sv.name] = _indicator(sv.name, len(sv.range), sv.evidence)
    return out


def loopy_bp(g: FactorGraph, iters: int = 50) -> dict[str, Marginal]:
    """Ground synchronous sum-product: the counting-BP kernel with every count one.

    The kernel runs straight on the evidence-sliced factors, slots in
    argument order.  On the trivial lifting, ``compress`` orders the slots
    inside a table's symmetry class by variable name instead, so
    ``counting_bp`` on it gives these beliefs bit for bit when no table is
    symmetric under an argument swap, and up to rounding otherwise.
    """
    _require_known(g)
    free = [name for name in sorted(g.rvs) if g.rvs[name].evidence is None]
    var_index = {name: i for i, name in enumerate(free)}
    sliced = _sliced_factors(g)
    tables = [arr for _, arr in sliced]
    slots = [[var_index[a] for a in scope] for scope, _ in sliced]
    counts = [[1] * len(scope) for scope, _ in sliced]
    structure = _BPStructure([len(g.rvs[name].range) for name in free], tables, slots, counts)
    beliefs = _run_bp(structure, iters)
    out = {}
    for name, b in zip(free, beliefs):
        out[name] = Marginal(name, tuple(b.tolist()))
    for name in sorted(g.rvs):
        rv = g.rvs[name]
        if rv.evidence is not None:
            out[name] = _indicator(name, len(rv.range), rv.evidence)
    return out
