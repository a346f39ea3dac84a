"""Inference engines: exact enumeration, variable elimination, ground and counting BP.

Enumeration is the oracle everything else is checked against.  Variable
elimination uses a min-degree ordering and matches enumeration to float
precision.  Belief propagation is synchronous sum-product with per-round
normalisation and a fixed iteration count; counting BP runs the identical
message kernel on a compressed model, raising message products to the
ground edge counts.  Running the kernel on an uncompressed model with all
counts equal to one reproduces ground BP bit for bit.

Evidence is applied by slicing potential tables before any engine runs.
"""

from dataclasses import dataclass
from itertools import product
import math

import numpy as np

from .model import FactorGraph
from .cp import LiftedModel, singleton_partition, compress

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
        if not total > 0.0:
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
    for fid, (scope, _) in live.items():
        for v in scope:
            of_var.setdefault(v, set()).add(fid)

    def degree(v):
        nbrs = set()
        for fid in of_var[v]:
            nbrs.update(live[fid][0])
        nbrs.discard(v)
        return len(nbrs)

    remaining = sorted(set(of_var) - {query})
    degrees = {v: degree(v) for v in remaining}
    while remaining:
        var = min(remaining, key=lambda v: (degrees[v], v))
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
        for v in scope:
            if v in degrees:
                degrees[v] = degree(v)
    weights = np.ones(len(q_rv.range))
    for scope, arr in live.values():
        if scope == (query,):
            weights = _rescaled(weights * arr)
        # scalar leftovers from disconnected components cancel on normalisation
    return Marginal.normalised(query, weights)


class _BPStructure:
    """Flattened message-passing structure shared by ground and counting BP."""

    def __init__(self, var_names, ranges, tables, slots, counts):
        self.var_names = var_names          # list[str]
        self.ranges = ranges                # list[int]
        self.tables = tables                # list[np.ndarray], sliced, free slots only
        self.slots = slots                  # list[list[int]] var index per slot
        self.counts = counts                # list[list[int]] ground count per slot
        self.incident = [[] for _ in var_names]
        for fi, ss in enumerate(slots):
            if len(set(ss)) != len(ss):
                raise ValueError("factor with repeated variable slots is unsupported")
            for si, vi in enumerate(ss):
                self.incident[vi].append((fi, si))


def _log_normalise(vec: np.ndarray) -> np.ndarray:
    m = vec.max()
    return vec - (m + math.log(np.exp(vec - m).sum()))


def _run_bp(s: _BPStructure, iters: int) -> list[np.ndarray]:
    """Synchronous sum-product; returns per-variable normalised beliefs."""
    log_mu = [[np.full(s.ranges[vi], -math.log(s.ranges[vi])) for vi in ss]
              for ss in s.slots]
    log_n = [[np.zeros(s.ranges[vi]) for vi in ss] for ss in s.slots]
    for _ in range(iters):
        for fi, ss in enumerate(s.slots):
            for si, vi in enumerate(ss):
                acc = (s.counts[fi][si] - 1) * log_mu[fi][si]
                for hi, ti in s.incident[vi]:
                    if hi == fi:
                        continue
                    acc = acc + s.counts[hi][ti] * log_mu[hi][ti]
                log_n[fi][si] = _log_normalise(acc)
        n_lin = [[np.exp(v) for v in per_factor] for per_factor in log_n]
        for fi, ss in enumerate(s.slots):
            table = s.tables[fi]
            for si in range(len(ss)):
                res = table
                for ti in range(len(ss)):
                    if ti == si:
                        continue
                    shape = [1] * res.ndim
                    shape[ti] = s.ranges[ss[ti]]
                    res = res * n_lin[fi][ti].reshape(shape)
                other_axes = tuple(i for i in range(len(ss)) if i != si)
                mu = res.sum(axis=other_axes) if other_axes else res
                log_mu[fi][si] = _log_normalise(np.log(mu))
    beliefs = []
    for vi in range(len(s.var_names)):
        acc = np.zeros(s.ranges[vi])
        for fi, si in s.incident[vi]:
            acc = acc + s.counts[fi][si] * log_mu[fi][si]
        acc = _log_normalise(acc)
        beliefs.append(np.exp(acc))
    return beliefs


def _structure_from_lifted(m: LiftedModel) -> tuple[_BPStructure, list]:
    """Slice evidence out of a lifted model and flatten it for the kernel."""
    free = [sv for sv in m.supervars if sv.evidence is None]
    observed = {sv.name: sv for sv in m.supervars if sv.evidence is not None}
    var_index = {sv.name: i for i, sv in enumerate(free)}
    tables, slots, counts = [], [], []
    for sf in m.superfactors:
        if len(set(sf.args)) != len(sf.args):
            raise ValueError(f"superfactor {sf.name} repeats a supervariable; "
                             "counting BP does not support this shape")
        arr = sf.table.array()
        index: list[object] = []
        ss, cc = [], []
        for sv_name in sf.args:
            if sv_name in observed:
                index.append(observed[sv_name].evidence)
            else:
                index.append(slice(None))
                ss.append(var_index[sv_name])
                cc.append(m.edge_counts[(sv_name, sf.name)])
        arr = arr[tuple(index)]
        if ss:
            tables.append(arr)
            slots.append(ss)
            counts.append(cc)
    structure = _BPStructure([sv.name for sv in free],
                             [len(sv.range) for sv in free],
                             tables, slots, counts)
    return structure, free


def counting_bp(m: LiftedModel, iters: int = 50) -> dict[str, Marginal]:
    """Lifted synchronous sum-product over a compressed model.

    Message products carry the ground edge counts as exponents, so the
    supervariable beliefs equal the ground BP beliefs of any group member
    under the same schedule and iteration count.
    """
    structure, free = _structure_from_lifted(m)
    beliefs = _run_bp(structure, iters)
    out = {}
    for sv, b in zip(free, beliefs):
        out[sv.name] = Marginal(sv.name, tuple(b.tolist()))
    for sv in m.supervars:
        if sv.evidence is not None:
            out[sv.name] = _indicator(sv.name, len(sv.range), sv.evidence)
    return out


def loopy_bp(g: FactorGraph, iters: int = 50) -> dict[str, Marginal]:
    """Ground synchronous sum-product: counting BP on the trivial lifting of g."""
    _require_known(g)
    trivial = compress(g, singleton_partition(g))
    return counting_bp(trivial, iters)
