"""Colour passing: iterated colour refinement over a factor graph.

Two known factors are the same factor when their tables agree under some
matching of their arguments, so every table has a canonical form
(:func:`canonical_form`) that its transposed copies share.  Random
variables start coloured by (range, evidence) and known factors by the
canonical forms of their tables; colours are then passed back and forth
until a round adds no colour, which means the induced partition is stable.
:func:`run_cp` refines from a worklist: after its first round, a round
rekeys only the factors next to rvs whose colour id changed in the round
before, then the rvs next to factors whose id changed in this round, so a
round costs what it touches and not the size of the graph.
A known factor hears its arguments' colours in the slot order of its form,
as a multiset only inside one symmetry class of the form, and tells each
argument the first slot of that argument's class; so f(A, B) and
f'(B, A), with f' the transpose of f, group together, and two factors
whose arguments play crossed roles do not.  An unknown factor hears one
unordered multiset and tells each argument its raw position.

A partition is stable when one round of colour passing from it, with
every node coloured by its group, splits no group.  A stable partition
is compressed into a :class:`LiftedModel`: one supervariable per variable
group, one superfactor per factor group, and per-edge ground counts that
drive counting belief propagation.  :func:`compress` checks stability
with the same round keys and the same argument layout that
:func:`run_cp` uses, so the two share one definition of it.  A
superfactor may list one supervariable in several slots, as rings, grids
and all-pairs models do.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
import math
import weakref

from .model import FactorGraph, PotentialTable

MAX_ORDERS = 720   # argument orders canonical_form tries per table


@dataclass(frozen=True)
class ColourAssignment:
    """Total colouring of a graph; rv and factor colour ids are separate namespaces."""

    rv_colour: dict[str, int]
    factor_colour: dict[str, int]


@dataclass(frozen=True)
class Partition:
    """Disjoint groups covering all rvs and all factors, canonically ordered."""

    rv_groups: tuple[tuple[str, ...], ...]
    factor_groups: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SuperVar:
    name: str                 # representative rv (lexicographically smallest)
    size: int
    range: tuple[str, ...]
    evidence: int | None
    members: tuple[str, ...]


@dataclass(frozen=True)
class SuperFactor:
    name: str                 # representative factor
    size: int
    table: PotentialTable
    args: tuple[str, ...]     # supervar names, one per canonical slot
    members: tuple[str, ...]


@dataclass(frozen=True)
class LiftedModel:
    """Compressed graph: supervariables, superfactors and ground edge counts.

    ``edge_counts[(X, F)]`` is the number of ground factors of group F
    adjacent to one representative ground rv of group X.  The partition is
    stable: one colour-passing round from it splits no group, so every
    member of X has the same count, and when F lists X in k slots, every
    member of X fills each symmetry class of those slots equally often.
    Each slot therefore carries ``edge_counts[(X, F)] / k``, which is
    ``F.size / X.size``.
    """

    supervars: tuple[SuperVar, ...]
    superfactors: tuple[SuperFactor, ...]
    edge_counts: dict[tuple[str, str], int]

    def supervar_of(self) -> dict[str, str]:
        """Map each ground rv name to its supervar name."""
        return {m: sv.name for sv in self.supervars for m in sv.members}


def argument_symmetry_classes(table: PotentialTable) -> list[tuple[int, ...]]:
    """Partition argument positions into classes the table treats interchangeably.

    Positions p and q land in one class iff they have equal range size and
    swapping them leaves the table invariant.  Pairwise swap invariance is
    closed under conjugation, so the relation is an equivalence, and each
    position is tested only against the first member of each class.
    """
    arr = table.array()
    classes: list[list[int]] = []
    for p in range(table.arity):
        for cls in classes:
            if arr.shape[cls[0]] == arr.shape[p] and (arr == arr.swapaxes(cls[0], p)).all():
                cls.append(p)
                break
        else:
            classes.append([p])
    return [tuple(cls) for cls in classes]


@lru_cache(maxsize=4096)
def canonical_form(table: PotentialTable) -> tuple[PotentialTable, tuple[int, ...]]:
    """The table with its arguments in canonical order, and that order.

    ``form`` is ``table`` transposed by ``order``: slot s of the form is
    argument ``order[s]`` of the table.  Arguments are sorted by a key that
    no argument permutation changes: the range size and, per value of the
    argument, the sorted values of its slice.  Inside a block of equal keys
    every order of the block's symmetry classes is tried and the smallest
    values win, so a table and its transposed copies share one form.  At
    most MAX_ORDERS orders are tried per table; a block that would pass the
    cap keeps its classes in argument order, so transposed copies of such a
    table may keep different forms.  Equal forms always admit an alignment.
    """
    arr = table.array()
    blocks: dict[tuple, list[tuple[int, ...]]] = {}
    for cls in argument_symmetry_classes(table):
        size = arr.shape[cls[0]]
        key = (size, tuple(tuple(sorted(arr.take(v, axis=cls[0]).ravel().tolist()))
                           for v in range(size)))
        blocks.setdefault(key, []).append(cls)
    choices, tried = [], 1
    for key in sorted(blocks):
        block = blocks[key]
        if tried * math.factorial(len(block)) <= MAX_ORDERS:
            tried *= math.factorial(len(block))
            choices.append(permutations(block))
        else:
            choices.append([block])
    values, order = min((tuple(arr.transpose(order).ravel().tolist()), order)
                        for order in (tuple(chain.from_iterable(chain.from_iterable(combo)))
                                      for combo in product(*choices)))
    return PotentialTable(tuple(arr.shape[p] for p in order), values), order


def _roles_of(g: FactorGraph):
    """How every factor hears and tells its arguments in colour passing.

    Returns, per factor, its arguments in slot order with the slot runs it
    hears as multisets, and per rv its (factor, position tag) pairs.  A
    known factor's slots are those of its canonical form, its runs are the
    form's symmetry classes and each argument's tag is the first slot of
    its class.  An unknown factor keeps argument order, hears one multiset
    and tags each argument with its raw position.  The layout is computed
    once per distinct (table, arity).
    """
    by_table: dict[tuple, tuple] = {}
    slots = {}
    adj: dict[str, list[tuple[str, int]]] = {name: [] for name in g.rvs}
    for name, f in g.factors.items():
        key = (f.table, len(f.args))
        if key not in by_table:
            n = len(f.args)
            if f.table is None:
                order, classes, tags = range(n), [range(n)], range(n)
            else:
                form, order = canonical_form(f.table)
                classes, tags = argument_symmetry_classes(form), [0] * n
                for cls in classes:
                    for s in cls:
                        tags[order[s]] = cls[0]
            # a form's classes are runs of consecutive slots
            by_table[key] = (order, [(c[0], c[-1] + 1) for c in classes if len(c) > 1], tags)
        order, runs, tags = by_table[key]
        slots[name] = ([f.args[p] for p in order], runs)
        for pos, arg in enumerate(f.args):
            adj[arg].append((name, tags[pos]))
    return slots, adj


_last_layout = (lambda: None, None)   # (weak reference to a graph, its _roles_of)


def _layout(g: FactorGraph):
    """_roles_of(g), shared by run_cp, cp_round and compress on one graph object.

    One entry is kept and it holds the graph by weak reference, so no graph
    is kept alive and at most one layout outlives its graph.
    """
    global _last_layout
    ref, layout = _last_layout
    if ref() is not g:
        layout = _roles_of(g)
        _last_layout = (weakref.ref(g), layout)
    return layout


def _dense(keys: dict[str, tuple]) -> dict[str, int]:
    """Number the distinct signatures 0..k-1 in order of first appearance."""
    ids: dict[tuple, int] = {}
    return {name: ids.setdefault(sig, len(ids)) for name, sig in keys.items()}


def _factor_keys(names, slots, rv_colour, factor_colour) -> dict[str, tuple]:
    """Key each named factor by its own colour plus its argument colours in slot order."""
    keys = {}
    for name in names:
        args, runs = slots[name]
        heard = [rv_colour[a] for a in args]
        for i, j in runs:
            heard[i:j] = sorted(heard[i:j])
        keys[name] = (factor_colour[name], tuple(heard))
    return keys


def _rv_keys(names, adj, rv_colour, factor_colour) -> dict[str, tuple]:
    """Key each named rv by its own colour plus its (factor colour, tag) multiset."""
    return {name: (rv_colour[name], tuple(sorted([(factor_colour[f], tag) for f, tag in adj[name]])))
            for name in names}


def initial_colours(g: FactorGraph) -> ColourAssignment:
    """Colour rvs by (range, evidence) and known factors by canonical form.

    Tables that agree up to argument order share a colour.  Every unknown
    factor gets its own fresh colour.
    """
    rv_keys = {name: (rv.range, -1 if rv.evidence is None else rv.evidence)
               for name, rv in g.rvs.items()}
    rv_colour = _dense(rv_keys)

    factor_colour = _dense({name: canonical_form(f.table)[0]
                            for name, f in g.factors.items() if not f.is_unknown})
    unknown = sorted(name for name, f in g.factors.items() if f.is_unknown)
    first = len(set(factor_colour.values()))
    factor_colour.update((name, first + i) for i, name in enumerate(unknown))
    return ColourAssignment(rv_colour, factor_colour)


class _Classes:
    """One namespace of a colouring that run_cp refines in place.

    ``colour`` maps each node to its class id and ``members`` each id to
    its nodes.  A split keeps one part under the class id and gives every
    other part a fresh id, so ids are never reused.
    """

    def __init__(self, colour: dict[str, int]):
        self.colour = dict(colour)
        self.members: dict[int, set[str]] = {}
        for name, c in self.colour.items():
            self.members.setdefault(c, set()).add(name)
        self.next_id = max(self.members, default=-1) + 1

    def split(self, keys: dict[str, tuple], key_of) -> list[str]:
        """Split the classes of the rekeyed nodes by key; return the nodes given fresh ids.

        ``keys`` holds the rekeyed nodes, each key led by the node's own
        colour; ``key_of(name)`` keys one other node.  The part whose key
        equals that of an untouched member keeps the class id; when every
        member was rekeyed, the largest part (the first of equal ones)
        keeps it.
        """
        parts_of: dict[int, dict[tuple, list[str]]] = {}
        for name, key in keys.items():
            parts_of.setdefault(key[0], {}).setdefault(key, []).append(name)
        fresh = []
        for c, parts in parts_of.items():
            members = self.members[c]
            if sum(map(len, parts.values())) < len(members):
                keep = key_of(next(m for m in members if m not in keys))
            elif len(parts) == 1:
                continue
            else:
                keep = max(parts, key=lambda k: len(parts[k]))
            for key, part in parts.items():
                if key != keep:
                    members.difference_update(part)
                    self.members[self.next_id] = set(part)
                    for name in part:
                        self.colour[name] = self.next_id
                    self.next_id += 1
                    fresh += part
        return fresh


class _Worklist:
    """run_cp's state between rounds: the colouring and what the next round rekeys."""

    def __init__(self, g: FactorGraph, colours: ColourAssignment):
        self.slots, self.adj = _layout(g)
        self.rvs = _Classes(colours.rv_colour)
        self.factors = _Classes(colours.factor_colour)
        self.first = True
        self.factor_worklist = self.slots     # the first round rekeys every factor
        self.fresh = 0                        # nodes the last round gave fresh ids


def cp_round(g: FactorGraph, colours: ColourAssignment, _state: _Worklist | None = None
             ) -> ColourAssignment:
    """One refinement round.

    (a) every factor is rekeyed by its own colour plus its argument colours
    in slot order, sorted only inside a symmetry class of its canonical
    form (an unknown factor sorts them all); (b) every rv is rekeyed by its
    own colour plus the multiset of (new factor colour, position tag)
    pairs.  New ids are dense per namespace and follow the first appearance
    of each signature in the graph's rv and factor order, so the result is
    deterministic.  This costs O(n + m) for n nodes and m edges.

    With ``_state`` (run_cp's worklist) the round refines the state's
    colouring in place and ``colours`` is not read.  Its first round rekeys
    every node; a later round rekeys only the factors next to rvs that the
    previous round gave a fresh id, then the rvs next to factors that this
    round gave a fresh id.  An untouched member of a class keeps its key,
    so the part that shares its key keeps the class id, and every other
    part gets a fresh one.  A round then costs O(the edges of the nodes it
    rekeys), and the partition after each round is the one a full round
    gives.
    """
    if _state is None:
        slots, adj = _layout(g)
        new_factor = _dense(_factor_keys(slots, slots, colours.rv_colour, colours.factor_colour))
        new_rv = _dense(_rv_keys(g.rvs, adj, colours.rv_colour, new_factor))
        return ColourAssignment(new_rv, new_factor)
    s = _state
    slots, adj, rv, factor = s.slots, s.adj, s.rvs.colour, s.factors.colour
    fresh = s.factors.split(_factor_keys(s.factor_worklist, slots, rv, factor),
                            lambda name: _factor_keys((name,), slots, rv, factor)[name])
    touched = g.rvs if s.first else dict.fromkeys([a for f in fresh for a in slots[f][0]])
    fresh_rvs = s.rvs.split(_rv_keys(touched, adj, rv, factor),
                            lambda name: _rv_keys((name,), adj, rv, factor)[name])
    s.first = False
    s.factor_worklist = dict.fromkeys([f for a in fresh_rvs for f, _ in adj[a]])
    s.fresh = len(fresh) + len(fresh_rvs)
    return ColourAssignment(rv, factor)


def _groups(blocks) -> tuple[tuple[str, ...], ...]:
    """Canonical group order: names sorted inside a group, groups sorted."""
    return tuple(sorted([tuple(sorted(members)) for members in blocks]))


def _check_colours(g: FactorGraph, colours: ColourAssignment):
    """Raise ValueError unless colours gives every rv and factor of g, and nothing else, a colour."""
    for kind, colour, nodes in (("rv", colours.rv_colour, g.rvs),
                                ("factor", colours.factor_colour, g.factors)):
        if colour.keys() != nodes.keys():
            problems = ([f"{kind} {m!r} has no colour" for m in nodes if m not in colour]
                        + [f"{kind} {m!r} is not in the graph" for m in colour if m not in nodes])
            raise ValueError(f"initial colouring does not cover the graph: {problems[0]}")


def run_cp(g: FactorGraph, initial: ColourAssignment | None = None) -> Partition:
    """Refine from a worklist until a round issues no fresh id; return the partition.

    Every round keys a node by its own colour too, so each colouring
    refines the one before it, and a round that issues no fresh id keeps
    the partition.  Rounds after the first rekey only the neighbours of
    nodes whose id changed (see cp_round), so an anchored chain of n
    variables, which needs about n/2 rounds, costs O(n) rather than
    O(n^2).  Unknown factors are permitted: they keep their initial
    colours (unique unless the caller pre-grouped them via ``initial``).
    Raises ValueError when ``initial`` leaves out a node of g or colours
    one that g lacks.
    """
    if initial is None:
        colours = initial_colours(g)
    else:
        _check_colours(g, initial)
        colours = initial
    state = _Worklist(g, colours)
    cp_round(g, colours, _state=state)
    while state.fresh:
        cp_round(g, colours, _state=state)
    return Partition(_groups(state.rvs.members.values()), _groups(state.factors.members.values()))


def _check_covers(g: FactorGraph, partition: Partition):
    """Raise ValueError unless every rv and factor of g is in exactly one group."""
    for kind, groups, nodes in (("rv", partition.rv_groups, g.rvs),
                                ("factor", partition.factor_groups, g.factors)):
        listed = list(chain.from_iterable(groups))
        if len(listed) == len(nodes) and nodes.keys() == set(listed) and all(groups):
            continue
        counts = Counter(listed)
        problems = ([f"{kind} {m!r} is in no group" for m in nodes if m not in counts]
                    + [f"{kind} {m!r} is not in the graph" for m in counts if m not in nodes]
                    + [f"{kind} {m!r} is listed {c} times" for m, c in counts.items() if c > 1]
                    + [f"a {kind} group is empty"])
        raise ValueError(f"partition does not cover the graph: {problems[0]}")


def _shared(groups) -> list[str]:
    """The members of every group of more than one; a group of one cannot split."""
    return [m for members in groups if len(members) > 1 for m in members]


def compress(g: FactorGraph, partition: Partition) -> LiftedModel:
    """Build the lifted model for a stable partition of g.

    A partition is stable when one colour-passing round from it splits no
    group: with every rv and factor coloured by the index of its group,
    the members of a factor group hear equal colours slot by slot (as
    multisets inside a symmetry class), and the members of an rv group
    hear equal multisets of (factor group, tag) pairs.  Only then are the
    edge counts below the same for every member of a group.  Every factor
    group must be fully known and share one canonical form, so its
    members' slots line up.  A superfactor keeps its representative's
    table; its argument slots are the representative's positions, ordered
    inside each symmetry class of the table by supervar name.  Raises
    ValueError when the partition does not hold every rv and factor of g
    exactly once, mixes ranges, evidence or canonical forms in a group,
    holds an unknown factor, or is not stable.
    """
    _check_covers(g, partition)
    slots, adj = _layout(g)
    for members in partition.rv_groups:
        rep = g.rvs[members[0]]
        if any(g.rvs[m].range != rep.range or g.rvs[m].evidence != rep.evidence
               for m in members[1:]):
            raise ValueError(f"rv group {members} mixes ranges or evidence")
    for members in partition.factor_groups:
        unknown = [m for m in members if g.factors[m].is_unknown]
        if unknown:
            raise ValueError(f"factor group {members} contains unknown factor {unknown[0]}")
        table = g.factors[members[0]].table
        if any(t is not table and t != table and canonical_form(t)[0] != canonical_form(table)[0]
               for t in (g.factors[m].table for m in members[1:])):
            raise ValueError(f"factor group {members} mixes tables of different forms")

    rv_colour = {m: i for i, members in enumerate(partition.rv_groups) for m in members}
    factor_colour = {m: i for i, members in enumerate(partition.factor_groups) for m in members}
    factor_key = _factor_keys(_shared(partition.factor_groups), slots, rv_colour, factor_colour)
    rv_key = _rv_keys(_shared(partition.rv_groups), adj, rv_colour, factor_colour)
    for kind, groups, key in (("factor", partition.factor_groups, factor_key),
                              ("rv", partition.rv_groups, rv_key)):
        for members in groups:
            if any(key[m] != key[members[0]] for m in members[1:]):
                raise ValueError(f"{kind} group {members} is not stable: one colour-passing "
                                 f"round splits it")

    superfactors = []
    for members in partition.factor_groups:
        f = g.factors[members[0]]
        args = [partition.rv_groups[rv_colour[a]][0] for a in f.args]
        slot_args, runs = slots[f.name]
        for i, j in runs:
            positions = sorted(f.args.index(a) for a in slot_args[i:j])
            for p, name in zip(positions, sorted(args[p] for p in positions)):
                args[p] = name
        superfactors.append(SuperFactor(f.name, len(members), f.table, tuple(args), members))

    supervars, edge_counts = [], {}
    for members in partition.rv_groups:
        rep = g.rvs[members[0]]
        supervars.append(SuperVar(rep.name, len(members), rep.range, rep.evidence, members))
        for f, _ in adj[rep.name]:
            key = (rep.name, partition.factor_groups[factor_colour[f]][0])
            edge_counts[key] = edge_counts.get(key, 0) + 1
    return LiftedModel(tuple(supervars), tuple(superfactors), edge_counts)


def singleton_partition(g: FactorGraph) -> Partition:
    """Every node in its own group; compress() of this is isomorphic to g."""
    return Partition(tuple((name,) for name in sorted(g.rvs)),
                     tuple((name,) for name in sorted(g.factors)))


def serialize_lifted(m: LiftedModel) -> str:
    """Textual rendering of a lifted model (groups, slots, tables, counts)."""
    lines = []
    for sv in m.supervars:
        lines.append(f"rvgroup {sv.name}: " + " ".join(sv.members))
    for sf in m.superfactors:
        args = " ".join(f"{sv}:{i}" for i, sv in enumerate(sf.args))
        values = " ".join(repr(v) for v in sf.table.values)
        lines.append(f"factorgroup {sf.name} size {sf.size} args {args} | {values}")
    for (sv, sf), c in sorted(m.edge_counts.items()):
        lines.append(f"count {sv} {sf} {c}")
    return "\n".join(lines) + "\n"
