"""Colour passing: iterated colour refinement over a factor graph.

Random variables start coloured by (range, evidence) and factors by their
potential tables; colours are then passed back and forth until a round
adds no colour, which means the induced partition is stable.  Messages from variables to factors are unordered
multisets of colours; messages from factors to variables carry the position
of the variable in the factor's argument list, where positions that the
factor's table treats interchangeably share one tag, so declaring a
symmetric factor as f(A, B) or f(B, A) yields the same grouping.

The stable partition is compressed into a :class:`LiftedModel`: one
supervariable per variable group, one superfactor per factor group, and
per-edge ground counts that drive counting belief propagation.  A
superfactor may list one supervariable in several slots, as rings, grids
and all-pairs models do.
"""

from collections import Counter
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .model import FactorGraph, PotentialTable


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
    adjacent to one representative ground rv of group X.  When F lists X in
    k slots, every member of X fills each symmetry class of those slots
    equally often (``compress`` checks this), so each slot carries
    ``edge_counts[(X, F)] / k``, which is ``F.size / X.size``.
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
    closed under conjugation, so the relation is an equivalence.
    """
    arity = table.arity
    parent = list(range(arity))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    arr = table.array()
    for p in range(arity):
        for q in range(p + 1, arity):
            if table.range_sizes[p] != table.range_sizes[q]:
                continue
            if find(p) == find(q):
                continue
            swapped = arr.swapaxes(p, q)
            if (arr == swapped).all():
                parent[find(q)] = find(p)
    classes: dict[int, list[int]] = {}
    for p in range(arity):
        classes.setdefault(find(p), []).append(p)
    return [tuple(ps) for _, ps in sorted(classes.items())]


def _all_position_tags(g: FactorGraph) -> dict[str, tuple[int, ...]]:
    """Per-position tag of every factor of g, used in factor-to-rv messages.

    Symmetric positions of a known table collapse to the smallest member
    position of their class; unknown factors use the raw index.  Tags are
    computed once per distinct (table, arity).
    """
    by_table: dict[tuple, tuple[int, ...]] = {}
    tags = {}
    for name, f in g.factors.items():
        key = (f.table, len(f.args))
        if key not in by_table:
            tag = list(range(len(f.args)))
            if f.table is not None:
                for cls in argument_symmetry_classes(f.table):
                    for p in cls:
                        tag[p] = min(cls)
            by_table[key] = tuple(tag)
        tags[name] = by_table[key]
    return tags


def _dense(keys: dict[str, tuple]) -> dict[str, int]:
    """Number the distinct signatures 0..k-1 in order of first appearance."""
    ids: dict[tuple, int] = {}
    return {name: ids.setdefault(sig, len(ids)) for name, sig in keys.items()}


def initial_colours(g: FactorGraph) -> ColourAssignment:
    """Colour rvs by (range, evidence) and known factors by table equality.

    Every unknown factor gets its own fresh colour.
    """
    rv_keys = {name: (rv.range, -1 if rv.evidence is None else rv.evidence)
               for name, rv in g.rvs.items()}
    rv_colour = _dense(rv_keys)

    factor_colour = _dense({name: (f.table.range_sizes, f.table.values)
                            for name, f in g.factors.items() if not f.is_unknown})
    unknown = sorted(name for name, f in g.factors.items() if f.is_unknown)
    next_id = len(set(factor_colour.values()))
    for name in unknown:
        factor_colour[name] = next_id
        next_id += 1
    return ColourAssignment(rv_colour, factor_colour)


def _adjacency(g: FactorGraph) -> dict[str, list[tuple[str, int]]]:
    """rv name -> list of (factor name, position)."""
    adj: dict[str, list[tuple[str, int]]] = {name: [] for name in g.rvs}
    for fname, f in g.factors.items():
        for pos, arg in enumerate(f.args):
            adj[arg].append((fname, pos))
    return adj


def cp_round(g: FactorGraph, colours: ColourAssignment,
             _tags: dict[str, tuple[int, ...]] | None = None,
             _adj: dict[str, list[tuple[str, int]]] | None = None) -> ColourAssignment:
    """One full refinement round.

    (a) every factor is rekeyed by the multiset of its argument colours plus
    its own colour; (b) every rv is rekeyed by the multiset of (new factor
    colour, position tag) pairs plus its own colour.  New ids are dense per
    namespace and follow the first appearance of each signature in the
    graph's rv and factor order, so the result is deterministic.
    """
    if _tags is None:
        _tags = _all_position_tags(g)
    if _adj is None:
        _adj = _adjacency(g)
    factor_keys = {
        name: (colours.factor_colour[name],
               tuple(sorted(colours.rv_colour[a] for a in f.args)))
        for name, f in g.factors.items()
    }
    new_factor = _dense(factor_keys)
    rv_keys = {
        name: (colours.rv_colour[name],
               tuple(sorted((new_factor[fname], _tags[fname][pos])
                            for fname, pos in _adj[name])))
        for name in g.rvs
    }
    new_rv = _dense(rv_keys)
    return ColourAssignment(new_rv, new_factor)


def _colour_count(colours: ColourAssignment) -> int:
    return len(set(colours.rv_colour.values())) + len(set(colours.factor_colour.values()))


def _partition_from(colours: ColourAssignment) -> Partition:
    def groups(colour_map: dict[str, int]) -> tuple[tuple[str, ...], ...]:
        by_colour: dict[int, list[str]] = {}
        for name, c in colour_map.items():
            by_colour.setdefault(c, []).append(name)
        blocks = [tuple(sorted(members)) for members in by_colour.values()]
        return tuple(sorted(blocks))

    return Partition(groups(colours.rv_colour), groups(colours.factor_colour))


def run_cp(g: FactorGraph, initial: ColourAssignment | None = None) -> Partition:
    """Iterate cp_round until a round adds no colour; return the partition.

    Every round keys a node by its own colour too, so each colouring refines
    the one before it, and a round that keeps the number of rv plus factor
    colours keeps the partition.  Unknown factors are permitted: they keep
    their initial colours (unique unless the caller pre-grouped them via
    ``initial``).
    """
    colours = initial if initial is not None else initial_colours(g)
    tags = _all_position_tags(g)
    adj = _adjacency(g)
    before, count = -1, _colour_count(colours)
    while count != before:
        colours = cp_round(g, colours, _tags=tags, _adj=adj)
        before, count = count, _colour_count(colours)
    return _partition_from(colours)


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


def compress(g: FactorGraph, partition: Partition) -> LiftedModel:
    """Build the lifted model for a CP-stable partition of g.

    Every factor group must be fully known and share one table.  Superfactor
    argument slots are canonical: positions inside one table symmetry class
    are ordered by the supervar they hold, which is well defined exactly
    when the partition is stable.  Raises ValueError when the partition does
    not hold every rv and factor of g exactly once, or is not stable,
    including when the members of a supervar held by several slots fill
    those slots' symmetry classes unequally often.
    """
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
        # canonical slot layout from the representative: inside a table
        # symmetry class, positions are ordered by the supervar they hold
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
        # align every other member to the slots: arguments may be permuted
        # across members (potential transfer aligns tables to local argument
        # orders), but after matching argument groups to slot supervars the
        # permuted table must coincide with the representative's.  The
        # representative itself aligns by construction: its slots only
        # permute positions inside a symmetry class of its own table.
        for m in members[1:]:
            f = g.factors[m]
            if f.is_unknown:
                raise ValueError(f"factor group {members} contains unknown factor {m}")
            if len(f.args) != len(slots):
                raise ValueError(f"factor group {members} mixes arities")
            positions_of: dict[str, list[int]] = {}
            for p, arg in enumerate(f.args):
                positions_of.setdefault(sv_of[arg], []).append(p)
            try:
                taken = {sv: iter(ps) for sv, ps in positions_of.items()}
                axes = [next(taken[sv]) for sv in slots]
            except (KeyError, StopIteration):
                raise ValueError(
                    f"factor group {members} is not stable: {m} does not span "
                    f"the supervariables {slots}") from None
            aligned = (f.table if axes == sorted(axes) else
                       PotentialTable.from_array(np.transpose(f.table.array(), axes)))
            if aligned != rep.table:
                raise ValueError(
                    f"factor group {members} mixes tables that no argument "
                    f"alignment reconciles")
            if fills is not None:
                fills.update(zip((f.args[p] for p in axes), class_of))
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
    adj = _adjacency(g)
    edge_counts: dict[tuple[str, str], int] = {}
    for sv in supervars.values():
        counts_per_member = []
        for member in sv.members:
            counts: dict[str, int] = {}
            for fname, _ in adj[member]:
                gname = factor_group_name[fname]
                counts[gname] = counts.get(gname, 0) + 1
            counts_per_member.append(counts)
        if any(c != counts_per_member[0] for c in counts_per_member[1:]):
            raise ValueError(f"rv group {sv.members} is not stable: members have "
                             f"unequal adjacency counts")
        for gname, c in counts_per_member[0].items():
            edge_counts[(sv.name, gname)] = c

    return LiftedModel(tuple(supervars.values()), tuple(superfactors), edge_counts)


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
