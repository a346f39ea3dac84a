"""Grouping unknown factors by symmetric local structure and transferring potentials.

When a factor's potentials are missing, the only usable similarity signal is
the graph around it.  Two factors have *symmetric 2-step neighbourhoods*
when they touch the same number of variables and those variables can be
matched one-to-one preserving evidence, range, and degree; they are
*possibly identical* when additionally at least one of them is unknown or
their tables are equal up to argument order (equal canonical forms, see
:func:`liftfg.cp.canonical_form`).

The lifting procedure runs in two phases on top of the initial colouring.
Phase 1 gives all mutually possibly-identical unknown factors one shared
colour and collects, per such class, the candidate set of possibly
identical known factors.  Phase 2 runs once per phase-1 class: it picks the
largest subset of the class's candidate set whose members agree on one
canonical form, and, if the agreeing fraction reaches the threshold,
colours those candidates like the class and transfers the first selected
member's table onto each of its unknown factors.  Ordinary colour passing
then refines the pre-coloured graph and the result is compressed.

Because symmetry is implemented as signature equality (an equivalence), the
"largest pairwise possibly-identical subset" is simply the largest
form-equality class of the candidate set, which makes phase 2 a mode
computation instead of a clique search.
"""

from dataclasses import dataclass

import numpy as np

from .model import FactorGraph, Factor, PotentialTable
from . import cp


@dataclass(frozen=True)
class NeighbourhoodSignature:
    """Degree of a factor plus the multiset of its neighbours' (evidence, range, degree)."""

    factor_degree: int
    rv_signatures: tuple[tuple[int, tuple[str, ...], int], ...]  # sorted multiset


@dataclass(frozen=True)
class CandidateSet:
    """Per-unknown-factor record of phase 1/2: candidates and what was selected."""

    unknown_factor: str
    candidates: tuple[str, ...]
    selected: tuple[str, ...] | None
    shared_table: PotentialTable | None
    ratio: float | None
    transferred: bool = False


@dataclass(frozen=True)
class LiftReport:
    records: tuple[CandidateSet, ...]
    complete: bool

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            source = r.selected[0] if r.transferred else "none"
            ratio = "nan" if r.ratio is None else repr(r.ratio)
            lines.append(f"unknown {r.unknown_factor} candidates {len(r.candidates)} "
                         f"selected {len(r.selected) if r.selected else 0} "
                         f"ratio {ratio} transferred {source}")
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class LiftResult:
    """Outcome of a lifting pass.

    ``lifted`` is None exactly when the graph stays semantically incomplete.
    """

    completed: FactorGraph
    lifted: cp.LiftedModel | None
    report: LiftReport
    partition: cp.Partition


def _rv_triples(g: FactorGraph, names) -> list[tuple[int, tuple[str, ...], int]]:
    """The named rvs' (evidence, range, degree) triples, evidence -1 when unobserved."""
    degree = g._degree
    rvs = [g.rvs[name] for name in names]
    return [(-1 if rv.evidence is None else rv.evidence, rv.range, degree[rv.name]) for rv in rvs]


def all_signatures(g: FactorGraph) -> dict[str, NeighbourhoodSignature]:
    """Neighbourhood signatures for every factor in one pass over the graph."""
    triples = dict(zip(g.rvs, _rv_triples(g, g.rvs)))
    return {name: NeighbourhoodSignature(len(f.args), tuple(sorted(triples[a] for a in f.args)))
            for name, f in g.factors.items()}


def select_candidates(candidates):
    """Pick the largest class of a candidate set whose tables share a canonical form.

    candidates: known Factor objects sharing one neighbourhood signature.
    Returns (members sorted by name, the first member's own table, ratio),
    or None when the set is empty.  Ties between equal-sized classes go to
    the class with the smallest member name.
    """
    candidates = sorted(candidates, key=lambda f: f.name)
    if not candidates:
        return None
    classes: dict[PotentialTable, list[Factor]] = {}
    for f in candidates:
        classes.setdefault(cp.canonical_form(f.table)[0], []).append(f)
    # max() keeps the first maximum; classes arise in candidate name order,
    # so equal-sized ties go to the class with the smallest leading name.
    best = max(classes.values(), key=len)
    return tuple(f.name for f in best), best[0].table, len(best) / len(candidates)


def transfer_potentials(f_unknown: Factor, source: Factor, g: FactorGraph) -> PotentialTable:
    """Copy the source table onto the unknown factor's argument order.

    Arguments are matched by their (evidence, range, degree) triples; inside
    a block of equal triples they pair up in argument-list order.  The table
    axes are permuted accordingly.
    """
    t_unknown = _rv_triples(g, f_unknown.args)
    t_source = _rv_triples(g, source.args)
    if sorted(t_unknown) != sorted(t_source) or len(t_unknown) != len(t_source):
        raise ValueError(f"{f_unknown.name} and {source.name} have no argument bijection")
    remaining: dict[tuple, list[int]] = {}
    for pos, tr in enumerate(t_source):
        remaining.setdefault(tr, []).append(pos)
    axes = [remaining[tr].pop(0) for tr in t_unknown]
    arr = np.transpose(source.table.array(), axes=axes)
    return PotentialTable.from_array(arr)


def run_lifg(g: FactorGraph, theta: float) -> LiftResult:
    """Full lifting pass: group unknowns, transfer potentials, refine, compress.

    Unknown factors are grouped by neighbourhood signature (phase 1), and
    candidate selection runs once per such class (phase 2); the transfer
    itself is made per unknown factor, in that factor's argument order.
    Returns the completed graph (unknown factors replaced where a transfer
    succeeded), the lifted model (withheld when any factor stays unknown),
    a per-unknown report, and the stable partition.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    init = cp.initial_colours(g)
    colours = dict(init.factor_colour)

    signatures = all_signatures(g)
    by_signature: dict[NeighbourhoodSignature, list[str]] = {}
    for name in sorted(g.factors):
        by_signature.setdefault(signatures[name], []).append(name)

    records = []
    replacements: dict[str, Factor] = {}
    for peers in by_signature.values():
        unknowns = [p for p in peers if g.factors[p].is_unknown]
        if not unknowns:
            continue
        # Phase 1: unknown factors with equal signatures share one colour;
        # their candidate set is every known factor possibly identical to
        # them, i.e. every known factor with the same signature.
        colour = colours[unknowns[0]]
        for name in unknowns:
            colours[name] = colour
        cand = tuple(p for p in peers if not g.factors[p].is_unknown)

        # Phase 2, once per class: mode of the candidates' canonical forms;
        # on reaching theta the selected candidates join the class's colour
        # and every unknown of the class receives the first member's table.
        selection = select_candidates([g.factors[c] for c in cand])
        members, table, ratio = selection or (None, None, None)
        transferred = selection is not None and ratio >= theta
        if transferred:
            for m in members:
                colours[m] = colour
        for name in unknowns:
            if transferred:
                f, source = g.factors[name], g.factors[members[0]]
                copy = transfer_potentials(f, source, g)
                replacements[name] = Factor(name, f.args, copy)
                # a transposed copy of a table past the order cap may keep
                # another canonical form; it cannot share the class's group
                if cp.canonical_form(copy)[0] != cp.canonical_form(source.table)[0]:
                    colours[name] = len(colours) + len(replacements)   # a fresh colour
            records.append(CandidateSet(name, cand, members, table, ratio, transferred))
    records.sort(key=lambda r: r.unknown_factor)

    completed = g.replace_factors(replacements) if replacements else g
    complete = not completed.has_unknown
    initial = cp.ColourAssignment(init.rv_colour, colours)
    partition = cp.run_cp(completed, initial=initial)
    lifted = cp.compress(completed, partition) if complete else None
    return LiftResult(completed, lifted, LiftReport(tuple(records), complete), partition)
