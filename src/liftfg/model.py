"""Core data types for factor graphs with possibly-unknown factors.

A factor graph is a bipartite graph of random variables and factors.  Each
factor maps the cross product of its argument ranges to strictly positive
potentials; a factor whose potentials are missing is *unknown*.  The joint
distribution of a fully-known graph is the normalised product of all factor
tables.

The module also defines a line-oriented text format::

    # comment
    randvar <name> <label1> <label2> ...
    factor <name> <rv1> <rv2> ... | <v1> <v2> ... <vk>
    factor <name> <rv1> <rv2> ... | unknown
    evidence <rv> <label>

Table values are row-major with the last argument varying fastest.  Floats
are written with ``repr`` so that serialising and re-parsing a graph is
value-exact.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np


class ParseError(ValueError):
    """Raised for malformed model files; message carries the line number."""


@dataclass(frozen=True)
class RandomVariable:
    """A discrete random variable with an optional observed value."""

    name: str
    range: tuple[str, ...]
    evidence: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "range", tuple(self.range))


@dataclass(frozen=True)
class PotentialTable:
    """Flat potential table, row-major, last argument fastest.

    Equality is table identity: equal range sizes and exactly equal values.
    """

    range_sizes: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "range_sizes", tuple(int(s) for s in self.range_sizes))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def arity(self) -> int:
        return len(self.range_sizes)

    def array(self) -> np.ndarray:
        """The table as an ndarray with one axis per argument."""
        return np.asarray(self.values, dtype=float).reshape(self.range_sizes)

    @classmethod
    def from_array(cls, arr) -> "PotentialTable":
        arr = np.asarray(arr, dtype=float)
        return cls(tuple(arr.shape), tuple(arr.reshape(-1).tolist()))


@dataclass(frozen=True)
class Factor:
    """A factor node; ``table is None`` marks an unknown factor."""

    name: str
    args: tuple[str, ...]
    table: PotentialTable | None = None

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    @property
    def is_unknown(self) -> bool:
        return self.table is None


class FactorGraph:
    """A bipartite graph of random variables and (possibly unknown) factors.

    Instances are treated as immutable once validated; operations that
    modify a graph return a new one.
    """

    def __init__(self, rvs=(), factors=()):
        self.rvs: dict[str, RandomVariable] = {rv.name: rv for rv in rvs}
        self.factors: dict[str, Factor] = {f.name: f for f in factors}

    def __eq__(self, other):
        if not isinstance(other, FactorGraph):
            return NotImplemented
        return self.rvs == other.rvs and self.factors == other.factors

    def __repr__(self):
        return f"FactorGraph(|rvs|={len(self.rvs)}, |factors|={len(self.factors)})"

    @cached_property
    def _degree(self) -> dict[str, int]:
        """Number of factors adjacent to each rv, counted once per graph."""
        degree = dict.fromkeys(self.rvs, 0)
        for f in self.factors.values():
            for a in f.args:
                degree[a] += 1
        return degree

    @property
    def has_unknown(self) -> bool:
        return any(f.is_unknown for f in self.factors.values())

    def replace_factors(self, replacements: dict[str, Factor]) -> "FactorGraph":
        """A copy of the graph with some factors swapped out."""
        factors = [replacements.get(name, f) for name, f in self.factors.items()]
        return FactorGraph(list(self.rvs.values()), factors)


def validate(g: FactorGraph) -> list[str]:
    """Check every structural invariant; returns violations, empty means valid."""
    violations = []
    if not g.rvs:
        violations.append("empty graph: no random variables declared")
    for rv in g.rvs.values():
        if len(rv.range) < 2:
            violations.append(f"randvar {rv.name}: range must have at least 2 labels")
        if len(set(rv.range)) != len(rv.range):
            violations.append(f"randvar {rv.name}: duplicate range labels")
        if rv.evidence is not None and not (0 <= rv.evidence < len(rv.range)):
            violations.append(f"randvar {rv.name}: evidence index {rv.evidence} out of range")
    for f in g.factors.values():
        if len(set(f.args)) != len(f.args):
            violations.append(f"factor {f.name}: duplicate argument")
        for a in f.args:
            if a not in g.rvs:
                violations.append(f"factor {f.name}: reference to undeclared randvar {a}")
        if f.name in g.rvs:
            violations.append(f"factor {f.name}: duplicate name (collides with a randvar)")
        if f.table is None:
            continue
        sizes = tuple(len(g.rvs[a].range) for a in f.args if a in g.rvs)
        if len(sizes) == len(f.args) and f.table.range_sizes != sizes:
            violations.append(f"factor {f.name}: table range sizes {f.table.range_sizes} do not match arguments {sizes}")
        expected = math.prod(f.table.range_sizes) if f.table.range_sizes else 1
        if len(f.table.values) != expected:
            violations.append(f"factor {f.name}: table length mismatch ({len(f.table.values)} values for {expected} cells)")
        if any(not (v > 0.0) for v in f.table.values):
            violations.append(f"factor {f.name}: non-positive potential")
    return violations + _isolated(g)


def _isolated(g: FactorGraph) -> list[str]:
    """One violation per rv that no factor uses."""
    used = {a for f in g.factors.values() for a in f.args}
    return [f"randvar {name}: isolated (appears in no factor)" for name in g.rvs if name not in used]


def _parse_number(tok: str, lineno: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: expected a number, got {tok!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"line {lineno}: non-finite potential {tok!r}")
    return v


def parse_model(text: str) -> FactorGraph:
    """Parse the text format into a validated FactorGraph.

    Declarations must precede use: randvars before factors and evidence that
    reference them.  Raises ParseError with a line number on any defect of
    a line.  Those checks cover everything ``validate`` checks per item, so
    the finished graph is only checked as a whole: it must declare an rv,
    and every rv must appear in a factor.
    """
    rvs: dict[str, RandomVariable] = {}
    factors: dict[str, Factor] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "randvar":
            if len(toks) < 4:
                raise ParseError(f"line {lineno}: randvar needs a name and at least 2 labels")
            name, labels = toks[1], tuple(toks[2:])
            if name in rvs or name in factors:
                raise ParseError(f"line {lineno}: duplicate name {name!r}")
            if len(set(labels)) != len(labels):
                raise ParseError(f"line {lineno}: duplicate range labels for {name!r}")
            rvs[name] = RandomVariable(name, labels)
        elif kind == "factor":
            if "|" not in toks:
                raise ParseError(f"line {lineno}: factor line must contain '|'")
            sep = toks.index("|")
            head, tail = toks[1:sep], toks[sep + 1:]
            if len(head) < 2:
                raise ParseError(f"line {lineno}: factor needs a name and at least one argument")
            name, args = head[0], tuple(head[1:])
            if name in factors or name in rvs:
                raise ParseError(f"line {lineno}: duplicate name {name!r}")
            if len(set(args)) != len(args):
                raise ParseError(f"line {lineno}: factor {name!r} repeats an argument")
            for a in args:
                if a not in rvs:
                    raise ParseError(f"line {lineno}: reference to undeclared randvar {a!r}")
            if tail == ["unknown"]:
                factors[name] = Factor(name, args, None)
            else:
                if not tail:
                    raise ParseError(f"line {lineno}: factor {name!r} has no table values")
                values = tuple(_parse_number(t, lineno) for t in tail)
                sizes = tuple(len(rvs[a].range) for a in args)
                if len(values) != math.prod(sizes):
                    raise ParseError(
                        f"line {lineno}: table length mismatch for {name!r} "
                        f"({len(values)} values for {math.prod(sizes)} cells)")
                if any(v <= 0.0 for v in values):
                    raise ParseError(f"line {lineno}: non-positive potential in {name!r}")
                factors[name] = Factor(name, args, PotentialTable(sizes, values))
        elif kind == "evidence":
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: evidence needs a randvar and a label")
            name, label = toks[1], toks[2]
            if name not in rvs:
                raise ParseError(f"line {lineno}: evidence for undeclared randvar {name!r}")
            rv = rvs[name]
            if rv.evidence is not None:
                raise ParseError(f"line {lineno}: duplicate evidence for {name!r}")
            if label not in rv.range:
                raise ParseError(f"line {lineno}: label {label!r} not in range of {name!r}")
            rvs[name] = RandomVariable(rv.name, rv.range, rv.range.index(label))
        else:
            raise ParseError(f"line {lineno}: unknown statement {kind!r}")
    g = FactorGraph(list(rvs.values()), list(factors.values()))
    problems = _isolated(g) if rvs else ["empty graph: no random variables declared"]
    if problems:
        raise ParseError("invalid model: " + "; ".join(problems))
    return g


def serialize_model(g: FactorGraph) -> str:
    """Render a graph in the text format; parse_model(serialize_model(g)) == g."""
    lines = []
    for name in sorted(g.rvs):
        rv = g.rvs[name]
        lines.append(f"randvar {rv.name} " + " ".join(rv.range))
    for name in sorted(g.factors):
        f = g.factors[name]
        head = f"factor {f.name} " + " ".join(f.args)
        if f.table is None:
            lines.append(head + " | unknown")
        else:
            lines.append(head + " | " + " ".join(repr(v) for v in f.table.values))
    for name in sorted(g.rvs):
        rv = g.rvs[name]
        if rv.evidence is not None:
            lines.append(f"evidence {rv.name} {rv.range[rv.evidence]}")
    return "\n".join(lines) + ("\n" if lines else "")
