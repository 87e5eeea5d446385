"""Line-oriented job files for the command line tools.

Four small section-based formats share one scanner:

  push jobs      [vars] [space] [map] [class] [options]
  ideal files    [vars] [ideal]
  square files   [vars] [ring A|B|C|D] [hom X->Y] [options]
  fixture files  [final] [candidate]

Blank lines and '#' comments are ignored.  A section may appear once;
headers that differ only in whitespace, such as [hom A->B] and
[hom A -> B], name the same section.  A key may appear once in its
section, except the list entries `relation` and `gen`.  Parsing either
succeeds or raises ParseError with the offending line number;
parse -> render -> parse is the identity on the parsed values.

A push job's work grows with the target dimension, the number of fixed
points of the source and of the target, and the oracle trials, and a
square job's with its degree bound, so each has a fixed cap below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .localization import MapDescriptor, SpaceDescriptor, SpaceFactor
from .pipeline import Fixtures
from .poly import Poly, PolyError, VarTable
from .presentation import CartesianSquareSpec, RingHom, RingPresentation
from .textio import ParseError, parse_poly

MAX_TARGET_DIMENSION = 16
MAX_FIXED_POINTS = 64
MAX_ORACLE_TRIALS = 1000
MAX_DEGREE_BOUND = 20


@dataclass
class JobOptions:
    oracle_trials: int = 0
    seed: Optional[int] = None


@dataclass
class PushJob:
    table: VarTable
    space: SpaceDescriptor
    mapping: MapDescriptor
    cls: Poly
    options: JobOptions
    product: bool
    exponents: Tuple[int, ...]
    target_h: Optional[str]

    def render(self) -> str:
        lines = ["[vars]"]
        for name, deg in zip(self.table.names, self.table.degrees):
            lines.append(f"{name} {deg}")
        lines.append("[space]")
        for f in self.space.factors:
            lines.append(
                f"factor d={f.d} w0={f.w0.render()} w1={f.w1.render()} h={f.hvar}"
            )
        lines.append("[map]")
        if self.product:
            lines.append("product")
        lines.append("exponents = " + " ".join(str(a) for a in self.exponents))
        if self.target_h:
            lines.append(f"target_h = {self.target_h}")
        lines.append("[class]")
        lines.append(self.cls.render())
        lines.append("[options]")
        lines.append(f"oracle_trials = {self.options.oracle_trials}")
        if self.options.seed is not None:
            lines.append(f"seed = {self.options.seed}")
        return "\n".join(lines) + "\n"


def _sections(text: str) -> List[Tuple[int, str, List[Tuple[int, str]]]]:
    sections: List[Tuple[int, str, List[Tuple[int, str]]]] = []
    current: Optional[List[Tuple[int, str]]] = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            key = "".join(name.split())
            if key in seen:
                raise ParseError(f"line {lineno}: repeated section [{name}]")
            seen.add(key)
            current = []
            sections.append((lineno, name, current))
            continue
        if current is None:
            raise ParseError(f"line {lineno}: content before any section header")
        current.append((lineno, line))
    return sections


def _parse_lines(lines: Sequence[Tuple[int, str]], table: VarTable, header: int = 0) -> Poly:
    """parse_poly of the lines joined by spaces; an error names the line
    that holds its column, counted on that line."""
    try:
        return parse_poly(" ".join(text for _, text in lines), table)
    except ParseError as exc:
        lineno, start = header, 0
        for lineno, text in lines:
            if exc.position <= start + len(text):
                break
            start += len(text) + 1
        raise ParseError(f"line {lineno}: {exc.reason}", exc.position - start) from None


def _parse_vars(entries: Sequence[Tuple[int, str]]) -> VarTable:
    pairs = []
    for lineno, line in entries:
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise ParseError(f"line {lineno}: expected '<name> <degree>'")
        try:
            # isdigit() also accepts digits that int() refuses, such as
            # superscripts, and int() refuses over 4300 digits
            degree = int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected '<name> <degree>'") from None
        pairs.append((parts[0], degree))
    try:
        return VarTable(pairs)
    except PolyError as exc:
        raise ParseError(str(exc)) from None


def _keyvals(entries: Sequence[Tuple[int, str]], section: str, repeatable=()) -> Iterator:
    """(lineno, key, value) per line, value "" without '='; keys recur only if repeatable."""
    seen = set()
    for lineno, line in entries:
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen and key not in repeatable:
            raise ParseError(f"line {lineno}: repeated key {key!r} in [{section}]")
        seen.add(key)
        yield lineno, key, value.strip()


def _parse_options(entries: Sequence[Tuple[int, str]], keys: Tuple[str, ...]) -> Dict[str, int]:
    """The [options] of a job, each one of `keys`, as integers; a capped
    option lies between 0 and its cap."""
    caps = {"degree_bound": MAX_DEGREE_BOUND, "oracle_trials": MAX_ORACLE_TRIALS}
    opts: Dict[str, int] = {}
    for lineno, key, value in _keyvals(entries, "options"):
        if key not in keys:
            raise ParseError(f"line {lineno}: unknown option {key!r}")
        try:
            opts[key] = int(value)
            if key in caps and not 0 <= opts[key] <= caps[key]:
                raise ValueError
        except ValueError:
            raise ParseError(f"line {lineno}: bad value for {key!r}") from None
    return opts


def parse_push_job(text: str) -> PushJob:
    table: Optional[VarTable] = None
    factors: List[SpaceFactor] = []
    product = False
    exponents: Optional[Tuple[int, ...]] = None
    target_h: Optional[str] = None
    cls: Optional[Poly] = None
    options = JobOptions()

    for header, name, entries in _sections(text):
        if name == "vars":
            table = _parse_vars(entries)
        elif name == "space":
            if table is None:
                raise ParseError("[space] must come after [vars]")
            for lineno, line in entries:
                parts = line.split()
                if not parts or parts[0] != "factor":
                    raise ParseError(f"line {lineno}: expected a 'factor ...' line")
                fields: Dict[str, str] = {}
                for part in parts[1:]:
                    if "=" not in part:
                        raise ParseError(f"line {lineno}: expected key=value, got {part!r}")
                    k, v = part.split("=", 1)
                    if k in fields:
                        raise ParseError(f"line {lineno}: repeated key {k!r} in [space]")
                    if k not in ("d", "w0", "w1", "h"):
                        raise ParseError(f"line {lineno}: unknown factor key {k!r}")
                    fields[k] = v
                missing = {"d", "w0", "w1", "h"} - set(fields)
                if missing:
                    raise ParseError(f"line {lineno}: factor missing {sorted(missing)}")
                try:
                    factor = SpaceFactor(
                        int(fields["d"]),
                        _parse_lines([(lineno, fields["w0"])], table),
                        _parse_lines([(lineno, fields["w1"])], table),
                        fields["h"],
                    )
                except (PolyError, ValueError) as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                factors.append(factor)
        elif name == "map":
            for lineno, key, value in _keyvals(entries, name):
                if key == "product" and not value:
                    product = True
                elif key == "exponents":
                    try:
                        exponents = tuple(int(p) for p in value.split())
                    except ValueError:
                        raise ParseError(f"line {lineno}: bad exponent list") from None
                elif key == "target_h":
                    target_h = value
                else:
                    raise ParseError(f"line {lineno}: unknown map entry {key!r}")
        elif name == "class":
            if table is None:
                raise ParseError("[class] must come after [vars]")
            cls = _parse_lines(entries, table, header)
        elif name == "options":
            options = JobOptions(**_parse_options(entries, ("oracle_trials", "seed")))
        else:
            raise ParseError(f"unknown section [{name}]")

    if table is None or not factors or exponents is None or cls is None:
        raise ParseError("job needs [vars], [space], [map] exponents and [class]")
    try:
        space = SpaceDescriptor(factors)
        if product:
            names = None
            if target_h:
                names = [f"{target_h}{k + 1}" for k in range(len(factors))]
            mapping = MapDescriptor.product(space, exponents, names)
        else:
            mapping = MapDescriptor.multiplication(space, exponents, target_h or "h")
    except PolyError as exc:
        raise ParseError(str(exc)) from None
    if mapping.target.dimension > MAX_TARGET_DIMENSION:
        raise ParseError(f"target dimension above {MAX_TARGET_DIMENSION}")
    for side in (mapping.source, mapping.target):
        if math.prod(f.d + 1 for f in side.factors) > MAX_FIXED_POINTS:
            raise ParseError(f"more than {MAX_FIXED_POINTS} fixed points")
    # A term of higher degree in the hyperplane classes vanishes on the
    # source, and the pushforward's work grows with that degree.
    h_index = [table.index(h) for h in space.hvars]
    for mono in cls.terms:
        if sum(mono[i] for i in h_index) > space.dimension:
            raise ParseError(
                f"class term of degree above the source dimension {space.dimension}"
                f" in {', '.join(space.hvars)}"
            )
    return PushJob(table, space, mapping, cls, options, product, exponents, target_h)


@dataclass
class IdealJob:
    table: VarTable
    generators: Tuple[Poly, ...]

    def render(self) -> str:
        lines = ["[vars]"]
        for name, deg in zip(self.table.names, self.table.degrees):
            lines.append(f"{name} {deg}")
        lines.append("[ideal]")
        for g in self.generators:
            lines.append(f"gen = {g.render()}")
        return "\n".join(lines) + "\n"


def parse_ideal_job(text: str) -> IdealJob:
    table: Optional[VarTable] = None
    gens: List[Poly] = []
    for _, name, entries in _sections(text):
        if name == "vars":
            table = _parse_vars(entries)
        elif name == "ideal":
            if table is None:
                raise ParseError("[ideal] must come after [vars]")
            for lineno, key, value in _keyvals(entries, name, ("gen",)):
                if key != "gen":
                    raise ParseError(f"line {lineno}: expected 'gen = <poly>'")
                gens.append(_parse_lines([(lineno, value)], table))
        else:
            raise ParseError(f"unknown section [{name}]")
    if table is None:
        raise ParseError("ideal file needs a [vars] section")
    return IdealJob(table, tuple(gens))


_CORNERS = ("A", "B", "C", "D")
_HOMS = (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"))


@dataclass
class SquareJob:
    square: CartesianSquareSpec
    degree_bound: int


def parse_square_job(text: str) -> SquareJob:
    table: Optional[VarTable] = None
    ring_specs: Dict[str, Tuple[VarTable, List[Poly]]] = {}
    hom_specs: Dict[Tuple[str, str], Tuple[int, Dict[str, Tuple[int, str]]]] = {}
    degree_bound = 8

    for header, name, entries in _sections(text):
        if name == "vars":
            table = _parse_vars(entries)
        elif name.startswith("ring "):
            corner = name[5:].strip()
            if corner not in _CORNERS:
                raise ParseError(f"unknown ring corner {corner!r}")
            if table is None:
                raise ParseError("[ring ...] must come after [vars]")
            var_names: List[str] = []
            rel_texts: List[Tuple[int, str]] = []
            for lineno, key, value in _keyvals(entries, name, ("relation",)):
                if key == "vars":
                    var_names = value.split()
                elif key == "relation":
                    rel_texts.append((lineno, value))
                else:
                    raise ParseError(f"line {lineno}: unknown ring entry {key!r}")
            if not var_names:
                raise ParseError(f"ring {corner} needs a 'vars =' line")
            sub = VarTable([(v, table.degrees[table.index(v)]) for v in var_names])
            ring_specs[corner] = (sub, [_parse_lines([r], sub) for r in rel_texts])
        elif name.startswith("hom "):
            arrow = name[4:].replace(" ", "")
            if "->" not in arrow:
                raise ParseError(f"bad hom header [{name}]")
            src, dst = arrow.split("->", 1)
            if (src, dst) not in _HOMS:
                raise ParseError(f"unexpected hom {src}->{dst}")
            hom_specs[(src, dst)] = header, {k: (n, v) for n, k, v in _keyvals(entries, name)}
        elif name == "options":
            # fiber-check has no oracle and no randomness
            opts = _parse_options(entries, ("degree_bound",))
            degree_bound = opts.get("degree_bound", degree_bound)
        else:
            raise ParseError(f"unknown section [{name}]")

    if table is None:
        raise ParseError("square file needs a [vars] section")
    missing = [c for c in _CORNERS if c not in ring_specs]
    if missing:
        raise ParseError(f"missing ring sections: {missing}")
    missing_homs = [f"{s}->{d}" for s, d in _HOMS if (s, d) not in hom_specs]
    if missing_homs:
        raise ParseError(f"missing hom sections: {missing_homs}")

    try:
        rings = {c: RingPresentation(*ring_specs[c]) for c in _CORNERS}
        homs = {}
        for src, dst in _HOMS:
            header, specs = hom_specs[(src, dst)]
            images = {gen: _parse_lines([spec], rings[dst].table) for gen, spec in specs.items()}
            try:
                homs[(src, dst)] = RingHom(rings[src], rings[dst], images)
            except PolyError as exc:
                raise ParseError(f"line {header}: {exc}") from None
        square = CartesianSquareSpec(
            rings["A"],
            rings["B"],
            rings["C"],
            rings["D"],
            homs[("A", "B")],
            homs[("A", "C")],
            homs[("B", "D")],
            homs[("C", "D")],
        )
    except PolyError as exc:
        raise ParseError(str(exc)) from None
    return SquareJob(square, degree_bound)


def parse_fixture_overrides(text: str) -> Fixtures:
    """Fixture overrides: [final] gen lines (the reference ideal) and/or
    [candidate] relation lines (the patched-ring candidate)."""
    base = Fixtures.default()
    polys: Dict[str, List[Poly]] = {"final": [], "candidate": []}
    fields = {"final": ("gen", base.ambient), "candidate": ("relation", base.total.table)}
    for _, name, entries in _sections(text):
        if name not in fields:
            raise ParseError(f"unknown fixture section [{name}]")
        want, table = fields[name]
        for lineno, key, value in _keyvals(entries, name, (want,)):
            if key != want:
                raise ParseError(f"line {lineno}: expected '{want} = <poly>'")
            polys[name].append(_parse_lines([(lineno, value)], table))
    return Fixtures.default(
        candidate_relations=polys["candidate"] or None, final_ideal=polys["final"] or None
    )
