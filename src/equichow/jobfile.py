"""Line-oriented job files for the command line tools.

Four small section-based formats share one reader, each described by a
table below:

  push jobs      [vars] [space] [map] [class] [options]
  ideal files    [vars] [ideal]
  square files   [vars] [ring A|B|C|D] [hom X->Y] [options]
  fixture files  [final] [candidate]

Blank lines and '#' comments are ignored.  A section may appear once;
headers that differ only in whitespace, such as [hom A->B] and
[hom A -> B], name the same section.  A table gives, for each section
(for [ring X] and [hom X->Y], for the header's first word), the keys its
`key = value` lines take, the keys that may repeat, the error for any
other key, and whether it must follow [vars]; [vars], [space] and
[class] are read as plain lines.  A [vars] line is `<name> <degree>`,
with a name of the polynomial grammar.  Parsing either succeeds or
raises ParseError with the offending line number; parse -> render ->
parse is the identity on the parsed values.

A push job's work grows with the target dimension, the number of fixed
points of the source and of the target, and the oracle trials, and a
square job's with its degree bound and the monomials of its rings' graded
pieces, so each has a fixed cap below.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .localization import MapDescriptor, SpaceDescriptor, SpaceFactor
from .pipeline import Fixtures
from .poly import Poly, PolyError, VarTable
from .presentation import CartesianSquareSpec, RingHom, RingPresentation
from .textio import NAME, ParseError, parse_poly

MAX_TARGET_DIMENSION = 16
MAX_FIXED_POINTS = 64
MAX_PIECE_MONOMIALS = 5000
MAX_ORACLE_TRIALS = 1000
MAX_DEGREE_BOUND = 20

# The integer options with a cap, in job files and on the command line:
# a value lies between 0 and its cap.
CAPS = {"oracle_trials": MAX_ORACLE_TRIALS, "degree_bound": MAX_DEGREE_BOUND}

# Per format, one entry per section, or per first header word as
# "ring ..." for [ring X]: (keys, repeatable, error, after_vars).  `keys`
# are the keys of its `key = value` lines (None: any key), `repeatable`
# those that may appear more than once, and `error` the message for any
# other key (None: the section is read as plain lines).
PUSH_JOB = {
    "vars": (None, (), None, False),
    "space": (None, (), None, True),
    "map": (("product", "exponents", "target_h"), (), "unknown map entry {key!r}", False),
    "class": (None, (), None, True),
    "options": (("oracle_trials", "seed"), (), "unknown option {key!r}", False),
}
FACTOR = (("d", "w0", "w1", "h"), (), "unknown factor key {key!r}", False)
IDEAL_JOB = {
    "vars": (None, (), None, False),
    "ideal": (("gen",), ("gen",), "expected 'gen = <poly>'", True),
}
SQUARE_JOB = {
    "vars": (None, (), None, False),
    "ring ...": (("vars", "relation"), ("relation",), "unknown ring entry {key!r}", True),
    "hom ...": (None, (), "", False),
    # fiber-check has no oracle and no randomness
    "options": (("degree_bound",), (), "unknown option {key!r}", False),
}
FIXTURE_FILE = {
    "final": (("gen",), ("gen",), "expected 'gen = <poly>'", False),
    "candidate": (("relation",), ("relation",), "expected 'relation = <poly>'", False),
}

_ABSENT = (0, "", ())


@dataclass
class JobOptions:
    oracle_trials: int = 0
    seed: Optional[int] = None


def _render_vars(table: VarTable) -> List[str]:
    return ["[vars]"] + [f"{name} {deg}" for name, deg in zip(table.names, table.degrees)]


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
        lines = _render_vars(self.table) + ["[space]"]
        for f in self.space.factors:
            lines.append(f"factor d={f.d} w0={f.w0.render()} w1={f.w1.render()} h={f.hvar}")
        lines.append("[map]")
        if self.product:
            lines.append("product")
        lines.append("exponents = " + " ".join(str(a) for a in self.exponents))
        if self.target_h:
            lines.append(f"target_h = {self.target_h}")
        lines += ["[class]", self.cls.render(), "[options]"]
        lines.append(f"oracle_trials = {self.options.oracle_trials}")
        if self.options.seed is not None:
            lines.append(f"seed = {self.options.seed}")
        return "\n".join(lines) + "\n"


def _check_key(lineno: int, key: str, seen, spec, section: str):
    """Raise the ParseError of `key` on a line of `section`, if `spec`
    refuses it or it repeats a key of `seen`."""
    if spec[0] is not None and key not in spec[0]:
        raise ParseError(f"line {lineno}: " + spec[2].format(key=key))
    if key in seen and key not in spec[1]:
        raise ParseError(f"line {lineno}: repeated key {key!r} in [{section}]")


def _sections(text: str, schema: dict, unknown: str = "unknown section") -> Dict[str, tuple]:
    """The sections of `text`, checked against the format table `schema`,
    by header with whitespace removed: (header line, name, entries), an
    entry (lineno, key, value) or, in a section of plain lines, (lineno, line)."""
    found: Dict[str, tuple] = {}
    entries = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            head = "".join(name.split())
            if head in found:
                raise ParseError(f"line {lineno}: repeated section [{name}]")
            word, space, _ = name.partition(" ")
            word = word + " ..." if space else word
            spec = schema.get(word)
            if spec is None:
                raise ParseError(f"{unknown} [{name}]")
            if spec[3] and "vars" not in found:
                raise ParseError(f"[{word}] must come after [vars]")
            entries, seen = [], set()
            found[head] = (lineno, name, entries)
        elif entries is None:
            raise ParseError(f"line {lineno}: content before any section header")
        elif spec[2] is None:
            entries.append((lineno, line))
        else:
            key, _, value = line.partition("=")
            key = key.strip()
            _check_key(lineno, key, seen, spec, name)
            seen.add(key)
            entries.append((lineno, key, value.strip()))
    if "vars" in schema and "vars" not in found:
        raise ParseError("missing section [vars]")
    return found


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
        if not re.fullmatch(NAME, parts[0]):
            raise ParseError(f"line {lineno}: bad variable name {parts[0]!r}")
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


def _parse_options(entries) -> Dict[str, int]:
    """The [options] of a job as integers; a capped option lies between 0
    and its cap."""
    opts: Dict[str, int] = {}
    for lineno, key, value in entries:
        try:
            opts[key] = int(value)
            if key in CAPS and not 0 <= opts[key] <= CAPS[key]:
                raise ValueError
        except ValueError:
            raise ParseError(f"line {lineno}: bad value for {key!r}") from None
    return opts


def _parse_factor(lineno: int, line: str, table: VarTable) -> SpaceFactor:
    parts = line.split()
    if parts[0] != "factor":
        raise ParseError(f"line {lineno}: expected a 'factor ...' line")
    fields: Dict[str, str] = {}
    for part in parts[1:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise ParseError(f"line {lineno}: expected key=value, got {part!r}")
        _check_key(lineno, key, fields, FACTOR, "space")
        fields[key] = value
    missing = set(FACTOR[0]) - set(fields)
    if missing:
        raise ParseError(f"line {lineno}: factor missing {sorted(missing)}")
    try:
        return SpaceFactor(
            int(fields["d"]),
            _parse_lines([(lineno, fields["w0"])], table),
            _parse_lines([(lineno, fields["w1"])], table),
            fields["h"],
        )
    except (PolyError, ValueError) as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def parse_push_job(text: str) -> PushJob:
    found = _sections(text, PUSH_JOB)
    table = _parse_vars(found["vars"][2])
    factors = [_parse_factor(n, line, table) for n, line in found.get("space", _ABSENT)[2]]
    product, exponents, target_h = False, None, None
    for lineno, key, value in found.get("map", _ABSENT)[2]:
        if key == "product":
            if value:
                raise ParseError(f"line {lineno}: 'product' takes no value")
            product = True
        elif key == "exponents":
            try:
                exponents = tuple(int(p) for p in value.split())
            except ValueError:
                raise ParseError(f"line {lineno}: bad exponent list") from None
        else:
            target_h = value
    if not factors or exponents is None or "class" not in found:
        raise ParseError("job needs [vars], [space], [map] exponents and [class]")
    header, _, lines = found["class"]
    cls = _parse_lines(lines, table, header)
    options = JobOptions(**_parse_options(found.get("options", _ABSENT)[2]))
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
        gens = [f"gen = {g.render()}" for g in self.generators]
        return "\n".join(_render_vars(self.table) + ["[ideal]"] + gens) + "\n"


def parse_ideal_job(text: str) -> IdealJob:
    found = _sections(text, IDEAL_JOB)
    table = _parse_vars(found["vars"][2])
    entries = found.get("ideal", _ABSENT)[2]
    return IdealJob(table, tuple(_parse_lines([(n, v)], table) for n, _, v in entries))


_CORNERS = ("A", "B", "C", "D")
_HOMS = (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"))


@dataclass
class SquareJob:
    square: CartesianSquareSpec
    degree_bound: int


def parse_square_job(text: str, degree_bound: Optional[int] = None) -> SquareJob:
    """The square of `text`, checked at `degree_bound`, else at the file's
    own bound (8 when it sets none)."""
    found = _sections(text, SQUARE_JOB)
    table = _parse_vars(found["vars"][2])
    ring_specs: Dict[str, Tuple[VarTable, List[Poly]]] = {}
    hom_specs: Dict[Tuple[str, str], Tuple[int, Dict[str, Tuple[int, str]]]] = {}
    for key, (header, name, entries) in found.items():
        if key.startswith("ring"):
            corner = name[5:].strip()
            if corner not in _CORNERS:
                raise ParseError(f"unknown ring corner {corner!r}")
            var_names = [v for _, k, value in entries if k == "vars" for v in value.split()]
            if not var_names:
                raise ParseError(f"ring {corner} needs a 'vars =' line")
            sub = VarTable([(v, table.degrees[table.index(v)]) for v in var_names])
            relations = [(n, v) for n, k, v in entries if k == "relation"]
            ring_specs[corner] = (sub, [_parse_lines([r], sub) for r in relations])
        elif key.startswith("hom"):
            arrow = name[4:].replace(" ", "")
            if "->" not in arrow:
                raise ParseError(f"bad hom header [{name}]")
            src, dst = arrow.split("->", 1)
            if (src, dst) not in _HOMS:
                raise ParseError(f"unexpected hom {src}->{dst}")
            hom_specs[(src, dst)] = header, {k: (n, v) for n, k, v in entries}

    missing = [f"[ring {c}]" for c in _CORNERS if c not in ring_specs]
    missing += [f"[hom {s}->{d}]" for s, d in _HOMS if (s, d) not in hom_specs]
    if missing:
        raise ParseError("missing sections " + ", ".join(missing))
    options = _parse_options(found.get("options", _ABSENT)[2])
    if degree_bound is None:
        degree_bound = options.get("degree_bound", 8)
    for corner in _CORNERS:  # count each ring's monomials per degree, listing none
        counts = [1] + [0] * degree_bound
        for d in ring_specs[corner][0].degrees:
            for n in range(d, degree_bound + 1):
                counts[n] += counts[n - d]
        n = counts.index(max(counts))
        if counts[n] > MAX_PIECE_MONOMIALS:
            raise ParseError(
                f"ring {corner} has {counts[n]} monomials in degree {n},"
                f" more than {MAX_PIECE_MONOMIALS}"
            )

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
        square = CartesianSquareSpec(*(rings[c] for c in _CORNERS), *(homs[h] for h in _HOMS))
    except PolyError as exc:
        raise ParseError(str(exc)) from None
    return SquareJob(square, degree_bound)


def parse_fixture_overrides(text: str) -> Fixtures:
    """Fixture overrides: [final] gen lines (the reference ideal) and/or
    [candidate] relation lines (the patched-ring candidate)."""
    base = Fixtures.default()
    found = _sections(text, FIXTURE_FILE, "unknown fixture section")
    polys: Dict[str, List[Poly]] = {}
    for name, table in (("final", base.ambient), ("candidate", base.total.table)):
        entries = found.get(name, _ABSENT)[2]
        polys[name] = [_parse_lines([(lineno, value)], table) for lineno, _, value in entries]
    return Fixtures.default(
        candidate_relations=polys["candidate"] or None, final_ideal=polys["final"] or None
    )
