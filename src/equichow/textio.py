"""Parsing of the canonical polynomial text format.

The grammar is the mirror image of Poly.render():

    poly   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := INT | NAME ['^' INT]

so parse(render(p)) == p for every polynomial.  A term is read into one
coefficient and one exponent list and added into one mapping from
exponent tuples to coefficients; no Poly is multiplied.  No variable may
carry an exponent above MAX_EXPONENT in any term, which bounds the work a
parsed polynomial can ask of the engine.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .poly import Poly, VarTable

MAX_EXPONENT = 32


class ParseError(Exception):
    """Bad polynomial or job-file input, with the column when one applies."""

    def __init__(self, message: str, position: Optional[int] = None):
        self.reason = message
        if position is not None:
            message = f"{message} (column {position + 1})"
        super().__init__(message)
        self.position = position


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\^)|(\*)|(\+)|(-))")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3):
            tokens.append(("pow", "^", m.start(3)))
        elif m.group(4):
            tokens.append(("mul", "*", m.start(4)))
        elif m.group(5):
            tokens.append(("plus", "+", m.start(5)))
        else:
            tokens.append(("minus", "-", m.start(6)))
        pos = m.end()
    return tokens


def _integer(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError("integer literal too long", position) from None


def parse_poly(text: str, table: VarTable) -> Poly:
    """The polynomial of `text` over `table`, or the ParseError of its input."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    pos = 0
    width = len(table)
    terms: Dict[Tuple[int, ...], int] = {}

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text))

    def term(sign: int):
        nonlocal pos
        where = peek()[2]
        coeff, exps = sign, [0] * width
        while True:
            kind, value, at = peek()
            if kind == "int":
                pos += 1
                coeff *= _integer(value, at)
            elif kind == "name":
                if value not in table.names:
                    raise ParseError(f"unknown variable {value!r}", at)
                pos += 1
                exp = 1
                if peek()[0] == "pow":
                    pos += 1
                    k, v, w = peek()
                    if k != "int":
                        raise ParseError("expected an integer exponent", w)
                    exp = _integer(v, w)
                    pos += 1
                exps[table.index(value)] += exp
            else:
                raise ParseError("expected a coefficient or variable", at)
            if peek()[0] != "mul":
                break
            pos += 1
        if coeff:
            if max(exps, default=0) > MAX_EXPONENT:
                raise ParseError(f"exponent above {MAX_EXPONENT}", where)
            mono = tuple(exps)
            terms[mono] = terms.get(mono, 0) + coeff

    while pos < len(tokens) or not pos:  # the first term, then one per sign
        kind, _, where = peek()
        if kind in ("plus", "minus"):
            pos += 1
        elif pos:
            raise ParseError("expected '+' or '-' between terms", where)
        term(-1 if kind == "minus" else 1)
    return Poly(table, terms)
