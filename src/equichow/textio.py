"""Parsing of the canonical polynomial text format.

The grammar is the mirror image of Poly.render():

    poly   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := INT | NAME ['^' INT]

so parse(render(p)) == p for every polynomial.  No variable may carry an
exponent above MAX_EXPONENT in any term, which bounds the work a parsed
polynomial can ask of the engine.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .poly import Poly, VarTable

MAX_EXPONENT = 32


class ParseError(Exception):
    """Bad polynomial or job-file input, with the column when one applies."""

    def __init__(self, message: str, position: Optional[int] = None):
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
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text))

    def factor() -> Poly:
        nonlocal pos
        kind, value, where = peek()
        if kind == "int":
            pos += 1
            return Poly.const(table, _integer(value, where))
        if kind == "name":
            if value not in table.names:
                raise ParseError(f"unknown variable {value!r}", where)
            pos += 1
            exp = 1
            if peek()[0] == "pow":
                pos += 1
                k, v, w = peek()
                if k != "int":
                    raise ParseError("expected an integer exponent", w)
                exp = _integer(v, w)
                pos += 1
            return Poly.var(table, value, exp)
        raise ParseError("expected a coefficient or variable", where)

    def term() -> Poly:
        nonlocal pos
        where = peek()[2]
        out = factor()
        while peek()[0] == "mul":
            pos += 1
            out = out * factor()
        if any(e > MAX_EXPONENT for mono in out.terms for e in mono):
            raise ParseError(f"exponent above {MAX_EXPONENT}", where)
        return out

    total = Poly.zero(table)
    sign = 1
    if peek()[0] == "minus":
        sign = -1
        pos += 1
    elif peek()[0] == "plus":
        pos += 1
    total = total + term() * sign
    while pos < len(tokens):
        kind, _, where = peek()
        if kind == "plus":
            sign = 1
        elif kind == "minus":
            sign = -1
        else:
            raise ParseError("expected '+' or '-' between terms", where)
        pos += 1
        total = total + term() * sign
    return total
