"""Regenerate data/perm_work.tsv, the work table behind the ideal-mix
questions.

For each of the 720 orderings of the six assembled relations, count the
S- and G-polynomials that `strong_groebner` forms while completing them.
The count is deterministic, so the table is computed once and checked in;
ideal-mix stratifies its seeded choice of orderings on it.

Usage: python3 bench/perm_work.py
"""

import itertools
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from spans import Tracer  # noqa: E402
from workloads import assembled_relations  # noqa: E402

from equichow.groebner import MonomialOrder, strong_groebner  # noqa: E402


def _tick(counts, args, kwargs, result):
    counts["polys"] = counts.get("polys", 0) + 1


def main():
    rels, _, ambient = assembled_relations()
    order = MonomialOrder.grevlex(ambient)
    tracer = Tracer()
    tracer.wrap_function("equichow.groebner", "spolynomial", None, _tick)
    tracer.wrap_function("equichow.groebner", "gpolynomial", None, _tick)
    rows = []
    try:
        for perm in itertools.permutations(range(len(rels))):
            strong_groebner([rels[i] for i in perm], order)
            rows.append((int(tracer.take().counts["polys"]), "".join(map(str, perm))))
    finally:
        tracer.restore()
    rows.sort()
    lines = ["# S+G polynomials formed by strong_groebner\tordering of the six relations"]
    lines += [f"{count}\t{perm}" for count, perm in rows]
    (BENCH / "data" / "perm_work.tsv").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
