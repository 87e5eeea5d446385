"""The benchmark's layer map names engine boundaries that exist.

`bench/layers.py` wraps engine functions and methods by name, and a name
that has left `src/` silently reads 0.  The boundaries below are already
stale; this test fails when any other boundary stops resolving, so a
change that moves a wrapped function has to mend the map or the list.
"""

import importlib
import os
import sys

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")

STALE = {
    "equichow.presentation.nonzerodivisor_up_to",
    "equichow.presentation.graded_piece_invariants",
    "equichow.presentation.gysin_boundary_to_total",
    "equichow.presentation.RingPresentation.relation_columns",
    "equichow.intlinalg.mat_vec",
    "equichow.intlinalg.from_columns",
    "equichow.intlinalg.invariant_factors",
    "equichow.intlinalg.kernel_basis",
    "equichow.intlinalg.column_lattice_basis",
    "equichow.intlinalg.preimage_generators",
    "equichow.intlinalg.IntegerSolver.solve",
    "equichow.localization.point_class",
    "equichow.poly.Poly.evaluate",
}


def _layers():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(BENCH)


def _resolves(module, *attrs):
    obj = importlib.import_module(module)
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return False
    return True


def test_every_wrapped_boundary_resolves_but_the_known_stale_ones():
    layers = _layers()
    boundaries = [(module, attr) for module, attr, _, _ in layers.FUNCTIONS]
    boundaries += [(module, cls, attr) for module, cls, attr, _, _ in layers.METHODS]
    assert len(boundaries) > len(STALE)
    missing = {".".join(b) for b in boundaries if not _resolves(*b)}
    assert missing <= STALE
