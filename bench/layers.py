"""Per-layer metrics: which engine boundaries the traced run wraps, how
each metric is derived from the spans and counters, and the interaction
map that says which end-to-end metric a layer metric should move, on which
workload, and where it must read zero.

Layer names follow the engine's modules.  A `<boundary>_s` metric is the
inclusive time of that boundary's spans; `<module>.self_s` is the time in
the module's wrapped spans minus the time of the spans they call.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from spans import Recording, Tracer
from workloads import CERTIFY, IDEAL, PUSH

# -- counters computed from call arguments and results -------------------------


def _add(counts: Dict[str, float], key: str, value: float):
    counts[key] = counts.get(key, 0) + value


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _snf(counts, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "m")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    _add(counts, "intlinalg.snf.entries", rows * cols)
    counts["intlinalg.snf.max_dim"] = max(counts.get("intlinalg.snf.max_dim", 0), rows, cols)


def _solve(counts, args, kwargs, result):
    _add(counts, "intlinalg.solve.found", result is not None)


def _mat_vec(counts, args, kwargs, result):
    _add(counts, "intlinalg.mat_vec.mults", len(args[0]) * len(args[1]))


def _spoly(counts, args, kwargs, result):
    _add(counts, "groebner.pairs", 1)


def _gpoly(counts, args, kwargs, result):
    _add(counts, "groebner.gpolys", 1)


def _basis(counts, args, kwargs, result):
    _add(counts, "groebner.basis_len", len(result.polys))


def _pushforward(counts, args, kwargs, result):
    mapping = _arg(args, kwargs, 0, "mapping")
    _add(counts, "localization.fixed_points", math.prod(f.d + 1 for f in mapping.source.factors))


def _oracle(counts, args, kwargs, result):
    _add(counts, "localization.oracle.trials", _arg(args, kwargs, 2, "trials", 20))


def _mul(counts, args, kwargs, result):
    left, right = args
    width = len(right.terms) if hasattr(right, "terms") else 1
    _add(counts, "poly.mul.term_products", len(left.terms) * width)


# -- wrapped boundaries ---------------------------------------------------------

STEPS = (
    "patching",
    "localization",
    "node-image-ideal",
    "double-triple-class",
    "final-presentation",
)
OTHER_STEPS = ("transfer", "node-locus-class", "triple-root-class", "residual-class")

FUNCTIONS: List[Tuple[str, str, Optional[str], Optional[Callable]]] = [
    ("equichow.cli", "main", "cli.main", None),
    ("equichow.pipeline", "run_all", "pipeline.run_all", None),
    *(
        ("equichow.pipeline", "step_" + step.replace("-", "_"), "pipeline." + step, None)
        for step in STEPS + OTHER_STEPS
    ),
    ("equichow.presentation", "verify_cartesian", "presentation.verify_cartesian", None),
    ("equichow.presentation", "nonzerodivisor_up_to", "presentation.nonzerodivisor_up_to", None),
    ("equichow.presentation", "graded_piece_invariants", "presentation.graded_piece_invariants", None),
    ("equichow.presentation", "gysin_boundary_to_total", "presentation.gysin", None),
    ("equichow.intlinalg", "smith_normal_form", "intlinalg.snf", _snf),
    ("equichow.intlinalg", "mat_vec", "intlinalg.mat_vec", _mat_vec),
    ("equichow.intlinalg", "from_columns", "intlinalg.from_columns", None),
    ("equichow.intlinalg", "invariant_factors", "intlinalg.invariant_factors", None),
    ("equichow.intlinalg", "kernel_basis", "intlinalg.kernel_basis", None),
    ("equichow.intlinalg", "column_lattice_basis", "intlinalg.column_lattice_basis", None),
    ("equichow.intlinalg", "quotient_invariants", "intlinalg.quotient_invariants", None),
    ("equichow.intlinalg", "preimage_generators", "intlinalg.preimage_generators", None),
    ("equichow.groebner", "strong_groebner", "groebner.strong_groebner", _basis),
    ("equichow.groebner", "normal_form", "groebner.normal_form", None),
    ("equichow.groebner", "ideal_equal", "groebner.ideal_equal", None),
    ("equichow.groebner", "ideal_contains", "groebner.ideal_contains", None),
    ("equichow.groebner", "spolynomial", None, _spoly),
    ("equichow.groebner", "gpolynomial", None, _gpoly),
    ("equichow.localization", "pushforward", "localization.pushforward", _pushforward),
    ("equichow.localization", "specialize_oracle", "localization.oracle", _oracle),
    ("equichow.localization", "point_class", "localization.point_class", None),
    ("equichow.poly", "exact_divide", "poly.exact_divide", None),
    ("equichow.textio", "parse_poly", "textio.parse_poly", None),
]

METHODS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("equichow.presentation", "RingPresentation", "relation_columns", "presentation.relation_columns", None),
    ("equichow.presentation", "RingPresentation", "normal_form", "presentation.normal_form", None),
    ("equichow.presentation", "RingHom", "apply", "presentation.hom_apply", None),
    ("equichow.intlinalg", "IntegerSolver", "solve", "intlinalg.solve", _solve),
    ("equichow.poly", "Poly", "__mul__", "poly.mul", _mul),
    ("equichow.poly", "Poly", "substitute", "poly.substitute", None),
    ("equichow.poly", "Poly", "evaluate", "poly.evaluate", None),
]


def install(tracer: Tracer):
    """Wrap every boundary above; `tracer.restore()` undoes it."""
    for module, attr, name, counter in FUNCTIONS:
        tracer.wrap_function(module, attr, name, counter)
    for module, cls_name, attr, name, counter in METHODS:
        cls = getattr(sys.modules.get(module), cls_name, None)
        if cls is None:
            tracer.missing.append(f"{module}.{cls_name}")
            continue
        tracer.wrap_method(cls, attr, name, counter)


# -- metrics and the interaction map ------------------------------------------


class View:
    """Read access to one traced pass."""

    def __init__(self, rec: Recording, overhead_s: float):
        self.summary = rec.summary()
        self.counts = rec.counts
        self.overhead_s = overhead_s

    def calls(self, span: str) -> int:
        return self.summary.get(span, {}).get("calls", 0)

    def total(self, span: str) -> float:
        return self.summary.get(span, {}).get("total_s", 0.0)

    def self_of(self, module: str) -> float:
        prefix = module + "."
        return sum(v["self_s"] for k, v in self.summary.items() if k.startswith(prefix))

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    value: Callable[[View], float]
    moves: str  # the end-to-end metric(s) and workload(s) it should move
    exercised: Tuple[str, ...] = ()  # workloads where it must be > 0
    idle: Tuple[str, ...] = ()  # workloads where it must be exactly 0


def _reading(name: str) -> Callable[[View], float]:
    """How a metric name reads a pass: `<module>.self_s` is the module's
    self time, `<span>.calls` the span's call count, `<span>_s` its
    inclusive time, and any other name a counter."""
    if name.endswith(".self_s"):
        return lambda v: v.self_of(name[: -len(".self_s")])
    if name.endswith(".calls"):
        return lambda v: v.calls(name[: -len(".calls")])
    if name.endswith("_s"):
        return lambda v: v.total(name[: -len("_s")])
    return lambda v: v.count(name)


def _layer(name, moves, exercised=(), idle=(), value=None) -> Layer:
    unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
    better = "higher" if unit == "ratio" else "lower"
    return Layer(name, unit, better, value or _reading(name), moves, exercised, idle)


def _other_steps(v: View) -> float:
    if not v.calls("pipeline.run_all"):
        return 0.0
    return v.total("pipeline.run_all") - sum(v.total("pipeline." + s) for s in STEPS)


def _hit_ratio(v: View) -> float:
    solves = v.calls("intlinalg.solve")
    return v.count("intlinalg.solve.found") / solves if solves else 0.0


C, P, I = CERTIFY, PUSH, IDEAL
ON_C = ((C,), (P, I))  # (exercised on, idle on)
ON_I_C = ((I, C), (P,))
ON_P_C = ((P, C), (I,))
WALL_C = "wall_s on certify-d10"
WALL_C_RSS = "wall_s, peak_rss_mb on certify-d10"
WALL_I = "wall_s on ideal-mix"
WALL_I_C = "wall_s on ideal-mix and certify-d10"
WALL_P = "wall_s on push-mix; on certify-d10 at most its ~3% localization share"
WALL_P_C = "wall_s on push-mix and certify-d10"

LAYERS: List[Layer] = [
    *(_layer(f"pipeline.{step}_s", WALL_C, *ON_C) for step in STEPS),
    _layer("pipeline.other_s", WALL_C, *ON_C, value=_other_steps),
    *(
        _layer(f"presentation.{name}", WALL_C, *ON_C)
        for name in (
            "verify_cartesian_s",
            "nonzerodivisor_up_to_s",
            "relation_columns.calls",
            "relation_columns_s",
            "hom_apply.calls",
            "hom_apply_s",
            "normal_form.calls",
            "graded_piece_invariants.calls",
            "self_s",
        )
    ),
    _layer("intlinalg.snf.calls", WALL_C_RSS, *ON_C),
    _layer("intlinalg.snf_s", WALL_C, *ON_C),
    _layer("intlinalg.snf.entries", WALL_C_RSS, *ON_C),
    _layer("intlinalg.snf.max_dim", "peak_rss_mb on certify-d10", *ON_C),
    _layer("intlinalg.solve.calls", WALL_C, *ON_C),
    _layer("intlinalg.solve_s", WALL_C, *ON_C),
    _layer("intlinalg.solve.hit_ratio", WALL_C, *ON_C, value=_hit_ratio),
    _layer("intlinalg.mat_vec.calls", WALL_C, *ON_C),
    _layer("intlinalg.mat_vec_s", WALL_C, *ON_C),
    _layer("intlinalg.mat_vec.mults", WALL_C, *ON_C),
    _layer("intlinalg.self_s", WALL_C_RSS, *ON_C),
    _layer("groebner.strong_groebner.calls", WALL_I, *ON_I_C),
    _layer("groebner.strong_groebner_s", WALL_I, *ON_I_C),
    _layer("groebner.pairs", WALL_I, *ON_I_C),
    _layer("groebner.gpolys", WALL_I, (I,), (P,)),
    _layer("groebner.basis_len", WALL_I, *ON_I_C),
    _layer("groebner.normal_form.calls", WALL_I_C, *ON_I_C),
    _layer("groebner.normal_form_s", WALL_I_C, *ON_I_C),
    _layer("groebner.ideal_equal_s", WALL_I, *ON_I_C),
    _layer("groebner.self_s", WALL_I, *ON_I_C),
    *(
        _layer(f"localization.{name}", WALL_P, *ON_P_C)
        for name in (
            "pushforward.calls",
            "pushforward_s",
            "fixed_points",
            "oracle.calls",
            "oracle.trials",
            "oracle_s",
            "point_class.calls",
            "point_class_s",
            "self_s",
        )
    ),
    *(
        _layer(f"poly.{name}", WALL_P_C, (P, C))
        for name in (
            "mul.calls",
            "mul_s",
            "mul.term_products",
            "substitute_s",
            "evaluate.calls",
            "exact_divide_s",
            "self_s",
        )
    ),
    _layer("cli.self_s", WALL_P_C, *ON_P_C),
    _layer("textio.parse_poly.calls", WALL_P_C, *ON_P_C),
    _layer(
        "trace.overhead_s",
        "none: traced minus untraced wall_s",
        value=lambda v: v.overhead_s,
    ),
]


def metrics(view: View) -> Dict[str, float]:
    return {layer.name: layer.value(view) for layer in LAYERS}


def map_mismatches(workload: str, values: Dict[str, float]) -> List[str]:
    """Where the measured layer metrics disagree with the interaction map."""
    out = []
    for layer in LAYERS:
        value = values[layer.name]
        if workload in layer.exercised and not value > 0:
            out.append(f"{layer.name} reads {value} on {workload}; the map expects > 0")
        if workload in layer.idle and value != 0:
            out.append(f"{layer.name} reads {value} on {workload}; the map expects 0")
    return out
