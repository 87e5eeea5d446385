import hashlib
import re
from dataclasses import replace
from pathlib import Path

import pytest

from equichow import Poly, RingPresentation, groebner, pipeline, presentation
from equichow.jobfile import MAX_DEGREE_BOUND
from equichow.pipeline import (
    Fixtures,
    double_triple_value,
    eliminated_node_ideal,
    node_image_generators,
    run_all,
    step_double_triple_class,
    step_final_presentation,
    step_localization,
    step_node_image_ideal,
    step_node_locus_class,
    step_patching,
    step_residual_class,
    step_transfer,
    step_triple_root_class,
)
from oracles import evaluate


@pytest.fixture(scope="module")
def fx():
    return Fixtures.default()


def test_step_patching_small_bound(fx):
    report = step_patching(fx, 2)
    assert report.verdict == "match"


def test_step_patching_invariants_to_degree_14(fx):
    # The degree-n piece is Z^floor((n+2)^2/4) plus floor(n^2/4) copies of
    # Z/2 for n = 0..14, and on to the cap of 20; corner and fiber agree and
    # the corner map is onto in every degree.
    assert MAX_DEGREE_BOUND == 20
    for bound in (14, MAX_DEGREE_BOUND):
        expected = []
        for n in range(bound + 1):
            group = f"(free {(n + 2) ** 2 // 4}, torsion {[2] * (n * n // 4)})"
            expected.append(f"deg {n}: ok corner={group} fiber={group} surjective=True")
        report = step_patching(fx, bound)
        assert report.verdict == "match"
        assert report.details == tuple(expected)


def test_step_patching_negative_control():
    tp = Fixtures.default().total.table
    e, l1, d1 = (Poly.var(tp, n) for n in ("e", "l1", "d1"))
    weakened = Fixtures.default(candidate_relations=[e * (l1 * d1 + e)])
    report = step_patching(weakened, 2)
    assert report.verdict == "mismatch"
    assert "fail@2" in report.computed


def test_step_node_image_ideal_negative_control(fx):
    tp = fx.total.table
    e, l1, d1 = (Poly.var(tp, n) for n in ("e", "l1", "d1"))
    assert step_node_image_ideal(fx).verdict == "match"
    doubled = Fixtures.default(candidate_relations=[4 * e, e * (l1 * d1 + e)])
    report = step_node_image_ideal(doubled)
    assert report.verdict == "mismatch"
    assert report.computed.startswith("ideal_equal=false;")


def test_step_double_triple_class_negative_control(fx):
    good = step_double_triple_class(fx).computed
    doubled = replace(fx, residual_class=2 * fx.residual_class)
    report = step_double_triple_class(doubled)
    assert report.verdict == "mismatch"
    # only the membership flips: the class itself does not use the fixture
    assert report.computed == good.replace("membership=true", "membership=false")


def test_step_transfer(fx):
    report = step_transfer(fx)
    assert report.verdict == "match"
    assert report.computed == report.expected


def test_step_transfer_negative_control(fx):
    # Killing l2 on the corner ring: the pullback to the double cover sends
    # l2 to a*b, so it is no longer a ring map and the step fails.
    assert step_transfer(fx).verdict == "match"
    corner = fx.boundary_mod_normal
    l2 = Poly.var(corner.table, "l2")
    broken = replace(
        fx, boundary_mod_normal=RingPresentation(corner.table, corner.relations + (l2,))
    )
    report = run_all(degree_bound=0, oracle_trials=1, seed=0, fixtures=broken)
    (step,) = [s for s in report.steps if s.name == "transfer"]
    assert step.verdict == "mismatch"
    assert step.computed == "error: relation l2 does not map into the target ideal"
    assert step.details[0].startswith("WellDefinednessError at presentation.py:")


def test_step_localization_verdicts(fx):
    main, pair = step_localization(fx, oracle_trials=5, seed=0)
    assert main.verdict == "match"
    assert pair.verdict == "informational"
    assert "2:1" in " ".join(pair.details)


def test_step_localization_negative_control(fx, monkeypatch):
    main, _ = step_localization(fx, oracle_trials=5, seed=0)
    assert main.verdict == "match"
    true_values = pipeline._localization_values

    def doubled():
        t, jobs, expected, quad_cubing = true_values()
        expected = dict(expected, **{"rho1*h1": 2 * expected["rho1*h1"]})
        return t, jobs, expected, quad_cubing

    monkeypatch.setattr(pipeline, "_localization_values", doubled)
    report, _ = step_localization(fx, oracle_trials=5, seed=0)
    assert report.verdict == "mismatch"
    assert report.computed == main.computed
    assert report.expected != main.expected


def test_step_node_locus_class(fx):
    report = step_node_locus_class(fx)
    assert report.verdict == "match"


def test_step_node_locus_class_negative_control(fx):
    assert step_node_locus_class(fx).verdict == "match"
    doubled = replace(fx, node_character={"det_sgn": 1, "normal": 2})
    report = step_node_locus_class(doubled)
    assert report.verdict == "mismatch"
    assert report.computed.startswith("on-boundary=l1 + 2*d1 + x;")


def test_node_image_generators(fx):
    g0, g1 = node_image_generators(fx)
    tp = fx.total.table
    d1, l1, e = (Poly.var(tp, n) for n in ("d1", "l1", "e"))
    assert g0 == fx.total.normal_form(e + d1 * (l1 + d1))
    assert g1 == fx.total.normal_form(d1 * e)


def test_eliminated_ideal_generators(fx):
    polys = eliminated_node_ideal(fx)
    renders = {p.render() for p in polys}
    assert "-2*l1*d1 - 2*d1^2" in renders
    assert "l1*d1^3 + d1^4" in renders
    assert "-l1*d1^2 - d1^3" in renders


def test_step_node_image_ideal(fx):
    assert step_node_image_ideal(fx).verdict == "match"


def test_step_triple_root_class(fx):
    report = step_triple_root_class(fx)
    assert report.verdict == "match"
    assert report.computed == "24*l1^2 - 48*l2"


def test_step_triple_root_class_negative_control(fx):
    good = step_triple_root_class(fx)
    assert good.verdict == "match"
    report = step_triple_root_class(replace(fx, triple_root_class=2 * fx.triple_root_class))
    assert report.verdict == "mismatch"
    assert report.computed == good.computed
    assert report.expected == "48*l1^2 - 96*l2"


def test_triple_root_class_symmetric_before_restriction(fx):
    from equichow import (
        MapDescriptor,
        SpaceDescriptor,
        SpaceFactor,
        VarTable,
        pushforward,
    )

    t = VarTable([("t1", 1), ("t2", 1), ("h1", 1), ("h2", 1), ("h", 1)])
    t1, t2 = Poly.var(t, "t1"), Poly.var(t, "t2")
    src = SpaceDescriptor(
        [SpaceFactor(1, t1, t2, "h1"), SpaceFactor(3, t1, t2, "h2")]
    )
    value = pushforward(MapDescriptor.multiplication(src, [3, 1], "h"), Poly.const(t, 1))
    assert value.substitute({"t1": t2, "t2": t1}) == value
    # independent integer specialization of the restricted value
    restricted = value.substitute({"h": 2 * (t1 + t2)})
    lhs = evaluate(restricted, {"t1": 2, "t2": 5, "h1": 0, "h2": 0, "h": 0})
    e1, e2 = 2 + 5, 2 * 5
    assert lhs == 24 * e1**2 - 48 * e2


def test_step_residual_class(fx):
    report = step_residual_class(fx)
    assert report.verdict == "match"
    assert "restriction=20*l1*l2" in report.computed


def test_step_residual_class_negative_control(fx):
    assert step_residual_class(fx).verdict == "match"
    report = step_residual_class(replace(fx, residual_class=2 * fx.residual_class))
    assert report.verdict == "mismatch"
    assert report.computed == "restriction=20*l1*l2; fixture-consistent=false"


def test_step_double_triple_class(fx):
    report = step_double_triple_class(fx)
    assert report.verdict == "match"
    value = double_triple_value(fx)
    l1, l2, d1 = (Poly.var(fx.ambient, n) for n in ("l1", "l2", "d1"))
    assert value == 36 * l2 * (d1**2 - 2 * l1 * d1 + 16 * l2 - 3 * l1**2)


def test_step_final_presentation(fx):
    assert step_final_presentation(fx).verdict == "match"


def test_final_presentation_completes_the_final_ideal_once(fx, monkeypatch):
    """The ideal comparison and the graded pieces share one completion of
    the final ideal."""
    true_groebner = groebner.strong_groebner
    completed = []

    def counting_groebner(gens, order):
        completed.append(tuple(gens))
        return true_groebner(gens, order)

    monkeypatch.setattr(groebner, "strong_groebner", counting_groebner)
    monkeypatch.setattr(presentation, "strong_groebner", counting_groebner)
    assert step_final_presentation(fx).verdict == "match"
    assert completed.count(tuple(fx.final_ideal)) == 1


def test_final_ring_low_degree_pieces(fx):
    final_ring = RingPresentation(fx.ambient, fx.final_ideal)
    assert final_ring.piece(0).invariants() == (1, ())
    assert final_ring.piece(1).invariants() == (2, ())


def test_run_all_small_bound():
    report = run_all(degree_bound=2, oracle_trials=2, seed=0)
    assert report.overall == "match"
    names = [s.name for s in report.steps]
    assert names == [
        "patching",
        "transfer",
        "localization",
        "localization/pair-cubing",
        "node-locus-class",
        "node-image-ideal",
        "triple-root-class",
        "residual-class",
        "double-triple-class",
        "final-presentation",
    ]


def test_run_all_derives_each_relation_once(monkeypatch):
    """One run pushes the double-triple product map forward once and
    eliminates the node ideal once, though two steps read each; a replace()d
    fixture derives both again, and a derivation that raises is not kept."""
    true_pushforward, true_substitute = pipeline.pushforward, Poly.substitute
    products, eliminations = [], []

    def counting_pushforward(mapping, cls):
        if len(mapping.blocks) == 2:
            products.append(mapping)
        return true_pushforward(mapping, cls)

    def counting_substitute(p, assignment):
        if "e" in assignment:
            eliminations.append(p)
        return true_substitute(p, assignment)

    monkeypatch.setattr(pipeline, "pushforward", counting_pushforward)
    monkeypatch.setattr(Poly, "substitute", counting_substitute)
    fixtures = Fixtures.default()
    assert run_all(degree_bound=2, oracle_trials=2, seed=0, fixtures=fixtures).overall == "match"
    assert len(products) == 1
    assert len(eliminations) == len(fixtures.total.relations) + 1
    value, ideal = double_triple_value(fixtures), eliminated_node_ideal(fixtures)
    assert len(products) == 1
    copy = replace(fixtures, triple_root_class=fixtures.triple_root_class)
    assert copy == fixtures
    assert double_triple_value(copy) == value and eliminated_node_ideal(copy) == ideal
    assert len(products) == 2
    assert len(eliminations) == 2 * (len(fixtures.total.relations) + 1)

    def failing(mapping, cls):
        raise ArithmeticError("no pushforward")

    fresh = Fixtures.default()
    monkeypatch.setattr(pipeline, "pushforward", failing)
    with pytest.raises(ArithmeticError):
        double_triple_value(fresh)
    monkeypatch.setattr(pipeline, "pushforward", counting_pushforward)
    assert double_triple_value(fresh) == value
    assert len(products) == 3


CERTIFY_D10 = Path(__file__).resolve().parents[1] / "bench" / "golden" / "certify-d10.tsv"


def test_run_all_reports_are_pinned():
    """The whole degree-10 report: the machine lines equal the benchmark's
    golden file, and the text report, with each step's timing masked, and
    the final-presentation details hash as they were measured."""
    report = run_all(degree_bound=10, oracle_trials=20, seed=0)
    assert report.render_machine() == CERTIFY_D10.read_text(encoding="utf-8")

    def sha1(text):
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    masked = re.sub(r"\(\d+\.\d{3}s\)", "(-s)", report.render_text())
    assert sha1(masked) == "503db7d15806"
    (final,) = [s for s in report.steps if s.name == "final-presentation"]
    assert sha1("\n".join(final.details)) == "550894a926c0"


def test_run_all_zero_bound_degenerate():
    report = run_all(degree_bound=0, oracle_trials=2, seed=0)
    assert report.overall == "match"
    patching = report.steps[0]
    assert patching.verdict == "match"
    assert "[0..0]" in patching.computed


def test_run_all_with_corrupted_final_ideal():
    base = Fixtures.default()
    l1, d1 = Poly.var(base.ambient, "l1"), Poly.var(base.ambient, "d1")
    corrupted = Fixtures.default(final_ideal=[2 * d1**2 + 2 * l1 * d1])
    report = run_all(degree_bound=1, oracle_trials=2, seed=0, fixtures=corrupted)
    assert report.overall == "mismatch"
    final = [s for s in report.steps if s.name == "final-presentation"][0]
    assert final.verdict == "mismatch"


def test_failed_step_records_exception_type_and_raise_site():
    # A weight rule over the ambient table instead of the step's own table.
    base = Fixtures.default()
    wrong = (("g1", Poly.var(base.ambient, "l1")),)
    report = run_all(
        degree_bound=1, oracle_trials=2, seed=0, fixtures=replace(base, boundary_weight_rules=wrong)
    )
    step = [s for s in report.steps if s.name == "double-triple-class"][0]
    assert step.verdict == "mismatch"
    assert step.machine_line().split("\t")[2:] == [
        "error: image of 'g1' is not over the same table",
        "no error",
    ]
    (raised,) = step.details
    assert re.fullmatch(r"TableMismatch at poly\.py:\d+ in substitute", raised)
    assert f"  note: {raised}\n" in report.render_text()
    assert "TableMismatch" not in report.render_machine()


def test_machine_report_shape():
    report = run_all(degree_bound=1, oracle_trials=2, seed=0)
    for line in report.render_machine().splitlines():
        fields = line.split("\t")
        assert len(fields) == 4
        assert fields[1] in ("match", "mismatch", "informational")


def test_machine_report_deterministic():
    a = run_all(degree_bound=2, oracle_trials=3, seed=1).render_machine()
    b = run_all(degree_bound=2, oracle_trials=3, seed=1).render_machine()
    assert a == b
