"""The three benchmark workloads: seeded inputs, one timed pass, checks.

Each workload builds its inputs from the seed in `setup` and runs one pass
in `run`.  A pass goes through the engine's public entry points only and
returns a PassResult: how many items it attempted, how many raised or
gave a wrong output, and the text of every output, so that passes can be
compared with each other byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from equichow import cli, groebner
from equichow.jobfile import parse_push_job
from equichow.pipeline import Fixtures, double_triple_value, eliminated_node_ideal
from equichow.poly import Poly

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"

CERTIFY = "certify-d10"
PUSH = "push-mix"
IDEAL = "ideal-mix"


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    output: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def record(self, ok: bool, output: str, what: str):
        self.attempted += 1
        self.output.append(output)
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: wrong output")

    def crashed(self, what: str):
        self.attempted += 1
        self.failed += 1
        self.output.append(f"{what}: raised\n")
        self.errors.append(f"{what}: raised\n{traceback.format_exc()}")


def _cli(argv: List[str]) -> Tuple[int, str]:
    """Run `equichow <argv>` in this process; return exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


# -- certify-d10 ---------------------------------------------------------------


class Certify:
    """`equichow pipeline --degree-bound 10 --oracle-trials 20 --seed S`;
    the machine report must equal the golden file byte for byte."""

    name = CERTIFY
    DEGREE_BOUND = 10

    def setup(self, seed: int, workdir: Path):
        Fixtures.default().patch_square()
        report = workdir / "machine-report.tsv"
        argv = [
            "pipeline",
            "--degree-bound", str(self.DEGREE_BOUND),
            "--oracle-trials", "20",
            "--seed", str(seed),
            "--machine-report", str(report),
        ]
        return argv, report, (GOLDEN / "certify-d10.tsv").read_text(encoding="utf-8")

    def run(self, state) -> PassResult:
        argv, report, golden = state
        result = PassResult()
        report.unlink(missing_ok=True)
        try:
            code, _ = _cli(argv)
            machine = report.read_text(encoding="utf-8")
        except Exception:
            result.crashed("pipeline")
            return result
        result.record(code == 0 and machine == golden, machine, "pipeline")
        return result


# -- push-mix ------------------------------------------------------------------

PUSH_JOBS = 16
PUSH_DEGREE_CAP = 8
CHECKED_IN_JOBS = ("cubing", "mixed_pushforward")


def push_shapes() -> List[Tuple[int, bool, Tuple[int, ...], Tuple[int, ...]]]:
    """Every (factors, product map?, degrees, exponents) with 1-3 factors,
    d and exponents in 1-3 and target degree sum(a*d) <= the cap, ordered
    by fixed points times target degree (a proxy for the oracle's work)."""
    shapes = []
    for k in (1, 2, 3):
        for ds in itertools.product((1, 2, 3), repeat=k):
            for es in itertools.product((1, 2, 3), repeat=k):
                degree = sum(a * d for a, d in zip(es, ds))
                if degree > PUSH_DEGREE_CAP:
                    continue
                work = math.prod(d + 1 for d in ds) * degree
                for product in (False, True) if k > 1 else (False,):
                    shapes.append((work, k, product, ds, es))
    shapes.sort()
    return [shape[1:] for shape in shapes]


def push_job_text(rng: random.Random, index: int, shape) -> str:
    """One job file.  The shape and the weight kinds follow the job's slot
    in the batch, so every seed carries the same work; the seed draws the
    weight variables, the class monomial and the oracle points."""
    k, product, ds, es = shape

    def weights(full: bool) -> Tuple[str, str]:
        return ("g1", "g2") if full else (rng.choice(("g1", "g2")), "0")

    shared = weights(index % 2 == 0)
    lines = ["[vars]", "g1 1", "g2 1"] + [f"u{j + 1} 1" for j in range(k)]
    lines += [f"h{j + 1} 1" for j in range(k)] if product else ["h 1"]
    lines.append("[space]")
    for j in range(k):
        w0, w1 = weights((index + j) % 2 == 0) if product else shared
        lines.append(f"factor d={ds[j]} w0={w0} w1={w1} h=u{j + 1}")
    lines.append("[map]")
    if product:
        lines.append("product")
    lines += ["exponents = " + " ".join(map(str, es)), "target_h = h"]
    exps = [0] * k
    for _ in range((index % 3) * sum(ds) // 2):
        exps[rng.randrange(k)] += 1
    cls = "*".join(f"u{j + 1}^{e}" for j, e in enumerate(exps) if e) or "1"
    lines += ["[class]", cls, "[options]", "oracle_trials = 20"]
    lines.append(f"seed = {rng.randrange(10**6)}")
    return "\n".join(lines) + "\n"


class Push:
    """A seeded batch of `equichow push` job files plus the two checked-in
    jobs.  Every job must exit 0 (the exact oracle passed); the checked-in
    jobs must also print their known output."""

    name = PUSH

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        shapes = push_shapes()
        items: List[Tuple[str, Optional[str]]] = []
        for i in range(PUSH_JOBS):
            n = len(shapes)
            stratum = shapes[i * n // PUSH_JOBS : (i + 1) * n // PUSH_JOBS]
            path = workdir / f"job{i:02d}.job"
            path.write_text(push_job_text(rng, i, stratum[len(stratum) // 2]))
            items.append((str(path), None))
        for name in CHECKED_IN_JOBS:
            known = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
            items.append((str(ROOT / "jobs" / f"{name}.job"), known))
        for path, _ in items:
            parse_push_job(Path(path).read_text(encoding="utf-8"))
        return items

    def run(self, items) -> PassResult:
        result = PassResult()
        for path, known in items:
            what = f"push {Path(path).name}"
            try:
                code, out = _cli(["push", path])
            except Exception:
                result.crashed(what)
                continue
            ok = code == 0 and (known is None or out == known)
            result.record(ok, out, what)
        return result


# -- ideal-mix -----------------------------------------------------------------

IDEAL_QUESTIONS = 48
IDEAL_WORK_CAP = 400
NF_DEGREES = (3, 4, 5, 6, 7, 8)


def assembled_relations():
    """The pipeline's six assembled relations, the reference ideal and the
    ring Z[l1, l2, d1] they live in."""
    fx = Fixtures.default()
    rels = list(eliminated_node_ideal(fx)) + [
        fx.triple_root_class,
        fx.residual_class,
        double_triple_value(fx),
    ]
    return rels, list(fx.final_ideal), fx.ambient


def ideal_orderings() -> List[Tuple[int, ...]]:
    """Orderings of the six relations from data/perm_work.tsv, lightest
    first, without those whose completion forms more than the cap of S-
    and G-polynomials."""
    out = []
    for line in (BENCH / "data" / "perm_work.tsv").read_text().splitlines():
        if line.startswith("#"):
            continue
        count, perm = line.split("\t")
        if int(count) <= IDEAL_WORK_CAP:
            out.append(tuple(int(c) for c in perm))
    return out


def _random_homogeneous(rng: random.Random, table, degree: int, bound: int) -> Poly:
    terms = {m: rng.randint(-bound, bound) for m in table.monomials_of_grade(degree)}
    return Poly(table, terms)


@dataclass
class Question:
    gens: List[Poly]
    control: List[Poly]
    nf_pairs: List[Tuple[Poly, Poly]]


class Ideal:
    """Seeded questions about the assembled relation ideal in Z[l1,l2,d1]:
    complete an ordering of the relations and prove it equal to the
    reference; a negative control with one reference generator doubled
    must compare unequal; normal forms must not see an added ideal member."""

    name = IDEAL

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        rels, reference, table = assembled_relations()
        orderings = ideal_orderings()
        questions = []
        for q in range(IDEAL_QUESTIONS):
            n = len(orderings)
            perm = rng.choice(orderings[q * n // IDEAL_QUESTIONS : (q + 1) * n // IDEAL_QUESTIONS])
            control = list(reference)
            k = rng.randrange(len(control))
            control[k] = 2 * control[k]
            pairs = []
            for degree in (NF_DEGREES[q % len(NF_DEGREES)], NF_DEGREES[-1 - q % len(NF_DEGREES)]):
                p = _random_homogeneous(rng, table, degree, 9)
                member = Poly.zero(table)
                for g in reference:
                    rest = degree - g.homogeneous_grade()
                    if rest >= 0:
                        member = member + _random_homogeneous(rng, table, rest, 3) * g
                pairs.append((p, p + member))
            questions.append(Question([rels[i] for i in perm], control, pairs))
        return reference, groebner.MonomialOrder.grevlex(table), questions

    def run(self, state) -> PassResult:
        reference, order, questions = state
        result = PassResult()
        try:
            ref_basis = groebner.strong_groebner(reference, order)
        except Exception:
            result.crashed("reference basis")
            return result
        for n, q in enumerate(questions):
            what = f"question {n}"
            try:
                basis = groebner.strong_groebner(q.gens, order)
                equal = groebner.ideal_equal(basis.polys, reference, order)
                control = groebner.ideal_equal(basis.polys, q.control, order)
                forms = [
                    (groebner.normal_form(p, ref_basis), groebner.normal_form(pm, ref_basis))
                    for p, pm in q.nf_pairs
                ]
            except Exception:
                result.crashed(what)
                continue
            ok = equal and not control and all(a == b for a, b in forms)
            text = f"equal={equal} control={control} " + " ".join(
                a.render() for a, _ in forms
            )
            result.record(ok, text + "\n", what)
        return result


WORKLOADS = {w.name: w for w in (Certify(), Push(), Ideal())}
