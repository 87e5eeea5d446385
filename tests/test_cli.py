import hashlib
import os
import subprocess
import sys
import time

import pytest

from equichow.cli import build_parser, main
from equichow.jobfile import MAX_DEGREE_BOUND, MAX_ORACLE_TRIALS, MAX_PIECE_MONOMIALS

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(args, **kwargs):
    """`python -m equichow ARGS` in a child process that imports this checkout."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "equichow", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def test_push_golden_output(capsys):
    code, out, _ = run_cli(["push", os.path.join(JOBS, "cubing.job")], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3*h^2 - 9*h*g1 - 9*h*g2 + 6*g1^2 + 15*g1*g2 + 6*g2^2"
    assert lines[1].startswith("oracle: pass (20 trials")


def test_push_reports_denominator_residue(capsys, corrupt_point_class):
    code, out, err = run_cli(["push", os.path.join(JOBS, "cubing.job")], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_push_identity_job(tmp_path, capsys):
    job = tmp_path / "identity.job"
    job.write_text(
        "[vars]\nh 1\ng1 1\ng2 1\nh1 1\n"
        "[space]\nfactor d=1 w0=g1 w1=g2 h=h1\n"
        "[map]\nexponents = 1\ntarget_h = h\n"
        "[class]\nh1 - 3*g1\n"
    )
    code, out, _ = run_cli(["push", str(job)], capsys)
    assert code == 0
    assert out.strip() == "h - 3*g1"


def test_push_rejects_equal_weights(tmp_path, capsys):
    job = tmp_path / "bad.job"
    job.write_text(
        "[vars]\nh 1\ng1 1\nh1 1\n"
        "[space]\nfactor d=1 w0=g1 w1=g1 h=h1\n"
        "[map]\nexponents = 3\n[class]\n1\n"
    )
    code, _, err = run_cli(["push", str(job)], capsys)
    assert code == 2
    assert "error" in err


def push_job(factor="factor d=1 w0=g1 w1=g2 h=h1", cls="1", options=""):
    return (
        "[vars]\nh 1\ng1 1\ng2 1\nh1 1\n"
        f"[space]\n{factor}\n"
        "[map]\nexponents = 3\ntarget_h = h\n"
        f"[class]\n{cls}\n[options]\noracle_trials = 5\n{options}"
    )


@pytest.mark.parametrize(
    "factor",
    [
        "factor d=1 w0=h w1=g2 h=h1",
        "factor d=1 w0=h1 w1=g2 h=h1",
        "factor d=1 w0=h1 w1=2*h1 h=h1",
    ],
    ids=["target-hvar", "own-hvar", "only-hvars"],
)
def test_push_rejects_hyperplane_variable_in_weight(tmp_path, capsys, factor):
    job = tmp_path / "bad.job"
    job.write_text(push_job(factor=factor))
    code, out, err = run_cli(["push", str(job)], capsys)
    assert (code, out) == (2, "")
    assert "hyperplane variable" in err


@pytest.mark.parametrize(
    "text",
    [
        push_job().replace("h1 1\n", "h1 2\n"),
        push_job().replace("h 1\n", "h 2\n"),
    ],
    ids=["source", "target"],
)
def test_push_rejects_hyperplane_variable_of_degree_two(tmp_path, capsys, text):
    job = tmp_path / "bad.job"
    job.write_text(text)
    code, out, err = run_cli(["push", str(job)], capsys)
    assert (code, out) == (2, "")
    assert "must have degree 1" in err


@pytest.mark.parametrize(
    "text",
    [
        push_job(cls="h1^100000000"),
        push_job(cls="h1^20*h1^20"),
        push_job(factor="factor d=400 w0=g1 w1=g2 h=h1"),
        push_job(options="oracle_trials = 100000000\n"),
    ],
    ids=["exponent", "exponent-product", "dimension", "trials"],
)
def test_push_rejects_oversized_job(tmp_path, capsys, text):
    job = tmp_path / "big.job"
    job.write_text(text)
    code, out, err = run_cli(["push", str(job)], capsys)
    assert (code, out) == (2, "")
    assert "error" in err


def test_push_rejects_too_many_fixed_points(tmp_path, capsys):
    # 7 factors of degree 1: target degree 7 but 2^7 source fixed points
    names = [f"u{k}" for k in range(1, 8)]
    job = tmp_path / "many.job"
    job.write_text(
        "[vars]\nh 1\ng1 1\ng2 1\n"
        + "".join(f"{n} 1\n" for n in names)
        + "[space]\n"
        + "".join(f"factor d=1 w0=g1 w1=g2 h={n}\n" for n in names)
        + "[map]\nexponents = " + " ".join("1" for _ in names) + "\n[class]\n1\n"
    )
    code, out, err = run_cli(["push", str(job)], capsys)
    assert (code, out) == (2, "")
    assert "fixed points" in err


def product_cubing_job(cls):
    # three P^1 factors cubed factorwise: source dimension 3
    return (
        "[vars]\ng1 1\ng2 1\ng3 1\nu1 1\nu2 1\nu3 1\nh1 1\nh2 1\nh3 1\n"
        "[space]\nfactor d=1 w0=g2 w1=g3 h=u1\n"
        "factor d=1 w0=g3 w1=g1 h=u2\nfactor d=1 w0=g1 w1=g2 h=u3\n"
        "[map]\nproduct\nexponents = 3 3 3\n"
        f"[class]\n{cls}\n[options]\noracle_trials = 5\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        push_job(cls="h1^2 + g1"),
        product_cubing_job("u1^8*u2^8*u3^8"),
        product_cubing_job("u1^2*u2*u3"),
    ],
    ids=["one-factor", "product", "product-just-above"],
)
def test_push_rejects_class_above_source_dimension(tmp_path, capsys, text):
    job = tmp_path / "deep.job"
    job.write_text(text)
    code, out, err = run_cli(["push", str(job)], capsys)
    assert (code, out) == (2, "")
    assert "above the source dimension" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            product_cubing_job("u1^8*u2^8*u3^8"),
            "class term of degree above the source dimension 3 in u1, u2, u3",
        ),
        (
            "[vars]\nh 1\ng1 1\ng2 1\nu1 1\n[space]\nfactor d=1 w0=g1 w1=g2 h=u1\n"
            "[map]\nproduct\nexponents = 3\ntarget_h = h\n[class]\n1\n",
            "unknown variable 'h1'",
        ),
    ],
    ids=["class-too-deep", "unknown-target-variable"],
)
def test_job_level_error_has_no_column(tmp_path, capsys, text, message):
    job = tmp_path / "bad.job"
    job.write_text(text)
    code, out, err = run_cli(["push", str(job)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text",
    [push_job(cls="h1 + g1^5"), product_cubing_job("u1*u2*u3 + g1^2*u3")],
    ids=["one-factor", "product"],
)
def test_push_accepts_class_at_source_dimension(tmp_path, capsys, text):
    job = tmp_path / "top.job"
    job.write_text(text)
    code, out, _ = run_cli(["push", str(job)], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("oracle: pass (5 trials")


def test_oracle_trials_flag_is_capped(capsys):
    job = os.path.join(JOBS, "cubing.job")
    with pytest.raises(SystemExit) as info:
        main(["push", job, "--oracle-trials", str(MAX_ORACLE_TRIALS + 1)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be <= {MAX_ORACLE_TRIALS}" in captured.err


def test_push_missing_file(capsys):
    code, _, err = run_cli(["push", "no/such/file.job"], capsys)
    assert code == 2


def test_nf_golden(capsys):
    gens = os.path.join(JOBS, "involution_ideal.gens")
    code, out, _ = run_cli(["nf", "--gens", gens, "x^3"], capsys)
    assert code == 0
    assert out.strip() == "l1^2*x"


def test_nf_of_zero_and_generator(capsys):
    gens = os.path.join(JOBS, "involution_ideal.gens")
    code, out, _ = run_cli(["nf", "--gens", gens, "0"], capsys)
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run_cli(["nf", "--gens", gens, "2*x"], capsys)
    assert (code, out.strip()) == (0, "0")


def test_nf_parse_error(capsys):
    gens = os.path.join(JOBS, "involution_ideal.gens")
    code, _, err = run_cli(["nf", "--gens", gens, "q + 1"], capsys)
    assert code == 2


@pytest.mark.parametrize("degree", ["\u00b2", "1" * 5000], ids=["superscript", "5000-digits"])
def test_nf_rejects_degree_int_refuses(tmp_path, capsys, degree):
    gens = tmp_path / "bad.gens"
    gens.write_text(f"[vars]\nx {degree}\n[ideal]\ngen = x\n", encoding="utf-8")
    code, out, err = run_cli(["nf", "--gens", str(gens), "x"], capsys)
    assert (code, out) == (2, "")
    assert "error" in err


@pytest.mark.parametrize("name", ["2", "x*y", "h^2"])
def test_nf_rejects_a_variable_name_the_grammar_cannot_read(tmp_path, capsys, name):
    gens = tmp_path / "bad.gens"
    gens.write_text(f"[vars]\nx 1\n{name} 1\n[ideal]\ngen = x^2\n", encoding="utf-8")
    code, out, err = run_cli(["nf", "--gens", str(gens), "x"], capsys)
    assert (code, out, err) == (2, "", f"error: line 3: bad variable name {name!r}\n")


def test_nf_finishes_on_inhomogeneous_ideal(tmp_path):
    """Completing this ideal in pair-arrival order grew a basis of hundreds
    of elements with coefficients of thousands of bits; taking pairs by
    lcm degree finishes at once."""
    gens = tmp_path / "inhomogeneous.gens"
    gens.write_text(
        "[vars]\nx 1\ny 1\n[ideal]\n"
        "gen = -4*x^2 - 2*y^2 - 4*x - 3*y - 3\n"
        "gen = -3*x*y + 2*y\n"
        "gen = 3*x^2 - 3*x + 3*y - 2\n"
    )
    proc = run_module(["nf", "--gens", str(gens), "x^3"], timeout=30)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "171267"


def test_fiber_check_passes(capsys):
    job = os.path.join(JOBS, "patch_square.job")
    code, out, _ = run_cli(["fiber-check", job, "--degree-bound", "3"], capsys)
    assert code == 0
    assert "cartesian: pass" in out


def test_fiber_check_output_is_pinned(capsys):
    """The whole report of the checked-in square at its own bound, byte for
    byte (sha1 of stdout)."""
    code, out, _ = run_cli(["fiber-check", os.path.join(JOBS, "patch_square.job")], capsys)
    assert code == 0
    assert out.splitlines()[-2:] == [
        "deg 8: ok corner=(free 25, torsion [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2])"
        " fiber=(free 25, torsion [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]) surjective=True",
        "cartesian: pass",
    ]
    assert hashlib.sha1(out.encode()).hexdigest() == "4173ab1eb86b907938c75a3a23c78b3472312104"


def free_square_job(tmp_path, n, bound):
    """Four rings free on n degree-1 variables, identity maps between them."""
    names = [f"v{i}" for i in range(n)]
    lines = ["[vars]", *(f"{v} 1" for v in names)]
    for corner in "ABCD":
        lines += [f"[ring {corner}]", "vars = " + " ".join(names)]
    for hom in ("A->B", "A->C", "B->D", "C->D"):
        lines += [f"[hom {hom}]", *(f"{v} = {v}" for v in names)]
    job = tmp_path / f"free{n}.job"
    job.write_text("\n".join([*lines, "[options]", f"degree_bound = {bound}", ""]))
    return str(job)


def test_square_job_above_the_monomial_cap_exits_at_once(tmp_path, capsys):
    """Nine free variables at bound 20 give 3 108 105 degree-20 monomials:
    the job is refused before any work, in well under a second."""
    job = free_square_job(tmp_path, 9, 20)
    start = time.perf_counter()
    code, out, err = run_cli(["fiber-check", job], capsys)
    assert time.perf_counter() - start < 1.0
    message = f"ring A has 3108105 monomials in degree 20, more than {MAX_PIECE_MONOMIALS}"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_square_cap_reads_the_bound_that_runs(tmp_path, capsys):
    """The cap counts up to --degree-bound when it is given, else up to the
    file's bound: five free variables have 4845 monomials in degree 16 and
    10 626 in degree 20."""
    job = free_square_job(tmp_path, 5, 2)
    code, out, err = run_cli(["fiber-check", job, "--degree-bound", "20"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ring A has 10626 monomials in degree 20")
    job = free_square_job(tmp_path, 5, 20)
    code, out, _ = run_cli(["fiber-check", job, "--degree-bound", "3"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "cartesian: pass")


def patch_square_job(tmp_path, bound):
    with open(os.path.join(JOBS, "patch_square.job"), "r", encoding="utf-8") as fh:
        text = fh.read().replace("degree_bound = 8", f"degree_bound = {bound}")
    job = tmp_path / "square.job"
    job.write_text(text)
    return str(job)


def test_fiber_check_at_degree_cap(tmp_path, capsys):
    job = patch_square_job(tmp_path, MAX_DEGREE_BOUND)
    code, out, _ = run_cli(["fiber-check", job], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == MAX_DEGREE_BOUND + 2
    assert lines[-2].startswith(f"deg {MAX_DEGREE_BOUND}: ok")
    assert lines[-1] == "cartesian: pass"


def test_square_job_above_degree_cap(tmp_path, capsys):
    job = patch_square_job(tmp_path, MAX_DEGREE_BOUND + 1)
    code, out, err = run_cli(["fiber-check", job], capsys)
    assert (code, out) == (2, "")
    assert "bad value for 'degree_bound'" in err


@pytest.mark.parametrize(
    "args", [["pipeline"], ["fiber-check", "job"]], ids=["pipeline", "fiber-check"]
)
def test_degree_bound_flag_is_capped(capsys, args):
    parsed = build_parser().parse_args([*args, "--degree-bound", str(MAX_DEGREE_BOUND)])
    assert parsed.degree_bound == MAX_DEGREE_BOUND
    with pytest.raises(SystemExit) as info:
        main([*args, "--degree-bound", str(MAX_DEGREE_BOUND + 1)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be <= {MAX_DEGREE_BOUND}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[ring C]\nvars = l1 l2\n", "[ring C]\nvars = l1 q\n", "unknown variable 'q'"),
        (
            "[ring C]\nvars = l1 l2\n",
            "[ring C]\nvars = l1 l1\n",
            "duplicate variable names in table",
        ),
        (
            "[ring C]\nvars = l1 l2\n",
            "[ring C]\nvars = l1 l2\nrelation = x\n",
            "line 18: unknown variable 'x' (column 1)",
        ),
        ("relation = 2*e\n", "relation = 2*e + l1\n", "relation 2*e + l1 is not homogeneous"),
    ],
    ids=["unknown-var", "duplicate-var", "foreign-relation", "inhomogeneous"],
)
def test_hostile_square_ring(tmp_path, capsys, old, new, message):
    """A bad [ring] section exits 2 with one error line and no traceback."""
    with open(os.path.join(JOBS, "patch_square.job"), "r", encoding="utf-8") as fh:
        text = fh.read()
    job = tmp_path / "hostile.job"
    job.write_text(text.replace(old, new, 1))
    code, out, err = run_cli(["fiber-check", str(job), "--degree-bound", "2"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


FINAL_GEN = "[final]\ngen = 2*d1^2 + 2*l1*d1\n"


@pytest.mark.parametrize(
    "command, base, extra, header",
    [
        (["push"], "cubing.job", "[class]\nh1\n", "class"),
        (["nf", "x^3", "--gens"], "involution_ideal.gens", "[vars]\nl1 1\n", "vars"),
        (["fiber-check"], "patch_square.job", "[ring B]\nvars = l1 l2 d1 x\n", "ring B"),
        (["fiber-check"], "patch_square.job", "[ring  B]\nvars = l1 l2 d1 x\n", "ring  B"),
        (["fiber-check"], "patch_square.job", "[hom A -> B]\nl1 = l1\n", "hom A -> B"),
        (["pipeline", "--fixtures"], None, FINAL_GEN, "final"),
    ],
    ids=["push", "ideal", "square-ring", "square-ring-spacing", "square-hom-spacing", "fixture"],
)
def test_repeated_section_is_rejected(tmp_path, capsys, command, base, extra, header):
    """A section given twice exits 2 naming the second header's line; it is
    not read as its last copy."""
    if base is None:
        text = FINAL_GEN
    else:
        with open(os.path.join(JOBS, base), "r", encoding="utf-8") as fh:
            text = fh.read()
    job = tmp_path / "repeated.job"
    job.write_text(text + extra)
    lineno = len(text.splitlines()) + 1
    code, out, err = run_cli([*command, str(job)], capsys)
    assert (code, out, err) == (2, "", f"error: line {lineno}: repeated section [{header}]\n")


@pytest.mark.parametrize(
    "command, base, old, new, key, section",
    [
        (["push"], "cubing.job", "seed = 7\n", "oracle_trials = 5\n", "oracle_trials", "options"),
        (["push"], "cubing.job", "exponents = 3\n", "exponents = 2\n", "exponents", "map"),
        (["push"], "cubing.job", "target_h = h\n", "target_h = h\n", "target_h", "map"),
        (["push"], "cubing.job", "[map]\n", "product\nproduct\n", "product", "map"),
        (["push"], "cubing.job", "[space]\n", "factor d=1 w0=g1 w1=g2 h=h1 d=2\n", "d", "space"),
        (["fiber-check"], "patch_square.job", "vars = l1 l2\n", "vars = l1\n", "vars", "ring C"),
        (["fiber-check"], "patch_square.job", "e = d1*x\n", "e = 0\n", "e", "hom A->B"),
        (
            ["fiber-check"],
            "patch_square.job",
            "degree_bound = 8\n",
            "degree_bound = 2\n",
            "degree_bound",
            "options",
        ),
    ],
    ids=[
        "options",
        "exponents",
        "target-h",
        "product",
        "factor",
        "ring-vars",
        "hom-image",
        "square-options",
    ],
)
def test_repeated_key_is_rejected(tmp_path, capsys, command, base, old, new, key, section):
    """A single-valued key given twice in one section exits 2 naming the
    line of the repeat; it is not read as its last value.  The lines in
    `new` go right after `old`, and the last of them repeats the key."""
    with open(os.path.join(JOBS, base), "r", encoding="utf-8") as fh:
        text = fh.read()
    end = text.index(old) + len(old)
    text = text[:end] + new + text[end:]
    job = tmp_path / "repeated.job"
    job.write_text(text)
    lineno = text[: end + len(new)].count("\n")
    code, out, err = run_cli([*command, str(job)], capsys)
    message = f"error: line {lineno}: repeated key {key!r} in [{section}]\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("option", ["oracle_trials = 20", "seed = 7"])
def test_square_job_rejects_oracle_options(tmp_path, capsys, option):
    """fiber-check draws nothing at random and runs no oracle, so a square
    file may not set either option."""
    with open(os.path.join(JOBS, "patch_square.job"), "r", encoding="utf-8") as fh:
        text = fh.read()
    job = tmp_path / "square.job"
    job.write_text(text + option + "\n")
    lineno = len(text.splitlines()) + 1
    code, out, err = run_cli(["fiber-check", str(job)], capsys)
    key = option.split()[0]
    assert (code, out, err) == (2, "", f"error: line {lineno}: unknown option {key!r}\n")


def _job_with(tmp_path, base, old, new):
    """The checked-in job `base` with its first `old` replaced by `new`."""
    with open(os.path.join(JOBS, base), "r", encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    job = tmp_path / base
    job.write_text(text.replace(old, new, 1))
    return str(job)


def test_unknown_factor_key_is_rejected(tmp_path, capsys):
    """A factor line takes only d, w0, w1 and h: another key exits 2
    naming its line, and is not ignored."""
    job = _job_with(tmp_path, "cubing.job", "h=h1\n", "h=h1 colour=red\n")
    code, out, err = run_cli(["push", job], capsys)
    assert (code, out, err) == (2, "", "error: line 8: unknown factor key 'colour'\n")


def test_push_job_rejects_degree_bound(tmp_path, capsys):
    """A push job has no degree bound: the option exits 2 as unknown, as
    the oracle options do in a square file."""
    job = _job_with(tmp_path, "cubing.job", "seed = 7\n", "seed = 7\ndegree_bound = 8\n")
    code, out, err = run_cli(["push", job], capsys)
    assert (code, out, err) == (2, "", "error: line 17: unknown option 'degree_bound'\n")


def test_hom_image_of_a_non_generator_is_rejected(tmp_path, capsys):
    """An image for a name that is not a generator of the source ring exits
    2, is not ignored, and the error names the line of the hom's header."""
    job = _job_with(tmp_path, "patch_square.job", "e = d1*x\n", "e = d1*x\ntypo = x\n")
    code, out, err = run_cli(["fiber-check", job], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 22: image given for 'typo', not a source generator\n"


def test_parser_is_built_once(capsys):
    """Every call reads one parser, and a rejected command line leaves it
    as it was."""
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["pipeline", "--degree-bound", "-1"])
    assert build_parser().parse_args(["pipeline"]).degree_bound == 8
    capsys.readouterr()


def test_fiber_check_detects_failure(tmp_path, capsys):
    with open(os.path.join(JOBS, "patch_square.job"), "r", encoding="utf-8") as fh:
        text = fh.read()
    broken = text.replace("relation = 2*e\n", "")
    job = tmp_path / "broken.job"
    job.write_text(broken)
    code, out, _ = run_cli(["fiber-check", str(job), "--degree-bound", "2"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_pipeline_small_bound(tmp_path, capsys):
    report = tmp_path / "report.txt"
    machine = tmp_path / "machine.tsv"
    code, out, _ = run_cli(
        [
            "pipeline",
            "--degree-bound",
            "2",
            "--oracle-trials",
            "2",
            "--report",
            str(report),
            "--machine-report",
            str(machine),
        ],
        capsys,
    )
    assert code == 0
    assert "overall: match" in out
    assert report.read_text() == out
    for line in machine.read_text().splitlines():
        assert len(line.split("\t")) == 4


def test_pipeline_unwritable_report_path(capsys):
    code, _, err = run_cli(
        [
            "pipeline",
            "--degree-bound",
            "0",
            "--oracle-trials",
            "1",
            "--report",
            "/nonexistent-dir/report.txt",
        ],
        capsys,
    )
    assert code == 2
    assert "error" in err


def test_pipeline_rejects_negative_bound():
    with pytest.raises(SystemExit) as info:
        main(["pipeline", "--degree-bound", "-1"])
    assert info.value.code == 2


def test_pipeline_corrupted_fixture_file(tmp_path, capsys):
    fixture = tmp_path / "fixtures.cfg"
    fixture.write_text("[final]\ngen = 2*d1^2 + 2*l1*d1\n")
    code, out, _ = run_cli(
        [
            "pipeline",
            "--degree-bound",
            "1",
            "--oracle-trials",
            "2",
            "--fixtures",
            str(fixture),
        ],
        capsys,
    )
    assert code == 1
    assert "overall: mismatch" in out


def test_pipeline_bad_fixture_file(tmp_path, capsys):
    fixture = tmp_path / "fixtures.cfg"
    fixture.write_text("[final]\nbogus line\n")
    code, _, err = run_cli(
        ["pipeline", "--degree-bound", "1", "--fixtures", str(fixture)], capsys
    )
    assert code == 2


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EQUICHOW_SEED", "5")
    code, out, _ = run_cli(["push", os.path.join(JOBS, "cubing.job")], capsys)
    assert code == 0
    # the job file pins its own seed, which wins over the environment
    assert "seed 7" in out
    job = tmp_path / "noseed.job"
    with open(os.path.join(JOBS, "cubing.job"), "r", encoding="utf-8") as fh:
        text = fh.read().replace("seed = 7\n", "")
    job.write_text(text)
    code, out, _ = run_cli(["push", str(job)], capsys)
    assert code == 0
    assert "seed 5" in out


def test_console_entry_point():
    proc = run_module(["nf", "--gens", os.path.join(JOBS, "involution_ideal.gens"), "x^2"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "l1*x"
