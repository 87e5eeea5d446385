import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equichow import ParseError, Poly, VarTable, parse_poly
from equichow.jobfile import (
    parse_fixture_overrides,
    parse_ideal_job,
    parse_push_job,
    parse_square_job,
)
from equichow.pipeline import Fixtures
from equichow.textio import MAX_EXPONENT
from conftest import random_poly
from oracles import plain_parse_poly

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")

TABLE = VarTable([("l1", 1), ("l2", 2), ("d1", 1)])


def test_parse_simple():
    p = parse_poly("24*l1^2 - 48*l2", TABLE)
    l1, l2 = Poly.var(TABLE, "l1"), Poly.var(TABLE, "l2")
    assert p == 24 * l1**2 - 48 * l2


def test_parse_render_round_trip():
    rng = random.Random(2024)
    for _ in range(100):
        p = random_poly(TABLE, rng, max_exp=3, terms=5, coeff=30)
        assert parse_poly(p.render(), TABLE) == p


def test_parse_signs_and_constants():
    assert parse_poly("-l1 + 3", TABLE) == 3 - Poly.var(TABLE, "l1")
    assert parse_poly("0", TABLE).is_zero()
    assert parse_poly("2*3*l1", TABLE) == 6 * Poly.var(TABLE, "l1")


def test_parse_errors_are_positional():
    with pytest.raises(ParseError):
        parse_poly("l1 + ", TABLE)
    with pytest.raises(ParseError):
        parse_poly("unknown", TABLE)
    with pytest.raises(ParseError):
        parse_poly("l1 ^ x", TABLE)
    with pytest.raises(ParseError):
        parse_poly("", TABLE)
    with pytest.raises(ParseError):
        parse_poly("l1 @ l2", TABLE)
    with pytest.raises(ParseError) as info:
        parse_poly("l1 + q", TABLE)
    assert (str(info.value), info.value.position) == ("unknown variable 'q' (column 6)", 5)


def parse_outcome(parse, text):
    try:
        return parse(text, TABLE)
    except ParseError as exc:
        return str(exc), exc.position


FACTORS = st.one_of(
    st.sampled_from(["0", "1", "l1^0", f"d1^{MAX_EXPONENT}", f"l2^{MAX_EXPONENT + 1}"]),
    st.integers(0, 40).map(str),
    st.tuples(st.sampled_from(TABLE.names), st.integers(0, MAX_EXPONENT + 2)).map(
        lambda f: f"{f[0]}^{f[1]}"
    ),
    st.sampled_from(TABLE.names),
)
TERMS = st.lists(FACTORS, min_size=1, max_size=4).map("*".join)
WELL_FORMED = st.builds(
    lambda lead, terms: lead + "".join(f" {sign} {term}" for sign, term in terms)[3:],
    st.sampled_from(["", "-", "+"]),
    st.lists(st.tuples(st.sampled_from("+-"), TERMS), min_size=1, max_size=4),
)
MALFORMED = st.lists(
    st.sampled_from(["l1", "l2", "d1", "q", "^", "*", "+", "-", " ", "0", "2", "33", "@", "9" * 5000]),
    max_size=8,
).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(WELL_FORMED, MALFORMED))
@example(f"0*l2^{MAX_EXPONENT + 1} - l1")  # a zero term is not checked for its exponents
@example(f"l1^{MAX_EXPONENT}*l1^0 + 2*l1 - 2*l1")
def test_parse_matches_the_poly_product_parser(text):
    """The parser that adds exponent tuples into one terms mapping gives
    the polynomial, or the ParseError text and column, of the parser that
    multiplies one Poly per factor."""
    assert parse_outcome(parse_poly, text) == parse_outcome(plain_parse_poly, text)


def test_parse_error_without_position_names_no_column():
    error = ParseError("job needs [vars]")
    assert (str(error), error.position) == ("job needs [vars]", None)


def test_parse_caps_exponents_and_literals():
    top = Poly.var(TABLE, "l1", MAX_EXPONENT)
    assert parse_poly(f"l1^{MAX_EXPONENT}", TABLE) == top
    with pytest.raises(ParseError):
        parse_poly(f"l1^{MAX_EXPONENT + 1}", TABLE)
    with pytest.raises(ParseError):
        parse_poly(f"d1*l1^{MAX_EXPONENT}*l1", TABLE)
    with pytest.raises(ParseError):
        parse_poly("1" * 5000 + "*l1", TABLE)


PUSH_JOB = """
[vars]
h 1
g1 1
g2 1
h1 1
[space]
factor d=1 w0=g1 w1=g2 h=h1
[map]
exponents = 3
target_h = h
[class]
1
[options]
oracle_trials = 4
seed = 9
"""


def test_push_job_round_trip():
    job = parse_push_job(PUSH_JOB)
    assert job.space.factors[0].d == 1
    assert job.mapping.target.factors[0].d == 3
    assert job.options.oracle_trials == 4
    again = parse_push_job(job.render())
    assert again.render() == job.render()
    assert again.cls == job.cls


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[class]\n1\n", "[class]\nh1 +\n", "line 13: expected a coefficient or variable (column 5)"),
        ("w0=g1", "w0=", "line 8: empty polynomial (column 1)"),
        ("[class]\n1\n", "[class]\nh1 +\n2*g1 -\n# note\nq\n", "line 16: unknown variable 'q' (column 1)"),
        ("[class]\n1\n", "[class]\n", "line 12: empty polynomial (column 1)"),
    ],
    ids=["class-body", "factor-weight", "class-on-three-lines", "empty-class"],
)
def test_push_job_polynomial_errors_name_their_line(old, new, message):
    """A polynomial error names the job file's line and the column on it;
    a class spread over lines names the line that holds the column."""
    with open(os.path.join(JOBS, "cubing.job"), "r", encoding="utf-8") as fh:
        text = fh.read().replace(old, new, 1)
    with pytest.raises(ParseError) as info:
        parse_push_job(text)
    assert str(info.value) == message


def test_hom_error_names_the_header_line():
    """An image for a name that is not a source generator is an error of
    the [hom A->B] section, named by its header line."""
    with open(os.path.join(JOBS, "patch_square.job"), "r", encoding="utf-8") as fh:
        text = fh.read().replace("e = d1*x\n", "e = d1*x\ntypo = x\n", 1)
    with pytest.raises(ParseError) as info:
        parse_square_job(text)
    assert str(info.value) == "line 22: image given for 'typo', not a source generator"


def test_push_job_rejects_equal_weights():
    bad = PUSH_JOB.replace("w1=g2", "w1=g1")
    with pytest.raises(ParseError):
        parse_push_job(bad)


def test_push_job_rejects_missing_sections():
    with pytest.raises(ParseError):
        parse_push_job("[vars]\nh 1\n")


def test_push_job_rejects_negative_options():
    bad = PUSH_JOB.replace("oracle_trials = 4", "oracle_trials = -1")
    with pytest.raises(ParseError):
        parse_push_job(bad)


def test_product_job():
    text = """
[vars]
g1 1
g2 1
u1 1
u2 1
h1 1
h2 1
[space]
factor d=1 w0=g1 w1=g2 h=u1
factor d=1 w0=g1 w1=g2 h=u2
[map]
product
exponents = 3 3
[class]
1
"""
    job = parse_push_job(text)
    assert job.product
    assert [f.hvar for f in job.mapping.target.factors] == ["h1", "h2"]


def test_ideal_job_round_trip():
    text = """
[vars]
l1 1
x 1
[ideal]
gen = 2*x
gen = x^2 + l1*x
"""
    job = parse_ideal_job(text)
    assert len(job.generators) == 2
    again = parse_ideal_job(job.render())
    assert again.generators == job.generators


@pytest.mark.parametrize("degree", ["\u00b2", "1" * 5000], ids=["superscript", "5000-digits"])
def test_ideal_job_rejects_degree_int_refuses(degree):
    with pytest.raises(ParseError):
        parse_ideal_job(f"[vars]\nx {degree}\n[ideal]\ngen = x\n")


def test_square_job(tmp_path):
    with open("jobs/patch_square.job", "r", encoding="utf-8") as fh:
        job = parse_square_job(fh.read())
    assert job.degree_bound == 8
    assert job.square.a.table.names == ("l1", "l2", "d1", "e")


def test_square_job_missing_hom():
    text = """
[vars]
l1 1
[ring A]
vars = l1
[ring B]
vars = l1
[ring C]
vars = l1
[ring D]
vars = l1
[hom A->B]
l1 = l1
"""
    with pytest.raises(ParseError):
        parse_square_job(text)


def test_fixture_overrides():
    fx = parse_fixture_overrides(
        "# comment\n[candidate]\nrelation = 2*e\n[final]\ngen = 2*d1^2 + 2*l1*d1\ngen = l2\n"
    )
    e = Poly.var(fx.total.table, "e")
    l1, l2, d1 = (Poly.var(fx.ambient, n) for n in ("l1", "l2", "d1"))
    assert fx.total.relations == (2 * e,)
    assert tuple(fx.final_ideal) == (2 * d1**2 + 2 * l1 * d1, l2)
    # An absent section keeps the built-in value.
    default = parse_fixture_overrides("[final]\ngen = l2\n")
    assert default.total.relations == Fixtures.default().total.relations


@pytest.mark.parametrize(
    "text, message",
    [
        ("[final]\nbogus line\n", "line 2: expected 'gen = <poly>'"),
        ("[candidate]\ngen = e\n", "line 2: expected 'relation = <poly>'"),
        ("[ideal]\ngen = l2\n", "unknown fixture section [ideal]"),
        ("gen = l2\n", "line 1: content before any section header"),
        ("[final]\ngen = e\n", "unknown variable"),
    ],
)
def test_fixture_overrides_reject(text, message):
    with pytest.raises(ParseError) as info:
        parse_fixture_overrides(text)
    assert message in str(info.value)
