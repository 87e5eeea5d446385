"""A mutation sweep of the four job-file formats through the command line.

Each example starts from a checked-in job, or from the built-in fixtures
written as a fixture file, applies one to three mutations drawn from the
format's table in `equichow.jobfile`, and runs the file through its
`equichow` command.  Every outcome must be exit code 0, 1 or 2 with no
traceback.  The only new polynomials drawn are single monomials at and
just past the exponent cap, so no drawn job can ask for a Groebner
completion that runs away.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equichow import jobfile
from equichow.cli import main
from equichow.pipeline import Fixtures
from equichow.textio import MAX_EXPONENT

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")


def _fixture_file() -> str:
    fx = Fixtures.default()
    lines = ["[final]"] + [f"gen = {g.render()}" for g in fx.final_ideal]
    lines += ["[candidate]"] + [f"relation = {r.render()}" for r in fx.total.relations]
    return "\n".join(lines) + "\n"


# format table, starting file, command line before the file's path
FORMATS = {
    "push": (jobfile.PUSH_JOB, "cubing.job", ["push"]),
    "push-two-factors": (jobfile.PUSH_JOB, "mixed_pushforward.job", ["push"]),
    "ideal": (jobfile.IDEAL_JOB, "involution_ideal.gens", ["nf", "x^3", "--gens"]),
    "square": (jobfile.SQUARE_JOB, "patch_square.job", ["fiber-check", "--degree-bound", "4"]),
    "fixture": (
        jobfile.FIXTURE_FILE,
        None,
        ["pipeline", "--degree-bound", "1", "--oracle-trials", "2", "--fixtures"],
    ),
}


def _split(text):
    """[header, lines] per section, comments and blank lines dropped."""
    sections = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            sections.append([line[1:-1], []])
        elif line:
            sections[-1][1].append(line)
    return sections


def _spec(table, name):
    """The table entry of a section; an unknown one reads as plain lines."""
    word, space, _ = " ".join(name.split()).partition(" ")
    return table.get(word + " ..." if space else word, (None, (), None, False))


def _names(sections):
    names = [line.split()[0] for header, lines in sections if header == "vars" for line in lines]
    if not names:  # a fixture file declares none: take the fixtures' tables
        fx = Fixtures.default()
        names = list(fx.ambient.names + fx.total.table.names)
    return names


def _repeat_key(draw, sections, table):
    """A key that may appear once, given a second time."""
    kv = [s for s in sections if _spec(table, s[0])[2] is not None]
    header, lines = draw(st.sampled_from(kv))
    keys, repeatable, _, _ = _spec(table, header)
    present = [line.partition("=")[0].strip() for line in lines]
    once = [k for k in (keys or present) if k not in repeatable]
    if not once:
        return
    key = draw(st.sampled_from(once))
    values = [line.partition("=")[2].strip() for line in lines if line.startswith(key)]
    lines.insert(draw(st.integers(0, len(lines))), f"{key} = {(values or ['1'])[0]}")


def _repeat_factor_key(draw, sections, table):
    """A factor line that gives one of its keys twice."""
    for header, lines in sections:
        if header == "space" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] += f" {draw(st.sampled_from(jobfile.FACTOR[0]))}=1"


def _repeat_section(draw, sections, table):
    """A section header given twice, possibly spelt with other spacing."""
    header, lines = draw(st.sampled_from(sections))
    if draw(st.booleans()):
        header = " " + header.replace(" ", "  ") + " "
    at = draw(st.integers(0, len(sections)))
    sections.insert(at, [header, list(lines) if draw(st.booleans()) else []])


def _unknown_key(draw, sections, table):
    """A line no section's table takes."""
    header, lines = draw(st.sampled_from(sections))
    lines.append(draw(st.sampled_from(["bogus = 1", "bogus", "= 1", "factor colour=red"])))


def _unknown_section(draw, sections, table):
    """A header outside the table, some a near miss of a section of it."""
    words = [w.replace("...", "Z") if w.endswith("...") else w + "s" for w in table]
    header = draw(st.sampled_from(["bogus", "ring", "hom A->D", "hom AB", *words]))
    sections.insert(draw(st.integers(0, len(sections))), [header, ["gen = 1"]])


def _empty_section(draw, sections, table):
    """An existing section emptied, or a section of the format added empty."""
    if draw(st.booleans()):
        draw(st.sampled_from(sections))[1].clear()
    else:
        header = draw(st.sampled_from([w for w in table if not w.endswith("...")]))
        sections.append([header, []])


def _bad_variable_name(draw, sections, table):
    """A [vars] name that is not one token of the polynomial grammar."""
    for header, lines in sections:
        if header == "vars":
            lines.append(draw(st.sampled_from(["2 1", "x*y 1", "h^2 1", "-x 1", "x-y 1"])))


def _many_variables(draw, sections, table):
    """Hundreds of extra [vars] lines, of degrees 1 to 3."""
    count = draw(st.integers(50, 400))
    for header, lines in sections:
        if header == "vars":
            lines.extend(f"z{i} {1 + i % 3} " for i in range(count))


def _extreme_monomial(draw, sections, table):
    """One polynomial replaced by a single monomial at or past MAX_EXPONENT."""
    slots = []
    for header, lines in sections:
        if header == "class":
            slots.append((lines, None))
        elif header.startswith("hom") or _spec(table, header)[1]:
            slots += [(lines, i) for i, line in enumerate(lines) if "=" in line]
    if not slots:
        return
    lines, i = draw(st.sampled_from(slots))
    exponent = draw(st.sampled_from([MAX_EXPONENT, MAX_EXPONENT + 1]))
    monomial = f"{draw(st.sampled_from(_names(sections)))}^{exponent}"
    if i is None:
        lines[:] = [monomial]
    else:
        lines[i] = lines[i].partition("=")[0] + "= " + monomial


MUTATIONS = [
    _repeat_key,
    _repeat_factor_key,
    _repeat_section,
    _unknown_key,
    _unknown_section,
    _empty_section,
    _bad_variable_name,
    _many_variables,
    _extreme_monomial,
]


@pytest.mark.parametrize("fmt", FORMATS)
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_job_exits_cleanly(tmp_path, capsys, fmt, data):
    table, base, command = FORMATS[fmt]
    if base is None:
        text = _fixture_file()
    else:
        with open(os.path.join(JOBS, base), "r", encoding="utf-8") as fh:
            text = fh.read()
    sections = _split(text)
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate(data.draw, sections, table)
    job = tmp_path / "mutated.job"
    job.write_text("".join(f"[{h}]\n" + "".join(f"{x}\n" for x in lines) for h, lines in sections))
    try:
        code = main([*command, str(job)])
    except SystemExit as exc:  # argparse
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
