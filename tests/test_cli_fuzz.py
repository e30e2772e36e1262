"""Fuzzed command lines: every run ends in the documented exit codes.

Exit 0 puts strict JSON on stdout; any other exit is 2, 3 or 4 with
nothing on stdout and exactly one JSON line on stderr.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsim import gf2
from iqpsim.cli import main
from iqpsim.gf2 import BinaryMatrix, BitVector

THETAS = ["1/8", "1/4", "3/4", "1/2", "1", "0", "3/16", "-1/4", "rad:0.7", "rad:1e-300"]
JUNK = ["", "abc", "1/0", "1/-2", "0.5", "rad:", "rad:nan", "rad:inf", "//", "--", "1e999"]


def pick(draw, valid):
    """A valid token three times in four, else junk."""
    if draw(st.integers(0, 3)):
        return draw(valid)
    return draw(st.one_of(st.sampled_from(JUNK), st.text(max_size=4)))


@st.composite
def command_lines(draw):
    n = draw(st.integers(0, 8))
    l = draw(st.integers(0, 6))
    word = st.text(alphabet="01", min_size=l, max_size=l)
    rows = [draw(word) for _ in range(n)]
    command = draw(
        st.sampled_from(
            ["dist", "marginal", "sample", "alpha", "prob", "beta",
             "clifford", "wenum", "tutte", "reduce"]
        )
    )
    args = []
    if command not in ("clifford", "wenum", "tutte"):
        args += ["--theta", pick(draw, st.sampled_from(THETAS))]
    if command in ("marginal", "sample"):
        args += ["--mask", pick(draw, word)]
    if command == "sample":
        args += ["--samples", pick(draw, st.integers(-3, 40).map(str))]
    if command == "marginal":
        paths = ["auto", "generic", "pi8", "sparse", "graphic"]
        args += ["--path", draw(st.sampled_from(paths))]
    if command in ("prob", "beta"):
        args += ["--x" if command == "prob" else "--s", pick(draw, word)]
    if command == "tutte" and draw(st.booleans()):
        point = st.sampled_from(["2", "3", "-1", "0.5"])
        args += ["--at", pick(draw, point), pick(draw, point)]
    return f"{n} {l}\n" + "".join(r + "\n" for r in rows), command, args


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_contract(argv: list[str]) -> dict | None:
    """Runs one command line and checks the exit-code contract; returns
    the JSON report on exit 0, else None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        return json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exit_code"] == code
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=command_lines())
def test_exit_code_contract(workdir, case):
    text, command, args = case
    path = workdir / "m.txt"
    path.write_text(text)
    run_contract([command, str(path), *args])


@st.composite
def tall_low_rank_lines(draw):
    """Up to 300 rows drawn from the span of at most 3 generators, so rows
    repeat and depend heavily, over the commands that read the rows' code
    or matroid."""
    l = draw(st.integers(0, 8))
    gens = draw(st.lists(st.integers(0, (1 << l) - 1), max_size=3))
    n = 300 - draw(st.integers(0, 300))  # mostly tall, shrinking toward 300 rows
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(n):
        v = 0
        for g in gens:
            if rng.getrandbits(1):
                v ^= g
        rows.append(format(v, f"0{l}b") if l else "")
    command = draw(st.sampled_from(["tutte", "alpha", "prob", "clifford", "wenum", "reduce"]))
    args = []
    if command == "tutte":
        point = st.sampled_from(["2", "3", "-1", "0.5", "1"])
        args += ["--at", pick(draw, point), pick(draw, point)]
    if command in ("alpha", "prob", "reduce"):
        args += ["--theta", pick(draw, st.sampled_from(THETAS))]
    if command == "prob":
        args += ["--x", pick(draw, st.text(alphabet="01", min_size=l, max_size=l))]
    return f"{n} {l}\n" + "".join(r + "\n" for r in rows), command, args


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=tall_low_rank_lines())
def test_tall_low_rank_exit_code_contract(workdir, case):
    text, command, args = case
    path = workdir / "m.txt"
    path.write_text(text)
    report = run_contract([command, str(path), *args])
    if report is not None and command == "wenum":
        assert report["rank"] <= 3


QUARTER_TURNS = [f"{t}/4" for t in range(8)]


def conjugated_projector(rng, l: int) -> list[str]:
    """S^-1 D S for a random invertible S and a coordinate projector D."""
    while True:
        s = BinaryMatrix.from_rows(l, [BitVector(l, rng.getrandbits(l)) for _ in range(l)])
        if gf2.rank(s) == l:
            break
    keep = rng.getrandbits(l)
    d = BinaryMatrix.from_rows(
        l, [BitVector(l, (keep >> (l - 1 - i) & 1) << (l - 1 - i)) for i in range(l)]
    )
    return gf2.mat_mul(gf2.mat_mul(gf2.inverse(s), d), s).to_strings()


@st.composite
def marginal_lines(draw):
    """marginal over masks and conjugated projectors, at every multiple of
    pi/4 and at generic angles, so each marginal evaluator runs."""
    n = draw(st.integers(0, 12))
    l = draw(st.integers(0, 10))
    word = st.text(alphabet="01", min_size=l, max_size=l)
    rows = [draw(word) for _ in range(n)]
    theta = st.sampled_from(QUARTER_TURNS + ["1/8", "3/16", "-3/4", "rad:0.7"])
    args = ["--theta", pick(draw, theta)]
    projector = None
    kind = draw(st.sampled_from(["projector", "projector", "mask", "junk"]))
    if kind == "projector":
        projector = conjugated_projector(draw(st.randoms(use_true_random=False)), l)
    elif kind == "mask":
        args += ["--mask", pick(draw, word)]
    else:
        # a square matrix of the right size, idempotent or not
        projector = [draw(word) for _ in range(l)]
    paths = ["auto"] * 3 + ["generic"] * 3 + ["pi8", "sparse", "graphic"]
    args += ["--path", draw(st.sampled_from(paths))]
    text = f"{n} {l}\n" + "".join(r + "\n" for r in rows)
    return text, projector, args


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=marginal_lines())
def test_marginal_exit_code_contract(workdir, case):
    text, projector, args = case
    path = workdir / "m.txt"
    path.write_text(text)
    if projector is not None:
        proj_path = workdir / "p.txt"
        proj_path.write_text(f"{len(projector)} {len(projector)}\n" + "\n".join(projector) + "\n")
        args = [*args, "--projector", str(proj_path)]
    report = run_contract(["marginal", str(path), *args])
    if report is not None:
        assert abs(sum(e["p"] for e in report["entries"]) - 1.0) < 1e-9
