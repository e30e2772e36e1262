"""Command-line surface: parsing, payloads, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import warnings
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsim import cli, codes, gf2, marginals, oracle, tutte, xprogram
from iqpsim.cli import dump_matrix, main, parse_angle, parse_matrix_text
from iqpsim.codes import Angle
from iqpsim.errors import (
    BadAngle,
    BadCharacter,
    BadRowLength,
    MalformedHeader,
    NumericalInconsistency,
    ParseError,
)
from iqpsim.gf2 import BinaryMatrix, BitVector
from iqpsim.xprogram import XProgram

from conftest import PEX_ROWS

PEX_FILE_TEXT = "# fixture\n6 4\n" + "\n".join(PEX_ROWS) + "\n"


@pytest.fixture
def pex_file(tmp_path):
    path = tmp_path / "pex.txt"
    path.write_text(PEX_FILE_TEXT)
    return str(path)


def write_matrix(tmp_path, name, n, l, rows):
    path = tmp_path / name
    path.write_text(f"{n} {l}\n" + "".join(r + "\n" for r in rows))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseMatrixText:
    def test_happy_path(self, pex):
        got = parse_matrix_text(PEX_FILE_TEXT)
        assert got.to_strings() == pex.to_strings()

    def test_comments_and_blanks(self):
        text = "# note\n\n  2 2  \n# more\n10\n\n01\n"
        got = parse_matrix_text(text)
        assert got.to_strings() == ["10", "01"]

    def test_empty_matrix(self):
        got = parse_matrix_text("0 4\n")
        assert got.n == 0 and got.l == 4

    def test_no_header(self):
        with pytest.raises(MalformedHeader):
            parse_matrix_text("# only a comment\n")

    def test_bad_header_token_count(self):
        with pytest.raises(MalformedHeader) as info:
            parse_matrix_text("2 2 9\n10\n01\n")
        assert info.value.line == 1

    def test_non_integer_header(self):
        with pytest.raises(MalformedHeader):
            parse_matrix_text("two 2\n")

    def test_negative_header(self):
        with pytest.raises(MalformedHeader):
            parse_matrix_text("-1 2\n")

    def test_bad_row_length(self):
        with pytest.raises(BadRowLength) as info:
            parse_matrix_text("2 3\n101\n10\n")
        assert info.value.line == 3

    def test_bad_character(self):
        with pytest.raises(BadCharacter) as info:
            parse_matrix_text("1 4\n10x1\n")
        assert info.value.line == 2
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize("bad", ["_", "+", " ", "\u0661"])
    def test_characters_int_accepts(self, bad):
        # int(row, 2) takes each of these, so the row check must not rely on it
        with pytest.raises(BadCharacter) as info:
            parse_matrix_text(f"2 4\n1010\n1{bad}01\n")
        assert info.value.line == 3
        assert repr(bad) in str(info.value)

    def test_missing_rows(self):
        with pytest.raises(BadRowLength):
            parse_matrix_text("3 2\n10\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError) as info:
            parse_matrix_text("1 2\n10\n01\n")
        assert info.value.line == 3

    def test_round_trip(self, pex):
        assert parse_matrix_text(dump_matrix(pex)).to_strings() == pex.to_strings()


def _read(parse, text):
    """The matrix, or the error as (type, message, line)."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def _loop(text):
    return cli._parse_lines(text, "<input>")


def _matrix_text(n: int, l: int, rows) -> str:
    return f"{n} {l}\n" + "".join(format(r, f"0{l}b") + "\n" for r in rows)


@st.composite
def canonical_texts(draw):
    l = draw(st.one_of(st.sampled_from([63, 64, 65]), st.integers(1, 130)))
    n = draw(st.integers(1, 12))
    return _matrix_text(n, l, [draw(st.integers(0, (1 << l) - 1)) for _ in range(n)])


def _at_line_start(draw, text: str, insert: str) -> str:
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    at = draw(st.sampled_from(starts))
    return text[:at] + insert + text[at:]


def _at_line_end(draw, text: str, insert: str) -> str:
    at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "\n"]))
    return text[:at] + insert + text[at:]


def _header(text: str, n: str | None = None, l: str | None = None) -> str:
    head, _, body = text.partition("\n")
    old_n, old_l = head.split(" ")
    return f"{n or old_n} {l or old_l}\n{body}"


def _extra_row(draw, text: str) -> str:
    l = int(text.partition("\n")[0].split(" ")[1])
    return text + format(draw(st.integers(0, (1 << l) - 1)), f"0{l}b") + "\n"


def _short_row(draw, text: str) -> str:
    ends = [i for i, ch in enumerate(text) if ch == "\n"][1:]
    at = draw(st.sampled_from(ends))
    return text[: at - 1] + text[at:]


def _reshaped_header(draw, text: str) -> str:
    """A header n' l' with n'(l' + 1) = n(l + 1): the body's length fits
    and its line ends fall out of place."""
    head, _, body = text.partition("\n")
    n, l = map(int, head.split(" "))
    size = n * (l + 1)
    shapes = [(d, size // d - 1) for d in range(1, size // 2 + 1) if size % d == 0 and d != n]
    n2, l2 = draw(st.sampled_from(shapes)) if shapes else (n + 1, l)
    return f"{n2} {l2}\n{body}"


def _stray_character(draw, text: str) -> str:
    # superscript two passes str.isdigit but not int()
    ch = draw(st.sampled_from(["2", "_", "+", "\u0661", "\u00b2"]))
    head_end = text.index("\n")
    at = draw(st.one_of(st.integers(0, head_end - 1), st.integers(0, len(text) - 1)))
    return text[:at] + ch + text[at + 1:]


def _header_break(draw, text: str) -> str:
    ch = draw(st.sampled_from(["\x0b", "\x1c"]))
    at = draw(st.integers(0, text.index("\n")))
    return text[:at] + ch + text[at:]


PERTURBATIONS = {
    "comment": lambda draw, t: _at_line_start(draw, t, "# note\n"),
    "blank": lambda draw, t: _at_line_start(draw, t, "\n"),
    "crlf": lambda draw, t: t.replace("\n", "\r\n"),
    "trailing space": lambda draw, t: _at_line_end(draw, t, " "),
    "no final newline": lambda draw, t: t[:-1],
    "extra row": _extra_row,
    "short row": _short_row,
    "reshaped header": _reshaped_header,
    "zero rows": lambda draw, t: _header(t, n="0"),
    "zero columns": lambda draw, t: _header(t, l="0"),
    "stray character": _stray_character,
    "header break": _header_break,
}


@st.composite
def perturbed_texts(draw):
    text = draw(canonical_texts())
    return draw(st.sampled_from(sorted(PERTURBATIONS))), text


class TestCanonicalReader:
    """parse_matrix_text against the line loop, its reference."""

    @settings(max_examples=150, deadline=None)
    @given(canonical_texts())
    def test_canonical_texts_take_the_bulk_reader(self, text):
        want = _loop(text)
        assert cli._read_canonical(text) == want
        assert cli._read_canonical(text[:-1]) == want
        assert parse_matrix_text(text) == want

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_edit_from_canonical(self, data):
        name, text = data.draw(perturbed_texts())
        text = PERTURBATIONS[name](data.draw, text)
        assert _read(parse_matrix_text, text) == _read(_loop, text)

    @pytest.mark.parametrize(
        "text", ["0 3\n", "0 3", "3 0\n\n\n\n", "2 0\n\n", "1\x1c 2\n10\n", "\u00b2 1\n1\n"]
    )
    def test_degenerate_texts_take_the_loop(self, text):
        assert cli._read_canonical(text) is None
        assert _read(parse_matrix_text, text) == _read(_loop, text)

    @pytest.mark.parametrize("l", [1, 63, 64, 65, 130])
    def test_edge_widths(self, l):
        rows = [0, 1, (1 << l) - 1, 1 << (l - 1)]
        got = cli._read_canonical(_matrix_text(4, l, rows))
        assert got == BinaryMatrix(4, l, tuple(rows))

    def test_bench_shaped_file_skips_the_loop(self, tmp_path, monkeypatch):
        # written as the benchmark writes its inputs
        rng = Random(18)
        rows = [rng.getrandbits(64) for _ in range(2000)]
        path = tmp_path / "tall.txt"
        path.write_text(_matrix_text(2000, 64, rows))

        def refused(text, origin):
            raise AssertionError("line loop entered")

        monkeypatch.setattr(cli, "_parse_lines", refused)
        assert cli.parse_matrix_file(str(path)) == BinaryMatrix(2000, 64, tuple(rows))

    def test_commented_file_takes_the_loop(self, monkeypatch, pex):
        calls = []
        loop = cli._parse_lines
        monkeypatch.setattr(
            cli, "_parse_lines", lambda text, origin: calls.append(origin) or loop(text, origin)
        )
        assert parse_matrix_text(PEX_FILE_TEXT) == pex
        assert calls == ["<input>"]


class TestParseAngle:
    def test_fractions(self):
        assert parse_angle("1/4") == Angle.exact(1, 4)
        assert parse_angle("1/4").is_fourth_root
        assert parse_angle("3/8") == Angle.exact(3, 8)

    def test_bare_integer(self):
        assert parse_angle("1") == Angle.exact(1, 1)

    def test_radians(self):
        got = parse_angle("rad:0.5")
        assert not got.is_exact
        assert got.value == 0.5

    def test_rejects_bare_float(self):
        with pytest.raises(BadAngle):
            parse_angle("0.25")

    def test_rejects_junk(self):
        for bad in ("rad:xyz", "1/0", "1/-2", "pi/4", "rad:inf", "rad:nan"):
            with pytest.raises(BadAngle):
                parse_angle(bad)


class TestWenumCommand:
    def test_pex_payload(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "wenum", pex_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 3
        assert payload["weights"] == [1, 0, 4, 0, 3, 0, 0]
        assert payload["exact"] is True
        assert payload["n"] == 6 and payload["l"] == 4

    def test_full_rank_beyond_the_rank_limit(self, capsys, tmp_path):
        # rank 30 is past the limit of 26; the histogram comes from C-perp = {0}
        rng = Random(71)
        while True:
            m = BinaryMatrix(30, 30, tuple(rng.getrandbits(30) for _ in range(30)))
            if gf2.rank(m) == 30:
                break
        path = write_matrix(tmp_path, "full.txt", 30, 30, m.to_strings())
        code, out, _ = run_cli(capsys, "wenum", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 30
        assert payload["weights"] == [math.comb(30, k) for k in range(31)]

    def test_tsv(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "wenum", pex_file, "--output", "tsv")
        assert code == 0
        lines = [line.split("\t") for line in out.strip().splitlines()]
        assert lines[0] == ["0", "1"]
        assert lines[2] == ["2", "4"]

    def test_dump_round_trip(self, capsys, pex_file, pex):
        code, out, _ = run_cli(capsys, "wenum", pex_file, "--dump")
        payload = json.loads(out)
        again = parse_matrix_text(payload["matrix_file"])
        assert again.to_strings() == pex.to_strings()


class TestTutteCommand:
    def test_pex_polynomial(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "tutte", pex_file)
        assert code == 0
        payload = json.loads(out)
        got = {(i, j): c for i, j, c in payload["coefficients"]}
        assert got == {(3, 1): 1, (2, 1): 1, (2, 2): 1, (1, 2): 2, (0, 3): 1}
        assert payload["basis_count"] == 6
        assert payload["exact"] is True

    def test_deletion_chain_past_the_recursion_limit(self, capsys, tmp_path):
        rng = Random(73)
        rows = {format(rng.getrandbits(64) | 1 << 63, "064b") for _ in range(2000)}
        path = write_matrix(tmp_path, "tall.txt", 2000, 64, sorted(rows))
        code, out, err = run_cli(capsys, "tutte", path, "--at", "2", "3")
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceeded"
        assert "deletion chain of 1936 levels" in payload["message"]

    def test_pex_at_point(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "tutte", pex_file, "--at", "1", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"]["re"] == 6
        assert payload["value"]["im"] == 0

    def test_tall_rank_two_at_point(self, capsys, tmp_path):
        # three parallel classes of a rank-2 matroid: a basis is two rows
        # from two different classes; one recursion level per class
        sizes = {"10": 700, "01": 655, "11": 645}
        rows = [r for r, k in sizes.items() for _ in range(k)]
        path = write_matrix(tmp_path, "tall.txt", len(rows), 2, rows)
        code, out, _ = run_cli(capsys, "tutte", path, "--at", "1", "1")
        assert code == 0
        a, b, c = sizes.values()
        assert json.loads(out)["value"] == {"re": a * b + a * c + b * c, "im": 0}


    def test_integer_point_stays_exact(self, capsys, tmp_path):
        # T(2, 3) of 2000 rows of rank 2 has 954 digits, past the float
        # range; integer --at values keep it an exact JSON integer
        rng = Random(72)
        rows = [rng.choice(["10", "01", "11"]) for _ in range(2000)]
        path = write_matrix(tmp_path, "tall.txt", 2000, 2, rows)
        code, out, _ = run_cli(capsys, "tutte", path, "--at", "2", "3")
        assert code == 0
        payload = json.loads(out)
        want = tutte.tutte_eval(BinaryMatrix.from_strings(rows), 2, 3)
        assert len(str(want)) == 954
        assert (payload["x"], payload["y"]) == (2, 3)
        assert payload["value"] == {"re": want, "im": 0}
        # a float point is evaluated in floats, which overflow here
        code, out, err = run_cli(capsys, "tutte", path, "--at", "2.0", "3")
        assert code == 4
        assert json.loads(err)["error"] == "NumericalInconsistency"
        # past the interpreter's cap on the length of integer text
        code, out, err = run_cli(capsys, "tutte", path, "--at", "1000", "1000")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "BudgetExceeded"

    def test_long_circuit_at_points(self, capsys, tmp_path):
        # 1199 unit rows and their sum: T = y + x + ... + x^1199, whose
        # contraction path is deeper than the recursion limit allows
        l = 1199
        rows = ["0" * i + "1" + "0" * (l - 1 - i) for i in range(l)] + ["1" * l]
        path = write_matrix(tmp_path, "circuit.txt", l + 1, l, rows)
        code, out, _ = run_cli(capsys, "tutte", path, "--at", "2", "3")
        assert code == 0
        assert json.loads(out)["value"] == {"re": 2**1200 + 1, "im": 0}
        code, out, _ = run_cli(capsys, "tutte", path, "--at", "0.5", "1.5")
        assert code == 0
        want = 1.5 + sum(2.0**-i for i in range(1, 1200))
        assert abs(json.loads(out)["value"]["re"] - want) <= 1e-9

    def test_easy_points_on_wide_programs(self, capsys, tmp_path):
        # (2, 3) and (-1, -1) come from the code C, where deletion and
        # contraction outgrew its memo; (2, 3) of M is (3, 2) of M*
        rng = Random(74)
        for n, l in [(30, 15), (40, 20)]:
            m = BinaryMatrix(n, l, tuple(rng.getrandbits(l) for _ in range(n)))
            path = write_matrix(tmp_path, "m.txt", n, l, m.to_strings())
            code, out, _ = run_cli(capsys, "tutte", path, "--at", "2", "3")
            assert code == 0
            dual = gf2.kernel(gf2.transpose(m))
            rows = [gf2._parities(1 << (n - 1 - i), [v.bits for v in dual]) for i in range(n)]
            m_star = BinaryMatrix(n, len(dual), tuple(rows))
            assert json.loads(out)["value"]["re"] == tutte.tutte_at(m_star, 3, 2)
            code, out, _ = run_cli(capsys, "tutte", path, "--at", "-1", "-1")
            assert code == 0
            gram = gf2.rank(gf2.mat_mul(gf2.transpose(m), m))
            b = gf2.rank(m) - gram  # dim of C & C-perp
            assert json.loads(out)["value"]["re"] == (-1) ** n * (-2) ** b

    def test_rosenstiehl_read_on_a_tall_program(self, capsys, tmp_path):
        rng = Random(73)
        rows = {format(rng.getrandbits(64) | 1 << 63, "064b") for _ in range(2000)}
        m = BinaryMatrix.from_strings(sorted(rows))
        path = write_matrix(tmp_path, "tall.txt", 2000, 64, sorted(rows))
        code, out, _ = run_cli(capsys, "tutte", path, "--at", "-1", "-1")
        assert code == 0
        b = gf2.rank(m) - gf2.rank(gf2.mat_mul(gf2.transpose(m), m))
        assert json.loads(out)["value"] == {"re": (-2) ** b, "im": 0}


class TestAlphaCommand:
    def test_pex_at_pi(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "alpha", pex_file, "--theta", "1/1")
        assert code == 0
        payload = json.loads(out)
        assert payload["re"] == 1
        assert payload["im"] == 0
        assert payload["exact"] is True
        assert payload["gaussian_integer"] == {"re": 8, "im": 0}
        assert payload["log2_denominator"] == 3

    def test_generic_angle_not_exact(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "alpha", pex_file, "--theta", "1/8")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is False
        assert "gaussian_integer" not in payload


    def test_full_rank_beyond_the_rank_limit(self, capsys, tmp_path):
        # rank 30 is past the limit of 26, but the dual code is {0}, so
        # alpha is cos(0.7)^30
        rng = Random(71)
        while True:
            m = BinaryMatrix(30, 30, tuple(rng.getrandbits(30) for _ in range(30)))
            if gf2.rank(m) == 30:
                break
        path = write_matrix(tmp_path, "full.txt", 30, 30, m.to_strings())
        code, out, _ = run_cli(capsys, "alpha", path, "--theta", "rad:0.7")
        assert code == 0
        payload = json.loads(out)
        assert payload["re"] == cli.fmt(np.cos(0.7) ** 30)
        assert payload["im"] == 0.0
        assert payload["exact"] is False

class TestPointCommands:
    def test_amplitude(self, capsys, pex_file):
        code, out, _ = run_cli(
            capsys, "amplitude", pex_file, "--theta", "1/8", "--x", "0000"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["x"] == "0000"
        assert abs(complex(payload["re"], payload["im"])) <= 1 + 1e-9

    def test_prob_normalized(self, capsys, pex_file):
        total = 0.0
        for ix in range(16):
            x = format(ix, "04b")
            code, out, _ = run_cli(
                capsys, "prob", pex_file, "--theta", "1/8", "--x", x
            )
            assert code == 0
            total += json.loads(out)["p"]
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_beta_fixture_zero(self, capsys, pex_file):
        code, out, _ = run_cli(
            capsys, "beta", pex_file, "--theta", "1/8", "--s", "0110"
        )
        assert code == 0
        assert json.loads(out)["beta"] == pytest.approx(0.0, abs=1e-12)


class TestDistCommand:
    def test_pex_quarter_turn(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "dist", pex_file, "--theta", "1/4")
        assert code == 0
        payload = json.loads(out)
        table = {e["outcome"]: e["p"] for e in payload["entries"]}
        assert len(table) == 16
        for outcome in ("0011", "0101", "1000", "1110"):
            assert table[outcome] == pytest.approx(0.25, abs=1e-12)
        assert table["0000"] == 0

    def test_repeat_runs_byte_identical(self, capsys, pex_file):
        _, first, _ = run_cli(capsys, "dist", pex_file, "--theta", "1/8")
        _, second, _ = run_cli(capsys, "dist", pex_file, "--theta", "1/8")
        assert first == second


def _dict_entries(values, labels=None, width=0) -> list[dict]:
    # the dict-per-entry form that the report's entries writer replaced
    bits = (len(values) - 1).bit_length()
    entries = []
    for ix, p in enumerate(values.tolist()):
        entry = {"outcome": format(ix, f"0{bits}b") if bits else "", "p": cli.fmt(p)}
        if labels is not None:
            entry["x"] = format(labels[ix], f"0{width}b") if width else ""
        entries.append(entry)
    return entries


def _non_finite_message(value: float) -> str:
    try:
        json.dumps(value, allow_nan=False)
    except ValueError as exc:
        return f"non-finite value in the report: {exc}"
    raise AssertionError(f"{value} is finite")


class TestReportWriter:
    """The entries text of dist and marginal reports against json's text
    for the same values."""

    def test_numbers_match_json(self):
        rng = Random(121)
        values = [rng.random() for _ in range(3000)]
        values += [k / 2**j for j in range(0, 64, 3) for k in range(0, 9)]
        values += [0.0, -0.0, 1.0, 1 - 1e-15, 0.9999999999999, 0.5, 0.25, 2.0]
        values += [1e-5, 1e-17, 1.5e-7, 9.99999999999995e-5, 0.0001, 1e-300]
        values += [5e-324, 1e-310, 2.2250738585072014e-308, -1e-310]
        values += [99999999999.7, 999999999999.7, 1e11, 1e12, 123456789012.5, 1e16, 1e300]
        values += [-v for v in values[:50]] + [rng.random() * 10.0**rng.randint(-30, 20)
                                                 for _ in range(3000)]
        got = cli._number_texts(np.array(values))
        assert got == [json.dumps(cli.fmt(v)) for v in values]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_raise(self, value):
        with pytest.raises(NumericalInconsistency) as info:
            cli._number_texts(np.array([0.5, value, 0.25]))
        assert str(info.value) == _non_finite_message(value)

    @pytest.mark.parametrize("output", ["json", "tsv"])
    def test_non_finite_entry_exit_four(self, capsys, pex_file, monkeypatch, output):
        class Broken:
            domain_bits, sum_drift = 1, 0.0

            def as_array(self):
                return np.array([float("nan"), 0.5])

        monkeypatch.setattr(xprogram, "full_distribution", lambda prog: Broken())
        code, out, err = run_cli(capsys, "dist", pex_file, "--theta", "1/8", "--output", output)
        assert code == 4
        assert out == ""
        assert json.loads(err) == {
            "error": "NumericalInconsistency",
            "exit_code": 4,
            "message": _non_finite_message(float("nan")),
        }

    def test_bit_labels(self):
        assert cli._bit_labels(0) == [""]
        for b in range(1, 17):
            assert cli._bit_labels(b) == [format(ix, f"0{b}b") for ix in range(1 << b)]

    def test_dist_labels_past_eight_bits(self, capsys, tmp_path):
        rng = Random(123)
        for l in range(9, 13):
            rows = [format(rng.getrandbits(l), f"0{l}b") for _ in range(3)]
            path = write_matrix(tmp_path, "m.txt", 3, l, rows)
            code, out, _ = run_cli(capsys, "dist", path, "--theta", "1/8")
            assert code == 0
            outcomes = [e["outcome"] for e in json.loads(out)["entries"]]
            assert outcomes == [format(ix, f"0{l}b") for ix in range(1 << l)]

    @pytest.mark.parametrize(
        "argv",
        [
            ("alpha", "--theta", "1/8"),
            ("alpha", "--theta", "1/4"),
            ("amplitude", "--theta", "1/8", "--x", "0110"),
            ("clifford",),
            ("tutte", "--at", "2", "3"),
            ("tutte", "--at", "0.5", "1.5"),
        ],
    )
    def test_default_tsv_rows(self, capsys, pex_file, argv):
        # one "key<TAB>JSON value" row per report field, in key order
        command, *rest = argv
        code, out, _ = run_cli(capsys, command, pex_file, *rest)
        assert code == 0
        code, tsv, _ = run_cli(capsys, command, pex_file, *rest, "--output", "tsv")
        assert code == 0
        payload = json.loads(out)
        want = [[k, json.dumps(payload[k], sort_keys=True)] for k in sorted(payload)]
        assert [line.split("\t") for line in tsv.splitlines()] == want

    def test_reports_match_dict_form(self, capsys, tmp_path):
        rng = Random(122)
        thetas = ["1/4", "1/8", "1/16", "3/16", "rad:0.7", "0", "1/2"]
        shapes = [(0, 0), (1, 1), (3, 2)] + [(rng.randint(1, 14), rng.randint(1, 9))
                                               for _ in range(12)]
        for trial, (n, l) in enumerate(shapes):
            rows = [format(rng.getrandbits(l), f"0{l}b") if l else "" for _ in range(n)]
            path = write_matrix(tmp_path, "m.txt", n, l, rows)
            M = BinaryMatrix(n, l, tuple(int(r, 2) for r in rows))
            theta = thetas[trial % len(thetas)]
            prog = XProgram(M, parse_angle(theta))
            mask = "".join(rng.choice("01") for _ in range(l))
            proj = marginals.diagonal_projector(BitVector.from_string(mask))
            cases = [
                (["dist", path, "--theta", theta, "--dump"],
                 _dict_entries(xprogram.full_distribution(prog).as_array()),
                 ("outcome", "p")),
                (["marginal", path, "--theta", theta, "--mask", mask, "--path", "generic"],
                 _dict_entries(marginals.marginal_distribution(prog, proj).as_array(),
                               proj.range_vectors(), l),
                 ("outcome", "x", "p")),
            ]
            for argv, entries, columns in cases:
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                payload = json.loads(out) | {"entries": entries}
                assert out == json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
                code, tsv, _ = run_cli(capsys, *argv, "--output", "tsv")
                assert code == 0
                want = "".join("\t".join(str(e[c]) for c in columns) + "\n" for e in entries)
                assert tsv == want


class TestCliffordCommand:
    def test_pex_fixture(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "clifford", pex_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "two"
        v_span = gf2.span_rref([BitVector.from_string(v) for v in payload["V"]], 4)
        assert v_span == gf2.span_rref(
            [BitVector.from_string("1001"), BitVector.from_string("0111")], 4
        )
        assert payload["U"] == ["0111"]
        assert payload["support_dim"] == 2
        assert payload["support_size"] == 4
        assert payload["zero_probability"] == {"numerator": 0, "denominator": 1}
        assert payload["point_probability"] == {"numerator": 1, "log2_denominator": 2}
        assert payload["exact"] is True


def _path_by_transpose(args, theta, M, proj) -> str:
    # the path rule as it was written before column weights were read
    # without a transpose and the graphic test stopped at its first heavy row
    if args.path != "auto":
        return args.path
    if theta == Angle.exact(1, 8):
        return "pi8"
    if max(M.row_weights(), default=0) <= 2 and proj.support_bits <= 2:
        return "graphic"
    if max((c.bit_count() for c in gf2.transpose(M).bits), default=0) <= args.sparse_bound:
        return "sparse"
    return "generic"


def _corpus_rows(rng: Random, n: int, l: int, kind: str) -> list[int]:
    # the row kinds of tools/cli_corpus.py
    if kind == "dense":
        return [rng.getrandbits(l) for _ in range(n)]
    if kind == "pairs":
        return [sum(1 << b for b in rng.sample(range(l), rng.randint(1, min(2, l))))
                for _ in range(n)]
    if kind == "colsparse":
        rows = [0] * n
        for j in range(l):
            for i in rng.sample(range(n), rng.randint(0, min(3, n))):
                rows[i] |= 1 << j
        return rows
    gens = [rng.getrandbits(l) for _ in range(rng.randint(1, 3))]
    rows = []
    for _ in range(n):
        if rows and rng.random() < 0.25:
            rows.append(rng.choice(rows))
        else:
            v = 0
            for g in gens:
                v ^= g * rng.getrandbits(1)
            rows.append(v)
    return rows


class TestMarginalCommand:
    def test_auto_picks_pi8(self, capsys, pex_file):
        code, out, _ = run_cli(
            capsys, "marginal", pex_file, "--theta", "1/8", "--mask", "1100"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["path"] == "pi8"
        assert payload["range_dim"] == 2
        total = sum(e["p"] for e in payload["entries"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_paths_agree(self, capsys, pex_file):
        tables = {}
        for path in ("generic", "pi8", "sparse"):
            code, out, _ = run_cli(
                capsys, "marginal", pex_file, "--theta", "1/8",
                "--mask", "1100", "--path", path, "--sparse-bound", "4",
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["path"] == path
            tables[path] = {e["outcome"]: e["p"] for e in payload["entries"]}
        for path in ("pi8", "sparse"):
            for outcome, p in tables["generic"].items():
                assert p == pytest.approx(tables[path][outcome], abs=1e-9)

    def test_auto_picks_graphic(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "g.txt", 3, 3, ["110", "011", "100"])
        code, out, _ = run_cli(
            capsys, "marginal", path, "--theta", "1/5", "--mask", "010"
        )
        assert code == 0
        assert json.loads(out)["path"] == "graphic"

    def test_generic_answers_the_star(self, capsys, tmp_path):
        # a hub with 34 partners at l = 40 and a raw angle: the code has
        # rank 34, past the limit of 26, but its dual has dimension 0
        l = 40
        rows = ["1" + "0" * i + "1" + "0" * (l - 2 - i) for i in range(34)]
        path = write_matrix(tmp_path, "star.txt", 34, l, rows)
        argv = ("marginal", path, "--theta", "rad:0.7", "--mask", "11" + "0" * (l - 2))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        graphic = json.loads(out)
        assert graphic["path"] == "graphic"
        code, out, _ = run_cli(capsys, *argv, "--path", "generic")
        assert code == 0
        generic = json.loads(out)
        assert generic["path"] == "generic"
        assert generic["entries"] == graphic["entries"]

    def test_graphic_answers_beyond_the_engine(self, capsys, tmp_path):
        # the 30-leaf star with every edge doubled: rank 30 and dual
        # dimension 30 are both past the limit of 26
        l = 40
        rows = ["1" + "0" * i + "1" + "0" * (l - 2 - i) for i in range(30) for _ in range(2)]
        path = write_matrix(tmp_path, "star2.txt", 60, l, rows)
        argv = ("marginal", path, "--theta", "rad:0.7", "--mask", "11" + "0" * (l - 2))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["path"] == "graphic"
        code, out, err = run_cli(capsys, *argv, "--path", "generic")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "RankTooLarge"

    def test_path_choice_unchanged_on_corpus_shapes(self):
        rng = Random(72)
        shapes = [(rng.randint(0, 14), rng.randint(1, 12)) for _ in range(300)]
        shapes += [(2000, 64), (500, 14), (300, 8), (2000, 4), (1000, 32)]
        thetas = [Angle.exact(1, 8), Angle.exact(1, 5), Angle.radians(0.7)]
        paths = set()
        for n, l in shapes:
            for kind in ("dense", "pairs", "colsparse", "lowrank"):
                M = BinaryMatrix(n, l, tuple(_corpus_rows(rng, n, l, kind)))
                proj = marginals.diagonal_projector(BitVector(l, rng.getrandbits(l)))
                args = argparse.Namespace(path="auto", sparse_bound=rng.randint(0, 4))
                theta = rng.choice(thetas)
                want = _path_by_transpose(args, theta, M, proj)
                assert cli._select_marginal_path(args, theta, M, proj) == want
                paths.add(want)
        assert paths == {"pi8", "graphic", "sparse", "generic"}

    def test_auto_picks_sparse(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "s.txt", 3, 3, ["111", "100", "010"])
        code, out, _ = run_cli(
            capsys, "marginal", path, "--theta", "1/5", "--mask", "110"
        )
        assert code == 0
        assert json.loads(out)["path"] == "sparse"

    def test_entries_carry_full_vectors(self, capsys, pex_file):
        _, out, _ = run_cli(
            capsys, "marginal", pex_file, "--theta", "1/8", "--mask", "0101"
        )
        payload = json.loads(out)
        for entry in payload["entries"]:
            assert len(entry["x"]) == 4
            assert len(entry["outcome"]) == payload["range_dim"]

    def test_projector_file(self, capsys, pex_file, tmp_path):
        proj_path = write_matrix(
            tmp_path, "proj.txt", 4, 4, ["1000", "0100", "0000", "0000"]
        )
        code, out, _ = run_cli(
            capsys, "marginal", pex_file, "--theta", "1/8",
            "--projector", proj_path,
        )
        assert code == 0
        mask_run, out2, _ = run_cli(
            capsys, "marginal", pex_file, "--theta", "1/8", "--mask", "1100"
        )
        a = {e["outcome"]: e["p"] for e in json.loads(out)["entries"]}
        b = {e["outcome"]: e["p"] for e in json.loads(out2)["entries"]}
        assert a == b

    def test_work_over_budget(self, capsys, tmp_path, monkeypatch):
        # 2^16 Gauss-sum coefficients on 60x40 at pi/8, refused before the first
        def refused(*args):
            raise AssertionError("coefficient computed")

        monkeypatch.setattr(xprogram, "betas", refused)
        rng = Random(60)
        path = write_matrix(
            tmp_path, "m.txt", 60, 40, [format(rng.getrandbits(40), "040b") for _ in range(60)]
        )
        code, out, err = run_cli(
            capsys, "marginal", path, "--theta", "1/8", "--mask", "1" * 16 + "0" * 24
        )
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceeded"
        assert payload["message"] == "marginal work 543424512 exceeds the limit 67108864"

    def test_mask_required(self, capsys, pex_file):
        code, _, err = run_cli(capsys, "marginal", pex_file, "--theta", "1/8")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("command", ["marginal", "sample"])
    def test_mask_and_projector_conflict(self, capsys, pex_file, tmp_path, command):
        proj_path = write_matrix(
            tmp_path, "proj.txt", 4, 4, ["1000", "0100", "0000", "0000"]
        )
        code, out, err = run_cli(
            capsys, command, pex_file, "--theta", "1/8", "--mask", "0011",
            "--projector", proj_path,
        )
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert "not allowed with argument --mask" in payload["message"]


class TestSampleCommand:
    def test_tsv_stream(self, capsys, pex_file):
        code, out, _ = run_cli(
            capsys, "sample", pex_file, "--theta", "1/8", "--mask", "1100",
            "--samples", "5", "--seed", "3", "--output", "tsv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert len(line) == 4 and set(line) <= {"0", "1"}
            assert line[2:] == "00"

    def test_seed_reproducible_across_threads(self, capsys, pex_file):
        outputs = []
        for threads in ("1", "4"):
            _, out, _ = run_cli(
                capsys, "sample", pex_file, "--theta", "1/8", "--mask", "1100",
                "--samples", "50", "--seed", "11", "--threads", threads,
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self, capsys, pex_file):
        streams = []
        for seed in ("1", "2"):
            _, out, _ = run_cli(
                capsys, "sample", pex_file, "--theta", "1/8", "--mask", "1111",
                "--samples", "40", "--seed", seed, "--output", "tsv",
            )
            streams.append(out)
        assert streams[0] != streams[1]

    def test_json_payload(self, capsys, pex_file):
        code, out, _ = run_cli(
            capsys, "sample", pex_file, "--theta", "1/4", "--mask", "1111",
            "--samples", "8", "--seed", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 0
        assert len(payload["samples"]) == 8


    def test_draws_over_budget(self, capsys, pex_file, monkeypatch):
        # the draw count is checked before a sampler is built
        built = []
        monkeypatch.setattr(marginals, "MarginalSampler", lambda *args: built.append(args))
        argv = ("sample", pex_file, "--theta", "1/8", "--mask", "1100", "--samples")
        code, out, err = run_cli(capsys, *argv, "99999999999999999999999")
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceeded"
        assert payload["message"] == (
            f"--samples 99999999999999999999999 exceeds the draw limit {1 << 20}"
        )
        assert built == []
        monkeypatch.undo()
        monkeypatch.setattr(marginals, "_DRAW_LIMIT", 5)
        code, out, _ = run_cli(capsys, *argv, "5")
        assert code == 0
        assert len(json.loads(out)["samples"]) == 5
        code, out, err = run_cli(capsys, *argv, "6")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "BudgetExceeded"


class TestReduceCommand:
    def test_triple_row_fixture(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "t.txt", 1, 3, ["111"])
        code, out, _ = run_cli(capsys, "reduce", path, "--theta", "1/4")
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 2
        assert payload["period"] == 8
        assert payload["phase_exponent"] == 1
        assert payload["rows"] == [
            ["001", 7], ["010", 7], ["011", 1],
            ["100", 7], ["101", 1], ["110", 1],
        ]
        assert payload["monomial_count"] == 6
        assert payload["expanded_row_count"] == 24

    def test_dump_reparses(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "t.txt", 2, 3, ["111", "110"])
        _, out, _ = run_cli(capsys, "reduce", path, "--theta", "1/8", "--dump")
        payload = json.loads(out)
        again = parse_matrix_text(payload["reduced_matrix_file"])
        assert again.n == payload["expanded_row_count"]

    def test_non_dyadic_rejected(self, capsys, pex_file):
        code, _, err = run_cli(capsys, "reduce", pex_file, "--theta", "1/5")
        assert code == 2
        assert json.loads(err)["error"] == "UnsupportedAngle"

    def test_over_budget(self, capsys, tmp_path):
        # the first all-ones row alone has C(40, 6) > 2M terms at pi/64
        path = write_matrix(tmp_path, "ones.txt", 40, 40, ["1" * 40] * 40)
        code, out, err = run_cli(capsys, "reduce", path, "--theta", "1/64")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "BudgetExceeded"

    def test_dump_over_budget(self, capsys, tmp_path, monkeypatch):
        # one all-ones row of weight 11 expands to 2095104 rows at pi/1024;
        # the report without --dump is unchanged, the dump fails before a row
        path = write_matrix(tmp_path, "ones.txt", 1, 11, ["1" * 11])
        code, out, _ = run_cli(capsys, "reduce", path, "--theta", "1/1024")
        assert code == 0
        assert json.loads(out)["expanded_row_count"] == 2095104
        built = []
        monkeypatch.setattr(xprogram, "BinaryMatrix", lambda *args: built.append(args))
        code, out, err = run_cli(capsys, "reduce", path, "--theta", "1/1024", "--dump")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "BudgetExceeded"
        assert built == []


class TestVerifyCommand:
    def test_pex_all_checks(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "verify", pex_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "all 7 checks passed"
        assert sum(1 for line in lines if line.startswith("check ")) == 7
        assert all("ok" in line for line in lines[:-1])

    def test_explicit_angle(self, capsys, pex_file):
        code, out, _ = run_cli(capsys, "verify", pex_file, "--theta", "rad:1.0")
        assert code == 0
        assert out.strip().splitlines()[-1] == "all 7 checks passed"

    def test_builds_two_dense_states(self, capsys, pex_file, monkeypatch):
        # every reference at the program's angle is read off one dense
        # state; the quarter-turn check builds the other
        thetas = []
        build = oracle.statevector

        def counted(prog, **kwargs):
            thetas.append(str(prog.theta))
            return build(prog, **kwargs)

        monkeypatch.setattr(oracle, "statevector", counted)
        code, out, _ = run_cli(capsys, "verify", pex_file)
        assert code == 0
        assert out.strip().splitlines()[-1] == "all 7 checks passed"
        assert thetas == ["1/8 pi", "1/4 pi"]

    def test_nan_error_fails_its_check(self, capsys, tmp_path, monkeypatch):
        # max(0.0, nan) is 0.0, so a plain fold would pass a NaN error
        path = write_matrix(tmp_path, "m.txt", 3, 3, ["110", "011", "101"])
        exact = xprogram.betas

        def betas(prog, ss, **kwargs):
            values = exact(prog, ss, **kwargs)
            return [float("nan") if s.to_string() == "111" else v for s, v in zip(ss, values)]

        monkeypatch.setattr(xprogram, "betas", betas)
        code, out, err = run_cli(capsys, "verify", path, "--theta", "1/8")
        assert code == 4
        lines = out.splitlines()
        assert "check correlations vs oracle: FAILED (max error nan)" in lines
        assert lines[-1] == "1 of 7 checks failed"
        assert json.loads(err)["error"] == "NumericalInconsistency"

    @pytest.mark.parametrize("theta", ["rad:0.7", "1/4"])
    def test_amplitude_check_eliminates_once(self, capsys, tmp_path, monkeypatch, theta):
        # the 2^l amplitudes are one batch: a fixed number of eliminations
        # and transposes, not one of each per outcome
        counts = {"_eliminate": 0, "transpose": 0}
        for attr in counts:

            def counted(*args, _attr=attr, _wrapped=getattr(gf2, attr), **kwargs):
                counts[_attr] += 1
                return _wrapped(*args, **kwargs)

            monkeypatch.setattr(gf2, attr, counted)
        batches = []
        batch = xprogram.amplitudes

        def amplitudes(prog, xs, **kwargs):
            before = dict(counts)
            out = batch(prog, xs, **kwargs)
            batches.append((len(xs), {k: counts[k] - before[k] for k in counts}))
            return out

        monkeypatch.setattr(xprogram, "amplitudes", amplitudes)
        rng = Random(93)
        for n, l in [(12, 8), (10, 8), (16, 10), (6, 9)]:
            rows = [format(rng.getrandbits(l), f"0{l}b") for _ in range(n)]
            path = write_matrix(tmp_path, f"m{n}x{l}.txt", n, l, rows)
            batches.clear()
            code, out, _ = run_cli(capsys, "verify", path, "--theta", theta)
            assert code == 0 and out.strip().splitlines()[-1] == "all 7 checks passed"
            assert [size for size, _ in batches] == [1 << l]
            work = batches[0][1]
            assert work["_eliminate"] <= 2 and work["transpose"] <= 1

    def test_correlation_check_shares_the_enumeration(self, capsys, tmp_path, monkeypatch):
        # the 2^l coefficients are one batch: one _histograms call per
        # distinct basis size min(r, n - r) of the affinified codes, not
        # one per s
        calls = []
        histograms = codes._histograms
        monkeypatch.setattr(codes, "_histograms", lambda *a: calls.append(1) or histograms(*a))
        batches = []
        batch = xprogram.betas

        def betas(prog, ss, **kwargs):
            before = len(calls)
            out = batch(prog, ss, **kwargs)
            batches.append((len(ss), len(calls) - before))
            return out

        monkeypatch.setattr(xprogram, "betas", betas)
        rng = Random(94)
        for n, l in [(12, 8), (10, 8)]:
            rows = [format(rng.getrandbits(l), f"0{l}b") for _ in range(n)]
            path = write_matrix(tmp_path, f"m{n}x{l}.txt", n, l, rows)
            batches.clear()
            code, out, _ = run_cli(capsys, "verify", path, "--theta", "rad:0.7")
            assert code == 0 and out.strip().splitlines()[-1] == "all 7 checks passed"
            m = BinaryMatrix.from_strings(rows)
            sizes = set()
            for ix in range(1, 1 << l):
                odd = codes.affinify(m, BitVector(l, ix))
                r = gf2.rank(odd)
                sizes.add(min(r, odd.n - r))
            assert [size for size, _ in batches] == [1 << l]
            assert batches[0][1] <= len(sizes) < (1 << l) - 1

    def test_direct_count_is_independent_of_the_enumerator(self, capsys, pex_file, monkeypatch):
        # the direct count reads the rows itself: a wrong histogram fails
        exact = codes.weight_enumerator

        def wrong(P, **kwargs):
            profile = exact(P, **kwargs)
            weights = list(profile.weights)
            weights[0], weights[1] = weights[0] - 1, weights[1] + 1
            return dataclasses.replace(profile, weights=tuple(weights))

        monkeypatch.setattr(codes, "weight_enumerator", wrong)
        code, out, _ = run_cli(capsys, "verify", pex_file)
        assert code == 4
        assert "check weight enumerator vs direct count: FAILED (max error 1)" in out.splitlines()

    def test_size_guard(self, capsys, tmp_path):
        rows = ["0" * 11] * 2
        path = write_matrix(tmp_path, "wide.txt", 2, 11, rows)
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert json.loads(err)["error"] == "InputError"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "wenum", "/nonexistent/matrix.txt")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["exit_code"] == 2

    def test_bad_character_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 4\n10x1\n")
        code, _, err = run_cli(capsys, "wenum", str(path))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "BadCharacter"
        assert payload["line"] == 2

    @pytest.mark.parametrize("flag", ["matrix", "--projector"])
    def test_undecodable_file_exit_two(self, capsys, pex_file, tmp_path, flag):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1 4\n1000\n")
        argv = ["dist", str(path), "--theta", "1/8"]
        if flag == "--projector":
            argv = ["marginal", pex_file, "--theta", "1/8", "--projector", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(f"cannot read {path}: 'utf-8' codec")

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"])
    def test_other_line_ends(self, capsys, tmp_path, end):
        path = tmp_path / "m.txt"
        # universal newlines make the text canonical
        path.write_bytes(end.join([b"3 2", b"10", b"01", b"11", b""]))
        assert cli.parse_matrix_file(str(path)) == BinaryMatrix(3, 2, (0b10, 0b01, 0b11))

    def test_bad_angle_exit_two(self, capsys, pex_file):
        code, _, err = run_cli(capsys, "alpha", pex_file, "--theta", "0.25")
        assert code == 2
        assert json.loads(err)["error"] == "BadAngle"

    def test_wrong_width_x(self, capsys, pex_file):
        code, _, err = run_cli(
            capsys, "amplitude", pex_file, "--theta", "1/8", "--x", "01"
        )
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_budget_exit_three(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "wide.txt", 1, 17, ["0" * 17])
        code, _, err = run_cli(capsys, "dist", path, "--theta", "1/4")
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DomainTooLarge"
        assert payload["exit_code"] == 3

    def test_numerical_exit_four(self, capsys, pex_file, monkeypatch):
        # plumbing check: the dispatcher maps this error class to exit 4
        def boom(path):
            raise NumericalInconsistency("synthetic failure")

        monkeypatch.setattr(cli, "parse_matrix_file", boom)
        code, _, err = run_cli(capsys, "wenum", pex_file)
        assert code == 4
        payload = json.loads(err)
        assert payload["error"] == "NumericalInconsistency"
        assert payload["exit_code"] == 4

    def test_non_finite_report_exit_four(self, capsys, tmp_path):
        # finite inputs whose Tutte value overflows; strict JSON refuses it.
        # The zero-row factor y^k overflows too, to inf or nan, never raising
        for rows in (["10", "01", "11"], ["00", "00", "10"], ["00"] * 4 + ["10"]):
            path = write_matrix(tmp_path, "m.txt", len(rows), 2, rows)
            code, out, err = run_cli(capsys, "tutte", path, "--at", "1e200", "1e200")
            assert code == 4
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert json.loads(err)["error"] == "NumericalInconsistency"

    def test_power_table_overflow_exit_four(self, capsys, tmp_path):
        # K5's cycle matroid at (1e160, 1e160): the inputs are finite and
        # it has no separator, only the transform's table products
        # overflow; no numpy warning reaches stderr
        rows = [format(1 << a | 1 << b, "05b") for a in range(5) for b in range(a + 1, 5)]
        path = write_matrix(tmp_path, "m.txt", 10, 5, rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "tutte", path, "--at", "1e160", "1e160")
        assert caught == []
        assert (code, out) == (4, "")
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "NumericalInconsistency"

    def test_non_finite_point_exit_two(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.txt", 3, 2, ["10", "01", "11"])
        code, out, err = run_cli(capsys, "tutte", path, "--at", "nan", "1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "InputError"

    def test_overflowing_point_names_each_value(self, capsys, tmp_path):
        # an int past the float range becomes an infinity of its own sign
        path = write_matrix(tmp_path, "m.txt", 3, 2, ["10", "01", "11"])
        huge = str(10**400)
        for at, shown in [((huge, "0.5"), "inf 0.5"), (("0.5", "-" + huge), "0.5 -inf")]:
            code, out, err = run_cli(capsys, "tutte", path, "--at", *at)
            assert (code, out) == (2, "")
            payload = json.loads(err)
            assert payload["error"] == "InputError"
            assert payload["message"] == f"--at needs finite values, got {shown}"

    def test_negative_sample_count_exit_two(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.txt", 3, 2, ["10", "01", "11"])
        argv = ("sample", path, "--theta", "1/8", "--mask", "10", "--samples")
        code, out, err = run_cli(capsys, *argv, "-3")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "InputError"
        code, out, _ = run_cli(capsys, *argv, "0")
        assert code == 0
        assert json.loads(out)["samples"] == []

    @pytest.mark.parametrize("path", ["auto", "sparse", "generic"])
    def test_negative_sparse_bound_exit_two(self, capsys, tmp_path, path):
        # checked before any path runs, so no path reads a negative bound
        matrix = write_matrix(tmp_path, "m.txt", 3, 2, ["10", "01", "11"])
        code, out, err = run_cli(
            capsys, "marginal", matrix, "--theta", "1/5", "--mask", "10",
            "--path", path, "--sparse-bound", "-1",
        )
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert payload["message"] == "--sparse-bound must be nonnegative, got -1"
        # a bound of 0 is accepted; only the sparse path then checks the columns
        code, _, err = run_cli(
            capsys, "marginal", matrix, "--theta", "1/5", "--mask", "10",
            "--path", path, "--sparse-bound", "0",
        )
        if path == "sparse":
            assert code == 2
            assert json.loads(err)["error"] == "ColumnBoundViolated"
        else:
            assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "{m}", "--theta", "1/8", "--mask", "10", "--samples", "abc"),
            ("dist", "{m}", "--theta", "1/4", "--output", "xml"),
            ("dist", "{m}"),
            ("dist",),
            (),
            ("bogus", "{m}"),
            ("wenum", "{m}", "--extra"),
        ],
    )
    def test_usage_errors_exit_two(self, capsys, tmp_path, argv):
        path = write_matrix(tmp_path, "m.txt", 3, 2, ["10", "01", "11"])
        code, out, err = run_cli(capsys, *(a.format(m=path) for a in argv))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["exit_code"] == 2

    @pytest.mark.parametrize("argv", [("--help",), ("dist", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("error", [RecursionError, MemoryError, ValueError])
    def test_stray_errors_exit_four(self, capsys, tmp_path, monkeypatch, error):
        def boom(*args):
            raise error("synthetic failure")

        monkeypatch.setattr(tutte, "tutte_at", boom)
        path = write_matrix(tmp_path, "m.txt", 3, 2, ["10", "01", "11"])
        code, out, err = run_cli(capsys, "tutte", path, "--at", "2", "3")
        assert code == 4
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == error.__name__
        assert payload["exit_code"] == 4


def _write_unit_rows(path, l: int, copies: int) -> str:
    rows = ("0" * i + "1" + "0" * (l - 1 - i) for i in range(l) for _ in range(copies))
    path.write_text(f"{copies * l} {l}\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def identity_1100(tmp_path_factory):
    # a code of rank 1100: 2^1100 overflows a float
    return _write_unit_rows(tmp_path_factory.mktemp("rank") / "identity.txt", 1100, 1)


@pytest.fixture(scope="module")
def doubled_1100(tmp_path_factory):
    # every unit row twice: an even code of rank 1100, whose Gauss sum at
    # -1 is 2^1100 itself
    return _write_unit_rows(tmp_path_factory.mktemp("rank") / "doubled.txt", 1100, 2)


class TestRankBeyondFloatRange:
    """At theta = pi/4 every qubit of the identity program is a fair coin:
    alpha = cos(pi/4)^1100 = 2^-550 and each probability 2^-1100, which
    underflows to 0."""

    def test_alpha(self, capsys, identity_1100):
        code, out, _ = run_cli(capsys, "alpha", identity_1100, "--theta", "1/4")
        assert code == 0
        payload = json.loads(out)
        assert payload["gaussian_integer"] == {"re": 2**550, "im": 0}
        assert payload["log2_denominator"] == 1100
        assert payload["re"] == pytest.approx(2.0**-550, rel=1e-11)
        assert payload["im"] == 0

    def test_prob(self, capsys, identity_1100):
        x = "1" + "0" * 1099
        code, out, _ = run_cli(capsys, "prob", identity_1100, "--theta", "1/4", "--x", x)
        assert code == 0
        assert json.loads(out)["p"] == 0.0

    def test_amplitude(self, capsys, identity_1100):
        x = "0" * 1099 + "1"
        code, out, _ = run_cli(
            capsys, "amplitude", identity_1100, "--theta", "1/4", "--x", x
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(complex(payload["re"], payload["im"])) == pytest.approx(2.0**-550)

    @pytest.mark.parametrize("bit, beta", [("0", 1.0), ("1", 0.0)], ids=["zero", "ones"])
    def test_beta(self, capsys, identity_1100, bit, beta):
        code, out, _ = run_cli(
            capsys, "beta", identity_1100, "--theta", "1/4", "--s", bit * 1100
        )
        assert code == 0
        assert json.loads(out)["beta"] == beta

    def test_beta_even_code(self, capsys, doubled_1100):
        # two quarter turns flip each bit for certain, so X.s = |s| mod 2
        code, out, _ = run_cli(
            capsys, "beta", doubled_1100, "--theta", "1/4", "--s", "1" * 1100
        )
        assert code == 0
        assert json.loads(out)["beta"] == 1.0


def test_arithmetic_errors_exit_four(capsys, tmp_path, monkeypatch):
    def boom(*args):
        raise OverflowError("synthetic overflow")

    monkeypatch.setattr(tutte, "tutte_at", boom)
    path = write_matrix(tmp_path, "m.txt", 3, 2, ["10", "01", "11"])
    code, out, err = run_cli(capsys, "tutte", path, "--at", "2", "3")
    assert code == 4
    assert out == ""
    assert json.loads(err) == {
        "error": "OverflowError",
        "exit_code": 4,
        "message": "synthetic overflow",
    }


def test_marginal_labels_are_range_vectors(capsys, tmp_path):
    # each entry's x is the range vector whose coordinates are its outcome
    from iqpsim.marginals import make_projector

    from test_marginals import random_projector

    rng = Random(120)
    for trial in range(12):
        l = rng.randint(1, 7)
        proj = random_projector(rng, l)
        proj_path = write_matrix(tmp_path, "p.txt", l, l, proj.matrix.to_strings())
        rows = [format(rng.getrandbits(l), f"0{l}b") for _ in range(5)]
        path = write_matrix(tmp_path, "m.txt", 5, l, rows)
        output = ["json", "tsv"][trial % 2]
        code, out, _ = run_cli(
            capsys, "marginal", path, "--theta", "3/16",
            "--projector", proj_path, "--output", output,
        )
        assert code == 0
        if output == "json":
            pairs = [(e["outcome"], e["x"]) for e in json.loads(out)["entries"]]
        else:
            pairs = [tuple(line.split("\t")[:2]) for line in out.splitlines()]
        assert len(pairs) == 1 << proj.range_dim
        check = make_projector(proj.matrix)
        for outcome, x in pairs:
            vector = BitVector.from_string(x)
            assert check.apply(vector) == vector
            assert check.vector_to_coords(vector).to_string() == outcome
