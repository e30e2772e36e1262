"""Command-line interface: file parsing, subcommands, JSON/TSV reports.

Matrix files: '#' starts a comment line, blank lines are skipped, the
first data line is "n l", then n lines of exactly l characters over
{0,1}. Angles: "a/b" means (a/b) pi exactly, a bare integer "a" means
a pi, and "rad:<x>" is raw radians; bare floats are rejected so exact
fourth-root dispatch never hinges on float coincidence.

Exit codes: 0 ok, 2 input error (usage errors included), 3 budget
exceeded, 4 numerical inconsistency or a stray ValueError,
ArithmeticError, RecursionError or MemoryError. Errors print one JSON
object to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from random import Random

import numpy as np

from . import clifford, codes, gf2, marginals, oracle, tutte, xprogram
from .codes import Angle
from .errors import (
    BadAngle,
    BadCharacter,
    BadRowLength,
    BudgetError,
    BudgetExceeded,
    InputError,
    MalformedHeader,
    NumericalInconsistency,
    ParseError,
)
from .gf2 import BinaryMatrix, BitVector
from .marginals import Projector
from .xprogram import XProgram

__all__ = ["main", "parse_matrix_file", "parse_angle", "parse_matrix_text"]

_BITS = frozenset("01")


def parse_matrix_text(text: str, origin: str = "<input>") -> BinaryMatrix:
    """The matrix of a matrix file's text. A canonical file is read in one
    vectorized pass; every other text, and every error, goes through the
    line loop."""
    matrix = _read_canonical(text)
    return matrix if matrix is not None else _parse_lines(text, origin)


def _read_canonical(text: str) -> BinaryMatrix | None:
    """The matrix of a canonical text, else None.

    Canonical means the header "n l" in ASCII digits with n, l >= 1, then
    exactly n rows of l characters over 0/1, each ended by "\n" except
    perhaps the last. Such a text has no comment, blank line, whitespace
    or other line break, so the line loop would read the same matrix.
    """
    head, _, body = text.partition("\n")
    dims = head.split(" ")
    if len(dims) != 2 or not head.isascii() or not all(d.isdigit() for d in dims):
        return None
    n, l = int(dims[0]), int(dims[1])
    if n == 0 or l == 0 or not body.isascii():
        return None
    raw = body.encode("ascii")
    if len(raw) == n * (l + 1) - 1:
        raw += b"\n"
    if len(raw) != n * (l + 1):
        return None
    grid = np.frombuffer(raw, np.uint8).reshape(n, l + 1)
    bits = grid[:, :l] - ord("0")  # wraps every byte but "0" and "1" past 1
    if (grid[:, l] != ord("\n")).any() or (bits > 1).any():
        return None
    # right-aligned in whole big-endian 64-bit words, the top word first
    width = -(-l // 64) * 64
    padded = np.zeros((n, width), np.uint8)
    padded[:, width - l:] = bits
    words = np.packbits(padded, axis=1).view(">u8")
    rows = words[:, 0].tolist()
    for j in range(1, words.shape[1]):
        rows = [row << 64 | word for row, word in zip(rows, words[:, j].tolist())]
    return BinaryMatrix(n, l, tuple(rows))


def _parse_lines(text: str, origin: str) -> BinaryMatrix:
    """The reader of every text: comments, blank lines, whitespace, any
    line break, and the report of every error."""
    header: tuple[int, int] | None = None
    rows: list[int] = []
    last_line = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        last_line = number
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise MalformedHeader(
                    f"{origin}: expected 'n l' header, got {line!r}", line=number
                )
            try:
                n, l = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedHeader(
                    f"{origin}: non-integer header {line!r}", line=number
                ) from None
            if n < 0 or l < 0:
                raise MalformedHeader(
                    f"{origin}: negative dimensions in header", line=number
                )
            header = (n, l)
            continue
        n, l = header
        if len(rows) == n:
            raise ParseError(
                f"{origin}: unexpected data after {n} rows", line=number
            )
        if len(line) != l:
            raise BadRowLength(
                f"{origin}: row has {len(line)} characters, expected {l}",
                line=number,
            )
        # int(line, 2) alone would also take '_', '+' and non-ASCII digits
        if not _BITS.issuperset(line):
            bad = next(ch for ch in line if ch not in "01")
            raise BadCharacter(
                f"{origin}: invalid character {bad!r} in row", line=number
            )
        rows.append(int(line, 2))
    if header is None:
        raise MalformedHeader(f"{origin}: no header line found", line=last_line)
    n, l = header
    if len(rows) != n:
        raise BadRowLength(
            f"{origin}: expected {n} rows, found {len(rows)}", line=last_line
        )
    return BinaryMatrix(n, l, tuple(rows))


def parse_matrix_file(path: str) -> BinaryMatrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text, origin=path)


def dump_matrix(M: BinaryMatrix) -> str:
    lines = [f"{M.n} {M.l}"]
    lines.extend(M.to_strings())
    return "\n".join(lines)


def number(text: str) -> int | float:
    """A number from the command line: an int when written as one, so
    that exact evaluators can keep it exact, else a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_angle(text: str) -> Angle:
    token = text.strip()
    if token.startswith("rad:"):
        try:
            value = float(token[4:])
        except ValueError:
            raise BadAngle(f"bad radians value {token!r}") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise BadAngle(f"non-finite radians value {token!r}")
        return Angle.radians(value)
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            a, b = int(num), int(den)
        except ValueError:
            raise BadAngle(f"bad rational angle {token!r}") from None
        if b <= 0:
            raise BadAngle(f"denominator must be positive in {token!r}")
        return Angle.exact(a, b)
    try:
        a = int(token)
    except ValueError:
        raise BadAngle(
            f"angle {token!r} not understood; use 'a/b' (times pi) or 'rad:<x>'"
        ) from None
    return Angle.exact(a, 1)


def _theta_of(args) -> Angle | None:
    return parse_angle(args.theta) if getattr(args, "theta", None) is not None else None


def parse_bits(text: str, width: int, what: str) -> BitVector:
    token = text.strip()
    if len(token) != width or not _BITS.issuperset(token):
        raise ParseError(
            f"{what} must be {width} characters over 0/1, got {token!r}"
        )
    return BitVector.from_string(token)


def fmt(x: float):
    return float(f"{float(x):.12g}")


def _strict_json(value) -> str:
    # strict JSON: a non-finite value is a numerical failure, reported
    # before anything reaches stdout
    try:
        return json.dumps(value, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalInconsistency(f"non-finite value in the report: {exc}") from None


def _emit_report(args, payload: dict, tsv_rows: Iterable[tuple] | None = None) -> None:
    """Prints the report. A payload's "entries", when present, is already
    JSON text (see _distribution_entries) and goes out at its sorted key."""
    if args.output == "tsv":
        rows = tsv_rows
        if rows is None:
            rows = sorted((k, _strict_json(v)) for k, v in payload.items())
        print("".join("\t".join(map(str, row)) + "\n" for row in rows), end="")
        return
    entries = payload.get("entries")
    if entries is None:
        print(_strict_json(payload))
        return
    head, _, tail = _strict_json(payload | {"entries": []}).partition('"entries": []')
    print(head, '"entries": ', entries, tail, sep="")


def _base_payload(args, prog: XProgram) -> dict:
    payload: dict = {"command": args.command, "n": prog.n, "l": prog.l}
    if prog.theta is not None:
        payload["theta"] = str(prog.theta)
    if args.dump:
        payload["matrix_file"] = dump_matrix(prog.P)
    return payload


def _load_projector(args, l: int) -> Projector:
    if getattr(args, "projector", None):
        M = parse_matrix_file(args.projector)
        return marginals.make_projector(M)
    if getattr(args, "mask", None) is None:
        raise ParseError("either --mask or --projector is required")
    mask = parse_bits(args.mask, l, "--mask")
    return marginals.diagonal_projector(mask)


def _number_texts(values: np.ndarray) -> list[str]:
    """_strict_json(fmt(v)) for each value, with one '%.12g' per value.

    A decimal of 12 significant digits round-trips through a double, so
    '%.12g' and repr(fmt(v)) have the same digits. They differ in form
    only where '%.12g' drops repr's ".0" from a whole number, and where it
    turns to e-form at 1e12 while repr waits for 1e16. Subnormal and
    non-finite values, and magnitudes from 1e11 up, take _strict_json
    itself, which raises on the non-finite ones.
    """
    texts = ("%.12g " * len(values) % tuple(values.tolist())).split()
    size = np.abs(values)
    odd = ~((size < 1e11) & ((size >= sys.float_info.min) | (size == 0)))
    for ix in np.flatnonzero(odd).tolist():
        texts[ix] = _strict_json(fmt(values[ix]))
    return [t if "." in t or "e" in t else t + ".0" for t in texts]


def _bit_labels(bits: int) -> list[str]:
    """The bits-character 0/1 string of every index below 2^bits, in order."""
    if bits <= 8:
        return [format(ix, f"0{bits}b") for ix in range(1 << bits)] if bits else [""]
    low = _bit_labels(bits // 2)
    return [high + rest for high in _bit_labels(bits - bits // 2) for rest in low]


def _distribution_entries(
    dist: xprogram.Distribution, labels: list[int] | None = None, width: int = 0
) -> tuple[str, Iterator[tuple]]:
    """The report's entries, one per outcome, as JSON text and as TSV rows;
    labels[ix], when given, is the packed width-bit vector reported as the
    outcome's "x". The text is what json.dumps(..., sort_keys=True) writes
    for the entries {"outcome": ..., "p": fmt(p)[, "x": ...]}."""
    columns = [_bit_labels(dist.domain_bits), _number_texts(dist.as_array())]
    item = '{"outcome": "%s", "p": %s}'
    if labels is not None:
        columns.append([format(v, f"0{width}b") if width else "" for v in labels])
        item = '{"outcome": "%s", "p": %s, "x": "%s"}'
    cells = tuple(itertools.chain.from_iterable(zip(*columns)))
    text = "[" + ", ".join([item] * len(columns[0])) % cells + "]"
    return text, zip(*columns)


# Each reporting handler takes the parsed arguments and the program (whose
# theta is None for the commands without --theta) and returns the report
# fields and, for the tabular commands, the TSV rows.


def _cmd_wenum(args, prog: XProgram):
    profile = codes.weight_enumerator(prog.P)
    fields = {"rank": profile.rank, "weights": list(profile.weights), "exact": True}
    return fields, list(enumerate(profile.weights))


def _cmd_tutte(args, prog: XProgram):
    if args.at is not None:
        x, y = args.at
        if isinstance(x, int) and isinstance(y, int):
            # every evaluator runs on the ints themselves: the value is exact
            value = tutte.tutte_at(prog.P, x, y)
            try:
                str(value)  # the interpreter caps the length of integer text
            except ValueError as exc:
                raise BudgetExceeded(f"exact Tutte value: {exc}") from None
            return {"x": x, "y": y, "value": {"re": value, "im": 0}}, None
        coords = []
        for value in (x, y):
            try:
                coords.append(float(value))
            except OverflowError:  # an int past the float range
                coords.append(math.inf if value > 0 else -math.inf)
        x, y = coords
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(f"--at needs finite values, got {x} {y}")
        value = tutte.tutte_at(prog.P, x, y)
        fields = {
            "x": fmt(x),
            "y": fmt(y),
            "value": {"re": fmt(value.real), "im": fmt(value.imag)},
        }
        return fields, None
    poly = tutte.tutte_subset_sum(prog.P)
    terms = [(i, j, c) for (i, j), c in poly.items()]
    fields = {
        "coefficients": terms,
        "text": poly.to_text(),
        "basis_count": poly.basis_count(),
        "exact": True,
    }
    return fields, terms


def _cmd_alpha(args, prog: XProgram):
    exact = codes.alpha_exact_fourth_root(prog.P, prog.theta)
    if exact is None:
        value = codes.alpha(prog.P, prog.theta)
        return {"re": fmt(value.real), "im": fmt(value.imag), "exact": False}, None
    gaussian, log2_den = exact
    # int / int rounds once and underflows to 0 where 2^log2_den overflows
    re, im = gaussian.re / (1 << log2_den), gaussian.im / (1 << log2_den)
    fields = {
        "re": int(re) if re == int(re) else fmt(re),
        "im": int(im) if im == int(im) else fmt(im),
        "exact": True,
        "gaussian_integer": {"re": gaussian.re, "im": gaussian.im},
        "log2_denominator": log2_den,
    }
    return fields, None


def _cmd_amplitude(args, prog: XProgram):
    x = parse_bits(args.x, prog.l, "--x")
    value = xprogram.amplitude(prog, x)
    return {"x": x.to_string(), "re": fmt(value.real), "im": fmt(value.imag)}, None


def _cmd_prob(args, prog: XProgram):
    x = parse_bits(args.x, prog.l, "--x")
    return {"x": x.to_string(), "p": fmt(xprogram.probability(prog, x))}, None


def _cmd_beta(args, prog: XProgram):
    s = parse_bits(args.s, prog.l, "--s")
    return {"s": s.to_string(), "beta": fmt(xprogram.beta(prog, s))}, None


def _cmd_dist(args, prog: XProgram):
    dist = xprogram.full_distribution(prog)
    entries, rows = _distribution_entries(dist)
    fields = {
        "domain_bits": dist.domain_bits,
        "entries": entries,
        "sum_drift": fmt(dist.sum_drift),
    }
    return fields, rows


def _cmd_clifford(args, prog: XProgram):
    support = clifford.clifford_support(prog.P)
    zero_in = support.contains(BitVector(prog.l, 0))
    fields = {
        "case": support.case,
        "V": [v.to_string() for v in support.V_basis],
        "U": [u.to_string() for u in support.U_basis],
        "support_dim": support.dim,
        "support_size": 1 << support.dim,
        "point_probability": {"numerator": 1, "log2_denominator": support.dim},
        "zero_probability": {
            "numerator": int(zero_in),
            "denominator": 1 << support.dim if zero_in else 1,
        },
        "offset": support.offset.to_string(),
        "exact": True,
    }
    return fields, None


def _select_marginal_path(args, theta: Angle, M: BinaryMatrix, proj: Projector) -> str:
    if args.path != "auto":
        return args.path
    if theta == Angle.exact(1, 8):
        return "pi8"
    if proj.support_bits <= 2 and all(b.bit_count() <= 2 for b in M.bits):
        return "graphic"
    if max(M.column_weights(), default=0) <= args.sparse_bound:
        return "sparse"
    return "generic"


def _cmd_marginal(args, prog: XProgram):
    M, theta = prog.P, prog.theta
    proj = _load_projector(args, M.l)
    path = _select_marginal_path(args, theta, M, proj)
    if path == "pi8":
        if theta != Angle.exact(1, 8):
            raise BadAngle("the pi8 path requires --theta 1/8")
        dist = marginals.marginal_pi8(M, proj)
    elif path == "graphic":
        dist = marginals.marginal_graphic(prog, proj)
    elif path == "sparse":
        dist = marginals.marginal_sparse(prog, proj, args.sparse_bound)
    else:
        dist = marginals.marginal_distribution(prog, proj)
    entries, rows = _distribution_entries(dist, proj.range_vectors(), proj.l)
    fields = {
        "path": path,
        "range_dim": proj.range_dim,
        "entries": entries,
        "sum_drift": fmt(dist.sum_drift),
    }
    return fields, ((outcome, x, p) for outcome, p, x in rows)


def _cmd_sample(args, prog: XProgram):
    proj = _load_projector(args, prog.l)
    if args.samples > marginals._DRAW_LIMIT:
        raise BudgetExceeded(
            f"--samples {args.samples} exceeds the draw limit {marginals._DRAW_LIMIT}"
        )
    sampler = marginals.MarginalSampler(prog, proj, Random(args.seed))
    draws = [sampler.sample().to_string() for _ in range(args.samples)]
    return {"seed": args.seed, "samples": draws}, [(draw,) for draw in draws]


def _cmd_reduce(args, prog: XProgram):
    reduced = xprogram.reduce_rows(prog)
    # a monomial's support is never zero, so the padded binary form is its string
    rows = [(format(bits, f"0{prog.l}b"), mult) for bits, mult in reduced.monomials]
    fields = {
        "degree": reduced.degree,
        "period": reduced.period,
        "phase_exponent": reduced.phase_exponent,
        "rows": rows,
        "monomial_count": reduced.monomial_count,
        "expanded_row_count": reduced.expanded_row_count,
    }
    if args.dump:
        fields["reduced_matrix_file"] = dump_matrix(reduced.to_xprogram().P)
    return fields, rows


def _cmd_verify(args, prog: XProgram) -> None:
    """Prints one line per check instead of a report."""
    M, theta = prog.P, prog.theta
    sv = oracle.statevector(prog)
    outcomes = [BitVector(M.l, ix) for ix in range(1 << M.l)]
    failures: list[str] = []

    def check(name: str, errors, bound: float) -> None:
        # folded up from 0.0; np.max keeps a NaN, where max(0.0, nan) is 0.0
        worst = float(np.max([0.0, *errors]))
        ok = worst <= bound
        print(f"check {name}: {'ok' if ok else 'FAILED'} (max error {worst:.3g})")
        if not ok:
            failures.append(name)

    errors = np.abs(np.array(xprogram.amplitudes(prog, outcomes)) - sv.amplitudes)
    check("amplitudes vs oracle", errors, 1e-9)
    errors = (abs(xprogram.beta(prog, s) - b) for s, b in zip(outcomes, sv.betas().tolist()))
    check("correlations vs oracle", errors, 1e-9)

    dist = xprogram.full_distribution(prog)
    check("distribution vs oracle", abs(dist.as_array() - sv.probabilities()), 1e-9)

    a_code = codes.alpha(M, theta)
    a_tutte = tutte.greene_alpha(M, theta)
    check("alpha via tutte identity", [abs(a_code - a_tutte) / max(1.0, abs(a_code))], 1e-8)

    profile = codes.weight_enumerator(M)
    # |Mv| for every v: the rows odd against v, one popcount of each row and v
    v = np.arange(1 << M.l, dtype=np.uint64)[:, None]
    odd = np.bitwise_count(v & gf2._lanes(M.bits, M.l)[:, 0]) & 1
    direct = np.bincount(odd.sum(axis=1, dtype=np.intp), minlength=M.n + 1)
    scale = (1 << M.l) >> profile.rank
    same = [c * scale for c in profile.weights] == direct.tolist()
    check("weight enumerator vs direct count", [0.0 if same else 1.0], 0.0)

    sv4 = oracle.statevector(XProgram(M, Angle.exact(1, 4)))
    support = clifford.clifford_support(M)
    exact = [2.0**-support.dim if support.contains(x) else 0.0 for x in outcomes]
    errors = (abs(p - abs(sv4.amplitude(x)) ** 2) for p, x in zip(exact, outcomes))
    check("clifford distribution vs oracle", errors, 1e-12)

    proj = marginals.diagonal_projector(BitVector.from_string("11"[: M.l].ljust(M.l, "0")))
    got = marginals.marginal_distribution(prog, proj)
    want = sv.marginal(proj)
    check("marginal vs oracle", abs(got.as_array() - want.as_array()), 1e-9)

    if failures:
        print(f"{len(failures)} of 7 checks failed")
        raise NumericalInconsistency("verification failed: " + ", ".join(failures))
    print("all 7 checks passed")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ParseError instead of exiting; subparsers
    inherit the class."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="iqpsim",
        description="Distributions of X-programs via binary codes and matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str,
        handler,
        *,
        theta: str | None = None,
        x: bool = False,
        s: bool = False,
        mask: bool = False,
        samples: bool = False,
        at: bool = False,
        help_text: str = "",
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("matrix", help="path to a matrix file")
        # theta is "required", the default angle, or None for no --theta
        if theta is not None:
            sp.add_argument(
                "--theta",
                "-t",
                required=(theta == "required"),
                default=None if theta == "required" else theta,
                help="angle: 'a/b' means (a/b) pi, or 'rad:<x>'",
            )
        if x:
            sp.add_argument("--x", required=True, help="output bitstring")
        if s:
            sp.add_argument("--s", required=True, help="parity direction bitstring")
        if mask:
            kept = sp.add_mutually_exclusive_group()
            kept.add_argument("--mask", help="kept-bits mask, e.g. 1100")
            kept.add_argument("--projector", help="path to an idempotent matrix file")
        if samples:
            sp.add_argument("--samples", type=int, default=1, help="number of draws")
            sp.add_argument("--seed", type=int, default=0, help="RNG seed")
        if at:
            sp.add_argument(
                "--at",
                nargs=2,
                type=number,
                metavar=("X", "Y"),
                default=None,
                help="evaluate at a point instead of expanding",
            )
        sp.add_argument("--output", choices=("json", "tsv"), default="json")
        sp.add_argument("--dump", action="store_true", help="echo the parsed matrix")
        sp.add_argument("--threads", type=int, default=1, help="accepted and ignored")
        sp.set_defaults(handler=handler)
        return sp

    add("wenum", _cmd_wenum, help_text="weight histogram of the column-span code")
    add("tutte", _cmd_tutte, at=True, help_text="Tutte polynomial of the row matroid")
    add("alpha", _cmd_alpha, theta="required", help_text="normalized enumerator value")
    add("amplitude", _cmd_amplitude, theta="required", x=True,
        help_text="transition amplitude to x")
    add("prob", _cmd_prob, theta="required", x=True, help_text="output probability")
    add("beta", _cmd_beta, theta="required", s=True,
        help_text="parity correlation coefficient")
    add("dist", _cmd_dist, theta="required", help_text="full output distribution")
    add("clifford", _cmd_clifford, help_text="exact support at angle pi/4")
    mp = add("marginal", _cmd_marginal, theta="required", mask=True,
             help_text="marginal distribution of masked bits")
    mp.add_argument(
        "--path",
        choices=("auto", "generic", "pi8", "sparse", "graphic"),
        default="auto",
        help="family of marginal algorithm",
    )
    mp.add_argument("--sparse-bound", type=int, default=3, dest="sparse_bound")
    add("sample", _cmd_sample, theta="required", mask=True, samples=True,
        help_text="draw masked outputs")
    add("reduce", _cmd_reduce, theta="required",
        help_text="rewrite rows to weight at most d for dyadic angles")
    add("verify", _cmd_verify, theta="1/8",
        help_text="cross-check this instance against the dense oracle")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the input checks run in the order the commands have always made them
        if getattr(args, "samples", 0) < 0:
            raise InputError(f"--samples must be nonnegative, got {args.samples}")
        if getattr(args, "sparse_bound", 0) < 0:
            raise InputError(f"--sparse-bound must be nonnegative, got {args.sparse_bound}")
        M = parse_matrix_file(args.matrix)
        if args.command == "verify" and (M.l > 10 or M.n > 16):
            raise InputError("verify needs l <= 10 and n <= 16 for the dense oracle")
        prog = XProgram(M, _theta_of(args))
        report = args.handler(args, prog)
        if report is not None:  # verify prints its own check lines
            fields, tsv_rows = report
            _emit_report(args, _base_payload(args, prog) | fields, tsv_rows)
        return 0
    except InputError as exc:
        _print_error(exc, 2)
        return 2
    except BudgetError as exc:
        _print_error(exc, 3)
        return 3
    except (
        NumericalInconsistency, ValueError, ArithmeticError, RecursionError, MemoryError
    ) as exc:
        _print_error(exc, 4)
        return 4


def _print_error(exc: Exception, code: int) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    line = getattr(exc, "line", None)
    if line is not None:
        payload["line"] = line
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
