"""Run a seeded corpus of iqpsim command lines and print one digest per line.

    python3 tools/cli_corpus.py --src src > new.txt
    python3 tools/cli_corpus.py --src /path/to/other/checkout/src > old.txt
    diff old.txt new.txt

Every line of output is the sha256 of one call's exit code, stdout and
stderr, then the call's command line. Two checkouts give the same lines
exactly when every call gives byte-identical results, so the diff is an
output check for changes that should not change any result. With
--records each line holds the call's [exit code, stdout, stderr] as JSON
in place of its digest, to read what a differing line printed.

The corpus depends on --seed only. It covers every subcommand on random
programs (n <= 14, l <= 12, dense, weight-<=2, column-sparse and low-rank
rows), a few tall ones up to 2000 x 64, both --output values, masks and
conjugated --projector files, multiples of pi/8 and raw angles, seeded
sample draws, and the error cases of the command-line tests. Four
dense programs of 64, 65, 129 and 1000 rows (l = 10 to 12) fill one
uint64 lane of the phase sweep's codewords, pass it by one bit, take
three lanes, and take 16 lanes, more than their 10 index bits, so the
sweep reads the weights from the rows; each gets `dist`, a 6- to 8-bit
`marginal` (the push-forward off multiples of pi/4) and `sample` at
1/16, 1/8, 1/4 and rad:0.7. They are drawn last, so no earlier line
depends on them, and after them the full `tutte` polynomial at the
20-row limit (the 20-element circuit, the wheel W10, 20 x 4 low rank,
20 x 12 dense, 20 zero rows), one 21-row `tutte` (exit 3), `wenum` on
a full-rank 30 x 30 matrix, and `verify`, `amplitude` and `prob` on a
12 x 8 program of rank at most 5, at points in and out of its row
space, then `tutte --at` and `verify` on three programs whose
minors split into zero rows, parallel coloops and repeated rows in
circuits. Last come rows wider than one uint64 lane (l = 65 to 130):
`clifford` and the four point queries at 1/4 and 1/8 on dense 300 x 70,
100 x 130 and 65 x 65 programs, `wenum` and `alpha` at rad:0.7 on
rank-16 programs of 200 and 400 rows (4 and 7 lanes of codewords), 4-bit
`marginal` calls at 1/8, 1/4 and rad:0.7 with and without the sparse
path's column bound, `sample` on 300 x 70 (the sweep reads the rows)
and 100 x 70 (two lanes), and `reduce` on 200 x 70. After them, on both
sides of the shape rule that picks the rows or the columns to eliminate
(n < 2l), programs of n = 2l - 1, 2l and 2l + 1 rows (l = 7 and 10) at
full rank and at rank 3 get `wenum` and `alpha`, `amplitude`, `prob` and
`beta` at rad:0.7, 1/16 and 1/4, and a rank-10 2000 x 12 program gets
`wenum` and those point queries at rad:0.7 and 1/16. Last of all,
`tutte --at` on a dense 24 x 12 program at (2, 3), (-1, -1) and (0.5, 1.5),
and on K5's cycle matroid at (1e160, 1e160), then batched correlations:
`verify` at rad:0.7 and 1/16 on a 14 x 8 program of rank 5 with a zero
column and a repeated row, a beta-loop `marginal` at rad:0.7 past l = 16
(column-sparse 24 x 20, 6 bits), one on a dense 140 x 30 program
that exits 3 on the enumeration limit, and a 9-bit one on a rank-8
300 x 20 program, whose 511 codes of about 150 rows pass what one numpy
call of the batch takes; after them, correlations at angles that double
to multiples of pi/4, read off the program's own code: `verify` at 1/8,
3/8, 1/4 and 1/2 on that 14 x 8 program and on a rank-3 12 x 8 one,
8-bit beta-loop `marginal` calls at 1/8 and 3/8 on a dense 400 x 24
program and a rank-6 300 x 20 one, and `beta` at 1/8 and 3/8 on a
rank-4 300 x 70 program. Every generated matrix
file is canonical ("n l", then n rows of 0/1, each ended by a newline),
which the reader takes in one vectorized pass. The line loop, which
reads every other file and reports every parse error, is reached by one
`wenum` call per file of PARSE_BYTES (one-edit variants of a canonical
6 x 4 file, and one that is not UTF-8) and by `clifford` on a CRLF copy
of the 2000 x 64 program; these are written as raw bytes.
The inputs are generated here without importing iqpsim and written to a temporary
directory, which is the working directory of every call and is removed
at the end, so file names in messages are the same on every run. Calls
run in-process through iqpsim.cli.main, imported from --src. An exception
that escapes main is hashed as that call's result, its type and message
in place of the exit code, so a fault changes only the lines it breaks.
"""

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from random import Random

PI8 = [f"{k}/8" for k in range(-1, 17)] + ["0", "1", "1/4", "1/2", "3/4", "3/2", "7/4"]
OTHER = ["rad:0.7", "rad:1.1", "rad:0.3", "rad:2.5", "rad:-0.4", "rad:0", "1/5", "1/16",
         "3/16", "2/3"]
POINTS = [("2", "3"), ("1", "1"), ("-1", "-1"), ("0.5", "1.5"), ("0", "-1"), ("0.3", "-0.7"),
          ("2", "2"), ("-1", "2")]


# one edit each from a canonical 6x4 file, written as raw bytes
PEX = "6 4\n1101\n0110\n0000\n0101\n1011\n0101\n"
PARSE_CASES = {
    "comment.txt": "# note\n" + PEX,
    "blank.txt": PEX.replace("\n0000\n", "\n\n0000\n"),
    "crlf.txt": PEX.replace("\n", "\r\n"),
    "cr.txt": PEX.replace("\n", "\r"),
    "space.txt": PEX.replace("0110\n", "0110 \n"),
    "nofinal.txt": PEX[:-1],
    "extra.txt": PEX + "1111\n",
    "short.txt": PEX.replace("0110\n", "011\n"),
    "zero_rows.txt": "0 4\n",
    "zero_rows_data.txt": "0" + PEX[1:],
    "zero_cols.txt": "6 0\n" + "\n" * 6,
    "two.txt": PEX.replace("0110", "0120"),
    "underscore.txt": PEX.replace("0110", "0_10"),
    "plus.txt": PEX.replace("0110", "+110"),
    "arabic_row.txt": PEX.replace("0110", "0\u066110"),
    "arabic_header.txt": "\u0666" + PEX[1:],
    "vt_header.txt": PEX.replace("6 4", "6\x0b4"),
    "fs_header.txt": PEX.replace("6 4", "6 \x1c4"),
}
PARSE_BYTES = {name: text.encode() for name, text in PARSE_CASES.items()}
PARSE_BYTES["non_utf8.txt"] = b"\xff\xfe" + PEX.encode()


def bits(rng: Random, l: int) -> str:
    return format(rng.getrandbits(l), f"0{l}b") if l else ""


def matrix_rows(rng: Random, n: int, l: int, kind: str) -> list[int]:
    """Packed rows: dense, weight <= 2, column weights <= 3, or low rank
    with zero and repeated rows."""
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
            rows.append(_xor(g for g in gens if rng.getrandbits(1)))
    return rows


def _xor(values) -> int:
    out = 0
    for v in values:
        out ^= v
    return out


def projector_rows(rng: Random, l: int) -> list[int]:
    """A coordinate projector conjugated by random transvections T = I + E_ij,
    each its own inverse: T M T adds row j to row i, then column i to column j."""
    keep = set(rng.sample(range(l), rng.randint(0, min(l, 5))))
    rows = [1 << (l - 1 - i) if i in keep else 0 for i in range(l)]
    for _ in range(3 * l if l > 1 else 0):
        i, j = rng.sample(range(l), 2)
        rows[i] ^= rows[j]
        bi, bj = 1 << (l - 1 - i), 1 << (l - 1 - j)
        rows = [r ^ bj if r & bi else r for r in rows]
    return rows


def write_matrix(path: str, n: int, l: int, rows: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{n} {l}\n" + "".join(format(r, f"0{l}b") + "\n" for r in rows))


def small_program_calls(rng: Random, name: str, n: int, l: int, proj: str | None):
    """Command lines for one small program, each with a random --output."""
    calls = [["wenum", name], ["tutte", name], ["clifford", name]]
    for x, y in rng.sample(POINTS, 2):
        calls.append(["tutte", name, "--at", x, y])
    angles = [rng.choice(PI8), rng.choice(PI8), rng.choice(OTHER)]
    for theta in angles:
        # argparse reads a separate "-1/8" as an option
        t = [f"--theta={theta}"] if theta.startswith("-") else ["--theta", theta]
        calls += [
            ["alpha", name, *t],
            ["amplitude", name, *t, "--x", bits(rng, l)],
            ["prob", name, *t, "--x", bits(rng, l)],
            ["beta", name, *t, "--s", bits(rng, l)],
            ["dist", name, *t],
            ["marginal", name, *t, "--mask", bits(rng, l)],
            ["marginal", name, *t, "--mask", bits(rng, l), "--path",
             rng.choice(["generic", "pi8", "sparse", "graphic"])],
            ["sample", name, *t, "--mask", bits(rng, l), "--samples",
             str(rng.randint(0, 40)), "--seed", str(rng.randint(0, 99))],
            ["reduce", name, *t],
        ]
        if proj is not None:
            calls += [
                ["marginal", name, *t, "--projector", proj],
                ["sample", name, *t, "--projector", proj, "--samples", "25",
                 "--seed", str(rng.randint(0, 99))],
            ]
    if l <= 10:
        calls.append(["verify", name, "--theta", rng.choice(angles[::2])])
    for call in calls:
        call += ["--output", rng.choice(["json", "tsv"])]
        if rng.random() < 0.1:
            call.append("--dump")
    return calls


def tall_program_calls(rng: Random, name: str, l: int, low_rank: bool, proj: str):
    """Calls that answer in polynomial time on tall programs; proj is a
    conjugated projector file of width l."""
    calls = [["clifford", name], ["dist", name, "--theta", "1/4"], ["verify", name]]
    if low_rank:
        calls += [["wenum", name], ["tutte", name, "--at", "2", "3"],
                  ["tutte", name, "--at", "-1", "-1"]]
    for theta in ("1/4", "1/8", "3/4", "1/2", "5/4", "1", "7/4"):
        t = ["--theta", theta]
        calls += [
            ["alpha", name, *t],
            ["prob", name, *t, "--x", bits(rng, l)],
            ["amplitude", name, *t, "--x", bits(rng, l)],
            ["beta", name, *t, "--s", bits(rng, l)],
            ["marginal", name, *t, "--mask", "1" * 3 + "0" * (l - 3)],
            ["sample", name, *t, "--mask", "0" * (l - 4) + "1" * 4, "--samples", "20"],
        ]
    for theta in ("1/4", "3/4", "1/2"):
        calls += [
            ["marginal", name, "--theta", theta, "--projector", proj],
            ["sample", name, "--theta", theta, "--projector", proj, "--samples", "20"],
        ]
    calls += [["reduce", name, "--theta", theta] for theta in ("1/4", "1/8", "1/16")]
    for call in calls:
        call += ["--output", rng.choice(["json", "tsv"])]
    return calls


def lane_program_calls(rng: Random, name: str, l: int):
    """dist, a push-forward marginal and sample on a program whose codewords
    fill one uint64 lane exactly, pass it by one bit, take three lanes, or
    take more lanes than the sweep has index bits."""
    calls = []
    for theta in ("1/16", "1/8", "1/4", "rad:0.7"):
        t = ["--theta", theta]
        mask = format(sum(1 << b for b in rng.sample(range(l), rng.randint(6, 8))), f"0{l}b")
        calls += [
            ["dist", name, *t],
            ["marginal", name, *t, "--mask", mask],
            ["sample", name, *t, "--mask", mask, "--samples", "20",
             "--seed", str(rng.randint(0, 99))],
        ]
    for call in calls:
        call += ["--output", rng.choice(["json", "tsv"])]
    return calls


def error_calls(names: dict[str, str]):
    """The error cases of the command-line tests, exit codes 0, 2, 3 and 4."""
    m, pex = names["m"], names["pex"]
    calls = [
        ["wenum", "missing.txt"],
        ["wenum", names["bad_char"]],
        ["alpha", pex, "--theta", "0.25"],
        ["amplitude", pex, "--theta", "1/8", "--x", "01"],
        ["dist", names["wide17"], "--theta", "1/4"],
        ["verify", names["wide11"]],
        ["tutte", m, "--at", "nan", "1"],
        ["sample", m, "--theta", "1/8", "--mask", "10", "--samples", "-3"],
        ["sample", m, "--theta", "1/8", "--mask", "10", "--samples", "0"],
        ["sample", m, "--theta", "1/8", "--mask", "10", "--samples", "abc"],
        ["dist", m, "--theta", "1/4", "--output", "xml"],
        ["dist", m],
        ["dist"],
        [],
        ["bogus", m],
        ["wenum", m, "--extra"],
        ["--help"],
        ["dist", "--help"],
        ["marginal", pex, "--theta", "1/8"],
        ["marginal", pex, "--theta", "1/5", "--mask", "0101", "--path", "pi8"],
        ["marginal", pex, "--theta", "1/8", "--projector", names["not_idempotent"]],
        ["marginal", pex, "--theta", "1/8", "--projector", names["not_square"]],
        ["marginal", pex, "--theta", "1/8", "--mask", "0011", "--projector", names["proj4"]],
        ["sample", pex, "--theta", "1/8", "--mask", "0011", "--projector", names["proj4"],
         "--samples", "5"],
        # one draw past the draw limit of 2^20
        ["sample", m, "--theta", "1/8", "--mask", "11", "--samples", str((1 << 20) + 1)],
        # an int past the float range, beside a finite value
        ["tutte", m, "--at", "1" + "0" * 400, "0.5"],
        ["reduce", pex, "--theta", "rad:0.5"],
        ["reduce", names["ones40"], "--theta", "1/64"],
        # 2095104 expanded rows, past the dump's row budget
        ["reduce", names["ones11"], "--theta", "1/1024", "--dump"],
        # a first deletion chain of 1036 levels, past the recursion limit
        ["tutte", names["deep"], "--at", "2", "3"],
        ["marginal", names["star"], "--theta", "rad:0.7", "--mask", "11" + "0" * 38],
        ["marginal", names["star"], "--theta", "rad:0.7", "--mask", "11" + "0" * 38,
         "--path", "generic"],
        ["marginal", pex, "--theta", "1/5", "--mask", "0101", "--sparse-bound", "-1"],
    ]
    for rows in ("m", "zeros2", "zeros4"):
        calls.append(["tutte", names[rows], "--at", "1e200", "1e200"])
    # 2^16 coefficients at pi/8, past the marginal work budget
    calls.append(
        ["marginal", names["wide60"], "--theta", "1/8", "--mask", "1" * 16 + "0" * 24]
    )
    calls += [["wenum", name] for name in PARSE_BYTES]
    return calls


def build_corpus(rng: Random, workdir: str) -> list[list[str]]:
    def put(name: str, n: int, l: int, rows: list[int]) -> str:
        write_matrix(os.path.join(workdir, name), n, l, rows)
        return name

    def put_bytes(name: str, data: bytes) -> str:
        with open(os.path.join(workdir, name), "wb") as handle:
            handle.write(data)
        return name

    names = {
        "m": put("m.txt", 3, 2, [0b10, 0b01, 0b11]),
        "pex": put("pex.txt", 6, 4, [0b1101, 0b0110, 0, 0b0101, 0b1011, 0b0101]),
        "wide17": put("wide17.txt", 1, 17, [0]),
        "wide11": put("wide11.txt", 2, 11, [0, 0]),
        "zeros2": put("zeros2.txt", 3, 2, [0, 0, 0b10]),
        "zeros4": put("zeros4.txt", 5, 2, [0, 0, 0, 0, 0b10]),
        "not_idempotent": put("swap.txt", 4, 4, [0b0100, 0b1000, 0b0010, 0b0001]),
        "not_square": put("rect.txt", 3, 4, [0b1000, 0b0100, 0b0010]),
        "proj4": put("proj4.txt", 4, 4, [0b1000, 0b0100, 0, 0]),
        "star": put("star.txt", 34, 40, [1 << 39 | 1 << (38 - i) for i in range(34)]),
        "ones40": put("ones40.txt", 40, 40, [(1 << 40) - 1] * 40),
        "ones11": put("ones11.txt", 1, 11, [(1 << 11) - 1]),
        "deep": put("deep.txt", 1100, 64, matrix_rows(Random(64), 1100, 64, "dense")),
        "wide60": put("wide60.txt", 60, 40, matrix_rows(Random(40), 60, 40, "dense")),
    }
    for name, data in PARSE_BYTES.items():
        put_bytes(name, data)
    names["bad_char"] = put_bytes("bad.txt", b"1 4\n10x1\n")
    calls = error_calls(names)
    for i in range(150):
        n, l = rng.randint(0, 14), rng.randint(1, 12)
        kind = rng.choice(["dense", "dense", "pairs", "colsparse", "lowrank"])
        name = put(f"p{i}.txt", n, l, matrix_rows(rng, n, l, kind))
        proj = None
        if rng.random() < 0.5:
            proj = put(f"q{i}.txt", l, l, projector_rows(rng, l))
        calls += small_program_calls(rng, name, n, l, proj)
    for i, (n, l, kind) in enumerate(
        [(2000, 64, "dense"), (500, 14, "colsparse"), (300, 8, "lowrank"),
         (2000, 4, "lowrank"), (1000, 32, "pairs")]
    ):
        name = put(f"tall{i}.txt", n, l, matrix_rows(rng, n, l, kind))
        proj = put(f"tallq{i}.txt", l, l, projector_rows(rng, l))
        calls += tall_program_calls(rng, name, l, kind == "lowrank", proj)
    with open(os.path.join(workdir, "tall0.txt"), "rb") as handle:
        crlf = handle.read().replace(b"\n", b"\r\n")
    calls.append(["clifford", put_bytes("tall0_crlf.txt", crlf)])
    for i, (n, l) in enumerate([(64, 10), (65, 11), (129, 12), (1000, 10)]):
        name = put(f"lane{i}.txt", n, l, matrix_rows(rng, n, l, "dense"))
        calls += lane_program_calls(rng, name, l)
    calls += row_limit_calls(rng, put)
    calls += rank_deficient_calls(put)
    calls += split_calls(put)
    calls += wide_row_calls(put)
    calls += shape_boundary_calls(put)
    calls += point_calls(put)
    calls += beta_batch_calls(put)
    calls += fourth_root_beta_calls(put)
    return calls


def row_limit_calls(rng: Random, put):
    """The whole Tutte polynomial at the 20-row limit and one row past it,
    and the weight histogram of a full-rank 30 x 30 matrix, past the rank
    limit of 26 but with a dual of dimension 0."""
    wheel = [(0, i) for i in range(1, 11)] + [(i, i % 10 + 1) for i in range(1, 11)]
    # a leading bit per row keeps the 30 rows independent
    full = [1 << (29 - i) | rng.getrandbits(29 - i) for i in range(30)]
    rng.shuffle(full)
    names = [
        put("circuit20.txt", 20, 19, [1 << i for i in range(19)] + [(1 << 19) - 1]),
        put("wheel10.txt", 20, 11, [1 << (10 - a) | 1 << (10 - b) for a, b in wheel]),
        put("lowrank20.txt", 20, 4, matrix_rows(rng, 20, 4, "dense")),
        put("dense20.txt", 20, 12, matrix_rows(rng, 20, 12, "dense")),
        put("zeros20.txt", 20, 3, [0] * 20),
        put("dense21.txt", 21, 6, matrix_rows(rng, 21, 6, "dense")),
    ]
    return [["tutte", name] for name in names] + [["wenum", put("full30.txt", 30, 30, full)]]


def rank_deficient_calls(put):
    """verify, amplitude and prob on a 12 x 8 program of rank at most 5,
    so that most outcomes lie outside the row space and the batched
    amplitudes of verify give them 0. Every row ends in three zeros: a
    point with a one there is outside, a sum of rows inside. It has its
    own seed, so no earlier line depends on it."""
    rng = Random(85)
    gens = [rng.getrandbits(5) << 3 for _ in range(5)]
    rows = [_xor(g for g in gens if rng.getrandbits(1)) for _ in range(12)]
    name = put("rank5.txt", 12, 8, rows)
    inside = [0] + [_xor(r for r in rows if rng.getrandbits(1)) for _ in range(3)]
    outside = [1, 0b10000110, rng.getrandbits(5) << 3 | 0b101]
    calls = [["verify", name, "--theta", "1/4"], ["verify", name, "--theta", "rad:0.7"]]
    for theta in ("1/4", "3/4", "1/8", "rad:0.7"):
        for x in inside + outside:
            for command in ("amplitude", "prob"):
                calls.append([command, name, "--theta", theta, "--x", format(x, "08b")])
    return calls


def split_calls(put):
    """tutte --at and verify on three programs that each have zero rows, a
    class of parallel coloops (copies of a row on the one bit no other row
    touches) and repeated rows in circuits, so the minors of the recursion
    split into all three parts. (1e200, 1e200) overflows: exit 4. It has
    its own seed, so no earlier line depends on it."""
    rng = Random(22)
    calls = []
    for i, (n, l) in enumerate([(10, 5), (12, 6), (14, 7)]):
        rows = [0, 0] + [1 << (l - 1) | rng.getrandbits(l - 1)] * 3
        while len(rows) < n:
            rows += [rng.getrandbits(l - 1) or 1] * rng.randint(1, 2)
        rng.shuffle(rows)
        name = put(f"split{i}.txt", len(rows), l, rows)
        for x, y in [("2", "3"), ("-1", "-1"), ("0.5", "1.5"), ("0.3", "-0.7"),
                     ("1e200", "1e200")]:
            calls.append(["tutte", name, "--at", x, y])
        calls += [["verify", name, "--theta", theta] for theta in ("rad:0.7", "1/8")]
    return calls


def wide_row_calls(put):
    """Calls on programs whose rows pass one uint64 lane (l = 65 to 130),
    so every numpy pass over packed rows reads more than one lane of each:
    Gauss sums and point queries on dense 300 x 70, 100 x 130 and 65 x 65;
    wenum and alpha off multiples of pi/4 on rank-16 programs of 200 rows
    (4 lanes) and 400 rows (7 lanes, past the rows one popcount call
    takes); 4-bit marginals by the beta loop, also through the column
    bound of the sparse path; sample on 300 x 70 (more lanes than index
    bits, so the sweep reads the rows) and 100 x 70 (two lanes); and
    reduce on a dense 200 x 70. It has its own seed, so no earlier line
    depends on it."""
    rng = Random(23)

    def low_rank(n: int, l: int, r: int) -> list[int]:
        gens = [rng.getrandbits(l) for _ in range(r)]
        return [_xor(g for g in gens if rng.getrandbits(1)) for _ in range(n)]

    dense = [put(f"wide{n}x{l}.txt", n, l, matrix_rows(rng, n, l, "dense"))
             for n, l in [(300, 70), (100, 130), (65, 65)]]
    rank16 = [put(f"rank16_{n}.txt", n, 70, low_rank(n, 70, 16)) for n in (200, 400)]
    two_lanes = put("wide100x70.txt", 100, 70, matrix_rows(rng, 100, 70, "dense"))
    reduced = put("wide200x70.txt", 200, 70, matrix_rows(rng, 200, 70, "dense"))
    calls = []
    for name, l in zip(dense, (70, 130, 65)):
        calls.append(["clifford", name])
        for theta in ("1/4", "1/8"):
            t = ["--theta", theta]
            calls += [
                ["alpha", name, *t],
                ["amplitude", name, *t, "--x", bits(rng, l)],
                ["prob", name, *t, "--x", bits(rng, l)],
                ["beta", name, *t, "--s", bits(rng, l)],
            ]
    for name in rank16:
        calls += [["wenum", name], ["alpha", name, "--theta", "rad:0.7"]]
    mask = format(sum(1 << b for b in rng.sample(range(70), 4)), "070b")
    for name in (dense[0], rank16[0]):
        for theta in ("1/8", "1/4", "rad:0.7"):
            calls += [
                ["marginal", name, "--theta", theta, "--mask", mask],
                ["marginal", name, "--theta", theta, "--mask", mask, "--path", "sparse",
                 "--sparse-bound", "1000"],
            ]
    for name in (dense[0], two_lanes):
        calls.append(["sample", name, "--theta", "rad:0.7", "--mask", mask, "--samples", "8",
                      "--seed", str(rng.randint(0, 99))])
    calls.append(["reduce", reduced, "--theta", "1/4"])
    return calls


def shape_boundary_calls(put):
    """Code queries on either side of the shape rule that picks which
    elimination serves them: rows when n < 2l, else columns. For l = 7
    and 10, programs of n = 2l - 1, 2l and 2l + 1 rows, of full rank
    (an identity among shuffled random rows) and of rank 3, each get
    `wenum`, then `alpha`, `amplitude`, `prob` and `beta` at rad:0.7, 1/16
    and 1/4, the points drawn at random (outside the row space of the
    low-rank ones, mostly) and from the row space. Last, a rank-10
    2000 x 12 program gets `wenum`, `alpha` and the three point queries at
    rad:0.7 and 1/16. It has its own seed, so no earlier line depends on
    it."""
    rng = Random(24)
    calls = []

    def point_calls(name: str, rows: list[int], l: int, thetas) -> list[list[str]]:
        inside = format(_xor(r for r in rows if rng.getrandbits(1)), f"0{l}b")
        out = []
        for theta in thetas:
            t = ["--theta", theta]
            out.append(["alpha", name, *t])
            for x in (bits(rng, l), inside):
                out += [["amplitude", name, *t, "--x", x], ["prob", name, *t, "--x", x]]
            out.append(["beta", name, *t, "--s", format(rng.randrange(1, 1 << l), f"0{l}b")])
        return out

    for l in (7, 10):
        for n in (2 * l - 1, 2 * l, 2 * l + 1):
            full = [1 << (l - 1 - i) for i in range(l)] + [rng.getrandbits(l) for _ in range(n - l)]
            rng.shuffle(full)
            gens = [rng.getrandbits(l) for _ in range(3)]
            low = [_xor(g for g in gens if rng.getrandbits(1)) for _ in range(n)]
            for kind, rows in (("full", full), ("low", low)):
                name = put(f"edge{n}x{l}_{kind}.txt", n, l, rows)
                calls.append(["wenum", name])
                calls += point_calls(name, rows, l, ("rad:0.7", "1/16", "1/4"))
    gens = [rng.getrandbits(12) for _ in range(10)]
    rows = [_xor(g for g in gens if rng.getrandbits(1)) for _ in range(2000)]
    name = put("tall2000x12_rank10.txt", 2000, 12, rows)
    calls.append(["wenum", name])
    calls += point_calls(name, rows, 12, ("rad:0.7", "1/16"))
    return calls


def point_calls(put):
    """tutte --at on a dense 24 x 12 program, whose M and M* both keep
    more than 20 classes: at (2, 3) and (-1, -1), which the code answers,
    and at (0.5, 1.5), which takes deletion and contraction. Then K5's
    cycle matroid at (1e160, 1e160): it has no separator and keeps its 10
    classes on M and M*, so only products of the class transform's power
    tables overflow: exit 4. It has its own seed, so no earlier line
    depends on it."""
    rng = Random(25)
    name = put("dense24x12.txt", 24, 12, matrix_rows(rng, 24, 12, "dense"))
    calls = [["tutte", name, "--at", x, y] for x, y in [("2", "3"), ("-1", "-1"), ("0.5", "1.5")]]
    k5 = put("k5.txt", 10, 5, [1 << a | 1 << b for a in range(5) for b in range(a + 1, 5)])
    return calls + [["tutte", k5, "--at", "1e160", "1e160"]]


def beta_batch_calls(put):
    """Calls whose correlation coefficients come in one batch: verify at
    rad:0.7 and 1/16 on a 14 x 8 program of rank at most 5 with a zero
    column and a repeated row, so some s are odd against no row (empty
    codes) and the other codes fall on both sides of n - r < r; a 6-bit marginal at
    rad:0.7 by the beta loop on a column-sparse 24 x 20 program, past the
    full-distribution width of 16; and a 2-bit marginal at rad:0.7 on a
    dense 140 x 30 program, whose affinified codes pass the enumeration
    limit on both sides: exit 3. Last, a 9-bit marginal at rad:0.7 on a
    rank-8 300 x 20 program: 511 affinified codes of about 150 rows, more
    than one numpy call of the batch takes. It has its own seed, so no
    earlier line depends on it."""
    rng = Random(26)
    gens = [rng.getrandbits(8) & ~(1 << 5) for _ in range(5)]
    rows = [_xor(g for g in gens if rng.getrandbits(1)) for _ in range(13)]
    rows.insert(rng.randrange(14), rng.choice(rows))
    name = put("zero_column14x8.txt", 14, 8, rows)
    calls = [["verify", name, "--theta", theta] for theta in ("rad:0.7", "1/16")]
    sparse = put("colsparse24x20.txt", 24, 20, matrix_rows(rng, 24, 20, "colsparse"))
    mask = format(sum(1 << b for b in rng.sample(range(20), 6)), "020b")
    calls.append(["marginal", sparse, "--theta", "rad:0.7", "--mask", mask])
    dense = put("dense140x30.txt", 140, 30, matrix_rows(rng, 140, 30, "dense"))
    calls.append(["marginal", dense, "--theta", "rad:0.7", "--mask", "11" + "0" * 28])
    gens = [rng.getrandbits(20) for _ in range(8)]
    rows = [_xor(g for g in gens if rng.getrandbits(1)) for _ in range(300)]
    tall = put("rank8_300x20.txt", 300, 20, rows)
    mask = format(sum(1 << b for b in rng.sample(range(20), 9)), "020b")
    calls.append(["marginal", tall, "--theta", "rad:0.7", "--mask", mask])
    return calls


def fourth_root_beta_calls(put):
    """Correlations at angles that double to multiples of pi/4, each read
    off the program's own code: verify at 1/8, 3/8, 1/4 and 1/2 on the
    zero-column 14 x 8 program of beta_batch_calls and on a rank-3 12 x 8
    one; 8-bit marginals at 1/8 and 3/8 by the beta loop on a dense
    400 x 24 program and a rank-6 300 x 20 one; and beta at 1/8 and 3/8 on
    a rank-4 300 x 70 program. It has its own seed, so no earlier line
    depends on it."""
    rng = Random(27)
    thetas = ("1/8", "3/8", "1/4", "1/2")
    def low_rank(n: int, l: int, r: int) -> list[int]:
        gens = [rng.getrandbits(l) for _ in range(r)]
        return [_xor(g for g in gens if rng.getrandbits(1)) for _ in range(n)]

    rank3 = put("rank3_12x8.txt", 12, 8, low_rank(12, 8, 3))
    calls = [["verify", name, "--theta", theta]
             for name in ("zero_column14x8.txt", rank3) for theta in thetas]
    dense = put("dense400x24.txt", 400, 24, matrix_rows(rng, 400, 24, "dense"))
    rank6 = put("rank6_300x20.txt", 300, 20, low_rank(300, 20, 6))
    for name, l in ((dense, 24), (rank6, 20)):
        mask = format(sum(1 << b for b in rng.sample(range(l), 8)), f"0{l}b")
        calls += [["marginal", name, "--theta", theta, "--mask", mask] for theta in ("1/8", "3/8")]
    rank4 = put("rank4_300x70.txt", 300, 70, low_rank(300, 70, 4))
    calls += [["beta", rank4, "--theta", theta, "--s", bits(rng, 70)] for theta in ("1/8", "3/8")]
    return calls


def run(main, argv: list[str], records: bool = False) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        except Exception as exc:  # a fault escaping main: hash it, run the next call
            code = f"{type(exc).__name__}: {exc}"
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return record if records else hashlib.sha256(record.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the iqpsim package")
    parser.add_argument("--seed", type=int, default=1, help="corpus seed")
    parser.add_argument(
        "--records",
        action="store_true",
        help="print each call's [exit code, stdout, stderr] as JSON in place of its digest",
    )
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ["COLUMNS"] = "80"  # argparse wraps --help text to the terminal
    from iqpsim.cli import main as cli_main

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        calls = build_corpus(Random(args.seed), workdir)
        os.chdir(workdir)
        try:
            for argv in calls:
                print(run(cli_main, argv, args.records), " ".join(argv))
        finally:
            os.chdir(home)
    print(f"{len(calls)} command lines", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
