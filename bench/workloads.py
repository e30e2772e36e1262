"""The two workloads: call mixes, seeded instance generation, and checks.

A workload is a list of phases. Each phase names the end-to-end metric it
feeds and a fixed cycle of call specs; one round of the benchmark runs one
cycle of every phase. Every call gets a freshly generated matrix, so no
input repeats within a run and nothing cached across calls can hit.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import require

DENSE_LIMIT = 20  # widest l checked against the dense statevector
TUTTE_POINTS_X = ("0.5", "1", "2", "3")
TUTTE_POINTS_Y = ("0.5", "1", "1.5", "2")


@dataclass(frozen=True)
class Spec:
    """One call of a cycle: subcommand, matrix shape and generator, angle."""

    kind: str
    n: int
    l: int
    theta: str = ""  # "a/b" (times pi) or "rad" for a fresh raw angle per call
    q: int = 0  # kept bits of the mask
    gen: str = "dense"  # dense, colsparse, pairs or lowrank
    rank: int = 0  # generator count for gen="lowrank"
    draws: int = 0
    threads: int = 1

    def tiny(self) -> "Spec":
        """Smallest instance of the same kind, for warm-up calls."""
        l = min(self.l, 6)
        return replace(
            self,
            n=min(self.n, 8),
            l=l,
            q=min(self.q, 2),
            rank=min(self.rank, 2),
            draws=min(self.draws, 4),
        )


@dataclass(frozen=True)
class Phase:
    name: str
    metric: str
    specs: tuple[Spec, ...]
    counts_draws: bool = False  # rate counts sample draws instead of calls
    wall_clock: bool = False  # timed in wall time, where parallel work can gain


@dataclass
class Call:
    """A command line and the check of its stdout.

    The check raises CheckFailed; for sample calls it returns the
    probability integral transform of every draw, for the run's pooled
    goodness-of-fit test.
    """

    argv: list[str]
    check: Callable[[str], list[float] | None]
    draws: int = 0


def _dist(n, l, theta, **kw):
    return Spec("dist", n, l, theta, **kw)


WORKLOADS: dict[str, tuple[Phase, ...]] = {
    "enum-dense": (
        Phase("dist", "dist_per_s", (_dist(24, 12, "1/16"), _dist(48, 10, "rad"))),
        Phase(
            "dist_threaded",
            "dist_threaded_per_s",
            (_dist(24, 12, "1/16", threads=2), _dist(48, 10, "rad", threads=2)),
            wall_clock=True,
        ),
        Phase(
            "marginal",
            "marginal_per_s",
            (
                Spec("marginal", 40, 16, "1/16", q=8),
                Spec("marginal", 30, 14, "rad", q=8),
                Spec("marginal", 24, 16, "rad", q=6, gen="colsparse"),
                Spec("marginal", 30, 14, "rad", q=2, gen="pairs"),
            ),
        ),
        Phase(
            "sample",
            "samples_per_s",
            (
                Spec("sample", 40, 12, "1/16", q=8, draws=256),
                Spec("sample", 40, 12, "rad", q=8, draws=256),
                Spec("sample", 48, 12, "1/16", q=8, draws=256),
                Spec("sample", 32, 12, "rad", q=8, draws=256),
            ),
            counts_draws=True,
        ),
        Phase(
            "point",
            "point_per_s",
            (
                Spec("prob", 40, 20, "1/16"),
                Spec("amplitude", 40, 20, "rad"),
                Spec("beta", 48, 20, "1/16"),
                Spec("alpha", 32, 20, "rad"),
                Spec("prob", 60, 18, "rad"),
                Spec("amplitude", 50, 18, "1/16"),
                Spec("beta", 40, 18, "rad"),
                Spec("alpha", 60, 18, "1/16"),
            ),
        ),
        Phase(
            "structure",
            "structure_per_s",
            (
                Spec("wenum", 40, 20),
                Spec("wenum", 60, 20),
                Spec("clifford", 40, 16),
                Spec("clifford", 60, 18),
                Spec("reduce", 40, 16, "1/16"),
                Spec("reduce", 40, 16, "3/16"),
                Spec("reduce", 40, 18, "1/16"),
            ),
        ),
        Phase(
            "tutte",
            "tutte_per_s",
            (
                Spec("tutte", 16, 10),
                Spec("tutte", 15, 9),
                Spec("tutte", 14, 8),
                Spec("tutte_at", 14, 8),
            ),
        ),
        Phase(
            "verify",
            "verify_per_s",
            (Spec("verify", 12, 8, "rad"), Spec("verify", 10, 8, "1/16")),
        ),
    ),
    "exact-tall": (
        Phase("dist", "dist_per_s", (_dist(300, 10, "1/8"), _dist(400, 10, "1/4"))),
        Phase(
            "dist_threaded",
            "dist_threaded_per_s",
            (_dist(300, 10, "1/8", threads=2), _dist(400, 10, "1/4", threads=2)),
            wall_clock=True,
        ),
        Phase(
            "marginal",
            "marginal_per_s",
            (
                Spec("marginal", 500, 14, "1/8", q=8),
                Spec("marginal", 1000, 32, "1/4", q=6),
            ),
        ),
        Phase(
            "sample",
            "samples_per_s",
            (Spec("sample", 300, 38, "1/4", q=6, draws=48),),
            counts_draws=True,
        ),
        Phase(
            "point",
            "point_per_s",
            (
                Spec("beta", 2000, 64, "1/8"),
                Spec("prob", 1000, 48, "1/4"),
                Spec("amplitude", 2000, 64, "1/4"),
                Spec("alpha", 1000, 48, "1/4"),
                Spec("beta", 300, 32, "1/8"),
                Spec("prob", 2000, 64, "1/4"),
                Spec("alpha", 2000, 64, "1/4"),
                Spec("beta", 1000, 48, "1/8"),
                Spec("amplitude", 300, 32, "1/4"),
            ),
        ),
        Phase(
            "structure",
            "structure_per_s",
            (
                Spec("wenum", 2000, 12),
                Spec("wenum", 1000, 14),
                Spec("clifford", 2000, 64),
                Spec("clifford", 1000, 48),
                Spec("reduce", 1000, 12, "1/8"),
                Spec("reduce", 2000, 12, "1/4"),
            ),
        ),
        Phase(
            "tutte",
            "tutte_per_s",
            (
                Spec("tutte_at", 100, 6, gen="lowrank", rank=2),
                Spec("tutte_at", 60, 6, gen="lowrank", rank=3),
                Spec("tutte_at", 80, 8, gen="lowrank", rank=2),
                Spec("tutte_at", 120, 6, gen="lowrank", rank=2),
            ),
        ),
        Phase(
            "verify",
            "verify_per_s",
            (Spec("verify", 12, 8, "1/8"), Spec("verify", 10, 8, "1/4")),
        ),
    ),
}


class RepeatedInput(Exception):
    pass


class Inputs:
    """Writes instance files into one directory and refuses repeats."""

    def __init__(self, directory: Path):
        self.directory = directory
        self._seen: set[bytes] = set()
        self._count = 0

    def matrix(self, rows: list[int], l: int) -> str:
        text = f"{len(rows)} {l}\n" + "".join(format(a, f"0{l}b") + "\n" for a in rows)
        digest = hashlib.sha256(text.encode()).digest()
        if digest in self._seen:
            raise RepeatedInput
        self._seen.add(digest)
        self._count += 1
        path = self.directory / f"m{self._count}.txt"
        path.write_text(text)
        return str(path)


# --- instance generation -----------------------------------------------


def _rows(rng: random.Random, spec: Spec) -> list[int]:
    n, l = spec.n, spec.l
    if spec.gen == "dense":
        return [rng.getrandbits(l) for _ in range(n)]
    if spec.gen == "colsparse":
        # every column has weight 1 to 3, so the auto path picks "sparse"
        rows = [0] * n
        for j in range(l):
            for i in rng.sample(range(n), rng.randint(1, 3)):
                rows[i] |= 1 << j
        return rows
    if spec.gen == "pairs":
        # rows of weight 1 or 2; with a 2-bit mask the auto path picks "graphic"
        return [
            sum(1 << b for b in rng.sample(range(l), rng.randint(1, 2)))
            for _ in range(n)
        ]
    if spec.gen == "lowrank":
        gens: list[int] = []
        while len(gens) < spec.rank:
            g = rng.getrandbits(l)
            if ref.rank(gens + [g]) > len(gens):
                gens.append(g)
        rows = []
        for _ in range(n):
            v = 0
            for g in gens:
                if rng.getrandbits(1):
                    v ^= g
            rows.append(v)
        return rows
    raise ValueError(f"unknown generator {spec.gen}")


def _theta(rng: random.Random, spec: Spec) -> str:
    if spec.theta == "rad":
        return f"rad:{rng.uniform(0.2, 1.4)!r}"
    return spec.theta


def _mask(rng: random.Random, l: int, q: int) -> tuple[str, list[int]]:
    kept = sorted(rng.sample(range(l), q))
    return "".join("1" if j in kept else "0" for j in range(l)), kept


def _bits(v: int, l: int) -> str:
    return format(v, f"0{l}b")


# --- calls and their checks --------------------------------------------


def _read_distribution(entries: list[dict], width: int, key) -> np.ndarray:
    require(len(entries) == 1 << width, f"{len(entries)} entries, expected 2^{width}")
    got = np.full(1 << width, np.nan)
    for e in entries:
        got[key(e)] = float(e["p"])
    require(not np.isnan(got).any(), "an outcome is missing")
    require(float(got.min()) >= 0.0, f"negative probability {got.min()}")
    require(abs(float(got.sum()) - 1.0) <= ref.DENSE_TOLERANCE, f"sum {got.sum()}")
    return got


def _close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    worst = float(np.max(np.abs(got - want)))
    require(worst <= ref.DENSE_TOLERANCE, f"{what} off the dense reference by {worst:.3g}")


def _quarter_turn_marginal(rows, l, kept, got: np.ndarray) -> None:
    """At pi/4 the marginal is uniform on the coset of the restricted P^T P
    rows that holds the kept bits of a point of the full support."""
    basis = ref.quarter_turn_support(rows, l, kept)
    rep = _quarter_turn_coset(rows, l, kept, basis)
    for k in range(len(got)):
        nonzero = ref.coset_representative(basis, k) == rep
        ref.require_dyadic(float(got[k]), len(basis), nonzero, "marginal entry")


def _quarter_turn_coset(rows, l, kept, basis) -> int:
    _, constraints = ref.quarter_turn_constraints(rows, l)
    point = ref.restrict(ref.support_point(constraints), l, kept)
    return ref.coset_representative(basis, point)


def make_call(spec: Spec, rng: random.Random, inputs: Inputs) -> Call:
    for _ in range(100):
        try:
            return _MAKERS[spec.kind](spec, rng, inputs)
        except RepeatedInput:
            continue
    raise RuntimeError("could not generate a fresh input")


def _make_dist(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    theta = _theta(rng, spec)
    argv = ["dist", inputs.matrix(rows, l), "--theta", theta, "--threads", str(spec.threads)]

    def check(out: str) -> None:
        rep = ref.load_json(out)
        got = _read_distribution(rep["entries"], l, lambda e: int(e["outcome"], 2))
        _close(got, ref.dense_probabilities(rows, l, ref.angle_value(theta)), "dist")

    return Call(argv, check)


def _make_marginal(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    theta = _theta(rng, spec)
    mask, kept = _mask(rng, l, spec.q)
    argv = ["marginal", inputs.matrix(rows, l), "--theta", theta, "--mask", mask]

    def key(entry: dict) -> int:
        x = int(entry["x"], 2)
        require(x & ~int(mask, 2) == 0, f"outcome {entry['x']} outside the mask")
        return ref.restrict(x, l, kept)

    def check(out: str) -> None:
        got = _read_distribution(ref.load_json(out)["entries"], spec.q, key)
        if l <= DENSE_LIMIT:
            probs = ref.dense_probabilities(rows, l, ref.angle_value(theta))
            _close(got, ref.dense_marginal(probs, l, kept), "marginal")
        else:
            require(theta == "1/4", "no reference for this instance")
            _quarter_turn_marginal(rows, l, kept, got)

    return Call(argv, check)


def _sample_reference(rows, l, theta, kept) -> np.ndarray:
    if l <= DENSE_LIMIT:
        probs = ref.dense_probabilities(rows, l, ref.angle_value(theta))
        return ref.dense_marginal(probs, l, kept)
    require(theta == "1/4", "no reference for this instance")
    basis = ref.quarter_turn_support(rows, l, kept)
    rep = _quarter_turn_coset(rows, l, kept, basis)
    out = np.zeros(1 << len(kept))
    vectors = [basis[p] for p in sorted(basis, reverse=True)]
    for combo in range(1 << len(vectors)):
        v = rep
        for k, b in enumerate(vectors):
            if (combo >> k) & 1:
                v ^= b
        out[v] = 1.0 / (1 << len(vectors))
    return out


def _make_sample(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    theta = _theta(rng, spec)
    mask, kept = _mask(rng, l, spec.q)
    argv = [
        "sample", inputs.matrix(rows, l), "--theta", theta, "--mask", mask,
        "--samples", str(spec.draws), "--seed", str(rng.randrange(1 << 31)),
    ]
    uniforms = random.Random(rng.random())

    def check(out: str) -> None:
        got = ref.load_json(out)["samples"]
        require(len(got) == spec.draws, f"{len(got)} draws, expected {spec.draws}")
        outcomes = []
        for s in got:
            require(len(s) == l, f"draw {s!r} has the wrong length")
            x = int(s, 2)
            require(x & ~int(mask, 2) == 0, f"draw {s} outside the mask")
            outcomes.append(ref.restrict(x, l, kept))
        reference = _sample_reference(rows, l, theta, kept)
        pit = []
        for k in outcomes:
            require(reference[k] > 1e-12, "draw outside the support of the marginal")
            pit.append(ref.randomized_pit(reference, k, uniforms.random()))
        return pit

    return Call(argv, check, draws=spec.draws)


def _make_point(spec, rng, inputs):
    rows, l, kind = _rows(rng, spec), spec.l, spec.kind
    theta = _theta(rng, spec)
    argv = [kind, inputs.matrix(rows, l), "--theta", theta]
    if kind in ("prob", "amplitude"):
        point = rng.getrandbits(l)
        argv += ["--x", _bits(point, l)]
    elif kind == "beta":
        point = rng.getrandbits(l) or 1
        argv += ["--s", _bits(point, l)]

    def check(out: str) -> None:
        rep = ref.load_json(out)
        if kind in ("amplitude", "alpha"):
            value = complex(rep["re"], rep["im"])
        else:
            value = float(rep["p" if kind == "prob" else "beta"])
        if l <= DENSE_LIMIT:
            phases = ref.diagonal_phases([(a, 1) for a in rows], l, ref.angle_value(theta))
            if kind == "beta":
                want = ref.point_beta(phases, point)
            elif kind == "prob":
                want = abs(ref.point_amplitude(phases, point)) ** 2
            else:
                want = ref.point_amplitude(phases, point if kind == "amplitude" else 0)
            require(abs(value - want) <= ref.DENSE_TOLERANCE, f"{kind} {value} vs dense {want}")
            return
        if kind == "beta":
            # beta_s at pi/8 is alpha of the odd rows at pi/4, a dyadic amplitude
            require(theta == "1/8", "no reference for this instance")
            require(-1.0 <= value <= 1.0, f"beta {value} outside [-1, 1]")
            odd = [a for a in rows if ref.parity(a & point)]
            r, constraints = ref.quarter_turn_constraints(odd, l)
            ref.require_dyadic(value * value, r, ref.on_support(constraints, 0), "beta^2")
            return
        require(theta == "1/4", "no reference for this instance")
        magnitude = value if kind == "prob" else abs(value) ** 2
        r, constraints = ref.quarter_turn_constraints(rows, l)
        ref.require_dyadic(magnitude, r, ref.on_support(constraints, 0 if kind == "alpha" else point), kind)
        if kind == "alpha" and rep.get("exact"):
            scale = 2.0 ** rep["log2_denominator"]
            g = rep["gaussian_integer"]
            exact = complex(g["re"], g["im"]) / scale
            require(abs(exact - value) <= ref.DYADIC_TOLERANCE * abs(exact), "exact alpha")

    return Call(argv, check)


def _make_wenum(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    argv = ["wenum", inputs.matrix(rows, l)]

    def check(out: str) -> None:
        rep = ref.load_json(out)
        r, weights = ref.weight_histogram(rows, l)
        require(rep["rank"] == r, f"rank {rep['rank']} vs {r}")
        require(rep["weights"] == weights, "weight histogram differs from enumeration")

    return Call(argv, check)


def _make_clifford(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    argv = ["clifford", inputs.matrix(rows, l)]

    def check(out: str) -> None:
        rep = ref.load_json(out)
        gram = ref.gram_rows(rows, l)
        d = ref.rank(gram)
        V = [int(v, 2) for v in rep["V"]]
        U = [int(u, 2) for u in rep["U"]]
        offset = int(rep["offset"], 2)
        require(rep["support_dim"] == d and rep["support_size"] == 1 << d, "support size")
        require(len(V) == l - d and ref.rank(V) == len(V), "V is not a basis of ker P^T P")
        require(all(not ref.parity(g & v) for g in gram for v in V), "V outside ker P^T P")
        require(ref.rank(V + U) == len(V) == ref.rank(U) + (rep["case"] == "two"), "U")
        require(all(not ref.parity(offset & u) for u in U), "offset not orthogonal to U")
        _, constraints = ref.quarter_turn_constraints(rows, l)
        require(ref.on_support(constraints, offset), "offset outside the support")
        zero = Fraction(rep["zero_probability"]["numerator"], rep["zero_probability"]["denominator"])
        want = Fraction(1, 1 << d) if ref.on_support(constraints, 0) else 0
        require(zero == want, f"zero probability {zero}, expected {want}")
        if l <= DENSE_LIMIT:
            probs = ref.dense_probabilities(rows, l, math.pi / 4)
            support = probs > 1e-12
            require(int(support.sum()) == 1 << d, "dense support size")
            worst = float(np.max(np.abs(probs[support] * (1 << d) - 1.0)))
            require(worst <= ref.DYADIC_TOLERANCE, "support probabilities are not 2^-dim")
            require(probs[offset] > 1e-12, "offset outside the support")
            require(abs(float(probs[0]) - float(zero)) <= 1e-12, "zero probability")

    return Call(argv, check)


def _make_reduce(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    theta = _theta(rng, spec)
    argv = ["reduce", inputs.matrix(rows, l), "--theta", theta]

    def check(out: str) -> None:
        rep = ref.load_json(out)
        terms = [(int(a, 2), m) for a, m in rep["rows"]]
        for a, m in terms:
            require(a.bit_count() <= rep["degree"], "row above the degree bound")
            require(0 < m < rep["period"], "multiplicity outside (0, period)")
        value = ref.angle_value(theta)
        want = ref.dense_probabilities(rows, l, value)
        got = np.abs(ref.statevector(terms, l, value)) ** 2
        _close(got, want, "reduced program")

    return Call(argv, check)


def _make_tutte(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    argv = ["tutte", inputs.matrix(rows, l)]

    def check(out: str) -> None:
        rep = ref.load_json(out)
        got = {(i, j): c for i, j, c in rep["coefficients"]}
        want = ref.tutte_coefficients(ref.corank_nullity_counts(rows))
        require(got == want, "Tutte coefficients differ from the subset sum")
        require(rep["basis_count"] == sum(want.values()), "basis count")

    return Call(argv, check)


def _make_tutte_at(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    x, y = rng.choice(TUTTE_POINTS_X), rng.choice(TUTTE_POINTS_Y)
    argv = ["tutte", inputs.matrix(rows, l), "--at", x, y]

    def check(out: str) -> None:
        value = ref.load_json(out)["value"]
        fx, fy = Fraction(x), Fraction(y)
        if spec.gen == "lowrank":
            want = float(ref.tutte_value_by_classes(rows, fx, fy))
        else:
            want = float(ref.tutte_value_by_subsets(rows, fx, fy))
        scale = max(1.0, abs(want))
        require(abs(value["re"] - want) <= 1e-9 * scale, f"T({x},{y}) = {value['re']} vs {want}")
        require(abs(value["im"]) <= 1e-9 * scale, "imaginary part in a real evaluation")

    return Call(argv, check)


def _make_verify(spec, rng, inputs):
    rows, l = _rows(rng, spec), spec.l
    argv = ["verify", inputs.matrix(rows, l), "--theta", _theta(rng, spec)]

    def check(out: str) -> None:
        lines = out.strip().splitlines()
        require(lines[-1:] == ["all 7 checks passed"], "verify did not pass")
        oks = [s for s in lines[:-1] if s.startswith("check ") and ": ok " in s]
        require(len(oks) == 7 == len(lines) - 1, "verify reported other than 7 passing checks")

    return Call(argv, check)


_MAKERS = {
    "dist": _make_dist,
    "marginal": _make_marginal,
    "sample": _make_sample,
    "prob": _make_point,
    "amplitude": _make_point,
    "beta": _make_point,
    "alpha": _make_point,
    "wenum": _make_wenum,
    "clifford": _make_clifford,
    "reduce": _make_reduce,
    "tutte": _make_tutte,
    "tutte_at": _make_tutte_at,
    "verify": _make_verify,
}
