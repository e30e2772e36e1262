"""Reference computations and output checks, independent of iqpsim.

Nothing here imports the package under test. Matrices are lists of
packed row integers: the leftmost character of a row string is the most
significant bit, so ``int(row_string, 2)`` is a row and an outcome
string maps to its index the same way.

Narrow instances are checked against a dense statevector computed in the
Hadamard basis, where every gate is diagonal. Wide ones are checked
against exact values the method must give: at theta = pi/4 every
probability is 2^-rank(P^T P) on an affine support cut out by the kernel
of P^T P (quarter_turn_constraints) and 0 elsewhere; at theta = pi/8
every beta_s^2 is the pi/4 probability of outcome 0 for A_s, the rows
odd against s.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

DENSE_TOLERANCE = 1e-9
DYADIC_TOLERANCE = 1e-9
ZERO_SHARE = 1e-3  # below this share of a dyadic target a value is 0
KS_LIMIT = 2.5  # sqrt(N) * D; a correct sampler exceeds it with p < 1e-5


class CheckFailed(Exception):
    """An output that contradicts the reference or a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reject_constant(name: str):
    raise CheckFailed(f"output is not valid JSON: contains {name}")


def load_json(text: str) -> dict:
    """Parse a report strictly: NaN and Infinity are not JSON."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def angle_value(token: str) -> float:
    if token.startswith("rad:"):
        return float(token[4:])
    a, _, b = token.partition("/")
    return math.pi * int(a) / int(b or 1)


def parity(v: int) -> int:
    return v.bit_count() & 1


# --- GF(2) on packed ints ----------------------------------------------


def echelon(vectors) -> dict[int, int]:
    """Pivot bit -> basis vector, each reduced against earlier pivots."""
    basis: dict[int, int] = {}
    for v in vectors:
        v = reduce_vector(basis, v)
        if v:
            basis[v.bit_length() - 1] = v
    return basis


def reduce_vector(basis: dict[int, int], v: int) -> int:
    for p in sorted(basis, reverse=True):
        if (v >> p) & 1:
            v ^= basis[p]
    return v


def rank(vectors) -> int:
    return len(echelon(vectors))


def gram_rows(rows: list[int], l: int) -> list[int]:
    """Rows of P^T P over GF(2), packed like the rows of P."""
    cols = [0] * l
    for i, row in enumerate(rows):
        for j in range(l):
            if (row >> (l - 1 - j)) & 1:
                cols[j] |= 1 << i
    out = []
    for i in range(l):
        bits = 0
        for j in range(l):
            bits = (bits << 1) | parity(cols[i] & cols[j])
        out.append(bits)
    return out


def restrict(v: int, l: int, kept: list[int]) -> int:
    """Bits of v at the kept positions, first kept position most significant."""
    out = 0
    for j in kept:
        out = (out << 1) | ((v >> (l - 1 - j)) & 1)
    return out


# --- dense statevector -------------------------------------------------


def hadamard_transform(values: np.ndarray) -> np.ndarray:
    """out[x] = sum_y (-1)^(x.y) values[y], on a copy."""
    out = np.array(values)
    h = 1
    while h < len(out):
        pairs = out.reshape(-1, 2, h)
        top, bottom = pairs[:, 0, :], pairs[:, 1, :]
        top += bottom
        bottom *= -2
        bottom += top
        h *= 2
    return out


def diagonal_phases(terms, l: int, theta: float) -> np.ndarray:
    """exp(i theta f(y)) with f(y) = sum m (-1)^(a.y) over (a, m) in terms.

    Every gate exp(i m theta X_a) is diagonal in the Hadamard basis, with
    eigenvalue exp(i m theta (-1)^(a.y)) on basis state y; f is the
    transform of the multiplicity of each row.
    """
    counts = np.zeros(1 << l, dtype=np.int64)
    for a, m in terms:
        counts[a] += m
    return np.exp(1j * theta * hadamard_transform(counts))


def statevector(terms, l: int, theta: float) -> np.ndarray:
    """Dense state H diag(exp(i theta f)) H |0..0> of the program."""
    return hadamard_transform(diagonal_phases(terms, l, theta)) / (1 << l)


def point_amplitude(phases: np.ndarray, x: int) -> complex:
    """One entry of the dense state: 2^-l sum_y (-1)^(x.y) phases[y]."""
    ys = np.arange(len(phases), dtype=np.uint64)
    signs = 1 - 2 * (np.bitwise_count(ys & np.uint64(x)) & 1).astype(np.int64)
    return complex((signs * phases).sum()) / len(phases)


def point_beta(phases: np.ndarray, s: int) -> float:
    """<Z_s> = 2^-l sum_y conj(phases[y]) phases[y ^ s], in the Hadamard frame."""
    partner = phases[np.arange(len(phases)) ^ s]
    return float((phases.conj() * partner).sum().real) / len(phases)


def dense_probabilities(rows: list[int], l: int, theta: float) -> np.ndarray:
    return np.abs(statevector([(a, 1) for a in rows], l, theta)) ** 2


def dense_marginal(probs: np.ndarray, l: int, kept: list[int]) -> np.ndarray:
    index = np.arange(len(probs))
    key = np.zeros(len(probs), dtype=np.int64)
    for j in kept:
        key = (key << 1) | ((index >> (l - 1 - j)) & 1)
    return np.bincount(key, weights=probs, minlength=1 << len(kept))


# --- exact-angle properties --------------------------------------------


def require_dyadic(value: float, log2_inverse: int, nonzero: bool, what: str) -> None:
    """value must be 2^-log2_inverse if nonzero, else 0.

    Both are judged relative to the target, which at l = 64 is far below
    any absolute tolerance: a value counts as 0 only when it is below
    ZERO_SHARE of the target.
    """
    target = 2.0 ** -log2_inverse
    if nonzero:
        ok = abs(value - target) <= DYADIC_TOLERANCE * target
    else:
        ok = abs(value) <= ZERO_SHARE * target
    require(ok, f"{what} = {value!r}, expected {f'2^-{log2_inverse}' if nonzero else 0}")


def symmetric_kernel(gram: list[int], l: int) -> list[int]:
    """Basis of {v : G v = 0} for a symmetric G given by its packed rows.

    Column j of a symmetric G is its row j, so a combination of rows
    that reduces to 0 is a kernel vector.
    """
    basis: dict[int, tuple[int, int]] = {}
    out = []
    for j, g in enumerate(gram):
        v, combo = g, 1 << (l - 1 - j)
        for p in sorted(basis, reverse=True):
            if (v >> p) & 1:
                v ^= basis[p][0]
                combo ^= basis[p][1]
        if v:
            basis[v.bit_length() - 1] = (v, combo)
        else:
            out.append(combo)
    return out


def quarter_turn_constraints(rows: list[int], l: int) -> tuple[int, list[tuple[int, int]]]:
    """rank(P^T P) and the affine constraints on the support at pi/4.

    With w(y) = |P y| mod 4, <x|U|0> is 2^-l e^(i pi n/4) sum_y
    (-1)^(x.y) (-i)^w(y), a Gauss sum of a Z4-valued quadratic form
    whose bilinear form is P^T P. On v in ker(P^T P) w is additive, even,
    and w(v)/2 is linear, so the sum vanishes unless x.v = |P v|/2 mod 2
    for every v of a kernel basis; otherwise |<x|U|0>|^2 = 2^-rank(P^T P).
    """
    gram = gram_rows(rows, l)
    constraints = []
    for v in symmetric_kernel(gram, l):
        weight = sum(parity(a & v) for a in rows)
        require(weight % 2 == 0, "odd |P v| on ker(P^T P)")  # a fault of this file, not of iqpsim
        constraints.append((v, (weight // 2) & 1))
    return l - len(constraints), constraints


def on_support(constraints: list[tuple[int, int]], x: int) -> bool:
    return all(parity(x & v) == b for v, b in constraints)


def support_point(constraints: list[tuple[int, int]]) -> int:
    """One x meeting every constraint, by Gauss-Jordan elimination."""
    reduced: dict[int, tuple[int, int]] = {}
    for v, b in constraints:
        for p, (u, c) in reduced.items():
            if (v >> p) & 1:
                v, b = v ^ u, b ^ c
        if not v:
            require(b == 0, "inconsistent constraints")
            continue
        pivot = v.bit_length() - 1
        for p, (u, c) in list(reduced.items()):
            if (u >> pivot) & 1:
                reduced[p] = (u ^ v, c ^ b)
        reduced[pivot] = (v, b)
    return sum(b << p for p, (_, b) in reduced.items())


def quarter_turn_support(rows: list[int], l: int, kept: list[int]) -> dict[int, int]:
    """Echelon basis of the directions of the pi/4 marginal on kept bits.

    The full distribution is uniform on a coset of the row space of
    P^T P; its image on the kept bits is uniform on a coset of the
    restricted row space.
    """
    return echelon(restrict(g, l, kept) for g in gram_rows(rows, l))


def coset_representative(basis: dict[int, int], v: int) -> int:
    """The member of v's coset of the span of the echelon basis that is
    reduced against it; equal for two vectors exactly when they share a coset."""
    return reduce_vector(basis, v)


# --- weight enumerator and Tutte polynomial ----------------------------


def weight_histogram(rows: list[int], l: int) -> tuple[int, list[int]]:
    """Rank and weight histogram of the column code, from |P y| for all y.

    |P y| = (n - sum_a (-1)^(a.y)) / 2, and each codeword is hit by
    2^(l - rank) vectors y.
    """
    counts = np.bincount(np.asarray(rows, dtype=np.int64), minlength=1 << l)
    weights = (len(rows) - hadamard_transform(counts.astype(np.int64))) // 2
    r = rank(rows)
    hist = np.bincount(weights, minlength=len(rows) + 1)
    return r, [int(c) >> (l - r) for c in hist]


def corank_nullity_counts(rows: list[int]) -> Counter:
    """Number of row subsets A for each (r(E) - r(A), |A| - r(A))."""
    full = rank(rows)
    counts: Counter = Counter()
    n = len(rows)

    def walk(i: int, basis: dict[int, int], size: int) -> None:
        if i == n:
            counts[(full - len(basis), size - len(basis))] += 1
            return
        walk(i + 1, basis, size)
        v = reduce_vector(basis, rows[i])
        if v:
            grown = dict(basis)
            grown[v.bit_length() - 1] = v
            walk(i + 1, grown, size + 1)
        else:
            walk(i + 1, basis, size + 1)

    walk(0, {}, 0)
    return counts


def tutte_coefficients(counts: Counter) -> dict[tuple[int, int], int]:
    """Expand sum over subsets of (x-1)^a (y-1)^b into x^i y^j."""
    out: Counter = Counter()
    for (a, b), mult in counts.items():
        for i in range(a + 1):
            for j in range(b + 1):
                sign = -1 if (a - i + b - j) & 1 else 1
                out[(i, j)] += mult * sign * math.comb(a, i) * math.comb(b, j)
    return {k: v for k, v in out.items() if v}


def tutte_value_by_classes(rows: list[int], x: Fraction, y: Fraction) -> Fraction:
    """Exact T(x, y) of a low-rank binary matroid from its parallel classes.

    Summing (x-1)^(r-r(A)) (y-1)^(|A|-r(A)) over subsets grouped by which
    classes they meet gives
        y^loops * sum_S (x-1)^(r - r(S)) (y-1)^(|S| - r(S)) prod_{k in S} [s_k]_y
    with [s]_y = 1 + y + ... + y^(s-1); cost 2^(number of classes).
    """
    loops = sum(1 for a in rows if a == 0)
    classes = sorted(Counter(a for a in rows if a).items())
    full = rank(rows)
    total = Fraction(0)
    for size in range(len(classes) + 1):
        for chosen in combinations(classes, size):
            rs = rank(v for v, _ in chosen)
            term = (x - 1) ** (full - rs) * (y - 1) ** (size - rs)
            for _, s in chosen:
                term *= sum(y**i for i in range(s))
            total += term
    return y**loops * total


def tutte_value_by_subsets(rows: list[int], x: Fraction, y: Fraction) -> Fraction:
    return sum(
        (mult * (x - 1) ** a * (y - 1) ** b for (a, b), mult in corank_nullity_counts(rows).items()),
        Fraction(0),
    )


# --- sampling ----------------------------------------------------------


def randomized_pit(reference: np.ndarray, outcome: int, u: float) -> float:
    """Probability integral transform of one draw; uniform under the reference."""
    below = float(reference[:outcome].sum())
    return below + u * float(reference[outcome])


def ks_statistic(values: list[float]) -> float:
    """sqrt(N) times the Kolmogorov distance to Uniform(0, 1)."""
    if not values:
        return 0.0
    xs = np.sort(np.asarray(values))
    n = len(xs)
    ranks = np.arange(1, n + 1)
    d = max(float(np.max(ranks / n - xs)), float(np.max(xs - (ranks - 1) / n)))
    return math.sqrt(n) * d
