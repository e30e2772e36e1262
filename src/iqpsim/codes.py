"""Binary-code view of a gate matrix.

The column span of an n x l matrix P is a binary linear code of length n
and rank r. Its weight histogram determines the scalar

    alpha(P, theta) = 2^(-r) * sum_c exp(i theta (n - 2 |c|)),

the mean phase over codewords, which is the central quantity of the
whole engine. Angles that are exact multiples of pi/4 dispatch to the
polynomial-time Gauss-sum evaluator; everything else enumerates the 2^r
codewords under a budget.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import clifford
from .errors import (
    DimensionMismatch,
    NumericalInconsistency,
    RankTooLarge,
    ZeroDirection,
)
from .gf2 import BinaryMatrix, BitVector

__all__ = [
    "Angle",
    "CodeProfile",
    "weight_enumerator",
    "alpha",
    "alpha_exact_fourth_root",
    "project",
    "affinify",
    "is_even_code",
    "DEFAULT_RANK_LIMIT",
]

DEFAULT_RANK_LIMIT = 26


@dataclass(frozen=True)
class Angle:
    """Rotation angle, exact rational multiple of pi when possible.

    Exact angles keep theta = (a/b) pi with the fraction reduced and a
    normalized into [0, 2b), so theta lands in [0, 2 pi). Raw radians are
    normalized into the same window. Only exact angles ever dispatch to
    the fourth-root fast paths; a float that merely lands near pi/4 does
    not.
    """

    a: int | None = None
    b: int | None = None
    raw: float | None = None

    @classmethod
    def exact(cls, a: int, b: int) -> "Angle":
        if b <= 0:
            raise ValueError("angle denominator must be positive")
        g = gcd(a, b)
        a, b = a // g, b // g
        return cls(a % (2 * b), b, None)

    @classmethod
    def radians(cls, value: float) -> "Angle":
        return cls(None, None, value % (2 * math.pi))

    @property
    def is_exact(self) -> bool:
        return self.a is not None

    @property
    def value(self) -> float:
        if self.is_exact:
            return math.pi * self.a / self.b
        return self.raw

    @property
    def is_fourth_root(self) -> bool:
        return self.is_exact and 4 % self.b == 0

    @property
    def fourth_root_index(self) -> int:
        """t with theta = t pi / 4, for fourth-root angles."""
        if not self.is_fourth_root:
            raise ValueError("not a multiple of pi/4")
        return self.a * (4 // self.b)

    def dyadic_parts(self) -> tuple[int, int] | None:
        """(c, d) with theta = c pi / 2^d, or None if not of that form."""
        if not self.is_exact or self.b & (self.b - 1):
            return None
        return self.a, self.b.bit_length() - 1

    def doubled(self) -> "Angle":
        if self.is_exact:
            return Angle.exact(2 * self.a, self.b)
        return Angle.radians(2 * self.raw)

    def __str__(self) -> str:
        if self.is_exact:
            return f"{self.a}/{self.b} pi"
        return f"{self.raw} rad"


@dataclass(frozen=True)
class CodeProfile:
    """Weight histogram of a code: weights[w] codewords of weight w."""

    length: int
    rank: int
    weights: tuple[int, ...]

    def evaluate(self, z: complex) -> complex:
        """The weight enumerator sum_c z^|c| at the point z."""
        total = 0j
        power = 1.0 + 0j
        for count in self.weights:
            if count:
                total += count * power
            power *= z
        return total


_BLOCK_LOG = 18  # doubling-table size cap for the enumeration


def _enumeration_table(generators: list[int], count: int) -> np.ndarray:
    table = np.zeros(1 << count, dtype=np.uint64)
    size = 1
    for g in generators[:count]:
        table[size : 2 * size] = table[:size] ^ np.uint64(g)
        size *= 2
    return table


def weight_enumerator(
    P: BinaryMatrix, *, rank_limit: int = DEFAULT_RANK_LIMIT
) -> CodeProfile:
    """Exact weight histogram of the column-span code of P.

    Enumerates the 2^r codewords from an independent generator set in
    vectorized blocks, with popcounts done 64 bits per lane.

    Raises:
        RankTooLarge: if r exceeds rank_limit.
    """
    n = P.n
    gens = clifford._reduced_generators(P)
    r = len(gens)
    if r > rank_limit:
        raise RankTooLarge(f"rank {r} exceeds the enumeration limit {rank_limit}")
    lanes = max(1, (n + 63) // 64)
    gen_lanes = [[(g >> (64 * w)) & ((1 << 64) - 1) for g in gens] for w in range(lanes)]
    low = min(r, _BLOCK_LOG)
    tables = [_enumeration_table(gl, low) for gl in gen_lanes]
    # one block per word of the span of the high generators
    heads = [_enumeration_table(gl[low:], r - low) for gl in gen_lanes]
    counts = np.zeros(n + 1, dtype=np.int64)
    for step in range(1 << (r - low)):
        weights = np.bitwise_count(tables[0] ^ heads[0][step]).astype(np.int64)
        for w in range(1, lanes):
            weights += np.bitwise_count(tables[w] ^ heads[w][step])
        counts += np.bincount(weights, minlength=n + 1)
    weights_out = tuple(int(c) for c in counts)
    if sum(weights_out) != 1 << r or weights_out[0] < 1:
        raise NumericalInconsistency("weight histogram failed its count check")
    return CodeProfile(n, r, weights_out)


def _check_alpha(value: complex) -> None:
    if abs(value) > 1 + 1e-9:
        raise NumericalInconsistency(f"|alpha| = {abs(value)} exceeds 1")


def alpha(
    P: BinaryMatrix, theta: Angle, *, rank_limit: int = DEFAULT_RANK_LIMIT
) -> complex:
    """Mean codeword phase 2^(-r) sum_c exp(i theta (n - 2 |c|)).

    Fourth-root angles are evaluated exactly in polynomial time; other
    angles enumerate the code within the rank budget.
    """
    n = P.n
    if theta.is_fourth_root:
        w, r, odd = _fourth_root_alpha(P, theta.fourth_root_index)
        # int / int stays finite where 2^r overflows a float
        value = complex(w.re / (1 << r), w.im / (1 << r))
        if odd:  # times e^(i pi / 4) = (1 + i) / sqrt(2), exactly 0 where re = +-im
            value = complex(value.real - value.imag, value.real + value.imag) * math.sqrt(0.5)
    else:
        profile = weight_enumerator(P, rank_limit=rank_limit)
        th = theta.value
        total = 0j
        for weight, count in enumerate(profile.weights):
            if count:
                total += count * cmath.exp(1j * th * (n - 2 * weight))
        value = total / (1 << profile.rank)
    _check_alpha(value)
    return value


def _fourth_root_alpha(P: BinaryMatrix, t: int) -> tuple[clifford.GaussianInteger, int, bool]:
    """alpha(P, t pi / 4) as (w, r, odd) with alpha = e^(i pi odd / 4) w / 2^r.

    The global phase e^(i pi t n / 4) splits into the power of i that w
    absorbs exactly and one eighth root of unity, left when t n is odd.
    """
    gens = clifford._reduced_generators(P)
    w = clifford.wenum_from_generators(gens, (-t) % 4)
    tn = t * P.n
    return w.times_i_power(tn // 2), len(gens), bool(tn % 2)


def alpha_exact_fourth_root(
    P: BinaryMatrix, theta: Angle
) -> tuple[clifford.GaussianInteger, int] | None:
    """Exact value of alpha as (gaussian numerator, log2 denominator).

    Only available when theta is a fourth-root angle and the global
    phase is itself a power of i; returns None otherwise.
    """
    if not theta.is_fourth_root or (theta.fourth_root_index * P.n) % 2:
        return None
    w, r, _ = _fourth_root_alpha(P, theta.fourth_root_index)
    # int / int stays exact where 2^r overflows a float
    _check_alpha(complex(w.re / (1 << r), w.im / (1 << r)))
    return w, r


def project(P: BinaryMatrix, x: BitVector) -> BinaryMatrix:
    """Identifies each row a with a + x, keeping the lexicographically
    first of the pair. The shape is unchanged; the rank drops by at most
    one.

    Raises:
        ZeroDirection: if x = 0.
    """
    if x.n != P.l:
        raise DimensionMismatch("direction length does not match the matrix")
    if x.is_zero():
        raise ZeroDirection("cannot project along the zero vector")
    return BinaryMatrix(P.n, P.l, tuple(min(a, a ^ x.bits) for a in P.bits))


def affinify(P: BinaryMatrix, s: BitVector) -> BinaryMatrix:
    """Keeps exactly the rows with a . s = 1, in their original order.

    The resulting code always contains the all-ones word, because every
    surviving row pairs oddly with s.
    """
    if s.n != P.l:
        raise DimensionMismatch("functional length does not match the matrix")
    rows = tuple(a for a in P.bits if (a & s.bits).bit_count() & 1)
    return BinaryMatrix(len(rows), P.l, rows)


def is_even_code(P: BinaryMatrix) -> bool:
    """True iff every codeword has even weight.

    Weight parity is linear, so this holds exactly when every column of
    P has even weight, i.e. when the xor-fold of the rows vanishes.
    """
    fold = 0
    for row in P.bits:
        fold ^= row
    return fold == 0
