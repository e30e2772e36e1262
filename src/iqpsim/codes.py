"""Binary-code view of a gate matrix.

The column span of an n x l matrix P is a binary linear code of length n
and rank r. Its weight histogram determines the scalar

    alpha(P, theta) = 2^(-r) * sum_c exp(i theta (n - 2 |c|)),

the mean phase over codewords, which is the central quantity of the
whole engine. With the sign (-1)^(x.y) on each c = Py the same sum is
the amplitude <x|U|0>, and one evaluator computes both. At exact
multiples of pi/4 it is one signed Gauss sum, in polynomial time.
Everything else enumerates, under a budget, the 2^r codewords or, by the
MacWilliams identity, the 2^(n-r) words of the dual code C-perp, the
circuit space of the matroid on P's rows, whichever is fewer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

import numpy as np

from . import clifford, gf2
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


_BLOCK_LOG = 14  # doubling-table size cap for the enumeration
_GROUP_ENTRIES = 1 << 16  # table entries popcounted in one numpy call


def _enumeration_table(generators: list[int], count: int) -> np.ndarray:
    table = np.zeros(1 << count, dtype=np.uint64)
    size = 1
    for g in generators[:count]:
        table[size : 2 * size] = table[:size] ^ np.uint64(g)
        size *= 2
    return table


def _lane_tables(words: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Doubling tables of the rows of words (lanes, k), one per lane:
    entry b of lane w is start[w] xor the words picked by the bits of b."""
    lanes, k = words.shape
    table = np.empty((lanes, 1 << k), dtype=np.uint64)
    table[:, 0] = start
    for j in range(k):
        np.bitwise_xor(table[:, : 1 << j], words[:, j, None], out=table[:, 1 << j : 2 << j])
    return table


def _coset_weights(generators: Sequence[int], n: int, offset: int = 0) -> Iterator[np.ndarray]:
    """Weights |offset + sum_j b_j generators[j]| in F2^n for every index b,
    generators[0] by the low bit, in blocks of consecutive b.

    A block is a doubling table of the low generators, xored with one
    word of the span of the high ones, offset included. Popcounts run 64
    bits per lane, a group of lanes per numpy call, so the work is one
    table entry per word and lane.
    """
    r = len(generators)
    lanes = max(1, (n + 63) // 64)
    low = min(r, _BLOCK_LOG)
    data = b"".join(g.to_bytes(8 * lanes, "little") for g in (offset, *generators))
    words = np.frombuffer(data, dtype="<u8").reshape(r + 1, lanes).T
    tables = _lane_tables(words[:, 1 : low + 1], words[:, 0])
    counts = np.bitwise_count(tables)
    # a sum of lanes can pass the uint8 popcount range
    yield counts[0] if lanes == 1 else counts.sum(axis=0, dtype=np.intp)
    if r == low:
        return
    heads = _lane_tables(words[:, low + 1 :], np.uint64(0))
    group = max(1, _GROUP_ENTRIES >> low)
    for step in range(1, 1 << (r - low)):
        if lanes == 1:  # most codes: one xor by a scalar per block
            yield np.bitwise_count(tables[0] ^ heads[0, step])
            continue
        weights = 0
        for lo in range(0, lanes, group):
            counts = np.bitwise_count(tables[lo : lo + group] ^ heads[lo : lo + group, step, None])
            weights = weights + counts.sum(axis=0, dtype=np.intp)
        yield weights


def _histogram(generators: list[int], n: int, offset: int = 0) -> np.ndarray:
    """Weight histogram of the coset offset + span(generators) in F2^n.

    The generators must be independent.
    """
    counts = np.zeros(n + 1, dtype=np.int64)
    for weights in _coset_weights(generators, n, offset):
        counts += np.bincount(weights, minlength=n + 1)
    return counts


def _macwilliams(dual_counts: list[int], n: int, dual_rank: int) -> list[int]:
    """Weight histogram of C from that of C-perp, of dimension dual_rank.

    A_k = 2^-dual_rank sum_j B_j K_k(j), the Krawtchouk values K_k(j)
    exact integers from K_0 = 1, K_1 = n - 2j and
    (k+1) K_(k+1)(j) = (n - 2j) K_k(j) - (n - k + 1) K_(k-1)(j),
    O(n) per distinct dual weight j.

    Raises:
        NumericalInconsistency: if a sum is not a multiple of 2^dual_rank.
    """
    totals = [0] * (n + 1)
    for j, count in enumerate(dual_counts):
        if not count:
            continue
        previous, current = 0, 1
        for k in range(n + 1):
            totals[k] += count * current
            previous, current = current, ((n - 2 * j) * current - (n - k + 1) * previous) // (k + 1)
    if any(t & ((1 << dual_rank) - 1) for t in totals):
        raise NumericalInconsistency("MacWilliams transform is not integral")
    return [t >> dual_rank for t in totals]


def weight_enumerator(
    P: BinaryMatrix, *, rank_limit: int = DEFAULT_RANK_LIMIT
) -> CodeProfile:
    """Exact weight histogram of the column-span code of P.

    Enumerates the 2^r codewords from an independent generator set or,
    when n - r < r, the 2^(n-r) words of C-perp, the circuit space of P's
    rows, whose histogram the MacWilliams identity turns into C's.

    Raises:
        RankTooLarge: if min(r, n - r) exceeds rank_limit.
    """
    n = P.n
    gens = clifford._reduced_generators(P)[0]
    r = len(gens)
    if min(r, n - r) > rank_limit:
        raise RankTooLarge(
            f"rank {r} and dual dimension {n - r} both exceed the enumeration limit {rank_limit}"
        )
    if n - r < r:
        dual = _histogram(gf2._circuits(P.bits), n).tolist()
        weights_out = tuple(_macwilliams(dual, n, n - r))
    else:
        weights_out = tuple(_histogram(gens, n).tolist())
    if sum(weights_out) != 1 << r or weights_out[0] < 1 or min(weights_out) < 0:
        raise NumericalInconsistency("weight histogram failed its count check")
    return CodeProfile(n, r, weights_out)


def _check_alpha(value: complex) -> None:
    if abs(value) > 1 + 1e-9:
        raise NumericalInconsistency(f"|alpha| = {abs(value)} exceeds 1")


def _primal_sum(counts: np.ndarray, r: int, n: int, th: float) -> complex:
    """2^-r sum_w counts[w] exp(i th (n - 2 w)): the phase sum over C."""
    total = 0j
    for weight, count in enumerate(counts.tolist()):
        if count:
            total += count * cmath.exp(1j * th * (n - 2 * weight))
    return total / (1 << r)


def _dual_sum(counts: np.ndarray, n: int, th: float) -> complex:
    """sum_w counts[w] cos(th)^(n - w) (i sin(th))^w: the gate expansion."""
    c, s = math.cos(th), math.sin(th)
    parts = [0.0, 0.0, 0.0, 0.0]  # by the power i^w
    for weight, count in enumerate(counts.tolist()):
        if count:
            parts[weight % 4] += count * c ** (n - weight) * s**weight
    return complex(parts[0] - parts[2], parts[1] - parts[3])


def _enumerated_amplitude(P: BinaryMatrix, x: int, th: float, rank_limit: int) -> complex:
    """<x|U|0> at the angle th, by one enumeration of C or of C-perp.

    One tagged elimination of the rows a_i gives the rank r, a basis of
    the circuit space C-perp = {d : sum d_i a_i = 0} (the tags left on
    dependent rows) and, reducing x, a row set S0 with sum_{S0} a_i = x,
    or the fact that x is outside the row space, where the amplitude is
    exactly 0. With exp(i th X_a) = cos th + i sin th X_a the amplitude
    sums cos^(n-|d|) (i sin)^|d| over the coset S0 + C-perp, 2^(n-r)
    words. On C it is 2^-r sum_c (-1)^(S0.c) exp(i th (n - 2|c|)). The
    sign is a character of C; adding one odd generator h to the other
    odd ones leaves a basis of its kernel H, so the sum is the histogram
    of H minus that of the coset h + H, 2^r words in all. The smaller
    side is enumerated.

    Raises:
        RankTooLarge: if min(r, n - r) exceeds rank_limit.
    """
    n = P.n
    residues: list[int] = []
    tagged = [(a << n) | t for a, t in zip(P.bits, gf2._row_tags(n))]
    pivots = gf2._eliminate(tagged, {}, n, residues)
    r = len(pivots)
    s0 = 0
    if x:
        gf2._eliminate([x << n], pivots, n, residues)
        s0 = residues.pop()
        if s0 >> n:  # x is outside the row space
            return 0j
    if min(r, n - r) > rank_limit:
        raise RankTooLarge(
            f"rank {r} and dual dimension {n - r} both exceed the enumeration limit {rank_limit}"
        )
    if n - r < r:
        dual = [w for w in residues if not w >> n]
        value = _dual_sum(_histogram(dual, n, s0), n, th)
    else:
        columns = gf2.transpose(P).bits
        # the columns at the pivot positions of the rows are a basis of C
        gens = [columns[P.l - 1 - (top - n)] for top in pivots]
        odd = [g for g in gens if (g & s0).bit_count() & 1]
        if odd:
            h = odd[0]
            even = [g ^ h if (g & s0).bit_count() & 1 else g for g in gens if g != h]
            counts = _histogram(even, n) - _histogram(even, n, h)
        else:
            counts = _histogram(gens, n)
        value = _primal_sum(counts, r, n, th)
    _check_alpha(value)
    return value


def _amplitude(P: BinaryMatrix, x: int, theta: Angle, rank_limit: int) -> tuple:
    """<x|U|0> = 2^-r sum_{c = Py} (-1)^(x.y) exp(i theta (n - 2|c|)).

    Returns the value and, at theta = t pi / 4 with x in the row space,
    its exact form (w, r, odd): value = e^(i pi odd / 4) w / 2^r, else
    None. There x.y = L(c) is linear on C, the sum one signed Gauss sum
    of i^(-t|c|) (-1)^L(c) times e^(i pi t n / 4), of which w absorbs the
    power of i. Other angles enumerate the smaller of C and C-perp.
    """
    if not theta.is_fourth_root:
        return _enumerated_amplitude(P, x, theta.value, rank_limit), None
    found = clifford._reduced_generators(P, x)
    if found is None:  # x is outside the row space
        return 0j, None
    gens, linear = found
    t, r = theta.fourth_root_index, len(gens)
    w = clifford.wenum_from_generators(gens, -t, linear).times_i_power(t * P.n // 2)
    odd = bool(t * P.n % 2)
    # int / int stays finite where 2^r overflows a float
    value = complex(w.re / (1 << r), w.im / (1 << r))
    if odd:  # times e^(i pi / 4) = (1 + i) / sqrt(2), exactly 0 where re = +-im
        value = complex(value.real - value.imag, value.real + value.imag) * math.sqrt(0.5)
    _check_alpha(value)
    return value, (w, r, odd)


def alpha(
    P: BinaryMatrix, theta: Angle, *, rank_limit: int = DEFAULT_RANK_LIMIT
) -> complex:
    """Mean codeword phase 2^(-r) sum_c exp(i theta (n - 2 |c|)), <0|U|0>.

    Fourth-root angles are evaluated exactly in polynomial time. Other
    angles enumerate whichever of the code C and its dual C-perp has the
    smaller dimension, so the budget bounds min(r, n - r).
    """
    return _amplitude(P, 0, theta, rank_limit)[0]


def alpha_exact_fourth_root(
    P: BinaryMatrix, theta: Angle
) -> tuple[clifford.GaussianInteger, int] | None:
    """Exact value of alpha as (gaussian numerator, log2 denominator).

    Only available when theta is a fourth-root angle and the global
    phase is itself a power of i; returns None otherwise.
    """
    if not theta.is_fourth_root or (theta.fourth_root_index * P.n) % 2:
        return None
    w, r, _ = _amplitude(P, 0, theta, DEFAULT_RANK_LIMIT)[1]
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
