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


def _lane_tables(words: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Doubling tables of the rows of words (rows, k), one per row:
    entry b of row w is start[w] xor the words picked by the bits of b."""
    rows, k = words.shape
    table = np.empty((rows, 1 << k), dtype=np.uint64)
    table[:, 0] = start
    for j in range(k):
        np.bitwise_xor(table[:, : 1 << j], words[:, j, None], out=table[:, 1 << j : 2 << j])
    return table


def _enumeration_table(generators: Sequence[int]) -> np.ndarray:
    """The xors of the generators (each below 2^64) picked by every index,
    generators[0] by the low bit: the one row of their doubling table."""
    return _lane_tables(gf2._lanes(generators, 64).T, np.uint64(0))[0]


def _coset_weights(bases: np.ndarray, offsets: np.ndarray) -> Iterator[np.ndarray]:
    """Weights |offsets[p] + sum_j b_j bases[p, j]| for every coset p and
    index b, bases[p, 0] by the low bit, in blocks (cosets, block) of
    consecutive b. bases (cosets, k, lanes) and offsets (cosets, lanes)
    hold words packed by gf2._lanes; one basis (1, k, lanes) serves every
    coset.

    A block is a doubling table of the low generators, xored with one
    word of the span of the high ones, offset included. Popcounts run 64
    bits per lane; the table has one row per lane of each coset, and a
    numpy call takes a group of rows, so the work is one table entry per
    word, lane and coset.
    """
    cosets, lanes = offsets.shape
    k = bases.shape[1]
    low = min(k, _BLOCK_LOG)
    if len(bases) < cosets:
        bases = np.broadcast_to(bases, (cosets, k, lanes))
    # row p * lanes + i holds lane i of coset p
    words = bases.transpose(0, 2, 1).reshape(cosets * lanes, k)
    tables = _lane_tables(words[:, :low], offsets.reshape(-1))

    def by_coset(counts: np.ndarray) -> np.ndarray:
        # a sum of lanes can pass the uint8 popcount range
        if lanes == 1:
            return counts
        return counts.reshape(cosets, lanes, -1).sum(axis=1, dtype=np.intp)

    yield by_coset(np.bitwise_count(tables))
    if k == low:
        return
    heads = _lane_tables(words[:, low:], np.uint64(0))
    group = max(1, _GROUP_ENTRIES >> low)
    for step in range(1, 1 << (k - low)):
        if len(tables) <= group:
            yield by_coset(np.bitwise_count(tables ^ heads[:, step, None]))
        else:  # more rows than a group come from one coset, as _histograms slices them
            weights = 0
            for lo in range(0, len(tables), group):
                counts = np.bitwise_count(tables[lo : lo + group] ^ heads[lo : lo + group, step, None])
                weights = weights + counts.sum(axis=0, dtype=np.intp)
            yield weights[None]


def _bincounts(weights: np.ndarray, n: int) -> np.ndarray:
    """The histogram over 0..n of each row of weights, by one bincount in
    all, row p counted from p (n + 1) on."""
    rows = len(weights)
    if rows == 1:
        return np.bincount(weights[0], minlength=n + 1)[None]
    keys = weights + np.arange(0, rows * (n + 1), n + 1)[:, None]
    return np.bincount(keys.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)


def _histograms(bases: np.ndarray, offsets: np.ndarray, n: int) -> np.ndarray:
    """Weight histograms (cosets, n + 1) of the cosets offsets[p] +
    span(bases[p]) in F2^n, packed as _coset_weights takes them, one
    basis for all or one per coset; each basis must be independent.

    The cosets pass through _coset_weights a slice at a time, each slice
    at most _GROUP_ENTRIES words in all, or one coset.
    """
    cosets, lanes = offsets.shape
    take = max(1, _GROUP_ENTRIES // (lanes << bases.shape[1]))
    parts = []
    for lo in range(0, cosets, take):
        basis = bases if len(bases) == 1 else bases[lo : lo + take]
        blocks = _coset_weights(basis, offsets[lo : lo + take])
        part = _bincounts(next(blocks), n)
        for weights in blocks:
            part += _bincounts(weights, n)
        parts.append(part)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _histogram(generators: Sequence[int], n: int, offset: int = 0) -> np.ndarray:
    """Weight histogram of the coset offset + span(generators) in F2^n.

    The generators must be independent.
    """
    return _histograms(gf2._lanes(generators, n)[None], gf2._lanes([offset], n), n)[0]


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


def _front(
    P: BinaryMatrix, xs: Sequence[int]
) -> tuple[int, list[int], list[int | None], bool]:
    """The elimination of a code query at the points xs: the rank r, a
    basis, one form per x (None for an x outside the row space), and
    whether the basis is of C-perp.

    n - r < r implies n < 2r <= 2l, so only n < 2l eliminates the n rows,
    tagged as gf2._tagged tags them. When n - r < r their tags span the
    circuit space C-perp = {d : sum d_i a_i = 0} of the rows a_i, and the
    form of x is a row set S0 with sum_{S0} a_i = x, found by reducing x
    against the pivots. Otherwise the basis is C's from the l columns,
    g_i = P y_i with the form of x linear on it, bit i = x.y_i, as
    clifford._reduced_generators gives them: a second elimination for
    the short codes (n < 2l) with n - r >= r, the only one for the rest.
    """
    n = P.n
    if n < 2 * P.l:
        pivots, circuits = gf2._tagged(P.bits)
        r = len(pivots)
        if n - r < r:
            # x = 0 is the sum of no rows
            forms: list[int | None] = [0] * len(xs)
            if any(xs):
                # reduced against the pivots without adding any, x stops
                # above the tags when it is outside the row space
                shifts: list[int] = []
                gf2._eliminate([x << n for x in xs], pivots, n, shifts, grow=False)
                forms = [None if s0 >> n else s0 for s0 in shifts]
            return r, circuits, forms, True
    gens, linears = clifford._reduced_generators(P, xs)
    return len(gens), gens, linears, False


def _check_budget(n: int, r: int, rank_limit: int) -> None:
    """Refuses a code whose smaller side, min(r, n - r), passes the budget."""
    if min(r, n - r) > rank_limit:
        raise RankTooLarge(
            f"rank {r} and dual dimension {n - r} both exceed the enumeration limit {rank_limit}"
        )


def _signed_counts(gens: list[int], linears: list[int], n: int) -> np.ndarray:
    """sum_c (-1)^L(c) [|c| = w] over C = span(gens) for each nonzero
    linear form L of linears, bit i = L(gens[i]), as histogram(H) -
    histogram(h + H): h is the first generator odd under L, and H is
    spanned by the others, each odd one plus h, a basis of L's kernel.
    Every kernel and coset is counted in the same numpy calls."""
    bases, hs = [], []
    for linear in linears:
        j = (linear & -linear).bit_length() - 1
        h = gens[j]
        bases += [g ^ h if linear >> i & 1 else g for i, g in enumerate(gens) if i != j]
        hs.append(h)
    offsets = gf2._lanes([0] * len(hs) + hs, n)
    words = gf2._lanes(bases, n).reshape(len(hs), len(gens) - 1, offsets.shape[1])
    counts = _histograms(np.concatenate([words, words]), offsets, n)
    return counts[: len(hs)] - counts[len(hs) :]


def _coset_counts(
    P: BinaryMatrix, xs: Sequence[int], rank_limit: int
) -> tuple[int, list[int | None], bool, list[list[int]]]:
    """_front's r, forms and side at the points xs, and one histogram for
    each x in the row space: the weights of the coset S0 + C-perp,
    2^(n-r) words, or the signed count sum_c (-1)^L(c) [|c| = w] over C,
    2^r words. L is trivial exactly at x = 0, where the count is C's
    histogram. On C-perp every S0 is an offset of the one circuit basis,
    all of them in one _histograms call; on C the nonzero forms share
    _signed_counts' calls, and C's own histogram, if some x needs it,
    is one more.

    Raises:
        RankTooLarge: if min(r, n - r) exceeds rank_limit while some x
            is in the row space, before any enumeration.
    """
    n = P.n
    r, basis, forms, dual = _front(P, xs)
    # no filtered copy when every x is inside, as at every alpha call
    inside = forms if None not in forms else [form for form in forms if form is not None]
    if not inside:
        return r, forms, dual, []
    _check_budget(n, r, rank_limit)
    if dual:
        words = gf2._lanes(inside + basis, n)
        counts = _histograms(words[None, len(inside) :], words[: len(inside)], n)
        return r, forms, dual, counts.tolist()
    signed = [linear for linear in inside if linear]
    found = iter(_signed_counts(basis, signed, n).tolist() if signed else ())
    trivial = _histogram(basis, n).tolist() if len(signed) < len(inside) else None
    return r, forms, dual, [next(found) if linear else trivial for linear in inside]


def weight_enumerator(
    P: BinaryMatrix, *, rank_limit: int = DEFAULT_RANK_LIMIT
) -> CodeProfile:
    """Exact weight histogram of the column-span code of P: the x = 0
    count of _coset_counts.

    Enumerates the 2^r codewords from an independent generator set or,
    when n - r < r, the 2^(n-r) words of C-perp, the circuit space of P's
    rows, whose histogram the MacWilliams identity turns into C's.

    Raises:
        RankTooLarge: if min(r, n - r) exceeds rank_limit.
    """
    n = P.n
    r, _, dual, (weights_out,) = _coset_counts(P, [0], rank_limit)
    weights_out = tuple(_macwilliams(weights_out, n, n - r) if dual else weights_out)
    if sum(weights_out) != 1 << r or weights_out[0] < 1 or min(weights_out) < 0:
        raise NumericalInconsistency("weight histogram failed its count check")
    return CodeProfile(n, r, weights_out)


def _primal_sums(counts: list[list[int]], r: int, n: int, th: float) -> list[complex]:
    """2^-r sum_w counts[p][w] exp(i th (n - 2 w)) for every row p: the
    phase sum over C."""
    phases: dict[int, complex] = {}  # by weight, as they occur
    sums = []
    for row in counts:
        total = 0j
        for weight, count in enumerate(row):
            if count:
                if weight not in phases:
                    phases[weight] = cmath.exp(1j * th * (n - 2 * weight))
                total += count * phases[weight]
        sums.append(total / (1 << r))
    return sums


def _dual_sums(counts: list[list[int]], n: int, th: float) -> list[complex]:
    """sum_w counts[p][w] cos(th)^(n - w) (i sin(th))^w for every row p:
    the gate expansion exp(i th X_a) = cos th + i sin th X_a."""
    c, s = math.cos(th), math.sin(th)
    sums = []
    for row in counts:
        parts = [0.0, 0.0, 0.0, 0.0]  # by the power i^w
        for weight, count in enumerate(row):
            if count:
                parts[weight % 4] += count * c ** (n - weight) * s**weight
        sums.append(complex(parts[0] - parts[2], parts[1] - parts[3]))
    return sums


def _check_moduli(values: list[complex]) -> None:
    """Refuses an alpha or amplitude of modulus past 1."""
    for value in values:
        if abs(value) > 1 + 1e-9:
            raise NumericalInconsistency(f"|alpha| = {abs(value)} exceeds 1")


def _quarter_values(
    generators: list[int], t: int, masks: Sequence[int], linears: Sequence[int] | None = None
) -> tuple[list[complex], list[tuple[clifford.GaussianInteger, int, bool]]]:
    """e^(i pi t |m| / 4) 2^-r sum_u i^(-t|c_u|) (-1)^L(u), the
    clifford._masked_wenums sum on the r generators, for every pair
    (m, L), as complex floats after the |value| <= 1 check, and their
    exact forms (w, r, odd), value = e^(i pi odd / 4) w / 2^r: the power
    of i in the phase goes into w.
    """
    r = len(generators)
    values, exact = [], []
    for w, m in zip(clifford._masked_wenums(generators, -t, masks, linears), masks):
        n = m.bit_count()
        w = w.times_i_power(t * n // 2)
        # int / int stays finite where 2^r overflows a float
        value = complex(w.re / (1 << r), w.im / (1 << r))
        odd = bool(t * n % 2)
        if odd:  # times e^(i pi / 4) = (1 + i) / sqrt(2), exactly 0 where re = +-im
            value = complex(value.real - value.imag, value.real + value.imag) * math.sqrt(0.5)
        values.append(value)
        exact.append((w, r, odd))
    _check_moduli(values)
    return values, exact


def _amplitudes(P: BinaryMatrix, xs: Sequence[int], theta: Angle, rank_limit: int) -> list[complex]:
    """<x|U|0> = 2^-r sum_{c = Py} (-1)^(x.y) exp(i theta (n - 2|c|)) for
    every x of xs, from eliminations shared by the whole batch, exactly 0
    for x outside the row space.

    At theta = t pi / 4 with x in the row space, x.y = L(c) is linear on
    C, the sum one signed Gauss sum of i^(-t|c|) (-1)^L(c) times
    e^(i pi t n / 4), _quarter_values' sum with the mask of all n rows:
    the points share C's generators from the columns and their Z4 form,
    and only L is their own. Other angles sum the counts of
    _coset_counts: on C, or by the gate expansion on S0 + C-perp,
    whichever is smaller.
    """
    n = P.n
    if theta.is_fourth_root:
        gens, forms = clifford._reduced_generators(P, xs)
        inside = [L for L in forms if L is not None]
        masks = [(1 << n) - 1] * len(inside)
        values = _quarter_values(gens, theta.fourth_root_index, masks, inside)[0]
    else:
        r, forms, dual, counts = _coset_counts(P, xs, rank_limit)
        th = theta.value
        values = _dual_sums(counts, n, th) if dual else _primal_sums(counts, r, n, th)
        _check_moduli(values)
    if len(values) == len(xs):
        return values
    found = iter(values)
    return [0j if form is None else next(found) for form in forms]


def _correlations(P: BinaryMatrix, ss: Sequence[int], theta: Angle, rank_limit: int) -> list[complex]:
    """alpha(affinify(P, s), theta) for every packed s of ss, each == that
    call, theta being the program's doubled angle.

    At theta = t pi / 4 one elimination of P's columns serves every s,
    with no budget. The rows odd against s are the support of the
    codeword c = Ps, so the affinified code is C punctured to supp(c),
    spanned by C's generators g_i masked by c. Q_s(u) =
    |sum_i u_i (g_i & c)| mod 4 is a Z4 form on F2^r, and over all 2^r
    points u each of the affinified code's 2^r' words counts 2^(r - r')
    times: 2^-r times the sum of i^(-t Q_s) is that code's own 2^-r' sum,
    the same dyadic, and the phase e^(i pi t |c| / 4) is alpha's at
    length |c|: _quarter_values' sum with the mask c and L = 0.

    Other angles give each s its own code of odd rows and its own _front,
    and check every budget, in order, before any enumeration. The x = 0
    counts then share the numpy calls: the codes of one basis size are
    stacked with zero offsets, in lanes for the longest of them, width,
    and at most _GROUP_ENTRIES // (width + 1) codes go to one _histograms
    call, so its histograms hold at most _GROUP_ENTRIES entries. Each
    histogram is cut to its own code's n + 1 and summed on its side.
    """
    if theta.is_fourth_root:
        columns = gf2.transpose(P).bits
        gens = list(gf2._eliminate(columns, {}).values())
        masks = [gf2._combine(columns, s) for s in ss]  # the codewords Ps
        return _quarter_values(gens, theta.fourth_root_index, masks)[0]
    fronts = []
    for s in ss:
        odd = _odd_rows(P, s)
        r, basis, _, dual = _front(odd, [0])
        _check_budget(odd.n, r, rank_limit)
        fronts.append((odd.n, r, basis, dual))
    groups: dict[int, list[int]] = {}
    for p, (_, _, basis, _) in enumerate(fronts):
        groups.setdefault(len(basis), []).append(p)
    th = theta.value
    values = [0j] * len(fronts)
    for k, members in groups.items():
        width = max(fronts[p][0] for p in members)
        take = max(1, _GROUP_ENTRIES // (width + 1))
        for lo in range(0, len(members), take):
            part = members[lo : lo + take]
            offsets = gf2._lanes([0] * len(part), width)
            bases = gf2._lanes([g for p in part for g in fronts[p][2]], width)
            counts = _histograms(bases.reshape(len(part), k, offsets.shape[1]), offsets, width)
            for p, row in zip(part, counts.tolist()):
                n, r, _, dual = fronts[p]
                row = [row[: n + 1]]
                values[p] = (_dual_sums(row, n, th) if dual else _primal_sums(row, r, n, th))[0]
    _check_moduli(values)
    return values


def alpha(
    P: BinaryMatrix, theta: Angle, *, rank_limit: int = DEFAULT_RANK_LIMIT
) -> complex:
    """Mean codeword phase 2^(-r) sum_c exp(i theta (n - 2 |c|)), <0|U|0>.

    Fourth-root angles are evaluated exactly in polynomial time. Other
    angles enumerate whichever of the code C and its dual C-perp has the
    smaller dimension, so the budget bounds min(r, n - r).
    """
    return _amplitudes(P, [0], theta, rank_limit)[0]


def alpha_exact_fourth_root(
    P: BinaryMatrix, theta: Angle
) -> tuple[clifford.GaussianInteger, int] | None:
    """Exact value of alpha as (gaussian numerator, log2 denominator).

    Only available when theta is a fourth-root angle and the global
    phase is itself a power of i; returns None otherwise.
    """
    if not theta.is_fourth_root or (theta.fourth_root_index * P.n) % 2:
        return None
    gens = clifford._reduced_generators(P)[0]
    ((w, r, _),) = _quarter_values(gens, theta.fourth_root_index, [(1 << P.n) - 1])[1]
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
    return _odd_rows(P, s.bits)


def _odd_rows(P: BinaryMatrix, s: int) -> BinaryMatrix:
    """The rows a of P with a . s = 1 for the packed s, in their order."""
    rows = tuple(a for a in P.bits if (a & s).bit_count() & 1)
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
