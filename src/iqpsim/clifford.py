"""Exact polynomial-time evaluation at fourth roots of unity.

The weight enumerator of a binary code at z in {1, i, -1, -i} is a sum of
2^r fourth roots, hence a Gaussian integer. Evaluating it by enumeration
costs 2^r; this module instead reduces the Z4-valued quadratic form
Q(c) = |c| mod 4 over the whole code, whose polar form is twice the
plain GF(2) inner product b(c, c') = |c & c'| mod 2. A sign (-1)^L(c)
with L linear adds 2L to Q and keeps its polar form, and masking the
generators by a word m punctures the code to supp(m). One batcher,
_masked_wenums, sums a pair (m, L) at a time: amplitudes <x|U|0> share
the mask of all rows and differ in L, the correlations at pi/8 take
L = 0 and the mask Ps. The masked Gram matrix is linear in m, so a batch
builds it once per basis vector of span(masks). Odd vectors split off one
factor 1 + i or 1 - i each, and the sum over the even rest is read off
its hyperbolic planes and its value on the radical. Total cost is
polynomial in the matrix size.

The same machinery solves the quarter-turn case exactly: the output
distribution is uniform over an affine subspace computed from the kernel
of P^T P, with probabilities that are exact powers of two.
_quarter_turn_law gives the law at every multiple of pi/4, to marginals too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from random import Random
from typing import Sequence

from . import gf2
from .errors import DimensionMismatch
from .gf2 import BinaryMatrix, BitVector

__all__ = [
    "GaussianInteger",
    "AffineSupport",
    "wenum_at_fourth_root",
    "clifford_support",
    "clifford_probability",
    "clifford_sample",
]


@dataclass(frozen=True)
class GaussianInteger:
    """Exact complex integer re + im*i."""

    re: int
    im: int

    def conjugate(self) -> "GaussianInteger":
        return GaussianInteger(self.re, -self.im)

    def times_i_power(self, k: int) -> "GaussianInteger":
        k %= 4
        if k == 0:
            return self
        if k == 1:
            return GaussianInteger(-self.im, self.re)
        if k == 2:
            return GaussianInteger(-self.re, -self.im)
        return GaussianInteger(self.im, -self.re)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


def _reduced_generators(
    M: BinaryMatrix, xs: Sequence[int] = (0,)
) -> tuple[list[int], list[int | None]]:
    """Independent generators g_i = M y_i of the column-span code and, for
    each x of xs, the parities x . y_i, bit i for g_i, from one elimination
    of the columns tagged with their coordinates. A dependent column
    leaves a tag y with M y = 0; an x with x . y = 1 is outside the row
    space and gets None.
    """
    l = M.l
    pivots, kernel = gf2._tagged(gf2.transpose(M).bits)
    # x . y_i at bit i; _parities packs its first mask at the top
    tags = list(reversed(pivots.values()))
    linears = [None if gf2._parities(x, kernel) else gf2._parities(x, tags) for x in xs]
    return [w >> l for w in pivots.values()], linears


def _gram(vectors: list[int]) -> list[int]:
    """Pairwise inner products: bit j of entry i is |v_i & v_j| mod 2."""
    r = len(vectors)
    gram = [0] * r
    for i, v in enumerate(vectors):
        row = gram[i] | (v.bit_count() & 1) << i
        bit = 1 << i
        for j in range(i + 1, r):
            if (v & vectors[j]).bit_count() & 1:
                row |= 1 << j
                gram[j] |= bit
        gram[i] = row
    return gram


def _indices(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _xor_rows(gram: list[int], rows: int, value: int) -> None:
    """gram[k] ^= value for every set bit k of rows, in place."""
    while rows:
        low = rows & -rows
        gram[low.bit_length() - 1] ^= value
        rows ^= low


def _weight_bits(vectors: list[int]) -> tuple[int, int]:
    """The two bits of each |v_i| mod 4, as masks over i."""
    odd = high = 0
    for i, v in enumerate(vectors):
        w = v.bit_count()
        odd |= (w & 1) << i
        high |= (w >> 1 & 1) << i
    return odd, high


def _form_sum(form: tuple[list[int], int, int], linear: int = 0) -> GaussianInteger:
    """Sum of i^Q(u) (-1)^L(u) over u in F2^r, Q(u) = |sum_i u_i v_i| mod 4
    given as (_gram(vectors), *_weight_bits(vectors)) and bit i of linear
    the linear form L at e_i; form is not changed.

    Q(c) + 2 L(c) mod 4 is a Z4-valued quadratic form, Q(a + b) =
    Q(a) + Q(b) + 2 b(a, b), and the Gram matrix of b holds Q mod 2 on
    its diagonal. An odd v splits off as the factor 1 + i^Q(v) once the
    other vectors are made orthogonal to it. On the even rest Q / 2 is a
    Z2 form with polar form b: each hyperbolic plane contributes +-2, and
    on the radical, where Q is linear, the sum is 0 or a power of two.
    """
    gram, odd, high = form
    gram = gram.copy()
    high ^= linear
    active = (1 << len(gram)) - 1
    halves = turns = power = 0  # the sum is (1 + i)^halves i^turns 2^power
    while active & odd:
        low = active & odd & -(active & odd)
        active ^= low
        a = gram[low.bit_length() - 1] & active
        # v_k += v_i for k in a makes them orthogonal to v_i: Q(v_k) gains
        # Q(v_i) + 2, and the products among those k flip, diagonal included
        halves += 1
        if high & low:  # 1 + i^3 = -i (1 + i), and Q(v_k) gains 1
            turns += 3
            high ^= a & odd
        else:  # Q(v_k) gains 3
            high ^= a & ~odd
        odd ^= a
        _xor_rows(gram, a, a)
    for i in _indices(active):
        row = gram[i] & active
        if not active >> i & 1 or not row:
            continue  # paired already, or in the radical for good
        j = (row & -row).bit_length() - 1
        qi, qj = high >> i & 1, high >> j & 1
        turns += 2 * (qi & qj)
        power += 1
        active &= ~((1 << i) | (1 << j))
        a = gram[i] & active
        bb = gram[j] & active
        # v_k += a_k v_j + bb_k v_i restores orthogonality to the pair;
        # track Q and the Gram matrix symbolically instead of touching vectors
        high ^= (a if qj else 0) ^ (bb if qi else 0) ^ (a & bb)
        _xor_rows(gram, a, bb)
        _xor_rows(gram, bb, a)
    # the polar form vanishes on what is left, so Q / 2 is linear there
    if high & active:
        return GaussianInteger(0, 0)
    scale = 1 << (power + active.bit_count() + halves // 2)  # (1 + i)^2 = 2i
    value = GaussianInteger(scale, scale if halves & 1 else 0)
    return value.times_i_power(turns + halves // 2)


def _masked_wenums(
    generators: list[int], k: int, masks: Sequence[int], linears: Sequence[int] | None = None
) -> list[GaussianInteger]:
    """sum_u i^(k|c_u|) (-1)^L(u) over the 2^r combinations c_u =
    sum_i u_i (g_i & m) of the r generators masked by m, for every pair
    (m, L) of masks and linears (L = 0 when linears is None), bit i of L
    its value at u = e_i.

    The masked generators may be dependent: each word of their span then
    counts 2^(r - rank) times, and _form_sum's radical takes the excess.
    The weights |g_i & m| mod 4 are read once per run of equal masks. At
    even k, i^(k|c_u|) = (-1)^(k/2 |c_u|) and |c_u| mod 2 is linear in u,
    so the sum is a character sum, 2^r or 0. At odd k the Gram matrix,
    GF(2)-linear in m, is built once for each new basis vector of
    span(masks), as the masks are reduced in turn, and xored along.
    """
    r = len(generators)
    k %= 4
    pairs = zip(masks, repeat(0) if linears is None else linears)
    values: list[GaussianInteger] = []
    last = None
    if not k & 1:
        whole, zero = GaussianInteger(1 << r, 0), GaussianInteger(0, 0)
        for m, linear in pairs:
            if m != last:
                last = m
                parity = _weight_bits([g & m for g in generators])[0] if k else 0
            values.append(zero if linear ^ parity else whole)
        return values
    rows = (1 << r) - 1
    # by leading bit: a basis mask, and the Gram matrix under it with row i at bit i r
    pivots: dict[int, tuple[int, int]] = {}
    for m, linear in pairs:
        if m != last:
            last = m
            masked = [g & m for g in generators]
            w, packed = m, 0
            while w:
                top = w.bit_length() - 1
                if top not in pivots:
                    gram = _gram(masked if w == m else [g & w for g in generators])
                    pivots[top] = (w, sum(row << (i * r) for i, row in enumerate(gram)))
                basis, part = pivots[top]
                w ^= basis
                packed ^= part
            form = ([packed >> (i * r) & rows for i in range(r)], *_weight_bits(masked))
        value = _form_sum(form, linear)
        values.append(value if k == 1 else value.conjugate())
    return values


def wenum_from_generators(generators: list[int], k: int, linear: int = 0) -> GaussianInteger:
    """Signed weight enumerator sum_c i^(k |c|) (-1)^L(c) of the span of
    packed generators; bit i of linear is L(generators[i]). One
    _masked_wenums sum, the mask the union of the generators.

    The generators must be linearly independent, as those from
    _reduced_generators are: the span is taken to hold 2^len(generators)
    words.
    """
    union = 0
    for g in generators:
        union |= g
    return _masked_wenums(generators, k, [union], [linear])[0]


def wenum_at_fourth_root(P: BinaryMatrix, k: int) -> GaussianInteger:
    """Exact weight-enumerator value sum_c i^(k |c|) over the code of P."""
    return wenum_from_generators(_reduced_generators(P)[0], k)


@dataclass(frozen=True)
class AffineSupport:
    """Affine subspace carrying the quarter-turn output distribution.

    Attributes:
        case: "one" when every kernel functional is good, the support is
            then the orthogonal complement of V; "two" otherwise, the
            support is then the part of U-perp outside V-perp.
        V_basis: canonical basis of Ker(P^T P).
        U_basis: canonical basis of the good sub-kernel.
        dim: dimension of the support as an affine space.
        offset: one point of the support.
        directions: basis of the direction space (V-perp).
        odd_witness: a kernel element outside U in case two, else None.
    """

    case: str
    V_basis: tuple[BitVector, ...]
    U_basis: tuple[BitVector, ...]
    dim: int
    offset: BitVector
    directions: tuple[BitVector, ...]
    odd_witness: BitVector | None

    def contains(self, x: BitVector) -> bool:
        if x.n != self.offset.n:
            raise DimensionMismatch("vector length does not match the support")
        if any(x.dot(u) for u in self.U_basis):
            return False
        if self.case == "one":
            return True
        return x.dot(self.odd_witness) == 1

    def sample(self, rng: Random) -> BitVector:
        return BitVector(self.offset.n, _affine_draw(*self._packed(), rng))

    def _packed(self) -> tuple[int, list[int]]:
        """(offset, directions) as ints; bit j of an _affine_draw picks directions[j]."""
        return self.offset.bits, [d.bits for d in reversed(self.directions)]


def _affine_draw(offset: int, directions: Sequence[int], rng: Random) -> int:
    """A uniform point of offset + span(directions), packed; the top bit of
    the draw picks directions[0]. The directions may be dependent: a linear
    image of a uniform vector is uniform on the image, the span."""
    return offset ^ gf2._combine(directions, rng.getrandbits(len(directions)))


def _quarter_turn_law(P: BinaryMatrix, t: int) -> tuple[int, list[int]]:
    """The output law at theta = t pi / 4 as a packed (offset, directions),
    uniform on offset + span(directions), in the order _affine_draw takes.

    At odd t the output is uniform on the affine Clifford support, which
    an odd multiple of pi/2 added to theta only shifts by the xor of all
    rows, a direction of the support. At even t the program is a power of
    the product of its iX_S gates: a point mass at 0, or at that xor when
    t = 2 mod 4.
    """
    if t % 2:
        return clifford_support(P)._packed()
    offset = gf2._combine(P.bits, (1 << P.n) - 1) if t % 4 == 2 else 0
    return offset, []


def clifford_support(P: BinaryMatrix) -> AffineSupport:
    """Support of the quarter-turn distribution of an X-program.

    V is the kernel of P^T P. On V the halved row-hit count n_s / 2 is
    linear mod 2, and U is its kernel: the functionals whose hit count is
    divisible by 4. The basis of U is built by folding each bad basis
    vector into the last bad one, which is then dropped.
    """
    l = P.l
    columns = gf2.transpose(P).bits
    # the rows of P^T P up to their order, which the kernel ignores; _gram
    # numbers bits from the low end and BitVector coordinates from the
    # high end, hence the reversed columns
    V = gf2.kernel(BinaryMatrix(l, l, tuple(_gram(columns[::-1]))))
    # n_s = |P s|, and P s is the xor of the columns that s picks
    halves = [gf2._combine(columns, s.bits).bit_count() >> 1 & 1 for s in V]
    bad = [s for s, h in zip(V, halves) if h]
    good = [s for s, h in zip(V, halves) if not h]
    witness = bad[-1] if bad else None
    U = gf2.span_rref(good + [s ^ witness for s in bad[:-1]], l) if bad else V
    system = BinaryMatrix.from_rows(l, V)
    # with V empty this is the kernel of a 0 x l matrix: every unit vector
    directions = gf2.kernel(system)
    # n_s / 2 is linear on V, so the support is {x : s . x = n_s / 2 on V};
    # free coordinates at zero make the offset canonical
    offset = gf2.solve(system, BitVector.from_ints(halves))
    return AffineSupport(
        "two" if bad else "one", tuple(V), tuple(U), l - len(V), offset,
        tuple(directions), witness,
    )


def clifford_probability(P: BinaryMatrix, x: BitVector) -> Fraction:
    """Exact dyadic output probability of x at the quarter-turn angle."""
    support = clifford_support(P)
    if not support.contains(x):
        return Fraction(0)
    return Fraction(1, 1 << support.dim)


def clifford_sample(P: BinaryMatrix, rng: Random) -> BitVector:
    """Uniform exact sample from the quarter-turn output distribution."""
    return clifford_support(P).sample(rng)
