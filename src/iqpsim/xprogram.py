"""Program-level semantics: amplitudes, probabilities, correlations.

An XProgram pairs a gate matrix with a common rotation angle. Row a of
the matrix is the support of a tensor product of Pauli X factors; the
program's unitary is the product of exp(i theta X_S) over all rows, and
the output distribution is the squared transition amplitude from the
all-zeros state. Single amplitudes and correlations reduce to alpha
evaluations on projected or affinified matrices. The full distribution
is one phase sweep: the exponent at v is n - 2|Pv|, read from the
weight of a codeword, and one Walsh-Hadamard transform takes the
phases to the amplitudes. The weights come from popcounts of the
codewords, or for programs with many rows from a transform of the row
histogram; both are exact integers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import comb, gcd
from typing import Sequence

import numpy as np

from . import codes, gf2
from .codes import Angle
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainTooLarge,
    NumericalInconsistency,
    UnsupportedAngle,
)
from .gf2 import BinaryMatrix, BitVector

__all__ = [
    "XProgram",
    "Distribution",
    "ReducedProgram",
    "walsh_hadamard",
    "amplitudes",
    "amplitude",
    "probability",
    "beta",
    "betas",
    "full_distribution",
    "reduce_rows",
    "DEFAULT_DOMAIN_LIMIT",
]

DEFAULT_DOMAIN_LIMIT = 16
IMAG_TOLERANCE = 1e-9
PROBABILITY_TOLERANCE = 1e-9
# rows ReducedProgram.to_xprogram may write out, each monomial mult times
EXPANDED_ROW_LIMIT = 1 << 20


@dataclass(frozen=True)
class XProgram:
    """A gate matrix together with the shared rotation angle."""

    P: BinaryMatrix
    theta: Angle

    @property
    def n(self) -> int:
        return self.P.n

    @property
    def l(self) -> int:
        return self.P.l


def _check_total(total: float, what: str) -> None:
    # written so that a NaN total fails too
    if not abs(total - 1.0) <= PROBABILITY_TOLERANCE:
        raise NumericalInconsistency(f"{what} {total}")


class Distribution:
    """Probability vector over l-bit strings, indexed by packed value.

    Entries in [-PROBABILITY_TOLERANCE, 0) are clamped to zero and the
    largest clamped magnitude is kept in clamp_drift; anything more
    negative, or a total not within PROBABILITY_TOLERANCE of 1, raises.
    The vector is stored as observed, never renormalized.
    """

    def __init__(self, domain_bits: int, values):
        arr = np.array(values, dtype=np.float64)
        if arr.shape != (1 << domain_bits,):
            raise DimensionMismatch(
                f"expected {1 << domain_bits} entries, got {arr.shape}"
            )
        lowest = float(arr.min()) if arr.size else 0.0
        if lowest < -PROBABILITY_TOLERANCE:
            raise NumericalInconsistency(f"probability {lowest} below tolerance")
        self.clamp_drift = max(0.0, -lowest)
        arr[arr < 0.0] = 0.0
        total = float(arr.sum())
        _check_total(total, "probabilities sum to")
        self.sum_drift = total - 1.0
        self.domain_bits = domain_bits
        arr.flags.writeable = False
        self._p = arr

    def probability(self, x) -> float:
        ix = x.bits if isinstance(x, BitVector) else int(x)
        return float(self._p[ix])

    def as_array(self) -> np.ndarray:
        return self._p.copy()

    def outcomes(self):
        bits = self.domain_bits
        for ix, p in enumerate(self._p):
            yield BitVector(bits, ix), float(p)

    def total_variation(self, other: "Distribution") -> float:
        if other.domain_bits != self.domain_bits:
            raise DimensionMismatch("distributions on different domains")
        return float(np.abs(self._p - other._p).sum()) / 2.0

    def __len__(self) -> int:
        return len(self._p)


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """In-place unnormalized transform: out[x] = sum_s (-1)^(x.s) in[s].

    A 2-D array is transformed along axis 0, each column on its own.
    """
    size = len(values)
    if size & (size - 1):
        raise DimensionMismatch("length must be a power of two")
    half = np.empty((size // 2,) + values.shape[1:], dtype=values.dtype)
    h = 1
    while h < size:
        blocks = values.reshape((-1, 2 * h) + values.shape[1:])
        top, bottom = blocks[:, :h], blocks[:, h:]
        diff = half.reshape(top.shape)
        np.subtract(top, bottom, out=diff)
        top += bottom
        bottom[...] = diff
        h *= 2
    return values


def amplitudes(
    prog: XProgram, xs: Sequence[BitVector], *, rank_limit: int | None = None
) -> list[complex]:
    """Transition amplitudes from the all-zeros state to every x of xs.

    Each is 2^-r sum_{c = Py} (-1)^(x.y) exp(i theta (n - 2|c|)), exactly
    0 for x outside the row space, and the points share one elimination.
    At multiples of pi/4 the sign enters one exact Gauss sum per point as
    a linear term of one shared form; other angles enumerate cosets of
    the smaller of the code C and its dual, every point's in the same
    numpy calls, so the budget bounds min(r, n - r).
    """
    for x in xs:
        if x.n != prog.l:
            raise DimensionMismatch(f"x has {x.n} bits, program has {prog.l}")
    limit = codes.DEFAULT_RANK_LIMIT if rank_limit is None else rank_limit
    return codes._amplitudes(prog.P, [x.bits for x in xs], prog.theta, limit)[0]


def amplitude(prog: XProgram, x: BitVector, *, rank_limit: int | None = None) -> complex:
    """Transition amplitude from the all-zeros state to x: amplitudes
    for one point."""
    return amplitudes(prog, [x], rank_limit=rank_limit)[0]


def probability(prog: XProgram, x: BitVector, *, rank_limit: int | None = None) -> float:
    return abs(amplitude(prog, x, rank_limit=rank_limit)) ** 2


def betas(
    prog: XProgram, ss: Sequence[BitVector], *, rank_limit: int | None = None
) -> list[float]:
    """Correlation coefficients of the parities X.s for every s of ss,
    each equal to 2 P[X.s=0] - 1.

    Each is alpha of the affinified matrix at the doubled angle; the
    result is real because that code contains the all-ones word, pairing
    codewords into conjugate contributions. When the doubled angle is a
    multiple of pi/4, P's columns are eliminated once for the batch and
    each s is one Gauss sum over C's generators masked by the codeword
    Ps (codes._punctured_alphas), with no budget. Otherwise every s keeps
    its own code and elimination, the enumeration budget bounds
    min(r, n - r) of that code, checked for every s in order before any
    enumeration, and the enumerations of all of them share their numpy
    calls.
    """
    for s in ss:
        if s.n != prog.l:
            raise DimensionMismatch(f"s has {s.n} bits, program has {prog.l}")
    doubled = prog.theta.doubled()
    nonzero = [s for s in ss if not s.is_zero()]
    if doubled.is_fourth_root:
        found = iter(codes._punctured_alphas(prog.P, [s.bits for s in nonzero], doubled))
    else:
        limit = codes.DEFAULT_RANK_LIMIT if rank_limit is None else rank_limit
        matrices = (codes.affinify(prog.P, s) for s in nonzero)
        found = iter(codes._alphas(matrices, doubled, limit))
    values = []
    for s in ss:
        value = 1.0 if s.is_zero() else next(found)
        if abs(value.imag) > IMAG_TOLERANCE:
            raise NumericalInconsistency(f"correlation has imaginary part {value.imag}")
        values.append(float(value.real))
    return values


def beta(prog: XProgram, s: BitVector, *, rank_limit: int | None = None) -> float:
    """Correlation coefficient of the parity X.s: betas for one s."""
    return betas(prog, [s], rank_limit=rank_limit)[0]


# i^-k for k mod 4: the unit phases of a fourth-root sweep, exactly
_QUARTER_TURNS = np.array([1, -1j, -1, 1j], dtype=np.complex128)


class _CosetSweep:
    """The codewords c(b) = P (shift + sum_j b_j vectors[j]) of one
    program, vectors[0] by the low bit of b, weighed for any shift.

    Up to 64 len(vectors) rows the codes' coset enumeration weighs them,
    one table entry per index and uint64 lane. Taller programs go by the
    rows: row a adds 1 to |c(b)| when a.shift + key(a).b is odd, key(a)
    having bit j = a.vectors[j], so n - 2|c| is the transform of the key
    histogram signed by a.shift, 2^len(vectors) points for any number
    of rows. Both give the same integers.
    """

    def __init__(self, P: BinaryMatrix, vectors: Sequence[int]):
        self.n, self.m, self.l = P.n, len(vectors), P.l
        self.by_rows = (P.n + 63) // 64 > self.m
        if self.by_rows:
            self._rows = gf2._lanes(P.bits, P.l)
            # the key map, images[t] the image of row bit t, on every row:
            # one table of 256 values and one lookup per byte of the rows
            images = [sum((v >> t & 1) << j for j, v in enumerate(vectors)) for t in range(P.l)]
            self._keys = np.zeros(P.n, dtype=np.uint64)
            for p, octets in enumerate(self._rows.view(np.uint8)[:, : (P.l + 7) // 8].T):
                if any(part := images[8 * p : 8 * p + 8]):
                    self._keys ^= codes._enumeration_table(part)[octets]
        else:
            self._columns = gf2.transpose(P).bits
            words = [gf2._combine(self._columns, v) for v in vectors]
            self._words = gf2._lanes(words, P.n)[None]

    def weights(self, shift: int) -> np.ndarray:
        """|c(b)| for every index b."""
        if not self.by_rows:
            offset = gf2._lanes([gf2._combine(self._columns, shift)], self.n)
            blocks = [block[0] for block in codes._coset_weights(self._words, offset)]
            return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        keys = self._keys
        if shift:  # the sign a.shift, the parity of row & shift, as key bit m
            folded = np.bitwise_xor.reduce(self._rows & gf2._lanes([shift], self.l), axis=1)
            keys = keys | (np.bitwise_count(folded) & 1).astype(np.uint64) << np.uint64(self.m)
        size = 1 << self.m
        counts = np.bincount(keys.view(np.int64), minlength=2 * size)
        spectrum = counts[:size] - counts[size:]
        walsh_hadamard(spectrum)
        return (self.n - spectrum) >> 1


def _sweep_probabilities(sweep: _CosetSweep, shift: int, theta: Angle, levels: int) -> np.ndarray:
    """Squared amplitudes of one phase sweep over a coset of the code.

    Index b = (v << (m - levels)) | u, m = sweep.m, carries the codeword
    c(b) of the sweep and the phase exp(i theta (n - 2|c(b)|)), read
    from a table of the n + 1 values while that is shorter than 2^m; at
    theta = t pi / 4 they are the exact powers i^(-t|c|), after dropping
    the global phase exp(i theta n). The transform runs over the levels
    of v only, and the squares are averaged over u:
    out[x] = 2^-(m + levels) sum_u |sum_v (-1)^(x.v) phase(b)|^2.
    """
    n = sweep.n
    weights = sweep.weights(shift)
    k = np.arange(n + 1) if n < len(weights) else weights.astype(np.intp)
    if theta.is_fourth_root:
        phases = _QUARTER_TURNS[theta.fourth_root_index * k % 4]
    else:
        phases = np.exp(1j * theta.value * (n - 2 * k))
    if n < len(weights):
        phases = phases[weights]
    phases = phases.reshape(1 << levels, -1)
    walsh_hadamard(phases)
    power = phases.real**2
    power += phases.imag**2
    return np.ldexp(power.sum(axis=1), -sweep.m - levels)


def full_distribution(
    prog: XProgram,
    *,
    threads: int | None = None,
    domain_limit: int = DEFAULT_DOMAIN_LIMIT,
) -> Distribution:
    """Exact output distribution over all 2^l strings.

    The phase at v is read from the weight of the codeword Pv, so one
    sweep of the code spanned by P's columns, then one transform of
    length 2^l, gives every amplitude. threads is accepted for
    compatibility and ignored.
    """
    l = prog.l
    if l > domain_limit:
        raise DomainTooLarge(f"2^{l} outcomes exceed the limit 2^{domain_limit}")
    # bit b of v picks column l - 1 - b
    sweep = _CosetSweep(prog.P, [1 << b for b in range(l)])
    return Distribution(l, _sweep_probabilities(sweep, 0, prog.theta, l))


@dataclass(frozen=True)
class ReducedProgram:
    """Multiplicity-encoded program equivalent to a dyadic-angle input.

    Every support has Hamming weight at most degree; multiplicities live
    in [0, period) with period the order of exp(i theta m X) in m. The
    scalar exp(i theta phase_exponent) is the global phase dropped from
    the row list; it never affects the distribution. monomials holds the
    (support, multiplicity) pairs with supports packed like BitVector.bits.
    """

    l: int
    theta: Angle
    monomials: tuple[tuple[int, int], ...]
    phase_exponent: int
    degree: int
    period: int

    @property
    def rows(self) -> tuple[tuple[BitVector, int], ...]:
        """The monomials with BitVector supports, built on each access."""
        return tuple((BitVector(self.l, bits), mult) for bits, mult in self.monomials)

    @property
    def monomial_count(self) -> int:
        return len(self.monomials)

    @property
    def expanded_row_count(self) -> int:
        return sum(m for _, m in self.monomials)

    def global_phase(self) -> complex:
        return cmath.exp(1j * self.theta.value * self.phase_exponent)

    def to_xprogram(self) -> XProgram:
        """The program with each monomial written as mult equal rows.

        Raises:
            BudgetExceeded: when expanded_row_count exceeds
                EXPANDED_ROW_LIMIT, before any row is built.
        """
        count = self.expanded_row_count
        if count > EXPANDED_ROW_LIMIT:
            raise BudgetExceeded(
                f"expanded program has {count} rows, beyond the limit {EXPANDED_ROW_LIMIT}"
            )
        bits = tuple(row for row, mult in self.monomials for _ in range(mult))
        return XProgram(BinaryMatrix(len(bits), self.l, bits), self.theta)


def _alternating_sum(m: int, k: int) -> int:
    """sum_{j <= k} (-1)^j C(m, j) in closed form: (-1)^k C(m - 1, k) for m >= 1."""
    if m == 0:
        return 1
    return -comb(m - 1, k) if k & 1 else comb(m - 1, k)


def reduce_rows(prog: XProgram, *, term_limit: int = 2_000_000) -> ReducedProgram:
    """Rewrite a dyadic-angle program so every row has weight <= d.

    For theta = c pi / 2^d the diagonal phase of each row expands into
    parity terms; coefficients on terms of degree above d are multiples
    of a full turn and vanish, and the rest accumulate with integer
    multiplicities mod the period. The empty term becomes global phase.
    The output program's distribution equals the input's exactly.

    A weight-w row puts sum_{j <= d - s} (-1)^j C(w - s, j) on each of
    its size-s sub-supports. For w <= d that is 1 on the row itself and
    0 elsewhere, so such rows pass through. The heavier rows are walked
    by sub-support S, |S| <= d: the rows containing S are the AND of
    P's columns in S, and S's multiplicity is the sum of their
    coefficients, read by popcounts against the coefficients' bit
    planes. term_limit bounds the terms of the row-by-row expansion,
    counted before the walk from the row weights.
    """
    parts = prog.theta.dyadic_parts()
    if parts is None:
        raise UnsupportedAngle(
            f"angle {prog.theta} is not an odd multiple of pi over a power of two"
        )
    c, d = parts
    modulus = (2 << d) // gcd(c, 2 << d) if c else 1
    P = prog.P
    light: dict[int, int] = {}
    # the rows of weight above d as packed sets with row i at bit n - 1 - i,
    # all of them and by weight
    heavy, classes = 0, {}
    for i, row in enumerate(P.bits):
        w = row.bit_count()
        if w <= d:
            light[row] = light.get(row, 0) + 1
        else:
            bit = 1 << (P.n - 1 - i)
            heavy |= bit
            classes[w] = classes.get(w, 0) | bit
    budget = P.n - heavy.bit_count() if modulus > 1 else 0
    # a program with no terms passes any limit, as when counted term by term
    if budget > max(term_limit, 0):
        raise BudgetExceeded(f"row expansion exceeds {term_limit} terms")
    # planes[s][2^k]: the heavy rows whose coefficient on a size-s
    # sub-support has bit k set
    planes: list[dict[int, int]] = [{} for _ in range(d + 1)]
    for w, rows in classes.items():
        for s in range(d + 1):
            f = _alternating_sum(w - s, d - s) % modulus
            if not f:
                continue
            budget += rows.bit_count() * comb(w, s)
            if budget > term_limit:
                raise BudgetExceeded(f"row expansion exceeds {term_limit} terms")
            plane = planes[s]
            while f:
                low = f & -f
                plane[low] = plane.get(low, 0) | rows
                f ^= low
    # the walk reaches each sub-support once, so it sets each key once
    counts: dict[int, int] = {}
    if heavy:
        weighted = [tuple(plane.items()) for plane in planes]
        by_bit = P.bits[::-1]  # the row at bit i of a packed set
        # (b, the rows containing b) for each single-bit b, lowest first
        cells = [(1 << b, col) for b, col in enumerate(gf2.transpose(P).bits[::-1])]
        stack = [(0, heavy, 0)]
        while stack:
            key, rows, s = stack.pop()
            value = 0
            for k, plane in weighted[s]:
                value += k * (rows & plane).bit_count()
            counts[key] = value
            if s == d:  # the root at d = 0; deeper leaves are counted below
                continue
            # children add one bit below the lowest of key, so each S is reached once
            below = (key & -key).bit_length() - 1 if key else P.l
            if rows.bit_count() < below:
                union, v = 0, rows
                while v:
                    low = v & -v
                    union |= by_bit[low.bit_length() - 1]
                    v ^= low
                union &= (1 << below) - 1
                picks = []
                while union:
                    low = union & -union
                    picks.append(cells[low.bit_length() - 1])
                    union ^= low
            else:
                picks = cells[:below]
            s += 1
            if s < d:
                stack += [(key | low, child, s) for low, col in picks if (child := rows & col)]
                continue
            # every heavy row has coefficient 1 on its size-d sub-supports
            for low, col in picks:
                if value := (rows & col).bit_count():
                    counts[key | low] = value
    for row, mult in light.items():
        counts[row] = counts.get(row, 0) + mult
    phase_exponent = counts.pop(0, 0) % modulus
    return ReducedProgram(
        l=prog.l,
        theta=prog.theta,
        monomials=tuple(
            (bits, m) for bits, mult in sorted(counts.items()) if (m := mult % modulus)
        ),
        phase_exponent=phase_exponent,
        degree=d,
        period=modulus,
    )
