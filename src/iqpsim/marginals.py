"""Marginal distributions of masked outputs, and a weak sampler.

A projector is any idempotent linear map m on the output bits. The
masked output m(X) lives in the range R of m and is labeled by its
coordinates there. marginal_distribution is one engine with three
evaluators of the same law, chosen by a count of their work:

* the push-forward: one phase sweep over the whole space, the mean of
  the sampler's conditionals over the dual kernel Kstar (only up to the
  full-distribution domain limit);
* the quarter-turn image: at multiples of pi/4 the output is uniform on
  an affine space (clifford's quarter-turn law), so the marginal is
  uniform on its image under m;
* the beta loop: the marginal is an average of correlation coefficients
  over the dual range Rstar, one coefficient per vector, assembled by a
  Walsh-Hadamard transform over coordinates.

Rows of weight at most two have a closed form for the coefficients; the
pi/8 and column-sparse entry points check their preconditions and run
the engine. A sampler draws from the marginal by randomizing over the
dual kernel Kstar, one fresh shift per sample, and keeps the CDFs of the
shifts it has seen within a fixed budget of floats. At multiples of
pi/4 it draws from clifford's quarter-turn law, read in R coordinates.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

import numpy as np

from . import clifford, codes, gf2, xprogram
from .codes import Angle
from .errors import (
    BudgetExceeded,
    ColumnBoundViolated,
    DimensionMismatch,
    NotIdempotent,
    NumericalInconsistency,
    RangeTooLarge,
    RowWeightViolated,
    SupportTooLarge,
)
from .gf2 import BinaryMatrix, BitVector
from .xprogram import Distribution, XProgram, walsh_hadamard

__all__ = [
    "Projector",
    "make_projector",
    "diagonal_projector",
    "marginal_distribution",
    "marginal_pi8",
    "marginal_sparse",
    "marginal_graphic",
    "MarginalSampler",
    "sample_marginal",
    "DEFAULT_RANGE_LIMIT",
    "PI8_RANGE_LIMIT",
]

DEFAULT_RANGE_LIMIT = 20
PI8_RANGE_LIMIT = 24
_CACHE_FLOATS = 1 << 20  # CDF entries a sampler keeps over all its shifts
_DRAW_LIMIT = 1 << 20  # draws one sample command may ask for

# The fixed work of one beta call in steps of the phase sweep, about
# 0.015 us per outcome per transform level on one core. Off the multiples
# of pi/8 a coefficient has its own affinify and elimination, about
# 100 us; at multiples of pi/8 the batch eliminates P once and each
# coefficient is one Gauss sum, about 11 ns a counted step on 60x40 and
# 23 ns on 2000x64. A count near that would move the choice between
# evaluators for some shapes, the 500x14 pi/8 marginal among them.
_BETA_CALL_WORK = 1 << 13
# The most work one marginal may take, in the same steps. It admits 2^12
# beta calls on a 60x40 program (about 0.4 s at pi/8) and refuses 2^13; the
# largest marginal of the tests, the command-line corpus and the benchmark
# (2000x64 with q = 8 at pi/8, about 0.06 s) counts 2625536.
_MARGINAL_WORK_LIMIT = 1 << 26


@dataclass(frozen=True)
class Projector:
    """An idempotent map with its four attached subspaces.

    K and R are the kernel and range of the matrix; Kstar and Rstar are
    the kernel and range of the transpose. Rstar is orthogonal to K and
    Kstar to R. Outcomes of the masked variable are labeled by their
    coordinates in the R basis. The Rstar basis dual to it, packed as
    ints with R_i . D_j = [i == j], reads coordinates off as parities.
    """

    matrix: BinaryMatrix
    K_basis: tuple[BitVector, ...]
    R_basis: tuple[BitVector, ...]
    Kstar_basis: tuple[BitVector, ...]
    Rstar_basis: tuple[BitVector, ...]
    range_dim: int
    support_bits: int
    _dual_basis: tuple[int, ...] = field(repr=False, compare=False)
    _range_basis: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def l(self) -> int:
        return self.matrix.l

    def vector_to_coords(self, x: BitVector) -> BitVector:
        """Coordinates in the R basis of the R-component of x."""
        if x.n != self.l:
            raise DimensionMismatch(f"vector has {x.n} bits, projector {self.l}")
        return BitVector(self.range_dim, self._coord_bits(x.bits))

    def _coord_bits(self, bits: int) -> int:
        return gf2._parities(bits, self._dual_basis)

    def range_vectors(self) -> list[int]:
        """Every vector of R packed as an int, indexed by its coordinates."""
        return _span(self._range_basis)

    def coords_to_vector(self, w) -> BitVector:
        bits = (w.bits if isinstance(w, BitVector) else int(w)) & ((1 << self.range_dim) - 1)
        return BitVector(self.l, gf2._combine(self._range_basis, bits))

    def apply(self, x: BitVector) -> BitVector:
        return gf2.mat_vec(self.matrix, x)


def make_projector(M: BinaryMatrix) -> Projector:
    """Validate idempotence and compute the four subspace bases."""
    if M.n != M.l:
        raise DimensionMismatch(f"projector must be square, got {M.n}x{M.l}")
    if gf2.mat_mul(M, M) != M:
        raise NotIdempotent("matrix is not idempotent")
    l = M.l
    transposed = gf2.transpose(M)
    # K and Kstar are the ranges of the complementary projector I + M and
    # of its transpose: the spans of its columns and of its rows
    K = gf2._rref(c ^ (1 << (l - 1 - j)) for j, c in enumerate(transposed.bits))
    R = gf2._rref(transposed.bits)
    Kstar = gf2._rref(r ^ (1 << (l - 1 - i)) for i, r in enumerate(M.bits))
    Rstar = gf2._rref(M.bits)
    support = sum(1 for col in transposed.bits if col)
    # M fixes R, so row c of M pairs with R_i as coordinate c of R_i; at
    # the leading bit of R_j the reduced basis R has the identity, so that
    # row of M (a vector of Rstar) is D_j
    dual = tuple(M.bits[l - r.bit_length()] for r in R)
    return Projector(
        matrix=M,
        K_basis=tuple(BitVector(l, v) for v in K),
        R_basis=tuple(BitVector(l, v) for v in R),
        Kstar_basis=tuple(BitVector(l, v) for v in Kstar),
        Rstar_basis=tuple(BitVector(l, v) for v in Rstar),
        range_dim=len(R),
        support_bits=support,
        _dual_basis=dual,
        _range_basis=tuple(R),
    )


def diagonal_projector(mask: BitVector) -> Projector:
    """Projector keeping exactly the bits set in mask."""
    l = mask.n
    rows = tuple(mask.bits & (1 << (l - 1 - j)) for j in range(l))
    return make_projector(BinaryMatrix(l, l, rows))


def _span(basis: Sequence[int]) -> list[int]:
    """Every combination of the packed basis; bit k of an index picks
    basis[-1 - k], so the first vector is the top bit."""
    span = [0]
    for base in reversed(basis):
        span += [s ^ base for s in span]
    return span


def _dual_range(proj: Projector) -> list[BitVector]:
    """Every vector s_v = sum_j v_j D_j of Rstar, indexed by v."""
    return [BitVector(proj.l, s) for s in _span(proj._dual_basis)]


def _range_transform(proj: Projector, betas: Sequence[float]) -> Distribution:
    """Assemble the marginal from one coefficient per dual-range vector.

    betas[v] is the correlation for s_v of _dual_range. s_v pairs with
    the R basis to the coordinates v, so the standard transform over v
    produces P[x] = 2^-q sum_v (-1)^(x.v) beta(s_v).
    """
    values = np.array(betas, dtype=float)
    walsh_hadamard(values)
    values /= len(values)
    return Distribution(proj.range_dim, values)


def _beta_loop(prog: XProgram, proj: Projector) -> Distribution:
    """One correlation coefficient per dual-range vector, all from one
    batch, then one transform."""
    return _range_transform(proj, xprogram.betas(prog, _dual_range(proj)))


def _push_forward(prog: XProgram, proj: Projector) -> Distribution:
    """The mean of the sampler's conditionals over the dual kernel Kstar.

    One sweep over the whole space: the dual basis D in the high index
    bits, whose levels are transformed, and Kstar in the low ones, whose
    squares are summed. Kstar pairs non-degenerately with the fibre K,
    so by Parseval over K the mean is the marginal exactly.
    """
    # bit b of the high index bits picks D_{q-1-b}, as in the conditionals
    basis = [k.bits for k in proj.Kstar_basis] + list(reversed(proj._dual_basis))
    sweep = xprogram._CosetSweep(prog.P, basis)
    probs = xprogram._sweep_probabilities(sweep, 0, prog.theta, proj.range_dim)
    return Distribution(proj.range_dim, probs)


def _quarter_turn_coords(prog: XProgram, proj: Projector) -> tuple[int, list[int]]:
    """clifford._quarter_turn_law in R coordinates: m(X) is uniform on the
    image of the law, and the coordinates are linear."""
    offset, directions = clifford._quarter_turn_law(prog.P, prog.theta.fourth_root_index)
    return proj._coord_bits(offset), [proj._coord_bits(d) for d in directions]


def _quarter_turn_image(prog: XProgram, proj: Projector) -> Distribution:
    """Uniform law on the image under m of the quarter-turn law: a linear
    image of a uniform affine law is uniform on the image, here 2^k points."""
    offset, directions = _quarter_turn_coords(prog, proj)
    pivots = gf2._eliminate(directions, {})
    k = len(pivots)
    points = codes._enumeration_table(list(pivots.values()))
    points ^= np.uint64(offset)
    values = np.zeros(1 << proj.range_dim)
    values[points.astype(np.intp)] = math.ldexp(1.0, -k)
    return Distribution(proj.range_dim, values)


_EVALUATORS = {
    "image": _quarter_turn_image,
    "push": _push_forward,
    "beta": _beta_loop,
}


def _choose_evaluator(prog: XProgram, proj: Projector) -> str:
    """The evaluator with the least work, a pure function of the shapes.

    The push-forward is counted as l levels over 2^l outcomes. It
    transforms the q range levels and weighs the codewords at one level
    per uint64 lane of the rows, or, once the lanes outnumber the l
    levels, by one pass over the rows and a transform of their
    histogram, so its work stays within twice the count plus that pass.
    The image builds the support from the Gram matrix of the l columns
    over the n rows, and the beta loop makes 2^q calls that each scan
    the rows and columns once. Raises BudgetExceeded when even the least
    work passes _MARGINAL_WORK_LIMIT, before any evaluator starts.
    """
    n, l, q = prog.n, prog.l, proj.range_dim
    work = {"beta": (1 << q) * (_BETA_CALL_WORK + n + l)}
    if l <= xprogram.DEFAULT_DOMAIN_LIMIT:
        work["push"] = l << l
    if prog.theta.is_fourth_root:
        work["image"] = l * l + n * l
    choice = min(work, key=work.get)
    if work[choice] > _MARGINAL_WORK_LIMIT:
        raise BudgetExceeded(
            f"marginal work {work[choice]} exceeds the limit {_MARGINAL_WORK_LIMIT}"
        )
    return choice


def _check(prog: XProgram, proj: Projector, range_limit: int) -> None:
    if proj.l != prog.l:
        raise DimensionMismatch("projector size differs from program width")
    if proj.range_dim > range_limit:
        raise RangeTooLarge(
            f"range dimension {proj.range_dim} exceeds the limit {range_limit}"
        )


def marginal_distribution(
    prog: XProgram,
    proj: Projector,
    *,
    threads: int | None = None,
    range_limit: int = DEFAULT_RANGE_LIMIT,
) -> Distribution:
    """Exact marginal of m(X) over the range of the projector.

    The evaluator is the one with the least work by _choose_evaluator; all
    three give the same law, exactly at multiples of pi/4. threads is
    accepted for compatibility and ignored, here and in the other
    marginal entry points.
    """
    _check(prog, proj, range_limit)
    return _EVALUATORS[_choose_evaluator(prog, proj)](prog, proj)


def marginal_pi8(
    P: BinaryMatrix,
    proj: Projector,
    *,
    threads: int | None = None,
    range_limit: int = PI8_RANGE_LIMIT,
) -> Distribution:
    """Marginal at angle pi/8 by the dispatched engine, with a wider
    range limit.

    The doubled angle is pi/4, so when the engine picks the beta loop
    every coefficient is an exact fourth-root Gauss sum, polynomial in
    the matrix size, read off the program's own code: one elimination of
    its columns serves all 2^q coefficients. For l up to the domain
    limit the engine may instead pick the push-forward's single sweep.
    """
    prog = XProgram(P, Angle.exact(1, 8))
    return marginal_distribution(prog, proj, range_limit=range_limit)


def marginal_sparse(
    prog: XProgram,
    proj: Projector,
    column_bound: int,
    *,
    threads: int | None = None,
    range_limit: int = DEFAULT_RANGE_LIMIT,
) -> Distribution:
    """Marginal for column-sparse matrices, any angle.

    Checks that every column weight is at most column_bound, then runs
    the dispatched engine. When that is the beta loop and s is supported
    on few bits, the affinified matrix for s has at most
    column_bound * |s| rows, so each coefficient enumerates a tiny code.
    """
    for j, w in enumerate(prog.P.column_weights()):
        if w > column_bound:
            raise ColumnBoundViolated(
                f"column {j} has weight {w}, bound is {column_bound}"
            )
    return marginal_distribution(prog, proj, range_limit=range_limit)


def _graphic_beta(P: BinaryMatrix, s: BitVector, phi: float) -> float:
    """Closed-form correlation when every row has weight at most two.

    Rows odd against s each contain exactly one hub bit (a set bit of s)
    plus at most one partner bit outside s. Fixing the hub parities,
    partner bits integrate to cosines and bare hubs to a pure phase; the
    average over hub assignments is the coefficient.
    """
    # hub i is the i-th set bit of s from the top, signed by bit i of an assignment
    hubs = [1 << b for b in reversed(range(s.n)) if s.bits >> b & 1]
    slot = {h: i for i, h in enumerate(hubs)}
    bare = [0] * len(hubs)
    partner: dict[int, list[int]] = {}
    for row in codes.affinify(P, s).bits:
        i = slot[row & s.bits]
        rest = row & ~s.bits
        if rest == 0:
            bare[i] += 1
        else:
            partner.setdefault(rest, [0] * len(hubs))[i] += 1
    total = 0j
    for assignment in range(1 << len(hubs)):
        signs = [1 - 2 * ((assignment >> i) & 1) for i in range(len(hubs))]
        w0 = sum(sg * b for sg, b in zip(signs, bare))
        term = cmath.exp(1j * phi * w0)
        for counts in partner.values():
            term *= math.cos(phi * sum(sg * c for sg, c in zip(signs, counts)))
        total += term
    value = total / (1 << len(hubs))
    if abs(value.imag) > xprogram.IMAG_TOLERANCE:
        raise NumericalInconsistency(f"correlation has imaginary part {value.imag}")
    return float(value.real)


def marginal_graphic(
    prog: XProgram,
    proj: Projector,
    *,
    threads: int | None = None,
) -> Distribution:
    """Marginal for weight-<=2 rows and a projector on at most two bits."""
    if proj.l != prog.l:
        raise DimensionMismatch("projector size differs from program width")
    for i, w in enumerate(prog.P.row_weights()):
        if w > 2:
            raise RowWeightViolated(f"row {i} has weight {w}, bound is 2")
    if proj.support_bits > 2:
        raise SupportTooLarge(
            f"projector touches {proj.support_bits} bits, bound is 2"
        )
    phi = prog.theta.doubled().value
    betas = [1.0 if s.is_zero() else _graphic_beta(prog.P, s, phi) for s in _dual_range(proj)]
    return _range_transform(proj, betas)


class MarginalSampler:
    """Draws masked outputs one at a time.

    At multiples of pi/4 a draw is one uniform point of clifford's
    quarter-turn law in R coordinates, read on the first draw and kept;
    no conditional is built. Either way a draw is an R-coordinate index.

    At other angles each draw takes a fresh dual shift. For a shift k in
    Kstar the conditional probability of outcome x is the squared
    magnitude of an average of unit phases over the dual range. The
    phase at s_v = sum_j v_j D_j has exponent n - 2|P(k + s_v)|, read
    from the weight of a codeword, so a conditional costs one sweep of
    2^q words (or, past 64 q rows, one pass over the rows) and one
    transform of length 2^q. The average over shifts
    reproduces the marginal exactly (the push-forward computes it so),
    so sampling a uniform shift then the conditional outcome samples the
    marginal. The CDFs of the first shifts drawn are kept, _CACHE_FLOATS
    >> q of them, so the memory stays fixed however many draws are made.
    conditional(shift) answers at every angle.
    """

    def __init__(
        self,
        prog: XProgram,
        proj: Projector,
        rng: Random | None = None,
        *,
        range_limit: int = DEFAULT_RANGE_LIMIT,
    ):
        _check(prog, proj, range_limit)
        self.prog = prog
        self.proj = proj
        self.rng = rng if rng is not None else Random()
        self._quarter_turn = prog.theta.is_fourth_root
        self._cdfs: dict[int, np.ndarray] = {}
        # each built on first use by the path that reads it, as a plain
        # attribute: a cached_property writes through __dict__, and that
        # made every later draw slower (2.3 -> 2.6 us from a cached CDF, Python 3.11)
        self._sweep: xprogram._CosetSweep | None = None
        self._shifts: list[int] | None = None
        self._law: tuple[int, list[int]] | None = None

    def conditional(self, shift) -> np.ndarray:
        """Conditional probability vector for one dual-kernel shift."""
        bits = shift.bits if isinstance(shift, BitVector) else int(shift)
        if self._sweep is None:  # bit b of an index picks D_{q-1-b}
            self._sweep = xprogram._CosetSweep(self.prog.P, self.proj._dual_basis[::-1])
        probs = xprogram._sweep_probabilities(
            self._sweep, bits, self.prog.theta, self.proj.range_dim
        )
        xprogram._check_total(float(probs.sum()), "conditional sums to")
        return probs

    def sample(self) -> BitVector:
        """One masked output, as a full-width vector in the range of m."""
        if self._quarter_turn:
            if self._law is None:
                self._law = _quarter_turn_coords(self.prog, self.proj)
            ix = clifford._affine_draw(*self._law, self.rng)
        else:
            if self._shifts is None:  # bit j of a draw picks Kstar_basis[j]
                self._shifts = [k.bits for k in reversed(self.proj.Kstar_basis)]
            shift = gf2._combine(self._shifts, self.rng.getrandbits(len(self._shifts)))
            cdf = self._cdfs.get(shift)
            if cdf is None:
                cdf = np.cumsum(self.conditional(shift))
                if len(self._cdfs) < _CACHE_FLOATS >> self.proj.range_dim:
                    self._cdfs[shift] = cdf
            ix = min(bisect_left(cdf, self.rng.random()), len(cdf) - 1)
        return self.proj.coords_to_vector(ix)


def sample_marginal(prog: XProgram, proj: Projector, rng: Random) -> BitVector:
    """Single draw from the marginal of m(X)."""
    return MarginalSampler(prog, proj, rng).sample()
