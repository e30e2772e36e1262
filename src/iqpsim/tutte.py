"""Tutte polynomial of the row matroid of a GF(2) matrix.

Two independent evaluators. One deletion and contraction recursion over
parallel classes, memoized on canonicalized minors, evaluates T at a
point; the Greene identity turns its values into the alpha scalar. The
whole polynomial comes from the corank-nullity sum instead: for the
distinct rows that lie in circuits, 2^nullity(A) counts the words of the
circuit space C-perp inside A, so one zeta (subset-sum) transform of
C-perp's indicator gives every nullity (Bjorklund, Husfeldt, Kaski and
Koivisto, FOCS 2008). Zero rows and coloop classes give closed-form
factors, parallel classes enter as multiplicities, and the transform runs
on M or its dual M*, whichever has fewer classes left. Evaluated once at
large enough powers of two, the sum is an integer whose digits are the
coefficients. A closed-form product covers star multigraphs.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Sequence

import numpy as np

from . import codes, gf2
from .errors import BudgetExceeded, NumericalInconsistency, TooManyRows
from .codes import Angle
from .gf2 import BinaryMatrix

__all__ = [
    "TuttePolynomial",
    "tutte_subset_sum",
    "tutte_eval",
    "greene_alpha",
    "star_tutte",
    "DEFAULT_ROW_LIMIT",
    "DEFAULT_MEMO_LIMIT",
]

DEFAULT_ROW_LIMIT = 20
DEFAULT_MEMO_LIMIT = 500_000
# recursion depth the frame chain does not show: the calls a level makes
# (split, canonical key, separator factor) and the C calls of the callers,
# which the interpreter counts too
_FRAME_MARGIN = 32


class TuttePolynomial:
    """Integer polynomial in x and y, stored sparsely by degree pair."""

    def __init__(self, coefficients: dict[tuple[int, int], int] | None = None):
        self._c = {k: int(v) for k, v in (coefficients or {}).items() if v}

    @classmethod
    def monomial(cls, i: int, j: int, coefficient: int = 1) -> "TuttePolynomial":
        return cls({(i, j): coefficient})

    def coefficient(self, i: int, j: int) -> int:
        return self._c.get((i, j), 0)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._c.items())

    def __add__(self, other: "TuttePolynomial") -> "TuttePolynomial":
        out = dict(self._c)
        for k, v in other._c.items():
            out[k] = out.get(k, 0) + v
        return TuttePolynomial(out)

    def __mul__(self, other: "TuttePolynomial") -> "TuttePolynomial":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), v1 in self._c.items():
            for (i2, j2), v2 in other._c.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
        return TuttePolynomial(out)

    def __pow__(self, k: int) -> "TuttePolynomial":
        out = TuttePolynomial({(0, 0): 1})
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TuttePolynomial) and self._c == other._c

    def evaluate(self, x, y):
        total = 0
        for (i, j), v in self._c.items():
            total += v * x**i * y**j
        return total

    def basis_count(self) -> int:
        """Number of bases of the matroid, the evaluation at (1, 1)."""
        return sum(self._c.values())

    def to_text(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for (i, j), v in sorted(self._c.items(), reverse=True):
            factors = [] if v == 1 and (i or j) else [str(v)]
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            parts.append(" ".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TuttePolynomial({self.to_text()})"


def _check_nonnegative(poly: TuttePolynomial) -> TuttePolynomial:
    if any(v < 0 for _, v in poly.items()):
        raise NumericalInconsistency("negative Tutte coefficient")
    return poly


def tutte_subset_sum(
    P: BinaryMatrix, *, row_limit: int = DEFAULT_ROW_LIMIT
) -> TuttePolynomial:
    """Exact Tutte polynomial, read off one exact integer value.

    Every coefficient is at most the basis count, below 2^n, and every
    degree is at most n. So at y = 2^(n+1) and x = y^(n+1) the value
    holds the coefficient of x^i y^j as digit i (n+1) + j in base 2^(n+1).
    The value comes from the corank-nullity histogram of M or of its dual
    M*, whichever leaves fewer classes to transform (see _side_value);
    T(M; x, y) = T(M*; y, x).

    Raises:
        TooManyRows: when the row count exceeds row_limit.
    """
    if P.n > row_limit:
        raise TooManyRows(f"{P.n} rows exceed the subset-sum limit {row_limit}")
    shift = P.n + 1
    y = 1 << shift
    x = y << (shift * shift - shift)
    side, at = _split(P.bits), (x, y)
    if side[2]:  # M* can leave fewer classes only where M leaves some
        # M* is the row matroid of the matrix whose columns span the circuit space
        circuits = gf2._circuits(P.bits)
        dual = _split(gf2.transpose(BinaryMatrix(len(circuits), P.n, tuple(circuits))).bits)
        if len(dual[2]) < len(side[2]):
            side, at = dual, (y, x)
    value = _side_value(side, *at)
    mask = (1 << shift) - 1
    digits = {divmod(k, shift): (value >> (k * shift)) & mask for k in range(shift * shift)}
    return _check_nonnegative(TuttePolynomial(digits))


def _split(rows: Sequence[int]) -> tuple[int, list[int], dict[int, int]]:
    """The zero-row count, the sizes of the classes of parallel coloops,
    and the distinct rows that lie in some circuit, in the order they
    first occur, each with its class size.

    A coloop is a row in no circuit, and the circuit-space basis of the
    distinct rows shows them all at once.
    """
    sizes: dict[int, int] = {}
    for v in rows:
        sizes[v] = sizes.get(v, 0) + 1
    loops = sizes.pop(0, 0)
    distinct = list(sizes)
    in_circuit = 0
    for w in gf2._circuits(distinct):
        in_circuit |= w
    coloops = []
    tag = 1 << len(distinct)
    for v in distinct:
        tag >>= 1
        if not in_circuit & tag:
            coloops.append(sizes.pop(v))
    return loops, coloops, sizes


def _series(first, y, k: int):
    # first + y + ... + y^(k-1), by products: y ** j raises OverflowError
    # on complex values where this gives inf
    total, power = first, y**0
    for _ in range(k - 1):
        power = power * y
        total = total + power
    return total


def _separators(loops: int, coloops: list[int], x, y):
    """y^loops prod_k (x + y + ... + y^(k-1)), k over the coloop class
    sizes: the factor of the separators a split finds."""
    # y^loops by squaring, in the order complex ** takes for k <= 100, so
    # the values agree bit for bit; an overflow gives inf, never raises
    factor, square = y**0, y
    while loops:
        if loops & 1:
            factor = factor * square
        square = square * square
        loops >>= 1
    for k in coloops:
        factor = factor * _series(x, y, k)
    return factor


def _zeta(values: np.ndarray) -> np.ndarray:
    """In place, values[S] becomes the sum of values[T] over T inside S."""
    for i in range(values.size.bit_length() - 1):
        half = values.reshape(-1, 2, 1 << i)
        if i < 4:  # numpy is slow on rows this short; a strided column at a time is not
            for j in range(1 << i):
                half[:, 1, j] += half[:, 0, j]
        else:
            half[:, 1] += half[:, 0]
    return values


def _side_value(parts: tuple, x: int, y: int) -> int:
    """T(x, y) of one side, split as _split returns it.

    Zero rows and coloop classes give _separators' factor. For the m
    distinct rows left, each in a circuit, 2^nullity(S) counts the
    circuit-space words inside the class set S, so one zeta transform of
    length 2^m of the space's indicator gives every nullity. Summing the
    rows of k-row classes gives (y^k - 1) = (y - 1)(1 + ... + y^(k-1)) per
    touched class, so
    T = sum_S (x-1)^(r - |S| + nu(S)) (y-1)^nu(S) prod_(i in S) [k_i]_y,
    summed by a histogram over nu(S) and the touched classes of each size.
    """
    loops, coloops, sizes = parts
    value = _separators(loops, coloops, x, y)
    m = len(sizes)
    if not m:
        return value
    circuits = gf2._circuits(list(sizes))
    indicator = np.zeros(1 << m, dtype=np.uint32)
    indicator[codes._enumeration_table(circuits)] = 1
    # histogram key of S: its nullity, then how many classes of each size it
    # touches, in mixed radix; the class part is filled in by doubling
    classes = list(sizes.values())
    groups = sorted(set(classes))
    counts = [classes.count(k) for k in groups]
    place = [m + 1]
    for count in counts:
        place.append(place[-1] * (count + 1))
    key = np.empty(1 << m, dtype=np.intp)
    key[0] = 0
    for i, k in enumerate(reversed(classes)):  # circuit words hold rows[0] at the top
        np.add(key[: 1 << i], place[groups.index(k)], out=key[1 << i : 2 << i])
    key += np.bitwise_count(_zeta(indicator) - 1)
    histogram = np.bincount(key, minlength=place[-1])
    rank = m - len(circuits)
    repunits = [_series(y**0, y, k) for k in groups]
    total = 0
    for code, count in enumerate(histogram.tolist()):
        if not count:
            continue
        rest, nu = divmod(code, m + 1)
        term, touched = count * (y - 1) ** nu, 0
        for repunit, classes in zip(repunits, counts):
            rest, c = divmod(rest, classes + 1)
            term *= repunit**c
            touched += c
        total += term * (x - 1) ** (rank - touched + nu)
    return value * total


def _canonical_key(sizes: dict[int, int]) -> tuple:
    # each distinct row's bits at the span's leading bits, its coordinates in
    # the reduced echelon basis, under its class size; equal keys mean
    # linearly isomorphic multisets
    masks = [1 << top for top in sorted(gf2._eliminate(sizes, {}), reverse=True)]
    r = len(masks)
    return (r, tuple(sorted(k << r | gf2._parities(v, masks) for v, k in sizes.items())))


def _recursion_headroom() -> int:
    """Recursion levels the interpreter's limit leaves below the caller."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return sys.getrecursionlimit() - depth - _FRAME_MARGIN


def tutte_eval(
    P: BinaryMatrix, x, y, *, memo_limit: int = DEFAULT_MEMO_LIMIT
):
    """Tutte polynomial value at (x, y) by deletion and contraction.

    Each minor is taken by parallel classes, split as _split does. Its
    zero rows and coloop classes give _separators' factor; the rest
    branches on one whole class C of k rows, with e in C, as
    T(M \\ C) + (1 + y + ... + y^(k-1)) T(M/e \\ C).
    The depth is therefore at most the number of distinct rows. Minors
    are memoized under a canonical relabeling so that repeated isomorphic
    minors are evaluated once. Only +, * and ** touch x and y, so the
    same recursion runs on ints, floats and complex values alike.

    The first chain of deletions drops one class that is no coloop per
    level and keeps the rank, so it always reaches a depth of the
    distinct nonzero rows less the rank; that is checked against the
    interpreter's recursion limit before the recursion starts.

    Raises:
        BudgetExceeded: when the first deletion chain is deeper than the
            recursion limit allows, or the memo table outgrows memo_limit.
        NumericalInconsistency: when a float or complex value is not finite.
    """
    memo: dict[tuple, complex] = {}

    def evaluate(rows: list[int]):
        loops, coloops, sizes = _split(rows)
        factor = _separators(loops, coloops, x, y)
        if not sizes:
            return factor
        key = _canonical_key(sizes)
        if key not in memo:
            if len(memo) >= memo_limit:
                raise BudgetExceeded(f"minor memo exceeded {memo_limit} entries")
            e = next(iter(sizes))
            deleted = [v for v in rows if v in sizes and v != e]
            pivot = 1 << (e.bit_length() - 1)
            contracted = [v ^ e if v & pivot else v for v in deleted]
            weight = _series(y**0, y, sizes[e])
            memo[key] = evaluate(deleted) + weight * evaluate(contracted)
        return factor * memo[key]

    distinct = set(P.bits) - {0}
    chain = len(distinct) - len(gf2._eliminate(distinct, {}))
    headroom = _recursion_headroom()
    if chain > headroom:
        raise BudgetExceeded(
            f"deletion chain of {chain} levels exceeds the recursion headroom "
            f"of {headroom} levels"
        )
    value = evaluate(list(P.bits))
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise NumericalInconsistency(f"Tutte value {value} is not finite")
    return value


def greene_alpha(
    P: BinaryMatrix, theta: Angle, *, memo_limit: int = DEFAULT_MEMO_LIMIT
) -> complex:
    """The alpha scalar through the Tutte polynomial.

    alpha = e^(i theta (r - n)) i^r sin(theta)^r T(x_t, y_t) with
    x_t = -i cot(theta) and y_t = e^(2 i theta). Angles with vanishing
    sine take the closed form instead.
    """
    n = P.n
    th = theta.value
    if abs(math.sin(th)) < 1e-12:
        # theta is 0 or pi up to float noise
        half_turns = round(th / math.pi)
        return complex(1.0 if (half_turns * n) % 2 == 0 else -1.0)
    r = gf2.rank(P)
    e_plus = cmath.exp(1j * th)
    e_minus = cmath.exp(-1j * th)
    x_t = (e_plus + e_minus) / (e_plus - e_minus)
    y_t = cmath.exp(2j * th)
    t_val = tutte_eval(P, x_t, y_t, memo_limit=memo_limit)
    return cmath.exp(1j * th * (r - n)) * (1j**r) * (math.sin(th) ** r) * t_val


def star_tutte(arm_sizes: tuple[int, ...] | list[int]) -> TuttePolynomial:
    """Tutte polynomial of a star multigraph with the given arm sizes.

    Each arm of a parallel edges contributes the factor
    x + y + y^2 + ... + y^(a-1).
    """
    result = TuttePolynomial({(0, 0): 1})
    for a in arm_sizes:
        if a < 1:
            raise ValueError("arm sizes must be at least 1")
        factor = {(1, 0): 1}
        for t in range(1, a):
            factor[(0, t)] = 1
        result = result * TuttePolynomial(factor)
    return _check_nonnegative(result)
