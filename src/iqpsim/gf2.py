"""Bit-packed linear algebra over GF(2).

Vectors are stored as Python integers, one bit per coordinate, so row
operations are word-parallel XOR, AND and popcount at any length.
Coordinate 0 is the leftmost character of a vector's string form and the
most significant packed bit. Comparing two packed values of equal length
as integers is therefore the same as comparing their string forms left
to right, which is the tie-break order used by row projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "BitVector",
    "BinaryMatrix",
    "EchelonForm",
    "rank",
    "echelon_reduce",
    "kernel",
    "mat_mul",
    "mat_vec",
    "transpose",
    "span_rref",
    "solve",
    "inverse",
]


# bit t of byte value v at [v, t]
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")


def _lanes(values: Sequence[int], width: int) -> np.ndarray:
    """Packed words of up to width bits as rows of little-endian uint64
    lanes, the lowest lane first, so a row's byte view holds its bytes
    lowest first. The one place that packed ints become numpy words."""
    lanes = max(1, (width + 63) // 64)
    if lanes == 1:
        return np.fromiter(values, dtype="<u8", count=len(values)).reshape(-1, 1)
    data = b"".join(v.to_bytes(8 * lanes, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), lanes)


@dataclass(frozen=True)
class BitVector:
    """Immutable vector over GF(2).

    Attributes:
        n: number of coordinates.
        bits: packed storage; coordinate i sits at integer bit n - 1 - i.
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vector length must be nonnegative")
        if self.bits < 0 or self.bits.bit_length() > self.n:
            raise ValueError("packed bits exceed the declared length")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parses a 0/1 string, leftmost character first."""
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(len(text), int(text, 2) if text else 0)

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "BitVector":
        bits = 0
        count = 0
        for v in values:
            bits = (bits << 1) | (1 if v else 0)
            count += 1
        return cls(count, bits)

    @classmethod
    def unit(cls, n: int, i: int) -> "BitVector":
        """Standard basis vector with a single 1 at coordinate i."""
        if not 0 <= i < n:
            raise ValueError("unit coordinate out of range")
        return cls(n, 1 << (n - 1 - i))

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError("coordinate out of range")
        return (self.bits >> (self.n - 1 - i)) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def dot(self, other: "BitVector") -> int:
        if self.n != other.n:
            raise DimensionMismatch("dot product of different lengths")
        return (self.bits & other.bits).bit_count() & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionMismatch("xor of different lengths")
        return BitVector(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionMismatch("and of different lengths")
        return BitVector(self.n, self.bits & other.bits)

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n}b") if self.n else ""

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class BinaryMatrix:
    """Matrix over GF(2) held as a tuple of packed rows.

    Attributes:
        n: row count.
        l: column count.
        bits: the rows packed like BitVector.bits, each in [0, 2^l).
    """

    n: int
    l: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n != len(self.bits):
            raise ValueError("row count does not match the rows given")
        if self.l < 0:
            raise ValueError("column count must be nonnegative")
        if self.bits and (min(self.bits) < 0 or max(self.bits) >> self.l):
            raise ValueError("row bits exceed the column count")

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BinaryMatrix":
        rows = [BitVector.from_string(line) for line in lines]
        return cls.from_rows(rows[0].n if rows else 0, rows)

    @classmethod
    def from_rows(cls, l: int, rows: Iterable[BitVector]) -> "BinaryMatrix":
        rows = tuple(rows)
        if any(row.n != l for row in rows):
            raise ValueError("row length does not match the column count")
        return cls(len(rows), l, tuple(row.bits for row in rows))

    @classmethod
    def zeros(cls, n: int, l: int) -> "BinaryMatrix":
        return cls(n, l, (0,) * n)

    @classmethod
    def identity(cls, l: int) -> "BinaryMatrix":
        return cls(l, l, tuple(1 << (l - 1 - i) for i in range(l)))

    @property
    def rows(self) -> tuple[BitVector, ...]:
        """The rows as BitVectors, built on each access."""
        return tuple(BitVector(self.l, b) for b in self.bits)

    def row(self, i: int) -> BitVector:
        return BitVector(self.l, self.bits[i])

    def row_weights(self) -> list[int]:
        return [b.bit_count() for b in self.bits]

    def column_weights(self) -> list[int]:
        # one byte histogram per byte of the rows; a column's weight sums
        # the histogram over the byte values holding it
        octets = _lanes(self.bits, self.l).view(np.uint8)
        weights: list[int] = []  # by packed bit, lowest first
        for c in range((self.l + 7) // 8):
            weights += (np.bincount(octets[:, c], minlength=256) @ _BYTE_BITS).tolist()
        return weights[self.l - 1 :: -1]

    def to_strings(self) -> list[str]:
        # a leading 1 pads each row to l + 1 digits and is cut off again
        return [format(b | 1 << self.l, "b")[1:] for b in self.bits]


def _eliminate(
    vectors: Iterable[int],
    pivots: dict[int, int],
    tag_bits: int = 0,
    residues: list[int] | None = None,
    *,
    grow: bool = True,
) -> dict[int, int]:
    """Reduces packed vectors against pivots, keeping each new pivot.

    pivots maps a leading bit to the one pivot row with that leading bit
    and grows in place, in insertion order. The lowest tag_bits bits of
    every vector are a companion tag: they ride along in every xor but
    are never pivoted on, so a tag records how its vector was combined.
    When residues is a list, each vector's final value is appended: the
    new pivot row, or the tag left over from a dependent vector. With
    grow false the pivots stay as they are, and a vector that meets no
    pivot stops there, its residue above the tag bits nonzero.
    """
    floor = 1 << tag_bits
    get = pivots.get
    for w in vectors:
        while w >= floor:
            top = w.bit_length() - 1
            b = get(top)
            if b is None:
                if grow:
                    pivots[top] = w
                break
            w ^= b
        if residues is not None:
            residues.append(w)
    return pivots


def _back_substitute(pivots: dict[int, int]) -> list[tuple[int, int]]:
    """Clears every pivot row's leading bit from all other pivot rows.

    Works in place and returns the (leading bit, row) pairs by descending
    leading bit: the reduced row echelon form, tags included.
    """
    tops = sorted(pivots)
    for i, p in enumerate(tops):
        b = pivots[p]
        bit = 1 << p
        for q in tops[i + 1 :]:
            if pivots[q] & bit:
                pivots[q] ^= b
    return [(p, pivots[p]) for p in reversed(tops)]


def rank(M: BinaryMatrix) -> int:
    """Dimension of the row space of M."""
    return len(_eliminate(M.bits, {}))


def _rref(vectors: Iterable[int]) -> list[int]:
    """Canonical reduced basis of the span, by descending leading bit."""
    return [v for _, v in _back_substitute(_eliminate(vectors, {}))]


def _row_tags(n: int) -> list[int]:
    # tag of input row i, one bit per row in display order
    return [1 << (n - 1 - i) for i in range(n)]


def _tagged(vectors: Sequence[int]) -> tuple[dict[int, int], list[int]]:
    """Eliminates the vectors, each tagged with its own bit of _row_tags.

    Returns the pivots, each holding the tags of the vectors it sums, and
    a basis of the circuit space {d : sum_i d_i vectors[i] = 0}: the tags
    left on the dependent vectors, vectors[0] at the top bit.
    """
    n = len(vectors)
    residues: list[int] = []
    tagged = [(v << n) | 1 << (n - 1 - i) for i, v in enumerate(vectors)]
    pivots = _eliminate(tagged, {}, n, residues)
    return pivots, [w for w in residues if not w >> n]


def _circuits(rows: Sequence[int]) -> list[int]:
    """A basis of the circuit space of the rows, as _tagged gives it."""
    return _tagged(rows)[1]


@dataclass(frozen=True)
class EchelonForm:
    """Gaussian elimination of a matrix's rows against its own first
    independent rows.

    col_map holds the chosen basis rows in ascending input order, and
    reduced holds each input row's coefficients in that basis, so the
    input equals reduced * col_map exactly and the reduced matrix
    restricted to basis_rows is the identity.
    """

    reduced: BinaryMatrix
    basis_rows: tuple[int, ...]
    col_map: BinaryMatrix
    # pivot rows tagged with the input rows they combine
    _pivots: tuple[tuple[int, int], ...] = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.basis_rows)

    def primal_map(self, x: BitVector) -> BitVector:
        """Coefficients of x in the chosen basis rows.

        Raises:
            ValueError: if x lies outside the row space.
        """
        if x.n != self.col_map.l:
            raise DimensionMismatch("vector length does not match the matrix")
        n = self.reduced.n
        residue: list[int] = []
        _eliminate([x.bits << n], dict(self._pivots), n, residue)
        if residue[0] >> n:
            raise ValueError("vector is outside the row space")
        basis_tags = [1 << (n - 1 - i) for i in self.basis_rows]
        return BitVector(self.rank, _parities(residue[0], basis_tags))

    def dual_map(self, s: BitVector) -> BitVector:
        """Image of a functional s under restriction to the basis rows."""
        if s.n != self.col_map.l:
            raise DimensionMismatch("functional length does not match the matrix")
        return mat_vec(self.col_map, s)


def echelon_reduce(M: BinaryMatrix) -> EchelonForm:
    """Reduces M against its first linearly independent rows.

    Basis rows are chosen greedily by ascending row index, which makes the
    result deterministic. Dependent rows come out as their unique
    coefficient vectors over the chosen basis.
    """
    n = M.n
    tags = _row_tags(n)
    residues: list[int] = []
    pivots = _eliminate([(b << n) | t for b, t in zip(M.bits, tags)], {}, n, residues)
    basis_rows = tuple(i for i, w in enumerate(residues) if w >> n)
    r = len(basis_rows)
    # a basis row is its own tag; a dependent row leaves a tag holding its
    # own bit plus those of the basis rows that sum to it
    combos = (t if w >> n else w ^ t for w, t in zip(residues, tags))
    basis_tags = [tags[i] for i in basis_rows]
    reduced = BinaryMatrix(n, r, tuple(_parities(c, basis_tags) for c in combos))
    col_map = BinaryMatrix(r, M.l, tuple(M.bits[i] for i in basis_rows))
    return EchelonForm(reduced, basis_rows, col_map, tuple(pivots.items()))


def span_rref(vectors: Iterable[BitVector], length: int) -> list[BitVector]:
    """Canonical reduced basis of the span, ordered by leading coordinate."""
    bits = []
    for vec in vectors:
        if vec.n != length:
            raise DimensionMismatch("vector length does not match the span")
        bits.append(vec.bits)
    return [BitVector(length, v) for v in _rref(bits)]


def kernel(M: BinaryMatrix) -> list[BitVector]:
    """Canonical basis of the right null space {v : M v = 0}."""
    rref = _back_substitute(_eliminate(M.bits, {}))
    taken = {p for p, _ in rref}
    basis = []
    for f in range(M.l):
        if f in taken:
            continue
        v = 1 << f
        for p, b in rref:
            if (b >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return [BitVector(M.l, v) for v in _rref(basis)]


def _combine(rows: Sequence[int], bits: int) -> int:
    """Xor of the rows picked by bits < 2^len(rows), rows[0] by the top bit."""
    top = len(rows)
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[top - low.bit_length()]
        bits ^= low
    return acc


def _parities(v: int, masks: Sequence[int]) -> int:
    """Parities of v against each mask, packed with masks[0] at the top bit."""
    bits = 0
    for m in masks:
        bits = (bits << 1) | ((v & m).bit_count() & 1)
    return bits


def mat_mul(A: BinaryMatrix, B: BinaryMatrix) -> BinaryMatrix:
    """GF(2) matrix product A * B."""
    if A.l != B.n:
        raise DimensionMismatch(f"cannot multiply {A.n}x{A.l} by {B.n}x{B.l}")
    return BinaryMatrix(A.n, B.l, tuple(_combine(B.bits, v) for v in A.bits))


def mat_vec(A: BinaryMatrix, v: BitVector) -> BitVector:
    """GF(2) matrix-vector product A * v."""
    if v.n != A.l:
        raise DimensionMismatch(f"cannot apply {A.n}x{A.l} to a length-{v.n} vector")
    return BitVector(A.n, _parities(v.bits, A.bits))


def transpose(M: BinaryMatrix) -> BinaryMatrix:
    """Transpose; the rows of the result are the columns of M."""
    n, l = M.n, M.l
    if n * l >= 256:
        # unpack the bytes that hold bits, byte p of every row side by side,
        # into a bit matrix with [t, i] packed bit t of row i, each t one
        # contiguous row; column j is packed bit l - 1 - j, and its row
        # packs big-endian, row i at bit n - 1 - i once the padding is cut
        octets = _lanes(M.bits, l).view(np.uint8)[:, : (l + 7) // 8]
        bits = np.unpackbits(np.ascontiguousarray(octets.T), axis=0, bitorder="little")
        packed = np.packbits(bits[l - 1 :: -1], axis=1).tobytes()
        stride = (n + 7) // 8
        pad = 8 * stride - n
        cols = tuple(
            int.from_bytes(packed[j * stride : (j + 1) * stride], "big") >> pad for j in range(l)
        )
        return BinaryMatrix(l, n, cols)
    cols = [0] * l
    for i, v in enumerate(M.bits):
        mark = 1 << (n - 1 - i)
        while v:
            low = v & -v
            cols[l - low.bit_length()] |= mark
            v ^= low
    return BinaryMatrix(l, n, tuple(cols))


def solve(A: BinaryMatrix, b: BitVector) -> BitVector | None:
    """One solution x of A x = b, or None when the system is inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if b.n != A.n:
        raise DimensionMismatch("right hand side length does not match the rows")
    # each row carries its right-hand-side bit as a one-bit tag
    residues: list[int] = []
    pivots = _eliminate(
        [(row << 1) | b.get(i) for i, row in enumerate(A.bits)], {}, 1, residues
    )
    if 1 in residues:  # some row reduced to the equation 0 = 1
        return None
    x = 0
    for top, w in _back_substitute(pivots):
        x |= (w & 1) << (top - 1)
    return BitVector(A.l, x)


def inverse(M: BinaryMatrix) -> BinaryMatrix:
    """Inverse of a square invertible matrix.

    Raises:
        ValueError: if M is not square or not invertible.
    """
    if M.n != M.l:
        raise ValueError("only square matrices can be inverted")
    l = M.l
    # each row carries its row of the identity as a tag; once the rows
    # reduce to the identity, the tags are the inverse
    pivots = _tagged(M.bits)[0]
    if len(pivots) < l:
        raise ValueError("matrix is singular")
    return BinaryMatrix(l, l, tuple(t & ((1 << l) - 1) for _, t in _back_substitute(pivots)))
