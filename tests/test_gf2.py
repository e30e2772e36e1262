"""Bit-packed GF(2) linear algebra."""

from random import Random

import numpy as np
import pytest

from iqpsim import codes, gf2
from iqpsim.errors import DimensionMismatch
from iqpsim.gf2 import BinaryMatrix, BitVector

from conftest import PEX_ROWS, random_matrix

# shapes whose rows or columns span more than one 64-bit word
WIDE_SHAPES = [(70, 130), (150, 70), (130, 130), (65, 200)]


def low_rank_matrix(rng: Random, n: int, l: int, r: int) -> BinaryMatrix:
    """n random combinations of r random rows, so the rank is at most r."""
    gens = [rng.getrandbits(l) for _ in range(r)]
    rows = []
    for _ in range(n):
        v = 0
        for g in gens:
            if rng.getrandbits(1):
                v ^= g
        rows.append(BitVector(l, v))
    return BinaryMatrix.from_rows(l, rows)


def wide_matrices(rng: Random):
    """Full-rank and rank-deficient matrices of every wide shape."""
    for n, l in WIDE_SHAPES:
        yield random_matrix(rng, n, l)
        yield low_rank_matrix(rng, n, l, min(n, l) - 3)


class TestBitVector:
    def test_string_round_trip(self):
        v = BitVector.from_string("1101")
        assert v.to_string() == "1101"
        assert v.n == 4
        assert v.weight() == 3

    def test_bit_order(self):
        # string position 0 is the most significant packed bit
        v = BitVector.from_string("1000")
        assert v.get(0) == 1
        assert v.get(3) == 0
        assert v.bits == 0b1000

    def test_unit(self):
        e = BitVector.unit(4, 1)
        assert e.to_string() == "0100"

    def test_from_ints(self):
        v = BitVector.from_ints([1, 0, 1])
        assert v.to_string() == "101"

    def test_dot_and_xor(self):
        a = BitVector.from_string("1101")
        b = BitVector.from_string("0110")
        assert a.dot(b) == 1
        assert (a ^ b).to_string() == "1011"
        assert (a & b).to_string() == "0100"

    def test_zero(self):
        assert BitVector(3).is_zero()
        assert not BitVector.from_string("010").is_zero()

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            BitVector.from_string("10").dot(BitVector.from_string("101"))


class TestBinaryMatrix:
    def test_from_strings_shape(self, pex):
        assert pex.n == 6
        assert pex.l == 4
        assert pex.row(0).to_string() == "1101"
        assert pex.to_strings() == PEX_ROWS

    def test_zero_and_identity(self):
        z = BinaryMatrix.zeros(2, 3)
        assert all(r.is_zero() for r in z.rows)
        i = BinaryMatrix.identity(3)
        assert i.to_strings() == ["100", "010", "001"]

    def test_weights(self, pex):
        assert pex.row_weights() == [3, 2, 0, 2, 3, 2]
        assert pex.column_weights() == [2, 4, 2, 4]

    @pytest.mark.parametrize(
        "n, l, bits",
        [(1, 3, (-1,)), (2, 3, (1, 8)), (1, 0, (1,)), (2, 2, (1,)), (1, -1, (0,))],
    )
    def test_rejects_bad_packed_rows(self, n, l, bits):
        # a negative row, a row of 2^l or more, or a wrong row count
        with pytest.raises(ValueError):
            BinaryMatrix(n, l, bits)

    def test_from_rows_checks_lengths(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows(3, [BitVector(3, 5), BitVector(2, 1)])
        with pytest.raises(ValueError):
            BinaryMatrix.from_strings(["101", "10"])

    def test_views_round_trip(self):
        rng = Random(3)
        for n, l in [(0, 0), (3, 0), (0, 4), (5, 1), (6, 9), (40, 70)]:
            m = random_matrix(rng, n, l)
            assert len(m.bits) == n
            assert all(isinstance(b, int) and 0 <= b < 1 << l for b in m.bits)
            assert all(row.n == l for row in m.rows)
            assert tuple(row.bits for row in m.rows) == m.bits
            assert [m.row(i) for i in range(n)] == list(m.rows)
            assert BinaryMatrix.from_rows(l, m.rows) == m
            assert m.to_strings() == [row.to_string() for row in m.rows]
            if n:
                assert BinaryMatrix.from_strings(m.to_strings()) == m

    def test_equality_and_hash_by_fields(self):
        a = BinaryMatrix(2, 3, (5, 1))
        b = BinaryMatrix.from_strings(["101", "001"])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, BinaryMatrix(2, 3, (1, 5))}) == 2
        # the same packed rows at another width are another matrix
        assert a != BinaryMatrix(2, 4, (5, 1))
        assert a != BinaryMatrix(3, 3, (5, 1, 0))

    def test_empty_shapes_allowed(self):
        m = BinaryMatrix.zeros(0, 4)
        assert gf2.rank(m) == 0
        m2 = BinaryMatrix.zeros(3, 0)
        assert gf2.rank(m2) == 0


class TestRank:
    def test_pex(self, pex):
        assert gf2.rank(pex) == 3

    def test_zero(self):
        assert gf2.rank(BinaryMatrix.zeros(5, 7)) == 0

    def test_identity(self):
        for l in (1, 3, 8):
            assert gf2.rank(BinaryMatrix.identity(l)) == l


class TestEchelonReduce:
    def test_pex_reduced(self, pex):
        form = gf2.echelon_reduce(pex)
        assert form.rank == 3
        assert form.reduced.to_strings() == [
            "100", "010", "000", "001", "110", "001",
        ]
        assert form.basis_rows == (0, 1, 3)

    def test_col_map_reconstruction(self, pex):
        form = gf2.echelon_reduce(pex)
        assert gf2.mat_mul(form.reduced, form.col_map).to_strings() == pex.to_strings()

    def test_col_map_reconstruction_random(self):
        rng = Random(11)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(0, 16), rng.randint(1, 16))
            form = gf2.echelon_reduce(m)
            assert gf2.mat_mul(form.reduced, form.col_map).rows == m.rows
        for m in wide_matrices(rng):
            form = gf2.echelon_reduce(m)
            assert gf2.mat_mul(form.reduced, form.col_map).rows == m.rows
            assert form.rank == gf2.rank(m)

    def test_primal_map_wide(self):
        rng = Random(111)
        for m in wide_matrices(rng):
            form = gf2.echelon_reduce(m)
            c = BitVector(form.rank, rng.getrandbits(form.rank))
            x = gf2.mat_vec(gf2.transpose(form.col_map), c)
            assert form.primal_map(x) == c

    def test_identity_input(self):
        form = gf2.echelon_reduce(BinaryMatrix.identity(4))
        assert form.reduced.to_strings() == BinaryMatrix.identity(4).to_strings()
        assert form.col_map.to_strings() == BinaryMatrix.identity(4).to_strings()

    def test_idempotent_on_basis_rows(self):
        rng = Random(12)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            form = gf2.echelon_reduce(m)
            picked = [form.reduced.row(i) for i in form.basis_rows]
            assert BinaryMatrix.from_rows(form.rank, picked).to_strings() == \
                BinaryMatrix.identity(form.rank).to_strings()

    def test_row_permutation_same_span(self):
        # equal row spaces give the same basis once the ordering is fixed
        rng = Random(13)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(2, 10), rng.randint(2, 10))
            order = list(range(m.n))
            rng.shuffle(order)
            q = BinaryMatrix.from_rows(m.l, [m.row(i) for i in order])
            fa = gf2.echelon_reduce(m)
            fb = gf2.echelon_reduce(q)
            span_a = gf2.span_rref([m.row(i) for i in fa.basis_rows], m.l)
            span_b = gf2.span_rref([q.row(i) for i in fb.basis_rows], m.l)
            assert span_a == span_b

    def test_primal_map(self, pex):
        form = gf2.echelon_reduce(pex)
        x = BitVector.from_string("0110")
        assert form.primal_map(x).to_string() == "010"

    def test_primal_map_outside_span(self, pex):
        form = gf2.echelon_reduce(pex)
        with pytest.raises(ValueError):
            form.primal_map(BitVector.from_string("0001"))

    def test_dual_map(self, pex):
        form = gf2.echelon_reduce(pex)
        s = BitVector.from_string("0110")
        assert form.dual_map(s).to_string() == "101"


class TestKernel:
    def test_pex_gram_kernel(self, pex):
        gram = gf2.mat_mul(gf2.transpose(pex), pex)
        basis = gf2.kernel(gram)
        span = gf2.span_rref(basis, 4)
        expected = gf2.span_rref(
            [BitVector.from_string("1001"), BitVector.from_string("0111")], 4
        )
        assert span == expected

    def test_identity_empty(self):
        assert gf2.kernel(BinaryMatrix.identity(5)) == []

    def test_zero_full(self):
        basis = gf2.kernel(BinaryMatrix.zeros(2, 2))
        assert len(basis) == 2

    def test_rank_nullity(self):
        rng = Random(14)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(0, 12), rng.randint(1, 12))
            assert len(gf2.kernel(m)) + gf2.rank(gf2.transpose(m)) == m.l
        for m in wide_matrices(rng):
            basis = gf2.kernel(m)
            assert len(basis) + gf2.rank(gf2.transpose(m)) == m.l
            assert all(gf2.mat_vec(m, v).is_zero() for v in basis)

    def test_rank_agrees_with_transpose_and_code(self):
        # row rank, column rank and the rank of the column-span code
        rng = Random(141)
        for m in wide_matrices(rng):
            assert gf2.rank(m) == gf2.rank(gf2.transpose(m))
        # the code is enumerated, so its rank has to stay small
        for n, l in WIDE_SHAPES:
            m = low_rank_matrix(rng, n, l, 12)
            assert gf2.rank(m) == gf2.rank(gf2.transpose(m)) == 12
            assert codes.weight_enumerator(m).rank == 12

    def test_members_annihilate(self):
        rng = Random(15)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
            for v in gf2.kernel(m):
                assert gf2.mat_vec(m, v).is_zero()


class TestLanes:
    @pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 128, 130])
    def test_byte_view_is_little_endian(self, width):
        # every row's bytes lowest first, the lowest lane first
        rng = Random(width)
        values = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(20)]
        lanes = max(1, (width + 63) // 64)
        words = gf2._lanes(values, width)
        assert words.shape == (len(values), lanes)
        for row, v in zip(words.view(np.uint8), values):
            assert row.tobytes() == v.to_bytes(8 * lanes, "little")

    def test_no_values(self):
        assert gf2._lanes([], 0).shape == (0, 1)
        assert gf2._lanes([], 130).shape == (0, 3)


class TestEnumerationTable:
    @pytest.mark.parametrize("k", [0, 1, 8, 14, 16])
    def test_matches_combine(self, k):
        # entry b xors the generators its bits pick, generators[0] by the
        # low bit; _combine takes rows[0] by the top bit
        rng = Random(k)
        generators = [rng.getrandbits(64) for _ in range(k)]
        table = codes._enumeration_table(generators)
        assert table.dtype == np.uint64
        reverse = generators[::-1]
        assert table.tolist() == [gf2._combine(reverse, b) for b in range(1 << k)]


class TestTagged:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_tags_in_row_order(self, n):
        # zero and repeated rows among random ones; a tag word picks rows[i]
        # at bit n - 1 - i, as _row_tags lays them out
        rng = Random(n)
        l = 9
        rows = [rng.getrandbits(l) for _ in range(n)]
        for i in rng.sample(range(n), n // 4):
            rows[i] = rng.choice([0, rows[rng.randrange(n)]])
        tags = gf2._row_tags(n)

        def picked(word):
            return _xor(v for v, t in zip(rows, tags) if word & t)

        pivots, circuits = gf2._tagged(rows)
        assert gf2._circuits(rows) == circuits
        r = gf2.rank(BinaryMatrix(n, l, tuple(rows)))
        assert len(pivots) == r
        assert len(circuits) == n - r
        for w in circuits:
            assert 0 < w < 1 << n and picked(w) == 0
        assert len(gf2._eliminate(circuits, {})) == len(circuits)
        # each pivot is the sum of the rows its tag picks
        for top, p in pivots.items():
            assert p >> n == picked(p) and p.bit_length() - 1 == top

    def test_zero_and_repeated_rows_are_circuits(self):
        # a zero row is a loop, a repeated row a parallel pair
        assert gf2._tagged([0]) == ({}, [1])
        assert gf2._circuits([5, 5, 3]) == [0b110]
        assert gf2._tagged([]) == ({}, [])


def _xor(values) -> int:
    out = 0
    for v in values:
        out ^= v
    return out


class TestProducts:
    def test_times_identity(self, pex):
        assert gf2.mat_mul(pex, BinaryMatrix.identity(4)).to_strings() == PEX_ROWS

    def test_mat_vec_fixture(self, pex):
        s = BitVector.from_string("0110")
        assert gf2.mat_vec(pex, s).to_string() == "100111"

    def test_mat_vec_zero(self, pex):
        assert gf2.mat_vec(pex, BitVector(4)).is_zero()

    def test_combine_picks_rows_from_the_top_bit(self):
        rng = Random(17)
        for _ in range(200):
            rows = [rng.getrandbits(70) for _ in range(rng.randint(0, 12))]
            bits = rng.getrandbits(len(rows))
            want = 0
            for j, row in enumerate(rows):
                if (bits >> (len(rows) - 1 - j)) & 1:
                    want ^= row
            assert gf2._combine(rows, bits) == want

    def test_parities_read_masks_from_the_top_bit(self):
        # empty mask lists, single-bit masks, widths above 64 and masks
        # wider than v, against a bit-by-bit loop
        rng = Random(18)
        for trial in range(300):
            width = rng.randint(0, 140)
            v = rng.getrandbits(width)
            count = rng.randint(0, 12)
            if trial % 3:
                masks = [rng.getrandbits(rng.randint(0, 150)) for _ in range(count)]
            else:
                masks = [1 << rng.randrange(150) for _ in range(count)]
            want = 0
            for m in masks:
                parity = 0
                for b in range(max(width, m.bit_length())):
                    parity ^= (v >> b) & (m >> b) & 1
                want = (want << 1) | parity
            assert gf2._parities(v, masks) == want
        assert gf2._parities(rng.getrandbits(70), []) == 0

    def test_dimension_mismatch(self, pex):
        with pytest.raises(DimensionMismatch):
            gf2.mat_vec(pex, BitVector(3))
        with pytest.raises(DimensionMismatch):
            gf2.mat_mul(pex, BinaryMatrix.zeros(3, 2))

    def test_transpose_round_trip(self):
        rng = Random(16)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(0, 9), rng.randint(1, 9))
            assert gf2.transpose(gf2.transpose(m)).rows == m.rows

    def test_transpose_matches_definition(self):
        # both sides of the bit-matrix branch, l > 64 and empty shapes
        rng = Random(19)
        shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (8, 6), (15, 17), (16, 16)]
        shapes += [(rng.randint(0, 300), rng.randint(0, 150)) for _ in range(30)]
        for n, l in shapes:
            m = random_matrix(rng, n, l)
            t = gf2.transpose(m)
            assert (t.n, t.l) == (l, n)
            for j in range(l):
                assert t.row(j) == BitVector.from_ints(m.row(i).get(j) for i in range(n))

    def test_column_weights_count_bits(self):
        rng = Random(20)
        shapes = [(0, 0), (0, 7), (0, 70), (3, 0), (1, 65), (300, 17), (40, 130)]
        shapes += [(rng.randint(0, 200), rng.randint(1, 200)) for _ in range(30)]
        for n, l in shapes:
            m = random_matrix(rng, n, l)
            want = [sum(row.get(j) for row in m.rows) for j in range(l)]
            assert m.column_weights() == want

    def test_column_weights_match_the_transpose(self):
        # one and two lanes of 64 columns, and their edges
        rng = Random(21)
        for n in (0, 1, 5, 300):
            for l in (0, 1, 8, 9, 63, 64, 65, 128, 129):
                m = random_matrix(rng, n, l)
                want = [c.bit_count() for c in gf2.transpose(m).bits]
                assert m.column_weights() == want

    def test_transpose_wide_numpy_path(self):
        # n * l >= 256 takes the vectorized branch
        rng = Random(17)
        m = random_matrix(rng, 300, 17)
        t = gf2.transpose(m)
        assert t.n == 17 and t.l == 300
        for i in range(0, 300, 37):
            for j in range(17):
                assert m.row(i).get(j) == t.row(j).get(i)


class TestSolveInverse:
    def test_solve_consistent(self):
        rng = Random(18)
        for _ in range(100):
            n, l = rng.randint(1, 8), rng.randint(1, 8)
            m = random_matrix(rng, n, l)
            x = BitVector(l, rng.getrandbits(l))
            b = gf2.mat_vec(m, x)
            got = gf2.solve(m, b)
            assert got is not None
            assert gf2.mat_vec(m, got) == b
        for m in wide_matrices(rng):
            b = gf2.mat_vec(m, BitVector(m.l, rng.getrandbits(m.l)))
            got = gf2.solve(m, b)
            assert got is not None
            assert gf2.mat_vec(m, got) == b

    def test_solve_inconsistent_wide(self):
        # a right-hand side outside the column span of a rank-deficient matrix
        rng = Random(181)
        for n, l in WIDE_SHAPES:
            m = low_rank_matrix(rng, n, l, min(n, l) - 3)
            column_space = gf2.span_rref(gf2.transpose(m).rows, n)
            b = next(
                v for v in (BitVector(n, rng.getrandbits(n)) for _ in range(100))
                if len(gf2.span_rref(column_space + [v], n)) > len(column_space)
            )
            assert gf2.solve(m, b) is None

    def test_solve_inconsistent(self):
        m = BinaryMatrix.from_strings(["10", "10"])
        assert gf2.solve(m, BitVector.from_string("10")) is None

    def test_inverse(self):
        rng = Random(19)
        found = 0
        while found < 20:
            l = rng.randint(1, 8)
            m = random_matrix(rng, l, l)
            if gf2.rank(m) < l:
                continue
            found += 1
            inv = gf2.inverse(m)
            assert gf2.mat_mul(m, inv).to_strings() == \
                BinaryMatrix.identity(l).to_strings()
        for l in (65, 70, 130):
            while True:
                m = random_matrix(rng, l, l)
                if gf2.rank(m) == l:
                    break
            inv = gf2.inverse(m)
            assert gf2.mat_mul(m, inv).rows == BinaryMatrix.identity(l).rows
            assert gf2.mat_mul(inv, m).rows == BinaryMatrix.identity(l).rows

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            gf2.inverse(BinaryMatrix.zeros(2, 2))


class TestSpanRref:
    def test_canonical(self):
        a = gf2.span_rref(
            [BitVector.from_string("110"), BitVector.from_string("011")], 3
        )
        b = gf2.span_rref(
            [BitVector.from_string("101"), BitVector.from_string("011"),
             BitVector.from_string("110")], 3
        )
        assert a == b

    def test_empty(self):
        assert gf2.span_rref([], 4) == []

    def test_canonical_under_row_permutation_wide(self):
        rng = Random(20)
        for m in wide_matrices(rng):
            rows = list(m.rows)
            basis = gf2.span_rref(rows, m.l)
            rng.shuffle(rows)
            assert gf2.span_rref(rows, m.l) == basis
            assert len(basis) == gf2.rank(m)
            # reduced: each leading coordinate appears in exactly one vector
            leads = [m.l - v.bits.bit_length() for v in basis]
            assert leads == sorted(leads)
            for lead in leads:
                assert sum(u.get(lead) for u in basis) == 1
