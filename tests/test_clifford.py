"""Quarter-turn machinery: Gaussian integers, Gauss sums, support."""

from fractions import Fraction
from random import Random

import pytest

from iqpsim import clifford, codes, gf2, oracle
from iqpsim.clifford import (
    GaussianInteger,
    clifford_probability,
    clifford_sample,
    clifford_support,
    wenum_at_fourth_root,
)
from iqpsim.codes import Angle
from iqpsim.errors import DimensionMismatch
from iqpsim.gf2 import BinaryMatrix, BitVector
from iqpsim.xprogram import XProgram

from conftest import random_matrix


class TestGaussianInteger:
    def test_to_complex(self):
        assert GaussianInteger(3, -2).to_complex() == 3 - 2j

    def test_conjugate(self):
        g = GaussianInteger(3, -2).conjugate()
        assert (g.re, g.im) == (3, 2)

    def test_times_i_power_cycle(self):
        g = GaussianInteger(1, 2)
        assert g.times_i_power(0) == g
        assert g.times_i_power(1) == GaussianInteger(-2, 1)
        assert g.times_i_power(2) == GaussianInteger(-1, -2)
        assert g.times_i_power(3) == GaussianInteger(2, -1)
        assert g.times_i_power(4) == g
        assert g.times_i_power(-1) == g.times_i_power(3)

    def test_str(self):
        assert "i" in str(GaussianInteger(0, 1))


def exact_wenum_by_histogram(m: BinaryMatrix, k: int) -> GaussianInteger:
    """Integer-exact W(i^k) folded from the enumerated weight histogram."""
    profile = codes.weight_enumerator(m)
    parts = [0, 0, 0, 0]
    for weight, count in enumerate(profile.weights):
        parts[(k * weight) % 4] += count
    return GaussianInteger(parts[0] - parts[2], parts[1] - parts[3])


def signed_wenums_by_enumeration(gens: list[int], linear: int) -> list[GaussianInteger]:
    """sum_c i^(k|c|) (-1)^L(c) for k = 0..3, word by word over the span.

    Bit i of linear is L(gens[i]). The words run in Gray-code order, so
    each step flips one generator, the lowest set bit of the step.
    """
    parts = [[0] * 4 for _ in range(4)]
    word = sign = 0
    for step in range(1 << len(gens)):
        if step:
            i = (step & -step).bit_length() - 1
            word ^= gens[i]
            sign ^= linear >> i & 1
        w = word.bit_count()
        for k in range(4):
            parts[k][(k * w + 2 * sign) % 4] += 1
    return [GaussianInteger(p[0] - p[2], p[1] - p[3]) for p in parts]


def structured_code(rng: Random, kind: str, max_n: int, max_l: int) -> BinaryMatrix:
    """A random matrix whose column code is of the given kind.

    dense: uniform rows; odd: every column of odd weight; even: rows in
    duplicated pairs, so every codeword has even weight; sparse: rows of
    weight at most two; low: rows from the span of at most three vectors.
    """
    l = rng.randint(1, max_l)
    n = rng.randint(1, max_n)
    if kind == "even":
        rows = [rng.getrandbits(l) for _ in range((n + 1) // 2)] * 2
    elif kind == "sparse":
        rows = [(1 << rng.randrange(l)) | (1 << rng.randrange(l)) * rng.getrandbits(1)
                for _ in range(n)]
        rows = [0 if rng.random() < 0.1 else v for v in rows]
    elif kind == "low":
        basis = [rng.getrandbits(l) for _ in range(rng.randint(0, 3))]
        rows = []
        for _ in range(n):
            v = 0
            for b in basis:
                v ^= b * rng.getrandbits(1)
            rows.append(v)
    else:
        rows = [rng.getrandbits(l) for _ in range(n)]
    if kind == "odd":
        fold = 0
        for v in rows:
            fold ^= v
        rows[0] ^= fold ^ ((1 << l) - 1)
    return BinaryMatrix(len(rows), l, tuple(rows))


def block_diagonal(blocks: list[BinaryMatrix]) -> BinaryMatrix:
    """The matrix with the given blocks on its diagonal."""
    width = sum(b.l for b in blocks)
    rows = []
    shift = width
    for b in blocks:
        shift -= b.l
        rows += [v << shift for v in b.bits]
    return BinaryMatrix(len(rows), width, tuple(rows))


class TestWenumAtFourthRoot:
    def test_pex_values(self, pex):
        assert wenum_at_fourth_root(pex, 0) == GaussianInteger(8, 0)
        assert wenum_at_fourth_root(pex, 1) == GaussianInteger(0, 0)
        assert wenum_at_fourth_root(pex, 2) == GaussianInteger(8, 0)
        assert wenum_at_fourth_root(pex, 3) == GaussianInteger(0, 0)

    def test_k0_counts_codewords(self):
        rng = Random(31)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(0, 10), rng.randint(1, 10))
            assert wenum_at_fourth_root(m, 0) == GaussianInteger(1 << gf2.rank(m), 0)

    def test_k2_evenness_dichotomy(self):
        rng = Random(32)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
            got = wenum_at_fourth_root(m, 2)
            if codes.is_even_code(m):
                assert got == GaussianInteger(1 << gf2.rank(m), 0)
            else:
                assert got == GaussianInteger(0, 0)

    def test_conjugate_pair(self):
        rng = Random(33)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 8))
            assert wenum_at_fourth_root(m, 3) == wenum_at_fourth_root(m, 1).conjugate()

    def test_matches_enumeration(self):
        rng = Random(34)
        inputs = [
            random_matrix(rng, rng.randint(0, 14), rng.randint(1, 12))
            for _ in range(120)
        ]
        for kind in ("odd", "even", "sparse", "low"):
            inputs += [structured_code(rng, kind, 14, 12) for _ in range(60)]
        for m in inputs:
            for k in range(4):
                assert wenum_at_fourth_root(m, k) == exact_wenum_by_histogram(m, k)
            # the same codes with a sign (-1)^L(c), L linear, as amplitudes take
            gens = clifford._reduced_generators(m)[0]
            linear = rng.getrandbits(len(gens))
            want = signed_wenums_by_enumeration(gens, linear)
            for k in range(4):
                assert clifford.wenum_from_generators(gens, k, linear) == want[k]

    def test_block_diagonal_sums_multiply(self):
        # a block-diagonal P spans the direct sum of its blocks' codes, so
        # the value is the product of the blocks' enumerated values: exact
        # at ranks that enumeration cannot reach
        rng = Random(42)
        kinds = ("dense", "odd", "even", "sparse", "low")
        for trial in range(10):
            blocks = []
            while sum(gf2.rank(b) for b in blocks) < 120:
                b = structured_code(rng, kinds[(trial + len(blocks)) % 5], 12, 9)
                # a block summing to 0 at z = i would zero every product
                if exact_wenum_by_histogram(b, 1) != GaussianInteger(0, 0):
                    blocks.append(b)
            P = block_diagonal(blocks)
            assert gf2.rank(P) >= 120
            for k in range(4):
                want = GaussianInteger(1, 0)
                for b in blocks:
                    w = exact_wenum_by_histogram(b, k)
                    want = GaussianInteger(
                        want.re * w.re - want.im * w.im, want.re * w.im + want.im * w.re
                    )
                assert wenum_at_fourth_root(P, k) == want

    def test_one_gauss_sum_per_code(self, monkeypatch):
        rng = Random(43)
        calls = []
        form_sum = clifford._form_sum

        def counted(form, linear=0):
            calls.append(len(form[0]))
            return form_sum(form, linear)

        monkeypatch.setattr(clifford, "_form_sum", counted)
        for kind in ("dense", "odd", "even", "sparse", "low"):
            m = structured_code(rng, kind, 14, 12)
            for k in range(4):
                calls.clear()
                wenum_at_fourth_root(m, k)
                assert len(calls) == (k % 2)

    def test_zero_matrix(self):
        m = BinaryMatrix.zeros(4, 3)
        for k in range(4):
            assert wenum_at_fourth_root(m, k) == GaussianInteger(1, 0)


class TestMaskedWenums:
    @pytest.mark.parametrize("r", range(8))
    def test_matches_enumeration(self, r):
        # every (mask, linear) pair against the sum over all 2^r points u;
        # masks come in runs and return after others, so a mask that comes
        # back must rebuild its form, not keep the one of the run before
        rng = Random(120 + r)
        n = 10
        for _ in range(3):
            gens = [rng.getrandbits(n) for _ in range(r)]
            narrow = 1 << rng.randrange(n) | 1 << rng.randrange(n)
            # all but the first two generators' bits: the masked ones depend
            low = 0
            for g in gens[2:]:
                low |= g
            distinct = [0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n), narrow,
                        ((1 << n) - 1) & ~low]
            masks = []
            for _ in range(12):
                masks += [rng.choice(distinct)] * rng.randint(1, 3)
            linears = [rng.getrandbits(r) for _ in masks]
            want = [signed_wenums_by_enumeration([g & m for g in gens], linear)
                    for m, linear in zip(masks, linears)]
            for k in range(4):
                got = clifford._masked_wenums(gens, k, masks, linears)
                assert got == [w[k] for w in want], (r, k)
                unsigned = [signed_wenums_by_enumeration([g & m for g in gens], 0)[k]
                            for m in masks]
                assert clifford._masked_wenums(gens, k, masks) == unsigned, (r, k)


class TestCliffordSupport:
    def test_pex_case_two(self, pex):
        support = clifford_support(pex)
        assert support.case == "two"
        v_span = gf2.span_rref(list(support.V_basis), 4)
        assert v_span == gf2.span_rref(
            [BitVector.from_string("1001"), BitVector.from_string("0111")], 4
        )
        u_span = gf2.span_rref(list(support.U_basis), 4)
        assert u_span == [BitVector.from_string("0111")]
        assert support.dim == 2
        assert not support.contains(BitVector(4))

    def test_pex_support_members(self, pex):
        support = clifford_support(pex)
        members = {
            x for x in range(16) if support.contains(BitVector(4, x))
        }
        assert members == {
            int("0011", 2), int("0101", 2), int("1000", 2), int("1110", 2),
        }

    def test_identity_case_one(self):
        support = clifford_support(BinaryMatrix.identity(3))
        assert support.case == "one"
        assert support.dim == 3
        assert support.contains(BitVector(3))

    def test_contains_dimension_check(self, pex):
        with pytest.raises(DimensionMismatch):
            clifford_support(pex).contains(BitVector(3))

    def test_support_size_matches_dim(self):
        rng = Random(35)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 6))
            support = clifford_support(m)
            count = sum(
                support.contains(BitVector(m.l, x)) for x in range(1 << m.l)
            )
            assert count == 1 << support.dim

    @pytest.mark.parametrize(
        "n, l", [(12, 5), (120, 30), (255, 64), (256, 64), (600, 40), (300, 70)]
    )
    def test_kernel_matches_gram_product(self, n, l):
        # both of transpose's branches (vectorized at n * l >= 256), rows
        # of one and two lanes; low-rank and doubled rows give P^T P a
        # kernel beyond ker P
        rng = Random(n * 1000 + l)
        for rank in (l, l // 2, 3):
            basis = [rng.getrandbits(l) for _ in range(rank)]
            rows = []
            while len(rows) < n:
                v = 0
                for b in basis:
                    v ^= b * rng.getrandbits(1)
                rows.extend([v, v] if rng.random() < 0.3 else [v])
            P = BinaryMatrix.from_rows(l, (BitVector(l, v) for v in rows[:n]))
            want = gf2.kernel(gf2.mat_mul(gf2.transpose(P), P))
            assert list(clifford_support(P).V_basis) == want

    def test_offset_is_member(self):
        rng = Random(36)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 6))
            support = clifford_support(m)
            assert support.contains(support.offset)


    def test_offset_is_one_canonical_solve(self, monkeypatch):
        # one solve of s . x = |Ps| / 2 over V, free coordinates zero: in
        # case one the point 0, in case two the solution of u . x = 0 on U
        # and witness . x = 1, as that system has V's row space
        rng = Random(41)
        solve, mat_vec = gf2.solve, gf2.mat_vec
        calls = []
        monkeypatch.setattr(gf2, "solve", lambda *args: calls.append("solve") or solve(*args))
        monkeypatch.setattr(
            gf2, "mat_vec", lambda *args: calls.append("mat_vec") or mat_vec(*args)
        )
        cases = {"one": 0, "two": 0}
        for _ in range(80):
            m = random_matrix(rng, rng.randint(0, 10), rng.randint(1, 7))
            calls.clear()
            support = clifford_support(m)
            assert calls == ["solve"]
            cases[support.case] += 1
            want = BitVector(m.l)
            if support.case == "two":
                system = BinaryMatrix.from_rows(m.l, [*support.U_basis, support.odd_witness])
                want = solve(system, BitVector(len(support.U_basis) + 1, 1))
            assert support.offset == want
        assert min(cases.values()) > 10

class TestCliffordProbability:
    def test_pex_zero_vanishes(self, pex):
        assert clifford_probability(pex, BitVector(4)) == Fraction(0)

    def test_pex_uniform_quarter(self, pex):
        assert clifford_probability(pex, BitVector.from_string("0011")) == Fraction(1, 4)
        assert clifford_probability(pex, BitVector.from_string("1000")) == Fraction(1, 4)

    def test_sums_to_one_exactly(self):
        rng = Random(37)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 6))
            total = sum(
                clifford_probability(m, BitVector(m.l, x)) for x in range(1 << m.l)
            )
            assert total == Fraction(1)

    def test_matches_oracle(self):
        rng = Random(38)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 7))
            dense = oracle.oracle_distribution(XProgram(m, Angle.exact(1, 4)))
            for x in range(1 << m.l):
                exact = clifford_probability(m, BitVector(m.l, x))
                assert abs(float(exact) - dense.probability(x)) < 1e-12


class TestCliffordSample:
    def test_samples_in_support(self, pex):
        rng = Random(39)
        support = clifford_support(pex)
        for _ in range(200):
            assert support.contains(clifford_sample(pex, rng))

    def test_seed_determinism(self, pex):
        a = [clifford_sample(pex, Random(5)).to_string() for _ in range(1)]
        b = [clifford_sample(pex, Random(5)).to_string() for _ in range(1)]
        assert a == b

    def test_hits_every_member(self, pex):
        rng = Random(40)
        seen = {clifford_sample(pex, rng).to_string() for _ in range(300)}
        assert seen == {"0011", "0101", "1000", "1110"}
