"""Code-level semantics: angles, weight histograms, alpha, transforms."""

import cmath
import math
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iqpsim import clifford, codes, gf2, oracle, xprogram
from iqpsim.codes import Angle, affinify, alpha, is_even_code, project, weight_enumerator
from iqpsim.errors import (
    DimensionMismatch,
    NumericalInconsistency,
    RankTooLarge,
    ZeroDirection,
)
from iqpsim.gf2 import BinaryMatrix, BitVector
from iqpsim.xprogram import XProgram

from conftest import random_bits, random_matrix


class TestAngle:
    def test_exact_reduction(self):
        a = Angle.exact(2, 8)
        assert (a.a, a.b) == (1, 4)

    def test_normalization_window(self):
        a = Angle.exact(-1, 4)
        assert (a.a, a.b) == (7, 4)
        assert 0 <= a.value < 2 * math.pi

    def test_radians_window(self):
        a = Angle.radians(7.0)
        assert 0 <= a.value < 2 * math.pi
        assert math.isclose(a.value, 7.0 - 2 * math.pi)

    def test_fourth_root_predicate(self):
        assert Angle.exact(1, 4).is_fourth_root
        assert Angle.exact(1, 2).is_fourth_root
        assert Angle.exact(1, 1).is_fourth_root
        assert not Angle.exact(1, 8).is_fourth_root
        assert not Angle.exact(1, 5).is_fourth_root
        assert not Angle.radians(math.pi / 4).is_fourth_root

    def test_fourth_root_index(self):
        assert Angle.exact(1, 4).fourth_root_index == 1
        assert Angle.exact(1, 2).fourth_root_index == 2
        assert Angle.exact(3, 4).fourth_root_index == 3
        assert Angle.exact(1, 1).fourth_root_index == 4
        with pytest.raises(ValueError):
            Angle.exact(1, 8).fourth_root_index

    def test_dyadic_parts(self):
        assert Angle.exact(1, 8).dyadic_parts() == (1, 3)
        assert Angle.exact(1, 4).dyadic_parts() == (1, 2)
        assert Angle.exact(1, 1).dyadic_parts() == (1, 0)
        assert Angle.exact(1, 5).dyadic_parts() is None
        assert Angle.radians(0.5).dyadic_parts() is None

    def test_doubled(self):
        assert Angle.exact(1, 8).doubled() == Angle.exact(1, 4)
        assert Angle.exact(1, 8).doubled().is_fourth_root
        assert math.isclose(Angle.radians(0.3).doubled().value, 0.6)

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            Angle.exact(1, 0)

    def test_str(self):
        assert "1/4" in str(Angle.exact(1, 4))
        assert "rad" in str(Angle.radians(1.0))


class TestWeightEnumerator:
    def test_pex_histogram(self, pex):
        profile = weight_enumerator(pex)
        assert profile.length == 6
        assert profile.rank == 3
        assert len(profile.weights) == 7
        assert profile.weights[:5] == (1, 0, 4, 0, 3)
        assert profile.weights[5:] == (0, 0)

    def test_zero_matrix(self):
        profile = weight_enumerator(BinaryMatrix.zeros(3, 2))
        assert profile.rank == 0
        assert profile.weights == (1, 0, 0, 0)

    def test_identity(self):
        profile = weight_enumerator(BinaryMatrix.identity(4))
        assert profile.weights == (1, 4, 6, 4, 1)

    def test_total_count(self):
        rng = Random(21)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(0, 12), rng.randint(1, 10))
            profile = weight_enumerator(m)
            assert sum(profile.weights) == 1 << profile.rank

    def test_matches_direct_span(self):
        # brute-force span through all 2^l column combinations
        rng = Random(22)
        for _ in range(40):
            n, l = rng.randint(1, 10), rng.randint(1, 8)
            m = random_matrix(rng, n, l)
            seen = {gf2.mat_vec(m, BitVector(l, v)).bits for v in range(1 << l)}
            hist = [0] * (n + 1)
            for word in seen:
                hist[bin(word).count("1")] += 1
            assert weight_enumerator(m).weights == tuple(hist)

    def test_rank_limit(self):
        # the identity stacked twice: rank 5 and dual dimension 5 are both
        # past the limit; the budget bounds the smaller side
        eye = BinaryMatrix.identity(5)
        twice = BinaryMatrix(10, 5, eye.bits * 2)
        with pytest.raises(RankTooLarge, match="rank 5 and dual dimension 5"):
            weight_enumerator(twice, rank_limit=4)
        assert weight_enumerator(twice, rank_limit=5).weights == (1, 0, 5, 0, 10, 0, 10, 0, 5, 0, 1)

    def test_full_rank_past_the_limit_takes_the_dual(self):
        # rank 5 past the limit of 4, but C-perp is {0}
        profile = weight_enumerator(BinaryMatrix.identity(5), rank_limit=4)
        assert profile.weights == (1, 5, 10, 10, 5, 1)

    def test_evaluate_at_one(self, pex):
        profile = weight_enumerator(pex)
        assert profile.evaluate(1.0) == pytest.approx(8.0)

    def test_full_rank_thirty(self):
        # rank 30 is past the limit of 26; C-perp is {0}, so C is all of F2^30
        rng = Random(71)
        while True:
            m = BinaryMatrix(30, 30, tuple(rng.getrandbits(30) for _ in range(30)))
            if gf2.rank(m) == 30:
                break
        profile = weight_enumerator(m)
        assert profile.rank == 30
        assert profile.weights == tuple(math.comb(30, k) for k in range(31))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_macwilliams_matches_the_primal_histogram(self, data):
        l = data.draw(st.integers(1, 14))
        n = data.draw(st.integers(1, 2 * l))
        rows = data.draw(st.lists(st.integers(0, (1 << l) - 1), min_size=n, max_size=n))
        m = BinaryMatrix(n, l, tuple(rows))
        gens = clifford._reduced_generators(m)[0]
        r = len(gens)
        assume(n - r < r <= 14)
        assert weight_enumerator(m).weights == tuple(codes._histogram(gens, n).tolist())


class TestAlpha:
    def test_theta_pi_sign(self, pex):
        assert alpha(pex, Angle.exact(1, 1)) == pytest.approx(1.0)
        odd = BinaryMatrix.from_strings(["1"])
        assert alpha(odd, Angle.exact(1, 1)) == pytest.approx(-1.0)

    def test_theta_half_pi_even_code(self, pex):
        # even code gives i^n, here i^6 = -1
        assert alpha(pex, Angle.exact(1, 2)) == pytest.approx(-1.0)

    def test_theta_half_pi_odd_code(self):
        m = BinaryMatrix.from_strings(["10", "11"])
        assert not is_even_code(m)
        assert alpha(m, Angle.exact(1, 2)) == pytest.approx(0.0)

    def test_matches_direct_expectation(self):
        rng = Random(23)
        for _ in range(60):
            n, l = rng.randint(1, 9), rng.randint(1, 7)
            m = random_matrix(rng, n, l)
            theta = rng.choice(
                [Angle.exact(1, 8), Angle.exact(1, 4), Angle.exact(2, 5),
                 Angle.radians(0.9)]
            )
            words = {gf2.mat_vec(m, BitVector(l, v)).bits for v in range(1 << l)}
            th = theta.value
            direct = sum(
                cmath.exp(1j * th * (n - 2 * bin(w).count("1"))) for w in words
            ) / len(words)
            assert cmath.isclose(alpha(m, theta), direct, abs_tol=1e-10)

    def test_magnitude_bound(self):
        rng = Random(24)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 8))
            assert abs(alpha(m, Angle.radians(rng.random() * 6))) <= 1 + 1e-9


class TestHistogram:
    def test_coset_across_blocks_and_lanes(self):
        # 16 generators span more than one block of 2^_BLOCK_LOG words,
        # and 70 bits take two popcount lanes
        rng = Random(25)
        n = 70
        gens = list(gf2._eliminate((rng.getrandbits(n) for _ in range(16)), {}).values())
        assert len(gens) == 16 > codes._BLOCK_LOG
        offset = rng.getrandbits(n)
        want = [0] * (n + 1)
        for bits in range(1 << len(gens)):
            want[(offset ^ gf2._combine(gens, bits)).bit_count()] += 1
        assert codes._histogram(gens, n, offset).tolist() == want

    @pytest.mark.parametrize("n", [40, 300])
    def test_coset_across_lane_groups(self, n):
        # 15 generators make two blocks of 2^_BLOCK_LOG words; 40 bits take
        # the one-lane path, and 300 bits take five lanes, more than one
        # popcount group
        rng = Random(27 + n)
        gens = list(gf2._eliminate((rng.getrandbits(n) for _ in range(15)), {}).values())
        assert len(gens) == 15 > codes._BLOCK_LOG
        assert n < 64 or (n + 63) // 64 > codes._GROUP_ENTRIES >> codes._BLOCK_LOG
        offset = rng.getrandbits(n)
        want = [0] * (n + 1)
        for bits in range(1 << len(gens)):
            want[(offset ^ gf2._combine(gens, bits)).bit_count()] += 1
        assert codes._histogram(gens, n, offset).tolist() == want

    def test_empty_span(self):
        assert codes._histogram([], 5, 0b10110).tolist() == [0, 0, 0, 1, 0, 0]


class TestAlphaDualSide:
    def test_matches_direct_expectation(self):
        # n - r < r: alpha is the sum over C-perp
        rng = Random(26)
        cases = 0
        while cases < 60:
            l = rng.randint(2, 12)
            m = random_matrix(rng, rng.randint(l, l + 6), l)
            r = gf2.rank(m)
            if m.n - r >= r:
                continue
            cases += 1
            theta = rng.choice(
                [Angle.exact(1, 16), Angle.exact(2, 5), Angle.radians(0.9),
                 Angle.radians(math.pi / 2 - 1e-3), Angle.radians(1e-3)]
            )
            words = {gf2.mat_vec(m, BitVector(l, v)).bits for v in range(1 << l)}
            th = theta.value
            direct = sum(
                cmath.exp(1j * th * (m.n - 2 * bin(w).count("1"))) for w in words
            ) / len(words)
            assert cmath.isclose(alpha(m, theta), direct, abs_tol=1e-13)

    def test_rank_beyond_the_limit(self):
        # rank 30, dual dimension 0: alpha = cos(theta)^30
        got = alpha(BinaryMatrix.identity(30), Angle.radians(0.7))
        assert got == pytest.approx(math.cos(0.7) ** 30, rel=1e-14)
        assert got.imag == 0.0

    def test_both_sides_past_the_limit(self):
        m = BinaryMatrix(60, 30, BinaryMatrix.identity(30).bits * 2)
        with pytest.raises(RankTooLarge):
            alpha(m, Angle.radians(0.7))


class TestAlphaExactFourthRoot:
    def test_pex_at_pi(self, pex):
        got = codes.alpha_exact_fourth_root(pex, Angle.exact(1, 1))
        assert got is not None
        numerator, log2_denominator = got
        assert (numerator.re, numerator.im) == (8, 0)
        assert log2_denominator == 3

    def test_none_for_generic_angle(self, pex):
        assert codes.alpha_exact_fourth_root(pex, Angle.exact(1, 8)) is None

    def test_none_for_odd_global_phase(self):
        m = BinaryMatrix.from_strings(["1"])
        assert codes.alpha_exact_fourth_root(m, Angle.exact(1, 4)) is None

    def test_self_check(self, pex, monkeypatch):
        # the exact path keeps alpha's |alpha| <= 1 check
        too_big = clifford.GaussianInteger(1 << 10, 0)
        monkeypatch.setattr(
            clifford, "_signed_wenums", lambda gens, k, linears: [too_big] * len(linears)
        )
        with pytest.raises(NumericalInconsistency):
            codes.alpha_exact_fourth_root(pex, Angle.exact(1, 1))

    def test_rank_beyond_float_range(self):
        # 2^r overflows a float here; the exact value must still come back
        m = BinaryMatrix.identity(1100)
        numerator, log2_denominator = codes.alpha_exact_fourth_root(m, Angle.exact(1, 4))
        assert log2_denominator == 1100
        assert numerator.re**2 + numerator.im**2 == 1 << 1100

    def test_matches_float_alpha(self):
        rng = Random(25)
        checked = 0
        while checked < 40:
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 8))
            theta = Angle.exact(rng.randrange(8), 4)
            got = codes.alpha_exact_fourth_root(m, theta)
            if got is None:
                continue
            checked += 1
            numerator, log2_denominator = got
            exact = numerator.to_complex() / (1 << log2_denominator)
            assert cmath.isclose(exact, alpha(m, theta), abs_tol=1e-12)

    def test_alpha_equals_exact_value(self):
        # with t n even the global phase is a power of i, so alpha carries
        # no rounding beyond the one division by 2^r
        rng = Random(26)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(0, 12), rng.randint(0, 8))
            for t in range(8):
                if t * m.n % 2:
                    continue
                theta = Angle.exact(t, 4)
                numerator, r = codes.alpha_exact_fourth_root(m, theta)
                assert alpha(m, theta) == complex(numerator.re / 2**r, numerator.im / 2**r)

    def test_cancelled_parts_are_zero_at_odd_phase(self):
        # at odd t n alpha is a mean of eighth roots e^(i pi k / 4); a part
        # whose cosines or sines cancel exactly must read exactly 0
        rng = Random(27)
        for _ in range(60):
            n, l = 2 * rng.randint(0, 5) + 1, rng.randint(1, 6)
            m = random_matrix(rng, n, l)
            t = rng.choice([1, 3, 5, 7])
            words = {gf2.mat_vec(m, BitVector(l, v)).bits for v in range(1 << l)}
            k = [0] * 8
            for w in words:
                k[t * (n - 2 * w.bit_count()) % 8] += 1
            value = alpha(m, Angle.exact(t, 4))
            if k[0] == k[4] and k[1] + k[7] == k[3] + k[5]:
                assert value.real == 0.0
            if k[2] == k[6] and k[1] + k[3] == k[5] + k[7]:
                assert value.imag == 0.0
        assert alpha(BinaryMatrix.identity(1), Angle.exact(1, 4)).imag == 0.0


class TestProject:
    def test_pex_fixture(self, pex):
        got = project(pex, BitVector.from_string("0110"))
        assert got.to_strings() == [
            "1011", "0000", "0000", "0011", "1011", "0011",
        ]

    def test_pex_echelon_fixture(self, pex):
        form = gf2.echelon_reduce(project(pex, BitVector.from_string("0110")))
        assert form.reduced.to_strings() == ["10", "00", "00", "01", "10", "01"]

    def test_zero_direction(self, pex):
        with pytest.raises(ZeroDirection):
            project(pex, BitVector(4))

    def test_dimension_mismatch(self, pex):
        with pytest.raises(DimensionMismatch):
            project(pex, BitVector.from_string("011"))

    def test_rank_drop_at_most_one(self):
        rng = Random(26)
        for _ in range(80):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 8))
            x = random_bits(rng, m.l)
            if x.is_zero():
                continue
            r0, r1 = gf2.rank(m), gf2.rank(project(m, x))
            assert r1 in (r0, r0 - 1)

    def test_rows_stay_in_code(self):
        # each projected row is the original or the original shifted by x
        rng = Random(27)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            x = random_bits(rng, m.l)
            if x.is_zero():
                continue
            got = project(m, x)
            for before, after in zip(m.rows, got.rows):
                assert after in (before, before ^ x)
                assert after.bits == min(before.bits, (before ^ x).bits)

    def test_row_of_p_becomes_loop(self, pex):
        got = project(pex, pex.row(0))
        assert got.row(0).is_zero()


class TestAffinify:
    def test_pex_fixture(self, pex):
        got = affinify(pex, BitVector.from_string("0110"))
        assert got.to_strings() == ["1101", "0101", "1011", "0101"]

    def test_pex_echelon_fixture(self, pex):
        form = gf2.echelon_reduce(affinify(pex, BitVector.from_string("0110")))
        assert form.reduced.to_strings() == ["100", "010", "001", "010"]

    def test_all_ones_codeword(self, pex):
        s = BitVector.from_string("0110")
        sub = affinify(pex, s)
        word = gf2.mat_vec(sub, s)
        assert word.weight() == sub.n

    def test_all_ones_random(self):
        rng = Random(28)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 8))
            s = random_bits(rng, m.l)
            sub = affinify(m, s)
            assert gf2.mat_vec(sub, s).weight() == sub.n

    def test_zero_functional_drops_all(self, pex):
        assert affinify(pex, BitVector(4)).n == 0

    def test_rank_does_not_grow(self):
        rng = Random(29)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 8))
            s = random_bits(rng, m.l)
            assert gf2.rank(affinify(m, s)) <= gf2.rank(m)

    def test_dimension_mismatch(self, pex):
        with pytest.raises(DimensionMismatch):
            affinify(pex, BitVector(5))


class TestIsEvenCode:
    def test_pex_even(self, pex):
        # all four column weights of the fixture are even
        assert is_even_code(pex)

    def test_odd_column(self):
        assert not is_even_code(BinaryMatrix.from_strings(["10", "11"]))

    def test_matches_enumeration(self):
        rng = Random(30)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 7))
            profile = weight_enumerator(m)
            brute = all(
                count == 0 for w, count in enumerate(profile.weights) if w % 2
            )
            assert is_even_code(m) == brute


# raw and exact angles off pi/4, near 0 and pi/2, and the multiples of pi/4
BATCH_ANGLES = [
    Angle.radians(0.7), Angle.radians(2.9), Angle.exact(1, 16), Angle.exact(3, 8),
    Angle.radians(math.pi / 2 - 1e-3), Angle.radians(1e-3),
] + [Angle.exact(t, 4) for t in range(8)]


def shaped_matrix(data, family: str) -> BinaryMatrix:
    """A matrix of one shape family: small (r < l, r = l, n - r < r and
    r = 0 all occur), tall (64, 65 or 130 rows: one, two or three uint64
    lanes on the side of C) or wide (as many rows, with n - r < r: the
    lanes on the side of C-perp, and two columns outside the row space)."""
    if family == "small":
        l = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(0, 16))
        gens = data.draw(st.lists(st.integers(0, (1 << l) - 1), min_size=1, max_size=l))
        picks = data.draw(st.lists(st.integers(0, (1 << len(gens)) - 1), min_size=n, max_size=n))
        return BinaryMatrix(n, l, tuple(gf2._combine(gens, b) for b in picks))
    n = data.draw(st.sampled_from([64, 65, 130]))
    if family == "tall":
        l = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.integers(0, (1 << l) - 1), min_size=n, max_size=n))
        return BinaryMatrix(n, l, tuple(rows))
    k = data.draw(st.integers(0, 6))  # extra rows past an identity of rank n - k
    r = n - k
    extra = data.draw(st.lists(st.integers(0, (1 << r) - 1), min_size=k, max_size=k))
    rows = [1 << (r + 1 - i) for i in range(r)] + [e << 2 for e in extra]
    order = data.draw(st.permutations(range(n)))
    return BinaryMatrix(n, r + 2, tuple(rows[i] for i in order))


def enumerated_exact(m: BinaryMatrix, x: int, t: int) -> tuple:
    """(w, r, odd) of <x|U|0> at t pi / 4 by summing over every y, each
    codeword 2^(l - r) times."""
    r = gf2.rank(m)
    parts = [0, 0, 0, 0]  # by the power of i
    for y in range(1 << m.l):
        c = gf2._parities(y, m.bits).bit_count()
        parts[(-t * c + 2 * (x & y).bit_count()) % 4] += 1
    re, im = parts[0] - parts[2], parts[1] - parts[3]
    assert re % (1 << (m.l - r)) == 0 and im % (1 << (m.l - r)) == 0
    w = clifford.GaussianInteger(re >> (m.l - r), im >> (m.l - r))
    return w.times_i_power(t * m.n // 2), r, bool(t * m.n % 2)


class TestBatchedAmplitudes:
    """codes._amplitudes: one elimination for a batch of points, every
    point's coset weighed in the same numpy calls."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_single_points_and_the_oracle(self, data):
        family = data.draw(st.sampled_from(["small", "tall", "wide"]))
        m = shaped_matrix(data, family)
        theta = data.draw(st.sampled_from(BATCH_ANGLES))
        xs = data.draw(st.lists(st.integers(0, (1 << m.l) - 1), min_size=1, max_size=40))
        got = list(zip(*codes._amplitudes(m, xs, theta, codes.DEFAULT_RANK_LIMIT)))
        # a batch of one is the evaluator single calls use
        assert got == [codes._amplitude(m, x, theta, codes.DEFAULT_RANK_LIMIT) for x in xs]
        r = gf2.rank(m)
        for x, (value, _) in zip(xs, got):
            if gf2.rank(BinaryMatrix(m.n + 1, m.l, m.bits + (x,))) > r:
                assert value == 0j and isinstance(value, complex)
        if family != "wide":
            state = oracle.statevector(XProgram(m, theta))
            for x, (value, _) in zip(xs, got):
                assert abs(value - state.amplitudes[x]) < 1e-12

    def test_counts_over_many_matrices_match_one_at_a_time(self):
        # codes of mixed lengths and sides share the numpy calls, with
        # signed pairs, trivial forms and points outside the row spaces
        rng = Random(89)
        for trial in range(40):
            l = rng.randint(1, 7)
            ms = [random_matrix(rng, rng.randint(0, 14), l) for _ in range(rng.randint(1, 6))]
            if trial % 2:  # rank below l, so some points fall outside
                ms = [BinaryMatrix(m.n, l, tuple(v & ~1 for v in m.bits)) for m in ms]
            xs = [rng.getrandbits(l) for _ in range(rng.randint(1, 6))]
            got = list(codes._coset_counts(ms, xs, codes.DEFAULT_RANK_LIMIT))
            assert got == [c for m in ms for c in codes._coset_counts([m], xs, codes.DEFAULT_RANK_LIMIT)]

    def test_every_outcome_across_slices(self):
        # 2^11 points on C (r = 11 <= n - r): 4094 signed cosets of
        # dimension 10 pass _coset_weights 64 at a time; 2^14 points on
        # C-perp (n - r = 6 < r): 16384 cosets, 1024 at a time
        rng = Random(90)
        for n, l, side in [(24, 11, "primal"), (20, 14, "dual")]:
            while True:
                m = random_matrix(rng, n, l)
                if gf2.rank(m) == l:
                    break
            k = l - 1 if side == "primal" else n - l
            assert codes._GROUP_ENTRIES // (1 << k) < 1 << l
            theta = Angle.radians(0.9)
            xs = list(range(1 << l))
            got = codes._amplitudes(m, xs, theta, codes.DEFAULT_RANK_LIMIT)[0]
            want = [codes._amplitude(m, x, theta, codes.DEFAULT_RANK_LIMIT)[0] for x in xs]
            assert got == want
            state = oracle.statevector(XProgram(m, theta))
            assert np.abs(np.array(got) - state.amplitudes).max() < 1e-12

    def test_outside_the_row_space_is_exactly_zero(self):
        rng = Random(91)
        for theta in BATCH_ANGLES:
            m = BinaryMatrix(9, 7, tuple(rng.getrandbits(5) << 2 for _ in range(9)))
            xs = list(range(1 << 7))
            got = zip(*codes._amplitudes(m, xs, theta, codes.DEFAULT_RANK_LIMIT))
            for x, (value, exact) in zip(xs, got):
                if x & 0b11:
                    assert value == 0j and isinstance(value, complex) and exact is None

    def test_fourth_root_forms_match_enumeration(self):
        rng = Random(92)
        for trial in range(40):
            l = rng.randint(1, 7)
            m = random_matrix(rng, rng.randint(0, 12), l)
            if trial % 2:  # rank below l, so some points fall outside
                m = BinaryMatrix(m.n, l, tuple(v & ~1 for v in m.bits))
            xs = list(range(1 << l))
            for t in range(8):
                got = zip(*codes._amplitudes(m, xs, Angle.exact(t, 4), codes.DEFAULT_RANK_LIMIT))
                for x, (value, exact) in zip(xs, got):
                    if exact is None:
                        assert value == 0j
                        continue
                    assert exact == enumerated_exact(m, x, t)
                    w, r, odd = exact
                    assert isinstance(w, clifford.GaussianInteger)
                    phase = cmath.exp(1j * math.pi / 4) if odd else 1
                    assert abs(value - phase * w.to_complex() / 2**r) < 1e-12

    def test_rank_too_large_before_any_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(codes, "_lane_tables", refuse)
        # rank 6 and dual dimension 6, both past the limit 4; column 7 is unused
        m = BinaryMatrix(12, 7, tuple(v << 1 for v in BinaryMatrix.identity(6).bits) * 2)
        theta = Angle.radians(0.7)
        outside = [1, 3, 0b1000001]
        assert codes._amplitudes(m, outside, theta, 4) == ([0j] * 3, [None] * 3)
        with pytest.raises(RankTooLarge):
            codes._amplitudes(m, outside + [0b10], theta, 4)
        with pytest.raises(RankTooLarge):
            codes._amplitudes(m, [0], theta, 4)


def full_rank_matrix(rng: Random, n: int, l: int) -> BinaryMatrix:
    while True:
        m = random_matrix(rng, n, l)
        if gf2.rank(m) == min(n, l):
            return m


def low_rank_matrix(rng: Random, n: int, l: int, r: int) -> BinaryMatrix:
    gens = [rng.getrandbits(l) for _ in range(r)]
    return BinaryMatrix(n, l, tuple(gf2._combine(gens, rng.getrandbits(r)) for _ in range(n)))


def front_shapes() -> list[BinaryMatrix]:
    """The shapes whose front is checked: 12 x 8, full-rank 30 x 30, a
    tall 2000 x 12, n = 0, l = 0, all-zero rows, n = l at full rank, and
    n = 2l - 1, 2l and 2l + 1 (l = 6), each at full and at low rank."""
    rng = Random(93)
    shapes = [
        random_matrix(rng, 12, 8), full_rank_matrix(rng, 30, 30), random_matrix(rng, 2000, 12),
        BinaryMatrix(0, 5, ()), BinaryMatrix.zeros(4, 0), BinaryMatrix.zeros(6, 5),
        full_rank_matrix(rng, 8, 8),
    ]
    for n in (11, 12, 13):
        shapes += [full_rank_matrix(rng, n, 6), low_rank_matrix(rng, n, 6, 3)]
    return shapes


FRONT_ANGLES = [Angle.radians(0.7), Angle.exact(1, 16), Angle.exact(1, 4)]


class TestOneElimination:
    """Every code query makes one tagged elimination: of the n rows when
    n < 2l, the only shapes where C-perp can be the smaller side, else of
    the l columns."""

    @pytest.fixture
    def eliminated(self, monkeypatch):
        sizes = []
        tagged = gf2._tagged

        def counted(vectors):
            sizes.append(len(vectors))
            return tagged(vectors)

        monkeypatch.setattr(gf2, "_tagged", counted)
        return sizes

    @pytest.mark.parametrize("m", front_shapes(), ids=lambda m: f"{m.n}x{m.l}")
    def test_one_tagged_elimination_per_query(self, m, eliminated):
        rng = Random(94)
        side = m.n if m.n < 2 * m.l else m.l
        points = [BitVector(m.l, rng.getrandbits(m.l)) for _ in range(5)]
        queries = [lambda: weight_enumerator(m)]
        for theta in FRONT_ANGLES:
            prog = XProgram(m, theta)
            queries += [
                lambda theta=theta: alpha(m, theta),
                lambda prog=prog: xprogram.amplitudes(prog, points),
                lambda theta=theta: codes.alpha_exact_fourth_root(m, theta),
            ]
        for query in queries:
            eliminated.clear()
            if query() is None:  # no fourth-root form to evaluate
                assert eliminated == []
            else:
                assert eliminated == [side]

    def test_tall_programs_never_eliminate_their_rows(self, eliminated):
        rng = Random(95)
        for n, l in [(12, 6), (13, 6), (2000, 12), (64, 3), (4, 0)]:
            m = random_matrix(rng, n, l)
            weight_enumerator(m)
            for theta in FRONT_ANGLES:
                xprogram.amplitudes(XProgram(m, theta), [BitVector(l, x) for x in range(1 << l)])
            assert eliminated and set(eliminated) == {l}
            eliminated.clear()

    @pytest.mark.parametrize("n", [11, 12, 13])
    @pytest.mark.parametrize("rank", ["full", "low"])
    def test_both_sides_at_the_shape_boundary(self, n, rank):
        # l = 6: n = 11 < 2l eliminates the rows, and at full rank
        # n - r = 5 < r = 6 takes C-perp; n = 12 and 13 eliminate the columns
        rng = Random(96 + n)
        for _ in range(6):
            if rank == "full":
                m = full_rank_matrix(rng, n, 6)
            else:
                m = low_rank_matrix(rng, n, 6, rng.randint(2, 4))
            r = gf2.rank(m)
            gens = clifford._reduced_generators(m)[0]
            profile = weight_enumerator(m)
            assert profile.rank == r
            assert profile.weights == tuple(codes._histogram(gens, n).tolist())
            xs = list(range(1 << 6))
            for theta in FRONT_ANGLES:
                state = oracle.statevector(XProgram(m, theta))
                values = codes._amplitudes(m, xs, theta, codes.DEFAULT_RANK_LIMIT)[0]
                for x, value in zip(xs, values):
                    if gf2.rank(BinaryMatrix(n + 1, 6, m.bits + (x,))) > r:
                        assert value == 0j and isinstance(value, complex)
                    else:
                        assert abs(value - state.amplitudes[x]) < 1e-12
