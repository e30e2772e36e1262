"""Program-level semantics against the statevector oracle."""

import cmath
import dataclasses
import math
from itertools import combinations
from math import comb, gcd
from random import Random

import numpy as np
import pytest

from iqpsim import clifford, codes, gf2, oracle, xprogram
from iqpsim.clifford import clifford_support
from iqpsim.codes import Angle, affinify, alpha, project
from iqpsim.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainTooLarge,
    NumericalInconsistency,
    RankTooLarge,
    UnsupportedAngle,
)
from iqpsim.gf2 import BinaryMatrix, BitVector
from iqpsim.xprogram import (
    Distribution,
    ReducedProgram,
    XProgram,
    amplitude,
    beta,
    full_distribution,
    probability,
    reduce_rows,
    walsh_hadamard,
)

from conftest import random_bits, random_matrix

ANGLES = [
    Angle.exact(1, 8), Angle.exact(1, 4), Angle.exact(1, 2),
    Angle.exact(1, 5), Angle.radians(1.0),
]


def random_program(rng: Random, max_n=10, max_l=7) -> XProgram:
    m = random_matrix(rng, rng.randint(1, max_n), rng.randint(1, max_l))
    return XProgram(m, ANGLES[rng.randrange(len(ANGLES))])


class TestDistribution:
    def test_basic_access(self):
        d = Distribution(1, [0.25, 0.75])
        assert d.probability(0) == 0.25
        assert d.probability(BitVector.from_string("1")) == 0.75
        assert len(d) == 2
        assert list(d.as_array()) == [0.25, 0.75]

    def test_outcomes_order(self):
        d = Distribution(2, [0.1, 0.2, 0.3, 0.4])
        got = [(v.to_string(), p) for v, p in d.outcomes()]
        assert got == [("00", 0.1), ("01", 0.2), ("10", 0.3), ("11", 0.4)]

    def test_clamps_tiny_negative(self):
        d = Distribution(1, [1.0 + 5e-10, -5e-10])
        assert d.probability(1) == 0.0
        assert d.clamp_drift == pytest.approx(5e-10)

    def test_rejects_large_negative(self):
        with pytest.raises(NumericalInconsistency):
            Distribution(1, [1.1, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(NumericalInconsistency):
            Distribution(1, [0.6, 0.6])

    def test_rejects_nan(self):
        # a NaN total is not within the tolerance of 1
        for values in ([math.nan, math.nan], [math.nan, 1.0], [1.0, math.nan]):
            with pytest.raises(NumericalInconsistency):
                Distribution(1, values)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            Distribution(2, [0.5, 0.5])

    def test_rejects_an_outcome_of_another_length(self):
        # a 2-bit outcome of a 3-bit distribution read entry 1
        d = Distribution(3, [0.125] * 8)
        with pytest.raises(DimensionMismatch):
            d.probability(BitVector(2, 1))

    def test_rejects_an_index_out_of_range(self):
        # -3 wrapped to entry 5, and 8 is past the last entry
        d = Distribution(3, [0.125] * 8)
        for ix in (-3, -1, 8):
            with pytest.raises(DimensionMismatch):
                d.probability(ix)
        assert d.probability(7) == d.probability(BitVector(3, 7)) == 0.125

    def test_total_variation(self):
        a = Distribution(1, [1.0, 0.0])
        b = Distribution(1, [0.0, 1.0])
        assert a.total_variation(b) == pytest.approx(1.0)
        assert a.total_variation(a) == 0.0

    def test_array_is_frozen(self):
        d = Distribution(1, [0.5, 0.5])
        copy = d.as_array()
        copy[0] = 9.0
        assert d.probability(0) == 0.5


class TestWalshHadamard:
    def test_small_fixture(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        assert list(walsh_hadamard(v)) == [1.0, 1.0, 1.0, 1.0]

    def test_involution_up_to_scale(self):
        rng = Random(51)
        for bits in (1, 3, 5):
            v = np.array([rng.random() for _ in range(1 << bits)])
            twice = walsh_hadamard(walsh_hadamard(v.copy()))
            assert np.allclose(twice, v * (1 << bits))

    def test_2d_input_transforms_each_column(self):
        rng = Random(52)
        values = np.array([[rng.random() for _ in range(3)] for _ in range(8)])
        want = np.stack([walsh_hadamard(values[:, c].copy()) for c in range(3)], axis=1)
        assert np.array_equal(walsh_hadamard(values), want)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionMismatch):
            walsh_hadamard(np.zeros(3))


class TestAmplitude:
    def test_single_row_program(self):
        # one X rotation: amp(0) = cos(theta), amp(1) = i sin(theta)
        prog = XProgram(BinaryMatrix.from_strings(["1"]), Angle.radians(0.6))
        assert cmath.isclose(amplitude(prog, BitVector(1)), math.cos(0.6))
        got = amplitude(prog, BitVector.from_string("1"))
        assert cmath.isclose(got, 1j * math.sin(0.6), abs_tol=1e-12)

    def test_matches_oracle(self):
        rng = Random(52)
        for _ in range(60):
            prog = random_program(rng)
            state = oracle.statevector(prog)
            for ix in range(1 << prog.l):
                x = BitVector(prog.l, ix)
                assert cmath.isclose(
                    amplitude(prog, x), state.amplitude(x), abs_tol=1e-9
                )

    def test_dimension_mismatch(self, pex):
        prog = XProgram(pex, Angle.exact(1, 8))
        with pytest.raises(DimensionMismatch):
            amplitude(prog, BitVector(3))

    def test_probability_is_squared_magnitude(self):
        rng = Random(53)
        prog = random_program(rng)
        x = random_bits(rng, prog.l)
        assert probability(prog, x) == pytest.approx(abs(amplitude(prog, x)) ** 2)

    def test_projection_identity_at_fourth_roots(self):
        # <x|U|0> = alpha(project(P, x)) - alpha(P) for x != 0: the engine
        # takes one signed Gauss sum instead, with the same floats
        rng = Random(54)
        for k in range(90):
            l = rng.randint(2, (8, 40, 16)[k % 3])
            n = rng.randint(1, (12, 400, 60)[k % 3])
            m = dependent_rows(rng, n, l, ("dense", "dense", "low")[k % 3])
            for t in range(8):
                prog = XProgram(m, Angle.exact(t, 4))
                base = alpha(m, prog.theta)
                assert repr(amplitude(prog, BitVector(l))) == repr(base)
                for _ in range(3):
                    # half in the row space, where the amplitude can be nonzero
                    ix = rng.getrandbits(l) if rng.getrandbits(1) else gf2._combine(
                        m.bits, rng.getrandbits(n))
                    x = BitVector(l, ix)
                    if ix:
                        want = alpha(project(m, x), prog.theta) - base
                        assert repr(amplitude(prog, x)) == repr(want)

    def test_one_gauss_sum_per_fourth_root_amplitude(self, monkeypatch):
        calls = []
        form_sum = clifford._form_sum

        def counted(form, linear=0):
            calls.append(len(form[0]))
            return form_sum(form, linear)

        monkeypatch.setattr(clifford, "_form_sum", counted)
        rng = Random(55)
        for k in range(40):
            l = rng.randint(2, 8)
            m = dependent_rows(rng, rng.randint(1, 16), l, ("dense", "low")[k % 2])
            r = gf2.rank(m)
            for t in range(8):
                prog = XProgram(m, Angle.exact(t, 4))
                for ix in range(1, 1 << l):
                    calls.clear()
                    got = amplitude(prog, BitVector(l, ix))
                    if gf2.rank(BinaryMatrix(m.n + 1, l, m.bits + (ix,))) > r:
                        assert got == 0j and not calls
                    else:
                        # even t leave a character sum, odd t one Gauss sum
                        assert len(calls) == t % 2


class TestAmplitudes:
    def test_batch_matches_single_points_and_the_oracle(self):
        rng = Random(56)
        for k in range(60):
            l = rng.randint(1, 8)
            m = dependent_rows(rng, rng.randint(0, 16), l, ("dense", "repeated", "low")[k % 3])
            prog = XProgram(m, OUTSIDE_ANGLES[k % len(OUTSIDE_ANGLES)])
            xs = [BitVector(l, rng.getrandbits(l)) for _ in range(rng.randint(1, 20))]
            got = xprogram.amplitudes(prog, xs)
            assert got == [amplitude(prog, x) for x in xs]
            state = oracle.statevector(prog)
            assert all(abs(a - state.amplitude(x)) < 1e-12 for a, x in zip(got, xs))

    def test_empty_batch(self, pex):
        assert xprogram.amplitudes(XProgram(pex, Angle.radians(0.7)), []) == []

    def test_dimension_mismatch(self, pex):
        prog = XProgram(pex, Angle.exact(1, 8))
        with pytest.raises(DimensionMismatch):
            xprogram.amplitudes(prog, [BitVector(4), BitVector(3)])


def dependent_rows(rng: Random, n: int, l: int, kind: str) -> BinaryMatrix:
    """n rows of width l: dense, drawn from a few repeated rows, or of low rank."""
    if kind == "dense":
        rows = [rng.getrandbits(l) for _ in range(n)]
    else:
        base = [rng.getrandbits(l) for _ in range(rng.randint(1, max(1, l - 1)))]
        if kind == "repeated":
            rows = [rng.choice(base) for _ in range(n)]
        else:
            rows = [gf2._combine(base, rng.getrandbits(len(base))) for _ in range(n)]
    return BinaryMatrix(n, l, tuple(rows))


# raw angles, exact ones off pi/4, and angles near 0 and pi/2, where
# sin or cos is small
SWEEP_ANGLES = [
    Angle.radians(0.7), Angle.radians(2.9), Angle.radians(5.3), Angle.exact(1, 16),
    Angle.exact(3, 16), Angle.exact(7, 16), Angle.radians(math.pi / 2 - 1e-3),
    Angle.radians(1e-3),
]
# the multiples of pi/4 too, which take a signed Gauss sum
OUTSIDE_ANGLES = SWEEP_ANGLES + [Angle.exact(t, 4) for t in range(8)]


class TestSmallerSide:
    """Amplitudes and correlations enumerate the smaller of C and C-perp."""

    def test_dual_side_matches_oracle(self):
        # n - r < r: the sum runs over a coset of the circuit space
        rng = Random(61)
        cases = 0
        while cases < 80:
            l = rng.randint(2, 8)
            m = random_matrix(rng, rng.randint(l, l + 4), l)
            r = gf2.rank(m)
            if m.n - r >= r:
                continue
            cases += 1
            prog = XProgram(m, SWEEP_ANGLES[cases % len(SWEEP_ANGLES)])
            state = oracle.statevector(prog)
            for ix in range(1 << l):
                x = BitVector(l, ix)
                assert abs(amplitude(prog, x) - state.amplitude(x)) < 1e-12
                assert abs(beta(prog, x) - oracle.oracle_beta(prog, x)) < 1e-12

    def test_both_sides_match_oracle(self):
        # dense, repeated and low-rank rows put either side in front
        rng = Random(62)
        for k in range(120):
            l = rng.randint(1, 8)
            m = dependent_rows(rng, rng.randint(1, 16), l, ("dense", "repeated", "low")[k % 3])
            prog = XProgram(m, SWEEP_ANGLES[k % len(SWEEP_ANGLES)])
            state = oracle.statevector(prog)
            for ix in range(1 << l):
                x = BitVector(l, ix)
                assert abs(amplitude(prog, x) - state.amplitude(x)) < 1e-12

    def test_outside_the_row_space_is_zero(self):
        rng = Random(63)
        seen = 0
        for k in range(96):
            l = rng.randint(2, 8)
            m = dependent_rows(rng, rng.randint(1, 16), l, ("repeated", "low")[k % 2])
            prog = XProgram(m, OUTSIDE_ANGLES[k % len(OUTSIDE_ANGLES)])
            r = gf2.rank(m)
            for ix in range(1 << l):
                x = BitVector(l, ix)
                if gf2.rank(BinaryMatrix(m.n + 1, l, m.bits + (ix,))) > r:
                    seen += 1
                    got = amplitude(prog, x)
                    assert got == 0j and isinstance(got, complex)
        assert seen > 100

    def test_full_rank_square(self):
        # the rows are independent, so C-perp = {0}: alpha = cos^n, and x
        # is the sum of one row set S, giving cos^(n-|S|) (i sin)^|S|
        rng = Random(64)
        theta = Angle.radians(0.7)
        c, s = math.cos(0.7), math.sin(0.7)
        n = 30
        while True:
            m = random_matrix(rng, n, n)
            if gf2.rank(m) == n:
                break
        prog = XProgram(m, theta)
        assert abs(amplitude(prog, BitVector(n)) - c**n) < 1e-15
        for _ in range(5):
            rows = rng.getrandbits(n)
            x = BitVector(n, gf2._combine(m.bits, rows))
            k = rows.bit_count()
            assert abs(amplitude(prog, x) - c ** (n - k) * (1j * s) ** k) < 1e-15

    def test_budget_bounds_the_smaller_side(self):
        theta = Angle.radians(0.7)
        x = BitVector.from_string("100000")
        # rank 6 past the limit 4, dual dimension 0
        prog = XProgram(BinaryMatrix.identity(6), theta)
        assert abs(amplitude(prog, x, rank_limit=4) - 1j * math.sin(0.7) * math.cos(0.7) ** 5) < 1e-15
        assert beta(prog, x, rank_limit=0) == pytest.approx(math.cos(1.4))
        # rank 6 and dual dimension 6, both past the limit
        doubled = BinaryMatrix(12, 6, BinaryMatrix.identity(6).bits * 2)
        with pytest.raises(RankTooLarge):
            amplitude(XProgram(doubled, theta), x, rank_limit=4)
        assert amplitude(XProgram(doubled, theta), x, rank_limit=6) != 0


class TestBeta:
    def test_zero_functional(self):
        rng = Random(54)
        prog = random_program(rng)
        assert beta(prog, BitVector(prog.l)) == 1.0

    def test_matches_oracle(self):
        rng = Random(55)
        for _ in range(60):
            prog = random_program(rng)
            for ix in range(1 << prog.l):
                s = BitVector(prog.l, ix)
                assert beta(prog, s) == pytest.approx(
                    oracle.oracle_beta(prog, s), abs=1e-9
                )

    def test_range(self):
        rng = Random(56)
        for _ in range(30):
            prog = random_program(rng)
            s = random_bits(rng, prog.l)
            assert -1 - 1e-9 <= beta(prog, s) <= 1 + 1e-9

    def test_fixture_vanishing(self, pex):
        # the affinified fixture code has weights (1,2,2,2,1), which cancels
        prog = XProgram(pex, Angle.exact(1, 8))
        assert beta(prog, BitVector.from_string("0110")) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self, pex):
        with pytest.raises(DimensionMismatch):
            beta(XProgram(pex, Angle.exact(1, 8)), BitVector(5))


# generic angles, and 1/8 and 1/4, whose doubled angles take the Gauss sum
BETA_ANGLES = [
    Angle.radians(0.7), Angle.radians(2.9), Angle.exact(1, 16), Angle.exact(3, 16),
    Angle.exact(1, 8), Angle.exact(1, 4),
]


def rank_rows(rng: Random, n: int, l: int, rank: int) -> BinaryMatrix:
    """n rows of width l, each a random sum of the same rank random rows."""
    base = [rng.getrandbits(l) for _ in range(rank)]
    return BinaryMatrix(n, l, tuple(gf2._combine(base, rng.getrandbits(rank)) for _ in range(n)))


def per_s_betas(prog: XProgram, ss: list[BitVector]) -> list[float]:
    """The coefficients one at a time, as alpha of each affinified matrix."""
    return [alpha(affinify(prog.P, s), prog.theta.doubled()).real for s in ss]


class TestBetas:
    """betas: at doubled angles off the multiples of pi/4 each s keeps its
    own code and elimination, and the enumerations share their numpy
    calls; at multiples of pi/4 every s reads its Gauss sum off P's own
    code, one elimination for the batch."""

    def test_equals_the_per_s_definition(self):
        rng = Random(57)
        sides, empty = set(), 0
        for k in range(150):
            l = rng.randint(1, 8)
            kind = ("dense", "repeated", "low")[k % 3]
            m = dependent_rows(rng, rng.randint(0, 16) if k % 10 else 0, l, kind)
            prog = XProgram(m, BETA_ANGLES[k % len(BETA_ANGLES)])
            ss = [BitVector(l, ix) for ix in range(1 << l)]
            rng.shuffle(ss)
            assert xprogram.betas(prog, ss) == per_s_betas(prog, ss)
            for s in ss:
                odd = affinify(m, s)
                if not odd.n:
                    empty += not s.is_zero()
                    continue
                r = gf2.rank(odd)
                sides.add(odd.n - r < r)
        assert sides == {True, False} and empty > 20

    def test_codes_past_one_lane(self):
        # l = 70: 140 dense rows keep n - r < r, 150 rank-8 rows put C in
        # front, and both affinify to codes longer than 64
        rng = Random(58)
        for k, theta in enumerate(BETA_ANGLES):
            m = random_matrix(rng, 140, 70) if k % 2 else rank_rows(rng, 150, 70, 8)
            prog = XProgram(m, theta)
            ss = [BitVector(70)] + [BitVector(70, rng.getrandbits(70)) for _ in range(40)]
            assert xprogram.betas(prog, ss) == per_s_betas(prog, ss)
            assert sum(affinify(m, s).n > 64 for s in ss) > 20

    def test_chunks_of_many_codes(self, monkeypatch):
        # 600 codes of about 150 rows, nearly all of basis size 8, pass
        # the codes one _histograms call may take, so that size takes
        # more than one call
        rng = Random(59)
        m = rank_rows(rng, 300, 70, 8)
        prog = XProgram(m, Angle.radians(0.9))
        ss = [BitVector(70, rng.getrandbits(70)) for _ in range(600)]
        want = per_s_betas(prog, ss)
        calls = []
        exact = codes._histograms

        def counted(bases, offsets, n):
            calls.append((bases.shape[1], len(offsets), n))
            return exact(bases, offsets, n)

        monkeypatch.setattr(codes, "_histograms", counted)
        assert xprogram.betas(prog, ss) == want
        assert all(count <= max(1, codes._GROUP_ENTRIES // (n + 1)) for _, count, n in calls)
        sizes = [k for k, _, _ in calls]
        assert any(sizes.count(k) > 1 for k in sizes) and sum(count for _, count, _ in calls) == 600

    def test_budget_before_any_enumeration(self, monkeypatch):
        # several s pass the limit; the batch names the first of a per-s loop
        rng = Random(60)
        prog = XProgram(random_matrix(rng, 16, 10), Angle.radians(0.7))
        ss = [BitVector(10, ix) for ix in range(1024)]
        rng.shuffle(ss)
        messages = []
        for s in ss:
            try:
                beta(prog, s, rank_limit=3)
            except RankTooLarge as err:
                messages.append(str(err))
        assert len(messages) > 1 and len(set(messages)) > 1
        calls = []
        exact = codes._histograms
        monkeypatch.setattr(codes, "_histograms", lambda *a: calls.append(1) or exact(*a))
        with pytest.raises(RankTooLarge) as caught:
            xprogram.betas(prog, ss, rank_limit=3)
        assert str(caught.value) == messages[0] and not calls

    def test_beta_is_a_batch_of_one(self, monkeypatch, pex):
        seen = []
        exact = xprogram.betas
        monkeypatch.setattr(xprogram, "betas", lambda prog, ss, **kw: seen.append(ss) or exact(prog, ss, **kw))
        s = BitVector.from_string("0110")
        assert beta(XProgram(pex, Angle.radians(0.7)), s) == exact(XProgram(pex, Angle.radians(0.7)), [s])[0]
        assert seen == [[s]]

    @pytest.mark.parametrize("l", [1, 8, 64, 65, 130])
    def test_fourth_roots_equal_the_per_s_definition(self, l):
        # at a pi/8 the doubled angle is t pi/4 with t = a: even t leave a
        # character sum, odd t a Gauss sum of i^-t, k = 1 or 3; the batches
        # hold s = 0 and repeated s, and the last one spans 3 dimensions
        rng = Random(61 + l)
        for kind in ("dense", "repeated", "low", "no rows", "zero rows", "zero column"):
            n = rng.randint(l // 2, 2 * l + 4)
            if kind == "no rows":
                m = BinaryMatrix(0, l, ())
            elif kind == "zero rows":
                half = dependent_rows(rng, n // 2, l, "dense").bits
                m = BinaryMatrix(n, l, half + (0,) * (n - n // 2))
            elif kind == "zero column":
                # column 0 is zero, so s = 10..0 is odd against no row
                rows = dependent_rows(rng, n, l, "dense").bits
                m = BinaryMatrix(n, l, tuple(a & ~(1 << (l - 1)) for a in rows))
            else:
                m = dependent_rows(rng, n, l, kind)
            ss = [BitVector(l), BitVector.unit(l, 0)] + [random_bits(rng, l) for _ in range(6)]
            ss += ss[1:4]
            base = [rng.getrandbits(l) for _ in range(3)]
            small = [BitVector(l, gf2._combine(base, rng.getrandbits(3))) for _ in range(12)]
            for a in range(16):
                prog = XProgram(m, Angle.exact(a, 8))
                for batch in (ss, small):
                    rng.shuffle(batch)
                    assert xprogram.betas(prog, batch) == per_s_betas(prog, batch), (kind, a)

    def test_fourth_roots_take_one_elimination(self, monkeypatch):
        # no affinified code and no per-s front; one elimination of P's
        # columns, and at odd t one Gram matrix per basis vector of
        # span(Ps), rank(P) of them for 256 coefficients
        rng = Random(66)
        progs = [XProgram(dependent_rows(rng, 40, 8, kind), Angle.exact(a, 8))
                 for kind in ("dense", "low") for a in range(16)]
        ss = [BitVector(8, ix) for ix in range(256)]
        wants = [per_s_betas(prog, ss) for prog in progs]
        monkeypatch.setattr(codes, "affinify", None)
        monkeypatch.setattr(codes, "_front", None)
        calls = {"eliminate": 0, "gram": 0}
        for module, name in ((gf2, "_eliminate"), (clifford, "_gram")):
            def counted(*args, exact=getattr(module, name), key=name.strip("_")):
                calls[key] += 1
                return exact(*args)
            monkeypatch.setattr(module, name, counted)
        for prog, want in zip(progs, wants):
            calls.update(eliminate=0, gram=0)
            assert xprogram.betas(prog, ss) == want
            assert calls["eliminate"] == 1
            odd = prog.theta.doubled().fourth_root_index % 2
            assert calls["gram"] == (gf2.rank(prog.P) if odd else 0)

    def test_fourth_root_checks(self, monkeypatch):
        # |value| <= 1 and the imaginary part are still checked: at t = 2 the
        # one row pair 1, 1 has phase e^(i pi) = -1, so 2^r i gives -i
        prog = XProgram(BinaryMatrix(2, 1, (1, 1)), Angle.exact(1, 4))
        s = BitVector(1, 1)
        assert xprogram.betas(prog, [s]) == [-1.0]
        for fake, message in ((clifford.GaussianInteger(4, 0), "exceeds 1"),
                              (clifford.GaussianInteger(0, 2), "imaginary part")):
            monkeypatch.setattr(
                clifford, "_masked_wenums",
                lambda gens, k, masks, linears=None, w=fake: [w] * len(masks),
            )
            with pytest.raises(NumericalInconsistency, match=message):
                xprogram.betas(prog, [s])

    @pytest.mark.parametrize("theta", [Angle.radians(0.7), Angle.exact(1, 16)], ids=str)
    def test_generic_angles_take_no_affinify(self, theta, monkeypatch):
        # codes._correlations keeps each s's odd rows itself
        rng = Random(67)
        progs = [XProgram(dependent_rows(rng, rng.randint(0, 16), 8, kind), theta)
                 for kind in ("dense", "repeated", "low") for _ in range(3)]
        ss = [BitVector(8, ix) for ix in range(256)]
        wants = [per_s_betas(prog, ss) for prog in progs]
        monkeypatch.setattr(codes, "affinify", None)
        for prog, want in zip(progs, wants):
            assert xprogram.betas(prog, ss) == want

    def test_dimension_mismatch_before_any_code(self, pex, monkeypatch):
        monkeypatch.setattr(codes, "affinify", None)
        with pytest.raises(DimensionMismatch):
            xprogram.betas(XProgram(pex, Angle.exact(1, 8)), [BitVector(4, 3), BitVector(5)])


class TestFullDistribution:
    def test_single_qubit(self):
        prog = XProgram(BinaryMatrix.from_strings(["1"]), Angle.radians(0.8))
        d = full_distribution(prog)
        assert d.probability(0) == pytest.approx(math.cos(0.8) ** 2)
        assert d.probability(1) == pytest.approx(math.sin(0.8) ** 2)

    def test_pex_quarter_turn_uniform_on_support(self, pex):
        d = full_distribution(XProgram(pex, Angle.exact(1, 4)))
        support = clifford_support(pex)
        for ix in range(16):
            want = 0.25 if support.contains(BitVector(4, ix)) else 0.0
            assert d.probability(ix) == pytest.approx(want, abs=1e-12)

    def test_matches_oracle(self):
        rng = Random(57)
        for _ in range(40):
            prog = random_program(rng)
            dense = oracle.oracle_distribution(prog)
            mine = full_distribution(prog)
            assert np.abs(mine.as_array() - dense.as_array()).max() < 1e-9

    def test_matches_amplitudes(self):
        rng = Random(58)
        for _ in range(20):
            prog = random_program(rng, max_n=8, max_l=5)
            d = full_distribution(prog)
            for ix in range(1 << prog.l):
                assert d.probability(ix) == pytest.approx(
                    probability(prog, BitVector(prog.l, ix)), abs=1e-9
                )

    def test_threads_do_not_change_output(self):
        rng = Random(59)
        for _ in range(10):
            prog = random_program(rng)
            single = full_distribution(prog, threads=1).as_array()
            multi = full_distribution(prog, threads=4).as_array()
            assert np.array_equal(single, multi)

    def test_fourth_root_angles_exact(self):
        # odd multiples of pi/4: uniform on the Clifford support, every
        # entry exactly 2^-dim; multiples of pi/2: exactly a point mass
        rng = Random(60)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(0, 12), rng.randint(0, 8))
            dim = clifford_support(m).dim
            for t in range(8):
                p = full_distribution(XProgram(m, Angle.exact(t, 4))).as_array()
                nonzero = p[p != 0.0]
                if t % 2:
                    assert len(nonzero) == 1 << dim
                    assert np.all(nonzero == 2.0**-dim)
                else:
                    assert nonzero.tolist() == [1.0]

    def test_empty_programs(self):
        for theta in ANGLES:
            for l in range(4):
                d = full_distribution(XProgram(BinaryMatrix.zeros(0, l), theta))
                assert d.as_array().tolist() == [1.0] + [0.0] * ((1 << l) - 1)
            for n in range(4):
                d = full_distribution(XProgram(BinaryMatrix.zeros(n, 0), theta))
                assert len(d) == 1
                assert d.probability(0) == pytest.approx(1.0, abs=1e-15)

    def test_domain_limit(self):
        prog = XProgram(BinaryMatrix.zeros(1, 17), Angle.exact(1, 4))
        with pytest.raises(DomainTooLarge):
            full_distribution(prog)


def expanded_reduction(prog: XProgram, term_limit: int = 2_000_000) -> ReducedProgram:
    """Reference for reduce_rows: expand every row into all its sub-supports,
    one term at a time, with each coefficient as its d-term alternating sum."""
    c, d = prog.theta.dyadic_parts()
    modulus = (2 << d) // gcd(c, 2 << d) if c else 1
    counts: dict[int, int] = {}
    budget = 0
    for row in prog.P.bits:
        w = row.bit_count()
        support = [1 << b for b in range(prog.l) if row >> b & 1]
        for sz in range(0, min(d, w) + 1):
            f = sum((-1) ** j * comb(w - sz, j) for j in range(d - sz + 1)) % modulus
            if not f:
                continue
            budget += comb(w, sz)
            if budget > term_limit:
                raise BudgetExceeded(f"row expansion exceeds {term_limit} terms")
            for subset in combinations(support, sz):
                key = sum(subset)
                counts[key] = (counts.get(key, 0) + f) % modulus
    phase_exponent = counts.pop(0, 0)
    return ReducedProgram(
        l=prog.l,
        theta=prog.theta,
        monomials=tuple((bits, mult) for bits, mult in sorted(counts.items()) if mult),
        phase_exponent=phase_exponent,
        degree=d,
        period=modulus,
    )


def expansion_terms(prog: XProgram) -> int:
    """The number of terms the row-by-row expansion adds up."""
    c, d = prog.theta.dyadic_parts()
    modulus = (2 << d) // gcd(c, 2 << d) if c else 1
    return sum(
        comb(w, sz)
        for w in (row.bit_count() for row in prog.P.bits)
        for sz in range(min(d, w) + 1)
        if sum((-1) ** j * comb(w - sz, j) for j in range(d - sz + 1)) % modulus
    )


def dyadic_angles():
    """Every a pi / 2^k with k <= 6 and 0 <= a < 2^(k+1), even a included."""
    return [Angle.exact(a, 1 << k) for k in range(7) for a in range(2 << k)]


class TestReduceRows:
    def test_triple_row_quarter_turn_fixture(self):
        # X1 X2 X3 at pi/4 becomes singletons times 7 and pairs times 1,
        # with one unit of theta as leftover global phase
        prog = XProgram(BinaryMatrix.from_strings(["111"]), Angle.exact(1, 4))
        got = reduce_rows(prog)
        assert got.degree == 2
        assert got.period == 8
        assert got.phase_exponent == 1
        table = {row.to_string(): mult for row, mult in got.rows}
        assert table == {
            "100": 7, "010": 7, "001": 7,
            "110": 1, "101": 1, "011": 1,
        }
        assert got.monomials == tuple((row.bits, mult) for row, mult in got.rows)
        assert got.monomials == tuple(sorted(got.monomials))

    def test_weight_bound(self):
        rng = Random(60)
        for _ in range(60):
            n, l = rng.randint(1, 9), rng.randint(1, 7)
            theta = rng.choice([Angle.exact(1, 2), Angle.exact(1, 4), Angle.exact(1, 8)])
            prog = XProgram(random_matrix(rng, n, l), theta)
            got = reduce_rows(prog)
            d = theta.dyadic_parts()[1]
            assert got.degree == d
            assert all(row.weight() <= d for row, _ in got.rows)
            assert all(0 < mult < got.period for _, mult in got.rows)

    def test_distribution_preserved(self):
        rng = Random(61)
        for _ in range(40):
            n, l = rng.randint(1, 8), rng.randint(1, 6)
            theta = rng.choice([Angle.exact(1, 2), Angle.exact(1, 4), Angle.exact(1, 8)])
            prog = XProgram(random_matrix(rng, n, l), theta)
            back = reduce_rows(prog).to_xprogram()
            a = oracle.oracle_distribution(prog).as_array()
            b = oracle.oracle_distribution(back).as_array()
            assert np.abs(a - b).max() < 1e-9

    def test_unitary_preserved_with_phase(self):
        # including the dropped scalar, the two programs act identically
        rng = Random(62)
        for _ in range(15):
            prog = XProgram(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5)),
                            Angle.exact(1, 4))
            reduced = reduce_rows(prog)
            a = oracle.statevector(prog).amplitudes
            b = oracle.statevector(reduced.to_xprogram()).amplitudes
            assert np.allclose(a, reduced.global_phase() * b, atol=1e-9)

    def test_half_turn_empties_program(self):
        rng = Random(63)
        m = random_matrix(rng, 5, 4)
        got = reduce_rows(XProgram(m, Angle.exact(1, 1)))
        assert got.rows == ()
        assert got.degree == 0
        d = oracle.oracle_distribution(got.to_xprogram())
        assert d.probability(0) == pytest.approx(1.0)

    def test_rejects_non_dyadic(self):
        prog = XProgram(BinaryMatrix.identity(2), Angle.exact(1, 5))
        with pytest.raises(UnsupportedAngle):
            reduce_rows(prog)
        with pytest.raises(UnsupportedAngle):
            reduce_rows(XProgram(BinaryMatrix.identity(2), Angle.radians(0.5)))

    def test_counts_reported(self):
        prog = XProgram(BinaryMatrix.from_strings(["111"]), Angle.exact(1, 4))
        got = reduce_rows(prog)
        assert got.monomial_count == 6
        assert got.expanded_row_count == 24

    def test_expansion_budget_before_any_row(self, monkeypatch):
        # the 24 expanded rows pass a limit of 24; at 23 the count alone is
        # read, in one pass over the monomials, and no row is built
        class CountedMonomials(tuple):
            passes = 0

            def __iter__(self):
                CountedMonomials.passes += 1
                return super().__iter__()

        got = reduce_rows(XProgram(BinaryMatrix.from_strings(["111"]), Angle.exact(1, 4)))
        counted = dataclasses.replace(got, monomials=CountedMonomials(got.monomials))
        monkeypatch.setattr(xprogram, "EXPANDED_ROW_LIMIT", 24)
        assert counted.to_xprogram().n == 24
        CountedMonomials.passes = 0
        monkeypatch.setattr(xprogram, "EXPANDED_ROW_LIMIT", 23)
        with pytest.raises(BudgetExceeded, match="24 rows, beyond the limit 23"):
            counted.to_xprogram()
        assert CountedMonomials.passes == 1

    def test_matches_row_expansion(self):
        rng = Random(64)
        angles = dyadic_angles()
        for theta in angles:
            for _ in range(3):
                n, l = rng.randint(0, 12), rng.randint(0, 12)
                rows = [rng.getrandbits(l) for _ in range(n)]
                if rows:
                    rows += [0] + [rng.choice(rows) for _ in range(rng.randint(1, 4))]
                    rng.shuffle(rows)
                prog = XProgram(BinaryMatrix(len(rows), l, tuple(rows)), theta)
                assert reduce_rows(prog) == expanded_reduction(prog)
        for n, l in ((0, 0), (0, 5), (4, 0)):
            for theta in angles[::7]:
                prog = XProgram(BinaryMatrix.zeros(n, l), theta)
                assert reduce_rows(prog) == expanded_reduction(prog)

    def test_matches_row_expansion_on_wide_rows(self):
        rng = Random(65)
        for l in (64, 65, 200, 2000):
            for theta in (Angle.exact(1, 4), Angle.exact(1, 8), Angle.exact(3, 16), Angle.exact(1, 1)):
                n = rng.randint(1, 40)
                rows = [sum(1 << b for b in rng.sample(range(l), rng.randint(0, 7)))
                        for _ in range(n)]
                rows.append(rows[0])
                prog = XProgram(BinaryMatrix(len(rows), l, tuple(rows)), theta)
                assert reduce_rows(prog) == expanded_reduction(prog)

    def test_closed_form_coefficients(self):
        for m in range(41):
            for k in range(41):
                want = sum((-1) ** j * comb(m, j) for j in range(k + 1))
                assert xprogram._alternating_sum(m, k) == want

    def test_deep_angle_makes_one_comb_per_weight_and_size(self, monkeypatch):
        # weights 1..100 at pi / 2^4000: a d-term sum per coefficient would
        # take 100 * 100 * 4000 comb calls
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return comb(a, b)

        monkeypatch.setattr(xprogram, "comb", counted)
        rows = tuple((1 << w) - 1 for w in range(1, 101))
        theta = Angle.exact(1, 1 << 4000)
        got = reduce_rows(XProgram(BinaryMatrix(100, 100, rows), theta))
        assert got.degree == 4000
        assert got.monomials == tuple((row, 1) for row in rows)
        assert got.phase_exponent == 0
        pairs = sum(w + 1 for w in range(1, 101))
        assert len(calls) <= 2 * pairs

    def test_term_budget(self):
        rng = Random(66)
        for theta in (Angle.exact(1, 4), Angle.exact(1, 8), Angle.exact(3, 16), Angle.exact(5, 32)):
            for _ in range(6):
                n, l = rng.randint(1, 12), rng.randint(1, 12)
                prog = XProgram(random_matrix(rng, n, l), theta)
                terms = expansion_terms(prog)
                assert reduce_rows(prog, term_limit=terms) == expanded_reduction(prog)
                for f in (reduce_rows, expanded_reduction):
                    with pytest.raises(BudgetExceeded) as info:
                        f(prog, term_limit=terms - 1)
                    assert str(info.value) == f"row expansion exceeds {terms - 1} terms"
        # no terms, no check: even a negative limit passes
        empty = XProgram(BinaryMatrix.zeros(0, 3), Angle.exact(1, 8))
        assert reduce_rows(empty, term_limit=-1) == expanded_reduction(empty, term_limit=-1)

    def test_budget_checked_before_the_walk(self, monkeypatch):
        # 40 all-ones rows at pi/64: the first row alone has C(40, 6) terms
        def refused(m):
            raise AssertionError("walk started")

        monkeypatch.setattr(gf2, "transpose", refused)
        prog = XProgram(BinaryMatrix(40, 40, ((1 << 40) - 1,) * 40), Angle.exact(1, 64))
        with pytest.raises(BudgetExceeded, match="row expansion exceeds 2000000 terms"):
            reduce_rows(prog)
