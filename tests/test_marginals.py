"""Projectors, the four marginal paths, and the sampler."""

import tracemalloc
from random import Random

import numpy as np
import pytest

from iqpsim import clifford, gf2, marginals, oracle, xprogram
from iqpsim.codes import Angle, affinify, alpha
from iqpsim.errors import (
    BudgetExceeded,
    ColumnBoundViolated,
    DimensionMismatch,
    NotIdempotent,
    NumericalInconsistency,
    RangeTooLarge,
    RankTooLarge,
    RowWeightViolated,
    SupportTooLarge,
)
from iqpsim.gf2 import BinaryMatrix, BitVector
from iqpsim.marginals import (
    MarginalSampler,
    diagonal_projector,
    make_projector,
    marginal_distribution,
    marginal_graphic,
    marginal_pi8,
    marginal_sparse,
    sample_marginal,
)
from iqpsim.xprogram import XProgram, full_distribution, walsh_hadamard

from conftest import random_matrix


def random_projector(rng: Random, l: int, max_range: int | None = None):
    """Conjugate of a coordinate projector by a random basis change."""
    while True:
        s = random_matrix(rng, l, l)
        if gf2.rank(s) == l:
            break
    positions = list(range(l))
    rng.shuffle(positions)
    count = rng.randint(0, l if max_range is None else min(l, max_range))
    keep = set(positions[:count])
    d = BinaryMatrix.from_rows(
        l, [BitVector.unit(l, i) if i in keep else BitVector(l) for i in range(l)]
    )
    m = gf2.mat_mul(gf2.mat_mul(gf2.inverse(s), d), s)
    return make_projector(m)


def small_mask(rng: Random, l: int, max_bits: int) -> BitVector:
    count = rng.randint(1, min(max_bits, l))
    positions = rng.sample(range(l), count)
    bits = 0
    for p in positions:
        bits |= 1 << (l - 1 - p)
    return BitVector(l, bits)


def quarter_turn_programs(seed: int):
    """(t, program at t pi / 4, projector) for each t < 8, once under a mask
    and once under a conjugated projector."""
    rng = Random(seed)
    for t in range(8):
        for conjugated in (False, True):
            l = rng.randint(1, 7)
            prog = XProgram(random_matrix(rng, rng.randint(0, 9), l), Angle.exact(t, 4))
            if conjugated:
                proj = random_projector(rng, l, max_range=4)
            else:
                proj = diagonal_projector(small_mask(rng, l, 4))
            yield t, prog, proj


class TestMakeProjector:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            make_projector(BinaryMatrix.zeros(2, 3))

    def test_rejects_non_idempotent(self):
        # a swap is invertible but not idempotent
        swap = BinaryMatrix.from_strings(["01", "10"])
        with pytest.raises(NotIdempotent):
            make_projector(swap)

    def test_identity(self):
        proj = make_projector(BinaryMatrix.identity(3))
        assert proj.range_dim == 3
        assert proj.K_basis == ()
        assert proj.support_bits == 3

    def test_zero(self):
        proj = make_projector(BinaryMatrix.zeros(3, 3))
        assert proj.range_dim == 0
        assert len(proj.K_basis) == 3
        assert proj.support_bits == 0

    def test_non_diagonal_example(self):
        m = BinaryMatrix.from_strings(["11", "00"])
        proj = make_projector(m)
        assert proj.range_dim == 1
        assert proj.apply(BitVector.from_string("01")) == BitVector.from_string("10")

    def test_duality_invariants(self):
        rng = Random(81)
        for _ in range(40):
            l = rng.randint(1, 8)
            proj = random_projector(rng, l)
            for k in proj.K_basis:
                for rs in proj.Rstar_basis:
                    assert k.dot(rs) == 0
            for ks in proj.Kstar_basis:
                for r in proj.R_basis:
                    assert ks.dot(r) == 0
            assert len(proj.K_basis) + len(proj.R_basis) == l

    def test_dual_basis_is_rows_of_matrix(self):
        # R_i . D_j = [i == j], and each D_j is a row of M, on conjugated
        # projectors up to 80 bits wide
        rng = Random(86)
        for trial in range(40):
            l = rng.randint(1, 80)
            proj = random_projector(rng, l)
            assert len(proj._dual_basis) == proj.range_dim
            rows = set(proj.matrix.bits)
            for j, dual in enumerate(proj._dual_basis):
                assert dual in rows
                for i, base in enumerate(proj.R_basis):
                    assert (base.bits & dual).bit_count() & 1 == (i == j)

    def test_bases_are_the_canonical_kernels(self):
        # K and Kstar come from the complementary projector I + M; they
        # equal the canonical kernel bases of M and of its transpose
        rng = Random(87)
        for trial in range(400):
            l = rng.randint(1, 40)
            proj = random_projector(rng, l)
            m = proj.matrix
            assert list(proj.K_basis) == gf2.kernel(m)
            assert list(proj.Kstar_basis) == gf2.kernel(gf2.transpose(m))

    def test_unsupported_bits_in_kernel(self):
        # bits outside the supported columns cannot influence the image
        rng = Random(82)
        for _ in range(30):
            l = rng.randint(1, 8)
            proj = random_projector(rng, l)
            weights = proj.matrix.column_weights()
            assert proj.support_bits == sum(1 for w in weights if w)
            for i, w in enumerate(weights):
                if w == 0:
                    assert proj.apply(BitVector.unit(l, i)).is_zero()

    def test_coords_round_trip(self):
        # conjugated projectors up to 80 bits wide after the first 40
        rng = Random(83)
        for case in range(50):
            l = rng.randint(1, 8) if case < 40 else rng.randint(9, 80)
            proj = random_projector(rng, l)
            for trial in range(10):
                x = BitVector(l, rng.getrandbits(l))
                image = proj.apply(x)
                coords = proj.vector_to_coords(image)
                assert proj.coords_to_vector(coords) == image

    def test_range_vectors_indexed_by_coords(self):
        rng = Random(85)
        for case in range(50):
            if case < 40:
                proj = random_projector(rng, rng.randint(0, 8))
            else:
                proj = random_projector(rng, rng.randint(9, 80), max_range=10)
            vectors = proj.range_vectors()
            assert len(vectors) == 1 << proj.range_dim
            for ix, bits in enumerate(vectors):
                assert proj.coords_to_vector(ix).bits == bits

    def test_apply_is_idempotent(self):
        rng = Random(84)
        for _ in range(30):
            l = rng.randint(1, 8)
            proj = random_projector(rng, l)
            x = BitVector(l, rng.getrandbits(l))
            assert proj.apply(proj.apply(x)) == proj.apply(x)


class TestDiagonalProjector:
    def test_shape(self):
        mask = BitVector.from_string("0101")
        proj = diagonal_projector(mask)
        assert proj.range_dim == 2
        assert proj.support_bits == 2
        assert proj.apply(BitVector.from_string("1111")) == mask

    def test_coords_are_masked_bits(self):
        proj = diagonal_projector(BitVector.from_string("0110"))
        got = proj.vector_to_coords(BitVector.from_string("0100"))
        assert got.to_string() == "10"


class TestMarginalDistribution:
    def test_identity_projector_recovers_full(self):
        rng = Random(85)
        for _ in range(10):
            l = rng.randint(1, 5)
            prog = XProgram(random_matrix(rng, rng.randint(1, 8), l), Angle.radians(0.9))
            proj = make_projector(BinaryMatrix.identity(l))
            a = marginal_distribution(prog, proj).as_array()
            b = full_distribution(prog).as_array()
            assert np.abs(a - b).max() < 1e-9

    def test_zero_projector_point_mass(self):
        rng = Random(86)
        prog = XProgram(random_matrix(rng, 5, 4), Angle.exact(1, 8))
        proj = make_projector(BinaryMatrix.zeros(4, 4))
        d = marginal_distribution(prog, proj)
        assert len(d) == 1
        assert d.probability(0) == pytest.approx(1.0)

    def test_matches_oracle_diagonal(self):
        rng = Random(87)
        for _ in range(30):
            l = rng.randint(2, 8)
            prog = XProgram(
                random_matrix(rng, rng.randint(1, 10), l),
                rng.choice([Angle.exact(1, 8), Angle.exact(1, 4), Angle.radians(1.0)]),
            )
            proj = diagonal_projector(small_mask(rng, l, 3))
            mine = marginal_distribution(prog, proj).as_array()
            dense = oracle.oracle_marginal(prog, proj).as_array()
            assert np.abs(mine - dense).max() < 1e-9

    def test_matches_oracle_general_projector(self):
        rng = Random(88)
        for _ in range(25):
            l = rng.randint(2, 7)
            prog = XProgram(
                random_matrix(rng, rng.randint(1, 9), l), Angle.radians(0.7)
            )
            proj = random_projector(rng, l, max_range=3)
            mine = marginal_distribution(prog, proj).as_array()
            dense = oracle.oracle_marginal(prog, proj).as_array()
            assert np.abs(mine - dense).max() < 1e-9

    def test_threads_deterministic(self):
        rng = Random(89)
        prog = XProgram(random_matrix(rng, 8, 6), Angle.exact(1, 8))
        proj = diagonal_projector(BitVector.from_string("110100"))
        a = marginal_distribution(prog, proj, threads=1).as_array()
        b = marginal_distribution(prog, proj, threads=4).as_array()
        assert np.array_equal(a, b)

    def test_range_limit(self):
        rng = Random(90)
        prog = XProgram(random_matrix(rng, 3, 6), Angle.exact(1, 8))
        proj = make_projector(BinaryMatrix.identity(6))
        with pytest.raises(RangeTooLarge):
            marginal_distribution(prog, proj, range_limit=5)

    def test_work_budget(self, monkeypatch):
        # 2^q beta calls of 8192 + n + l steps each on 60x40: q = 12 is the
        # last within 2^26, and 2000x64 with q = 8 (acceptance 09) is far inside
        def mask_projector(l, q):
            return diagonal_projector(BitVector(l, ((1 << q) - 1) << (l - q)))

        rng = Random(93)
        prog = XProgram(random_matrix(rng, 60, 40), Angle.exact(1, 8))
        assert marginals._choose_evaluator(prog, mask_projector(40, 12)) == "beta"
        tall = XProgram(random_matrix(rng, 2000, 64), Angle.exact(1, 8))
        assert marginals._choose_evaluator(tall, mask_projector(64, 8)) == "beta"

        def refused(*args):
            raise AssertionError("coefficient computed")

        monkeypatch.setattr(xprogram, "betas", refused)
        for q, work in ((13, 67928064), (16, 543424512)):
            with pytest.raises(BudgetExceeded, match=f"marginal work {work} exceeds"):
                marginal_pi8(prog.P, mask_projector(40, q))

    def test_dimension_mismatch(self):
        rng = Random(91)
        prog = XProgram(random_matrix(rng, 3, 4), Angle.exact(1, 8))
        with pytest.raises(DimensionMismatch):
            marginal_distribution(prog, diagonal_projector(BitVector.from_string("110")))


def bench_rows(rng: Random, n: int, l: int, gen: str) -> BinaryMatrix:
    """Matrices shaped like the benchmark's: dense, column weights 1 to 3,
    or rows of weight 1 or 2."""
    if gen == "dense":
        rows = [rng.getrandbits(l) for _ in range(n)]
    elif gen == "colsparse":
        rows = [0] * n
        for j in range(l):
            for i in rng.sample(range(n), rng.randint(1, 3)):
                rows[i] |= 1 << j
    else:
        rows = [sum(1 << b for b in rng.sample(range(l), rng.randint(1, 2))) for _ in range(n)]
    return BinaryMatrix.from_rows(l, [BitVector(l, r) for r in rows])


class TestEvaluators:
    """The three evaluators behind marginal_distribution, each forced."""

    def programs(self, seed: int, angles):
        rng = Random(seed)
        for trial in range(200):
            l = rng.randint(0, 8)
            prog = XProgram(random_matrix(rng, rng.randint(0, 12), l), angles(rng, trial))
            yield prog, random_projector(rng, l)

    def test_generic_angles_match_oracle(self):
        def angles(rng, trial):
            return [Angle.radians(rng.uniform(0, 7)), Angle.exact(1, 16), Angle.exact(1, 8)][trial % 3]

        for prog, proj in self.programs(110, angles):
            want = oracle.oracle_marginal(prog, proj).as_array()
            for evaluate in (marginals._push_forward, marginals._beta_loop):
                got = evaluate(prog, proj).as_array()
                assert np.abs(got - want).max() < 1e-12

    def test_quarter_turns_agree_exactly(self):
        for prog, proj in self.programs(111, lambda rng, trial: Angle.exact(trial % 8, 4)):
            image = marginals._quarter_turn_image(prog, proj).as_array()
            push = marginals._push_forward(prog, proj).as_array()
            loop = marginals._beta_loop(prog, proj).as_array()
            assert np.array_equal(image, push)
            assert np.array_equal(push, loop)
            want = oracle.oracle_marginal(prog, proj).as_array()
            assert np.abs(image - want).max() < 1e-12

    def test_quarter_turn_image_is_uniform(self):
        # every entry is 0 or one exact power of two
        for prog, proj in self.programs(112, lambda rng, trial: Angle.exact(trial % 8, 4)):
            values = marginals._quarter_turn_image(prog, proj).as_array()
            nonzero = values[values > 0]
            assert np.all(nonzero == 1.0 / len(nonzero))
            assert len(nonzero) & (len(nonzero) - 1) == 0

    def test_dispatch_answers(self):
        for prog, proj in self.programs(113, lambda rng, trial: Angle.exact(trial % 8, 4)):
            choice = marginals._choose_evaluator(prog, proj)
            want = marginals._EVALUATORS[choice](prog, proj).as_array()
            assert np.array_equal(marginal_distribution(prog, proj).as_array(), want)

    @pytest.mark.parametrize(
        "n, l, theta, q, gen, evaluator",
        [
            (40, 16, Angle.exact(1, 16), 8, "dense", "push"),
            (30, 14, Angle.radians(0.8), 8, "dense", "push"),
            (24, 16, Angle.radians(0.8), 6, "colsparse", "beta"),
            (30, 14, Angle.radians(0.8), 2, "pairs", "beta"),
            (500, 14, Angle.exact(1, 8), 8, "dense", "push"),
            (1000, 32, Angle.exact(1, 4), 6, "dense", "image"),
            (40, 20, Angle.exact(1, 8), 6, "dense", "beta"),
            (30, 18, Angle.radians(0.8), 3, "dense", "beta"),
        ],
    )
    def test_dispatch_on_benchmark_shapes(self, n, l, theta, q, gen, evaluator):
        # the first six are the benchmark's marginal calls; past the
        # domain limit a generic angle leaves only the beta loop
        rng = Random(114)
        for _ in range(5):
            prog = XProgram(bench_rows(rng, n, l, gen), theta)
            mask = BitVector(l, sum(1 << b for b in rng.sample(range(l), q)))
            proj = diagonal_projector(mask)
            choices = {marginals._choose_evaluator(prog, proj) for _ in range(2)}
            assert choices == {evaluator}

    def test_dispatch_weighs_support_against_gauss_sums(self):
        # the quarter-turn support of the 1101 x 1101 identity costs more
        # than 15 Gauss sums on at most four rows each
        l = 1101
        prog = XProgram(BinaryMatrix.identity(l), Angle.exact(1, 4))
        proj = diagonal_projector(BitVector(l, 0b1111 << (l - 4)))
        assert marginals._choose_evaluator(prog, proj) == "beta"
        got = marginal_distribution(prog, proj).as_array()
        assert got.tolist() == [1 / 16] * 16


KERNEL_ANGLES = [Angle.exact(t, 4) for t in range(8)] + [
    Angle.exact(1, 8), Angle.exact(1, 16), Angle.radians(0.7), Angle.radians(2.3),
]


def two_transform_sweep(keys, signs, bits: int, theta: Angle) -> np.ndarray:
    """The sweep by two transforms: the exponents are the transform of the
    signed key histogram, the amplitudes that of the phases."""
    keys = np.asarray(keys, dtype=np.int64)
    exponent = np.bincount(keys, weights=signs, minlength=1 << bits).astype(np.int64)
    walsh_hadamard(exponent)
    if theta.is_fourth_root:
        phases = xprogram._QUARTER_TURNS[theta.fourth_root_index * ((len(keys) - exponent) // 2) % 4]
    else:
        phases = np.exp(1j * theta.value * exponent)
    walsh_hadamard(phases)
    return np.ldexp(phases.real**2 + phases.imag**2, -2 * bits)


class TestSweepKernel:
    """The codeword-weight sweep shared by full_distribution, the
    sampler's conditionals and the push-forward."""

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129, 300, 1000])
    def test_matches_two_transforms_across_lanes(self, n):
        # n = 64, 65, 128 and 129 put the codewords on either side of a
        # uint64 lane boundary; 300 and 1000 rows take 5 and 16 lanes, so
        # sweeps of fewer index bits than lanes go by the row histogram
        rng = Random(130 + n)
        for l in range(13):
            P = random_matrix(rng, n, l)
            proj = random_projector(rng, l)
            keys = [proj._coord_bits(r) for r in P.bits]
            shifts = [0, rng.getrandbits(l)]
            if proj.Kstar_basis:
                shifts.append(gf2._combine([k.bits for k in proj.Kstar_basis], 1))
            for theta in KERNEL_ANGLES:
                prog = XProgram(P, theta)
                want = two_transform_sweep(P.bits, None, l, theta)
                assert np.array_equal(full_distribution(prog).as_array(), want)
                sampler = MarginalSampler(prog, proj)
                for k in shifts:
                    signs = [1 - 2 * ((r & k).bit_count() & 1) for r in P.bits]
                    want = two_transform_sweep(keys, signs, proj.range_dim, theta)
                    assert np.array_equal(sampler.conditional(k), want)

    def test_push_forward_is_the_mean_of_the_conditionals(self):
        rng = Random(140)
        for trial in range(72):
            l = rng.randint(0, 8)
            theta = KERNEL_ANGLES[trial % len(KERNEL_ANGLES)]
            prog = XProgram(random_matrix(rng, rng.randint(0, 130), l), theta)
            if trial % 3 == 0:  # q = 0
                proj = make_projector(BinaryMatrix.zeros(l, l))
            elif trial % 3 == 1:  # q = l
                proj = make_projector(BinaryMatrix.identity(l))
            else:
                proj = random_projector(rng, l)
            sampler = MarginalSampler(prog, proj)
            shifts = marginals._span([k.bits for k in proj.Kstar_basis])
            mean = sum(sampler.conditional(k) for k in shifts) / len(shifts)
            got = marginals._push_forward(prog, proj).as_array()
            if theta.is_fourth_root:
                assert np.array_equal(got, mean)
            else:
                assert np.abs(got - mean).max() <= 1e-12

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_tall_sweeps_stay_small(self, n):
        # 1000 rows take 16 uint64 lanes, one per index bit, and enumerate
        # 2^14-word tables; 2000 rows take 32 and go by the row histogram.
        # Neither builds 2^16 words per lane (8 or 16 MiB).
        rng = Random(150 + n)
        prog = XProgram(random_matrix(rng, n, 16), Angle.exact(1, 16))
        proj = diagonal_projector(BitVector(16, sum(1 << b for b in rng.sample(range(16), 8))))
        for sweep in (lambda: full_distribution(prog), lambda: marginals._push_forward(prog, proj)):
            tracemalloc.start()
            try:
                sweep()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 << 20

    @pytest.mark.parametrize("l", [5, 64, 70, 130])
    def test_weights_agree_on_both_sides_of_the_row_choice(self, l):
        # l = 64, 70 and 130 read the rows through one, two and three
        # uint64 lanes, whose signs against the shift fold into one parity
        rng = Random(160 + l)
        for m in range(5):
            for n in (64 * m, 64 * m + 1, 64 * m + 65):
                P = random_matrix(rng, n, l)
                vectors = [rng.getrandbits(l) for _ in range(m)]
                sweep = xprogram._CosetSweep(P, vectors)
                assert sweep.by_rows == (n > 64 * m if m else n > 0)
                for shift in (0, rng.getrandbits(l)):
                    want = []
                    for b in range(1 << m):
                        v = gf2._combine(vectors[::-1], b) ^ shift
                        want.append(sum((row & v).bit_count() & 1 for row in P.bits))
                    assert sweep.weights(shift).tolist() == want

    def test_tall_programs_never_enumerate_lanes(self, monkeypatch):
        # 2^14 rows are 256 lanes: the sweeps cost one pass over the rows
        # and transforms of length 2^l, as the work count of the
        # push-forward assumes, and never a table per lane
        def refuse(*args):
            raise AssertionError("lane enumeration on a tall program")

        rng = Random(170)
        P = random_matrix(rng, 1 << 14, 10)
        proj = random_projector(rng, 10)
        monkeypatch.setattr(marginals.codes, "_coset_weights", refuse)
        for theta in (Angle.exact(1, 4), Angle.exact(1, 16), Angle.radians(0.7)):
            prog = XProgram(P, theta)
            assert np.array_equal(
                full_distribution(prog).as_array(), two_transform_sweep(P.bits, None, 10, theta)
            )
            sampler = MarginalSampler(prog, proj)
            shifts = marginals._span([k.bits for k in proj.Kstar_basis])
            mean = sum(sampler.conditional(k) for k in shifts) / len(shifts)
            got = marginals._push_forward(prog, proj).as_array()
            assert np.abs(got - mean).max() <= 1e-12


class TestMarginalPi8:
    def test_matches_generic(self):
        rng = Random(92)
        for _ in range(25):
            l = rng.randint(2, 8)
            m = random_matrix(rng, rng.randint(1, 12), l)
            proj = diagonal_projector(small_mask(rng, l, 3))
            a = marginal_pi8(m, proj).as_array()
            b = marginal_distribution(XProgram(m, Angle.exact(1, 8)), proj).as_array()
            assert np.abs(a - b).max() < 1e-9

    def test_large_matrix_no_enumeration(self):
        # rank far beyond any codeword-enumeration budget
        rng = Random(93)
        m = random_matrix(rng, 400, 40)
        mask_bits = 0
        for p in (0, 7, 21):
            mask_bits |= 1 << (40 - 1 - p)
        proj = diagonal_projector(BitVector(40, mask_bits))
        d = marginal_pi8(m, proj)
        assert abs(sum(p for _, p in d.outcomes()) - 1.0) < 1e-9

    @pytest.mark.parametrize("a", [1, 3])
    def test_beta_loop_past_the_domain_limit(self, a):
        # at pi/8 and 3 pi/8 every coefficient comes off the program's own
        # code, on a dense tall program and on a rank-6 one, == the per-s
        # coefficients, each alpha of its affinified matrix
        rng = Random(95 + a)
        base = [rng.getrandbits(24) for _ in range(6)]
        low = BinaryMatrix(300, 24, tuple(gf2._combine(base, rng.getrandbits(6)) for _ in range(300)))
        for m in (random_matrix(rng, 400, 24), low):
            prog = XProgram(m, Angle.exact(a, 8))
            proj = diagonal_projector(BitVector(24, sum(1 << b for b in rng.sample(range(24), 8))))
            assert marginals._choose_evaluator(prog, proj) == "beta"
            ss = marginals._dual_range(proj)
            per_s = [alpha(affinify(m, s), prog.theta.doubled()).real for s in ss]
            want = marginals._range_transform(proj, per_s).as_array()
            got = marginal_pi8(m, proj) if a == 1 else marginal_distribution(prog, proj)
            assert np.array_equal(got.as_array(), want)


class TestMarginalSparse:
    def test_matches_generic(self):
        rng = Random(94)
        for _ in range(25):
            l = rng.randint(2, 8)
            m = random_matrix(rng, rng.randint(1, 10), l)
            bound = max(m.column_weights()) or 1
            theta = rng.choice([Angle.exact(1, 5), Angle.radians(1.3), Angle.exact(1, 8)])
            proj = diagonal_projector(small_mask(rng, l, 3))
            a = marginal_sparse(XProgram(m, theta), proj, bound).as_array()
            b = marginal_distribution(XProgram(m, theta), proj).as_array()
            assert np.abs(a - b).max() < 1e-9

    def test_column_bound_enforced(self):
        rng = Random(95)
        m = BinaryMatrix.from_strings(["10", "10", "11"])
        prog = XProgram(m, Angle.exact(1, 5))
        proj = diagonal_projector(BitVector.from_string("10"))
        with pytest.raises(ColumnBoundViolated):
            marginal_sparse(prog, proj, 2)

    def test_tall_sparse_matrix(self):
        # 600 rows on a 300-bit doubled ring: every column weight is 4,
        # so any angle stays cheap no matter the overall rank
        rng = Random(96)
        l, n = 300, 600
        rows = []
        for i in range(n):
            bits = (1 << (l - 1 - (i % l))) | (1 << (l - 1 - ((i + 1) % l)))
            rows.append(BitVector(l, bits))
        m = BinaryMatrix.from_rows(l, rows)
        assert max(m.column_weights()) == 4
        proj = diagonal_projector(small_mask(rng, l, 2))
        d = marginal_sparse(XProgram(m, Angle.exact(1, 5)), proj, 4)
        assert abs(sum(p for _, p in d.outcomes()) - 1.0) < 1e-9


class TestMarginalGraphic:
    def graph_matrix(self, rng: Random, l: int, n: int) -> BinaryMatrix:
        rows = []
        for _ in range(n):
            count = rng.choice([1, 2, 2])
            bits = 0
            for p in rng.sample(range(l), count):
                bits |= 1 << (l - 1 - p)
            rows.append(BitVector(l, bits))
        return BinaryMatrix.from_rows(l, rows)

    def test_matches_generic(self):
        rng = Random(97)
        angles = [Angle.exact(1, 8), Angle.exact(1, 5), Angle.radians(0.8)]
        cases = []
        for _ in range(25):
            l = rng.randint(2, 8)
            m = self.graph_matrix(rng, l, rng.randint(1, 12))
            theta = rng.choice(angles)
            cases.append((m, theta, small_mask(rng, l, 2)))
        for _ in range(20):
            # both hubs of a two-bit mask meet the same partners, once or
            # twice each, beside bare hubs and the even hub-hub edge
            l = rng.randint(3, 10)
            u, v, *partners = [1 << i for i in rng.sample(range(l), l)]
            shared = partners[: rng.randint(1, len(partners))]
            rows = [h | p for p in shared for h in (u, v) for _ in range(rng.randint(1, 2))]
            rows += rng.sample([u, v, u | v, u, v], rng.randint(0, 5))
            rng.shuffle(rows)
            m = BinaryMatrix(len(rows), l, tuple(rows))
            cases.append((m, rng.choice(angles), BitVector(l, u | v)))
        for m, theta, mask in cases:
            proj = diagonal_projector(mask)
            a = marginal_graphic(XProgram(m, theta), proj).as_array()
            b = marginal_distribution(XProgram(m, theta), proj).as_array()
            assert np.abs(a - b).max() < 1e-9

    def test_row_weight_enforced(self):
        prog = XProgram(BinaryMatrix.from_strings(["111"]), Angle.exact(1, 8))
        proj = diagonal_projector(BitVector.from_string("100"))
        with pytest.raises(RowWeightViolated):
            marginal_graphic(prog, proj)

    def test_support_enforced(self):
        prog = XProgram(BinaryMatrix.from_strings(["110"]), Angle.exact(1, 8))
        proj = diagonal_projector(BitVector.from_string("111"))
        with pytest.raises(SupportTooLarge):
            marginal_graphic(prog, proj)

    def test_huge_graph(self):
        # far beyond enumeration: 5000 edges on 1000 vertices
        rng = Random(98)
        m = self.graph_matrix(rng, 1000, 5000)
        proj = diagonal_projector(small_mask(rng, 1000, 2))
        d = marginal_graphic(XProgram(m, Angle.exact(1, 5)), proj)
        assert abs(sum(p for _, p in d.outcomes()) - 1.0) < 1e-9

    def test_star_within_the_dual_engine(self):
        # a hub with 34 partners at l = 40: no push-forward (l > 16), no
        # quarter-turn image at a raw angle, and the beta coefficient
        # against the hub is alpha of a rank-34 code past the limit of 26.
        # Its 34 rows are independent, so the dual code has dimension 0
        # and the generic engine answers, equal to the closed form
        l = 40
        rows = tuple(1 << (l - 1) | 1 << (l - 2 - i) for i in range(34))
        prog = XProgram(BinaryMatrix(34, l, rows), Angle.radians(0.7))
        proj = diagonal_projector(BitVector(l, 0b11 << (l - 2)))
        closed = marginal_graphic(prog, proj).as_array()
        generic = marginal_distribution(prog, proj).as_array()
        assert np.abs(generic - closed).max() == 0.0
        assert abs(generic.sum() - 1.0) < 1e-9

    def test_star_beyond_the_engine(self):
        # every edge of a 30-leaf star doubled: the 60 rows have rank 30
        # and a dual code of dimension 30, both past the limit of 26, so
        # only the closed form answers
        l = 40
        rows = tuple(1 << (l - 1) | 1 << (l - 2 - i) for i in range(30) for _ in range(2))
        prog = XProgram(BinaryMatrix(60, l, rows), Angle.radians(0.7))
        proj = diagonal_projector(BitVector(l, 0b11 << (l - 2)))
        d = marginal_graphic(prog, proj)
        assert abs(sum(p for _, p in d.outcomes()) - 1.0) < 1e-9
        with pytest.raises(RankTooLarge):
            marginal_distribution(prog, proj)


class TestAllPathsTogether:
    def test_pairwise_agreement(self):
        # weight-<=2 rows, pi/8 angle, 2-bit mask: all four paths apply
        rng = Random(99)
        for _ in range(15):
            l = rng.randint(2, 8)
            rows = []
            for _ in range(rng.randint(1, 10)):
                bits = 0
                for p in rng.sample(range(l), rng.choice([1, 2])):
                    bits |= 1 << (l - 1 - p)
                rows.append(BitVector(l, bits))
            m = BinaryMatrix.from_rows(l, rows)
            proj = diagonal_projector(small_mask(rng, l, 2))
            prog = XProgram(m, Angle.exact(1, 8))
            results = [
                marginal_distribution(prog, proj).as_array(),
                marginal_pi8(m, proj).as_array(),
                marginal_sparse(prog, proj, max(m.column_weights()) or 1).as_array(),
                marginal_graphic(prog, proj).as_array(),
            ]
            for i in range(len(results)):
                for j in range(i + 1, len(results)):
                    assert np.abs(results[i] - results[j]).max() < 1e-9


class TestMarginalSampler:
    def test_conditionals_are_distributions(self):
        rng = Random(100)
        for _ in range(10):
            l = rng.randint(2, 7)
            prog = XProgram(
                random_matrix(rng, rng.randint(1, 9), l), Angle.radians(1.1)
            )
            proj = diagonal_projector(small_mask(rng, l, 3))
            sampler = MarginalSampler(prog, proj, Random(1))
            for shift in marginals._span([k.bits for k in proj.Kstar_basis]):
                cond = sampler.conditional(shift)
                assert cond.min() >= -1e-12
                assert abs(cond.sum() - 1.0) < 1e-9

    def test_shift_average_equals_marginal(self):
        rng = Random(101)
        for _ in range(10):
            l = rng.randint(2, 6)
            prog = XProgram(
                random_matrix(rng, rng.randint(1, 8), l), Angle.radians(0.6)
            )
            proj = diagonal_projector(small_mask(rng, l, 2))
            sampler = MarginalSampler(prog, proj, Random(2))
            shifts = marginals._span([k.bits for k in proj.Kstar_basis])
            total = sum(sampler.conditional(shift) for shift in shifts) / len(shifts)
            want = marginal_distribution(prog, proj).as_array()
            assert np.abs(total - want).max() < 1e-9

    def test_non_diagonal_projectors(self):
        # conjugated projectors: coordinates of the R basis are units, and
        # the conditionals over all shifts average to the marginal
        rng = Random(107)
        angles = [Angle.radians(0.7), Angle.exact(1, 8), Angle.exact(1, 4)]
        for trial in range(30):
            l = rng.randint(1, 6)
            proj = random_projector(rng, l, max_range=4)
            q = proj.range_dim
            for i, base in enumerate(proj.R_basis):
                assert proj.vector_to_coords(base) == BitVector.unit(q, i)
            prog = XProgram(random_matrix(rng, rng.randint(0, 8), l), angles[trial % 3])
            sampler = MarginalSampler(prog, proj, Random(5))
            shifts = marginals._span([k.bits for k in proj.Kstar_basis])
            total = np.zeros(1 << q)
            for shift in shifts:
                cond = sampler.conditional(shift)
                assert abs(cond.sum() - 1.0) < 1e-9
                total += cond
            total /= len(shifts)
            want = marginal_distribution(prog, proj).as_array()
            assert np.abs(total - want).max() < 1e-9

    def test_empty_program_point_mass(self):
        proj = random_projector(Random(108), 5)
        prog = XProgram(BinaryMatrix.zeros(0, 5), Angle.radians(0.9))
        sampler = MarginalSampler(prog, proj, Random(6))
        for k in proj.Kstar_basis:
            cond = sampler.conditional(k)
            assert cond.tolist() == [1.0] + [0.0] * (len(cond) - 1)
        assert sampler.sample().is_zero()

    def test_samples_live_in_range(self):
        rng = Random(102)
        prog = XProgram(random_matrix(rng, 6, 5), Angle.exact(1, 8))
        proj = diagonal_projector(BitVector.from_string("01010"))
        sampler = MarginalSampler(prog, proj, Random(3))
        for _ in range(50):
            x = sampler.sample()
            assert proj.apply(x) == x

    def test_empirical_distribution(self):
        rng = Random(103)
        prog = XProgram(random_matrix(rng, 7, 6), Angle.radians(0.9))
        proj = diagonal_projector(small_mask(rng, 6, 2))
        sampler = MarginalSampler(prog, proj, Random(4))
        counts = np.zeros(1 << proj.range_dim)
        draws = 20000
        for _ in range(draws):
            counts[proj.vector_to_coords(sampler.sample()).bits] += 1
        want = marginal_distribution(prog, proj).as_array()
        tv = float(np.abs(counts / draws - want).sum()) / 2
        assert tv < 0.03

    def test_seeded_stream_reproducible(self):
        rng = Random(104)
        proj = diagonal_projector(BitVector.from_string("10100"))
        cases = [
            (XProgram(random_matrix(rng, 5, 5), theta), proj)
            for theta in (Angle.exact(1, 4), Angle.radians(0.9))
        ]
        cases += [(prog, proj) for _, prog, proj in quarter_turn_programs(123)]
        for prog, proj in cases:
            first = MarginalSampler(prog, proj, Random(7))
            second = MarginalSampler(prog, proj, Random(7))
            stream_a = [first.sample().to_string() for _ in range(40)]
            stream_b = [second.sample().to_string() for _ in range(40)]
            assert stream_a == stream_b

    def test_sample_marginal_helper(self):
        rng = Random(105)
        prog = XProgram(random_matrix(rng, 4, 4), Angle.exact(1, 8))
        proj = diagonal_projector(BitVector.from_string("1100"))
        x = sample_marginal(prog, proj, Random(9))
        assert proj.apply(x) == x

    def test_range_limit(self, monkeypatch):
        # checked in the constructor, before any quarter-turn support
        monkeypatch.setattr(clifford, "clifford_support", None)
        rng = Random(106)
        proj = make_projector(BinaryMatrix.identity(6))
        for theta in (Angle.exact(1, 8), Angle.exact(1, 4)):
            prog = XProgram(random_matrix(rng, 3, 6), theta)
            with pytest.raises(RangeTooLarge):
                MarginalSampler(prog, proj, Random(0), range_limit=4)

    def test_shared_input_checks(self):
        # the width check comes before the range check, in both entry points
        rng = Random(109)
        prog = XProgram(random_matrix(rng, 3, 6), Angle.exact(1, 8))
        wide = make_projector(BinaryMatrix.identity(7))
        for build in (MarginalSampler, marginal_distribution):
            with pytest.raises(DimensionMismatch):
                build(prog, wide, range_limit=4)

    def test_conditional_rejects_nan(self, monkeypatch):
        rng = Random(111)
        prog = XProgram(random_matrix(rng, 6, 6), Angle.radians(0.8))
        proj = diagonal_projector(BitVector.from_string("110000"))
        sampler = MarginalSampler(prog, proj, Random(8))
        monkeypatch.setattr(
            xprogram, "_sweep_probabilities", lambda *args: np.full(4, np.nan)
        )
        with pytest.raises(NumericalInconsistency):
            sampler.conditional(0)

    def test_conditional_rejects_a_shift_of_another_length(self):
        # a 5-bit shift on a 3-bit program was swept as if it were 3 bits
        prog = XProgram(BinaryMatrix.from_strings(["110", "011", "111"]), Angle.radians(0.8))
        sampler = MarginalSampler(prog, diagonal_projector(BitVector.from_string("100")), Random(8))
        for shift in (BitVector(5, 1), BitVector(2, 1), 8, -1):
            with pytest.raises(DimensionMismatch):
                sampler.conditional(shift)
        assert np.array_equal(sampler.conditional(BitVector(3, 1)), sampler.conditional(1))

    def test_conditional_is_not_cached(self):
        rng = Random(110)
        prog = XProgram(random_matrix(rng, 6, 6), Angle.radians(0.8))
        proj = diagonal_projector(BitVector.from_string("110000"))
        sampler = MarginalSampler(prog, proj, Random(8))
        for k in proj.Kstar_basis:
            sampler.conditional(k)
        assert sampler._cdfs == {}
        sampler.sample()
        assert len(sampler._cdfs) == 1

    def test_memory_is_bounded(self):
        # every draw at q = 14 on 40 bits takes a fresh shift out of 2^26;
        # the sampler keeps (1 << 20) >> 14 = 64 CDFs of 128 KB, 8 MB in all
        rng = Random(111)
        prog = XProgram(random_matrix(rng, 40, 40), Angle.exact(1, 16))
        keep = rng.sample(range(40), 14)
        proj = diagonal_projector(BitVector(40, sum(1 << (39 - b) for b in keep)))
        tracemalloc.start()
        try:
            sampler = MarginalSampler(prog, proj, Random(12))
            for _ in range(600):
                sampler.sample()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 16 << 20
        assert len(sampler._cdfs) == 64


class TestQuarterTurnSampler:
    """At theta = t pi / 4 draws come from the quarter-turn law."""

    def test_draws_follow_the_exact_law(self):
        for t, prog, proj in quarter_turn_programs(120):
            want = oracle.oracle_marginal(prog, proj).as_array()
            sampler = MarginalSampler(prog, proj, Random(t))
            counts = np.zeros(1 << proj.range_dim)
            draws = 20000
            for _ in range(draws):
                x = sampler.sample()
                assert proj.apply(x) == x
                counts[proj.vector_to_coords(x).bits] += 1
            assert want[counts > 0].min() > 1e-9
            if t % 2 == 0:  # a point mass: every draw is its one point
                assert counts.max() == draws
            tv = float(np.abs(counts / draws - want).sum()) / 2
            assert tv < 0.03

    def test_no_conditional_and_one_support_per_sampler(self, monkeypatch):
        calls = {"sweep": 0, "wht": 0, "support": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            xprogram, "_sweep_probabilities", counted("sweep", xprogram._sweep_probabilities)
        )
        for module in (xprogram, marginals):
            monkeypatch.setattr(module, "walsh_hadamard", counted("wht", walsh_hadamard))
        monkeypatch.setattr(
            clifford, "clifford_support", counted("support", clifford.clifford_support)
        )
        rng = Random(122)
        for t in range(8):
            prog = XProgram(random_matrix(rng, 30, 12), Angle.exact(t, 4))
            proj = diagonal_projector(small_mask(rng, 12, 6))
            sampler = MarginalSampler(prog, proj, Random(t))
            for _ in range(300):
                sampler.sample()
            assert sampler._cdfs == {}
            # the conditionals' codewords and shifts are never built
            assert sampler._sweep is None and sampler._shifts is None
            assert calls["support"] == (t + 1) // 2
        assert calls["sweep"] == calls["wht"] == 0

    def test_clifford_sample_shares_the_draw(self):
        # under the identity projector the sampler's stream is clifford_sample's
        rng = Random(124)
        for t in (1, 3, 5, 7):
            P = random_matrix(rng, rng.randint(0, 12), 8)
            proj = make_projector(BinaryMatrix.identity(8))
            sampler = MarginalSampler(XProgram(P, Angle.exact(t, 4)), proj, Random(t))
            draws = Random(t)
            for _ in range(30):
                assert sampler.sample() == clifford.clifford_sample(P, draws)
