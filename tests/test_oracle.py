"""Sanity checks on the brute-force reference implementations."""

import ast
import cmath
import math
from pathlib import Path
from random import Random

import numpy as np
import pytest

from iqpsim import oracle
from iqpsim.codes import Angle
from iqpsim.errors import TooManyQubits
from iqpsim.gf2 import BinaryMatrix, BitVector
from iqpsim.marginals import diagonal_projector, make_projector
from iqpsim.xprogram import XProgram

from conftest import random_matrix


class TestStatevector:
    def test_empty_program(self):
        state = oracle.statevector(XProgram(BinaryMatrix.zeros(0, 2), Angle.exact(1, 4)))
        assert state.amplitude(BitVector(2)) == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_single_rotation_by_hand(self):
        theta = 0.7
        prog = XProgram(BinaryMatrix.from_strings(["1"]), Angle.radians(theta))
        state = oracle.statevector(prog)
        assert cmath.isclose(state.amplitudes[0], math.cos(theta))
        assert cmath.isclose(state.amplitudes[1], 1j * math.sin(theta))

    def test_two_qubit_entangler_by_hand(self):
        # exp(i theta X X)|00> = cos|00> + i sin|11>
        theta = 1.1
        prog = XProgram(BinaryMatrix.from_strings(["11"]), Angle.radians(theta))
        amp = oracle.statevector(prog).amplitudes
        assert cmath.isclose(amp[0b00], math.cos(theta))
        assert cmath.isclose(amp[0b11], 1j * math.sin(theta))
        assert amp[0b01] == amp[0b10] == 0

    def test_zero_row_is_global_phase(self):
        theta = 0.9
        prog = XProgram(BinaryMatrix.zeros(3, 2), Angle.radians(theta))
        amp = oracle.statevector(prog).amplitudes
        assert cmath.isclose(amp[0], cmath.exp(3j * theta))

    def test_row_order_irrelevant(self):
        # rows commute, so any ordering gives the same state
        rng = Random(71)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(2, 8), rng.randint(1, 6))
            order = list(range(m.n))
            rng.shuffle(order)
            shuffled = BinaryMatrix.from_rows(m.l, [m.row(i) for i in order])
            theta = Angle.radians(rng.random() * 3)
            a = oracle.statevector(XProgram(m, theta)).amplitudes
            b = oracle.statevector(XProgram(shuffled, theta)).amplitudes
            assert np.allclose(a, b, atol=1e-12)

    def test_norm_preserved(self):
        rng = Random(72)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 8))
            state = oracle.statevector(XProgram(m, Angle.radians(rng.random() * 6)))
            assert state.probabilities().sum() == pytest.approx(1.0, abs=1e-12)

    def test_qubit_limit(self):
        prog = XProgram(BinaryMatrix.zeros(1, 21), Angle.exact(1, 4))
        with pytest.raises(TooManyQubits):
            oracle.statevector(prog)


class TestOracleBeta:
    def test_parity_definition(self):
        rng = Random(73)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 6))
            prog = XProgram(m, Angle.radians(rng.random() * 3))
            probs = oracle.statevector(prog).probabilities()
            s = rng.getrandbits(m.l)
            agree = sum(
                p for ix, p in enumerate(probs)
                if bin(ix & s).count("1") % 2 == 0
            )
            got = oracle.oracle_beta(prog, BitVector(m.l, s))
            assert got == pytest.approx(2 * agree - 1, abs=1e-12)


    def test_all_correlations_in_one_sum(self):
        rng = Random(75)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(0, 10), rng.randint(0, 7))
            sv = oracle.statevector(XProgram(m, Angle.radians(rng.random() * 3)))
            betas = sv.betas()
            assert betas.shape == (1 << m.l,)
            for s in range(1 << m.l):
                assert betas[s] == pytest.approx(sv.beta(BitVector(m.l, s)), abs=1e-12)


class TestOracleMarginal:
    def test_masks_sum_cosets(self):
        rng = Random(74)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(2, 6))
            prog = XProgram(m, Angle.radians(rng.random() * 3))
            mask_bits = rng.getrandbits(m.l) or 1
            proj = diagonal_projector(BitVector(m.l, mask_bits))
            dense = oracle.statevector(prog).probabilities()
            got = oracle.oracle_marginal(prog, proj)
            # recompute each marginal entry by direct masking
            for w_ix in range(1 << proj.range_dim):
                coords = BitVector(proj.range_dim, w_ix)
                rep = proj.coords_to_vector(coords)
                want = sum(
                    p for y, p in enumerate(dense)
                    if (y & mask_bits) == rep.bits
                )
                assert got.probability(w_ix) == pytest.approx(want, abs=1e-12)


    def test_conjugated_projectors(self):
        # a projector off the diagonal: each outcome y lands on the range
        # coordinates of its image
        rng = Random(76)
        for _ in range(20):
            l = rng.randint(2, 6)
            keep = rng.sample(range(l), rng.randint(1, l))
            rows = [1 << (l - 1 - i) if i in keep else 0 for i in range(l)]
            for _ in range(3 * l):
                i, j = rng.sample(range(l), 2)
                rows[i] ^= rows[j]
                bi, bj = 1 << (l - 1 - i), 1 << (l - 1 - j)
                rows = [r ^ bj if r & bi else r for r in rows]
            proj = make_projector(BinaryMatrix(l, l, tuple(rows)))
            prog = XProgram(random_matrix(rng, rng.randint(1, 8), l), Angle.radians(0.4))
            got = oracle.oracle_marginal(prog, proj).as_array()
            dense = oracle.statevector(prog).probabilities()
            want = np.zeros(1 << proj.range_dim)
            for y, p in enumerate(dense):
                want[proj.vector_to_coords(proj.apply(BitVector(l, y))).bits] += p
            assert np.array_equal(got, want)


class TestOracleTutte:
    def test_pex(self, pex):
        got = oracle.oracle_tutte(pex)
        assert got.coefficient(3, 1) == 1
        assert got.coefficient(1, 2) == 2
        assert got.evaluate(1, 1) == 6

    def test_loops_and_coloops(self):
        assert oracle.oracle_tutte(BinaryMatrix.zeros(3, 2)).items() == [((0, 3), 1)]
        assert oracle.oracle_tutte(BinaryMatrix.identity(2)).items() == [((2, 0), 1)]


class TestIndependence:
    def test_imports_only_containers_and_errors(self):
        # the oracle is the independent reference for every fast path,
        # the Tutte recursion included: it may share containers and error
        # types with the package, never a module or an algorithm
        allowed = {
            "BinaryMatrix", "BitVector", "Projector", "TuttePolynomial",
            "Distribution", "XProgram",
            "NumericalInconsistency", "TooManyQubits", "TooManyRows",
        }
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("iqpsim")
            ):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("iqpsim") for a in node.names)
        assert imported <= allowed
