"""Brute-force ground truth for tests and the verify command.

Everything here is computed straight from definitions: dense state
evolution for amplitudes, Born rule for probabilities, parity averages
for correlations, cosets sums for marginals, and the corank-nullity
subset sum for the Tutte polynomial. No fast path from the production
modules is shared; only the container types and outcome labeling are.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import NumericalInconsistency, TooManyQubits, TooManyRows
from .gf2 import BinaryMatrix, BitVector
from .marginals import Projector
from .tutte import TuttePolynomial
from .xprogram import Distribution, XProgram

__all__ = [
    "StateVector",
    "statevector",
    "oracle_distribution",
    "oracle_beta",
    "oracle_marginal",
    "oracle_tutte",
    "QUBIT_LIMIT",
]

QUBIT_LIMIT = 20


@dataclass(frozen=True)
class StateVector:
    l: int
    amplitudes: np.ndarray

    def amplitude(self, x: BitVector) -> complex:
        return complex(self.amplitudes[x.bits])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def beta(self, s: BitVector) -> float:
        """2 P[X.s = 0] - 1 read directly off the dense distribution."""
        probs = self.probabilities()
        indices = np.arange(len(probs), dtype=np.uint64)
        parities = np.bitwise_count(indices & np.uint64(s.bits)) & 1
        agree = float(probs[parities == 0].sum())
        return 2.0 * agree - 1.0

    def betas(self) -> np.ndarray:
        """Every correlation sum_y (-1)^(s.y) P[y], indexed by s: one
        character sum, the 2^l x 2^l sign matrix of the index parities
        times the probabilities."""
        indices = np.arange(1 << self.l, dtype=np.uint32)
        odd = np.bitwise_count(indices[:, None] & indices) & 1
        return np.array([1.0, -1.0])[odd] @ self.probabilities()

    def marginal(self, proj: Projector) -> Distribution:
        """Sum the dense distribution over kernel cosets of the projector.

        The image m(y) is recomputed here from row parities; only the
        outcome labeling (coordinates in the projector's range basis) is
        shared with the production path, so both sides index identically.
        """
        l = self.l
        y = np.arange(1 << l, dtype=np.uint64)
        image = np.zeros(1 << l, dtype=np.uint64)
        for i, row in enumerate(proj.matrix.bits):
            odd = np.bitwise_count(y & np.uint64(row)) & 1
            image |= odd.astype(np.uint64) << np.uint64(l - 1 - i)
        images, where = np.unique(image, return_inverse=True)
        coords = [proj.vector_to_coords(BitVector(l, v)).bits for v in images.tolist()]
        out = np.bincount(
            np.array(coords, dtype=np.intp)[where],
            weights=self.probabilities(),
            minlength=1 << proj.range_dim,
        )
        return Distribution(proj.range_dim, out)


def statevector(prog: XProgram, *, qubit_limit: int = QUBIT_LIMIT) -> StateVector:
    """Evolve |0...0> by every row's rotation, one dense pass per row."""
    l = prog.l
    if l > qubit_limit:
        raise TooManyQubits(f"{l} qubits exceed the dense limit {qubit_limit}")
    size = 1 << l
    state = np.zeros(size, dtype=np.complex128)
    state[0] = 1.0
    theta = prog.theta.value
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    indices = np.arange(size)
    for row in prog.P.rows:
        mask = row.bits
        if mask == 0:
            state = state * np.exp(1j * theta)
        else:
            state = cos_t * state + 1j * sin_t * state[indices ^ mask]
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > 1e-12:
            raise NumericalInconsistency(f"state norm drifted to {norm}")
    return StateVector(l, state)


def oracle_distribution(prog: XProgram) -> Distribution:
    return Distribution(prog.l, statevector(prog).probabilities())


def oracle_beta(prog: XProgram, s: BitVector) -> float:
    return statevector(prog).beta(s)


def oracle_marginal(prog: XProgram, proj: Projector) -> Distribution:
    return statevector(prog).marginal(proj)


def oracle_tutte(P: BinaryMatrix, *, row_limit: int = 20) -> TuttePolynomial:
    """Corank-nullity sum over all row subsets, ranks by fresh elimination."""
    n = P.n
    if n > row_limit:
        raise TooManyRows(f"{n} rows exceed the subset-sum limit {row_limit}")
    rows = [r.bits for r in P.rows]

    def subset_rank(mask: int) -> int:
        basis: list[int] = []
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            v = rows[i]
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
                basis.sort(reverse=True)
        return len(basis)

    full_rank = subset_rank((1 << n) - 1)
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << n):
        r = subset_rank(mask)
        size = bin(mask).count("1")
        key = (full_rank - r, size - r)
        counts[key] = counts.get(key, 0) + 1
    coeffs: dict[tuple[int, int], int] = {}
    for (a, b), mult in counts.items():
        for p in range(a + 1):
            for q in range(b + 1):
                sign = -1 if (a - p + b - q) & 1 else 1
                key = (p, q)
                coeffs[key] = coeffs.get(key, 0) + mult * sign * comb(a, p) * comb(b, q)
    return TuttePolynomial(coeffs)
