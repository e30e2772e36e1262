"""Corank-nullity polynomial: subset sum, recursion, Greene evaluation."""

import cmath
import inspect
import sys
import warnings
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from iqpsim import codes, gf2, oracle, tutte
from iqpsim.codes import Angle
from iqpsim.errors import BudgetExceeded, NumericalInconsistency, TooManyRows
from iqpsim.gf2 import BinaryMatrix
from iqpsim.tutte import (
    TuttePolynomial,
    greene_alpha,
    star_tutte,
    tutte_eval,
    tutte_subset_sum,
)

from conftest import random_matrix

# corank-nullity expansion of the 6x4 fixture's matroid
PEX_TUTTE = {(3, 1): 1, (2, 1): 1, (2, 2): 1, (1, 2): 2, (0, 3): 1}


class TestTuttePolynomial:
    def test_monomial_and_coefficient(self):
        p = TuttePolynomial.monomial(2, 1, 3)
        assert p.coefficient(2, 1) == 3
        assert p.coefficient(0, 0) == 0

    def test_add(self):
        p = TuttePolynomial({(1, 0): 1}) + TuttePolynomial({(1, 0): 2, (0, 1): 1})
        assert p == TuttePolynomial({(1, 0): 3, (0, 1): 1})

    def test_mul(self):
        x_plus_y = TuttePolynomial({(1, 0): 1, (0, 1): 1})
        sq = x_plus_y * x_plus_y
        assert sq == TuttePolynomial({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_cancellation_drops_term(self):
        p = TuttePolynomial({(1, 0): 1}) + TuttePolynomial({(1, 0): -1})
        assert p == TuttePolynomial({})
        assert p.items() == []

    def test_evaluate(self):
        p = TuttePolynomial(PEX_TUTTE)
        assert p.evaluate(1, 1) == pytest.approx(6)
        assert p.evaluate(2, 2) == pytest.approx(64)
        got = p.evaluate(1j, 0.5)
        want = (
            1j**3 * 0.5 + 1j**2 * 0.5 + 1j**2 * 0.25 + 2 * 1j * 0.25 + 0.125
        )
        assert cmath.isclose(got, want)

    def test_basis_count(self):
        assert TuttePolynomial(PEX_TUTTE).basis_count() == 6

    def test_to_text(self):
        text = TuttePolynomial({(2, 1): 1, (0, 2): 3}).to_text()
        assert "x^2" in text and "y^2" in text

    def test_items_sorted_deterministically(self):
        p = TuttePolynomial({(0, 3): 1, (3, 1): 1, (1, 2): 2})
        assert p.items() == sorted(p.items())


class TestSubsetSum:
    def test_pex_exact(self, pex):
        assert tutte_subset_sum(pex) == TuttePolynomial(PEX_TUTTE)

    def test_empty_ground_set(self):
        assert tutte_subset_sum(BinaryMatrix.zeros(0, 3)) == TuttePolynomial({(0, 0): 1})

    def test_all_loops(self):
        got = tutte_subset_sum(BinaryMatrix.zeros(4, 2))
        assert got == TuttePolynomial({(0, 4): 1})

    def test_all_coloops(self):
        got = tutte_subset_sum(BinaryMatrix.identity(3))
        assert got == TuttePolynomial({(3, 0): 1})

    def test_row_limit(self):
        with pytest.raises(TooManyRows):
            tutte_subset_sum(BinaryMatrix.zeros(21, 2), row_limit=20)

    def test_evaluation_at_two_two(self):
        # T(2, 2) counts all subsets of the ground set
        rng = Random(41)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(0, 10), rng.randint(1, 8))
            assert tutte_subset_sum(m).evaluate(2, 2) == pytest.approx(2**m.n)

    def test_basis_count_brute_force(self, pex):
        r = gf2.rank(pex)
        bases = 0
        for subset in combinations(range(pex.n), r):
            sub = BinaryMatrix.from_rows(pex.l, [pex.row(i) for i in subset])
            bases += gf2.rank(sub) == r
        assert tutte_subset_sum(pex).basis_count() == bases == 6

    def test_matches_independent_oracle(self):
        rng = Random(42)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(0, 14), rng.randint(1, 9))
            assert tutte_subset_sum(m) == oracle.oracle_tutte(m)

    def test_digits_at_the_row_limit(self):
        # the largest degrees (y^n of n loops) and a coefficient of every
        # parallel class size read off at n = 20
        assert tutte_subset_sum(BinaryMatrix.zeros(20, 2)) == TuttePolynomial({(0, 20): 1})
        rows = ["10"] * 19 + ["01"]
        want = {(2, 0): 1} | {(1, j): 1 for j in range(1, 19)}
        assert tutte_subset_sum(BinaryMatrix.from_strings(rows)) == TuttePolynomial(want)


class TestTutteEval:
    def test_matches_subset_sum(self):
        rng = Random(43)
        points = [(2.0, 2.0), (1.0, 1.0), (-1.0, -1.0), (0.5, 1.5), (1j, 2 + 1j)]
        for trial in range(40):
            m = random_matrix(rng, rng.randint(0, 11), rng.randint(1, 7))
            poly = tutte_subset_sum(m)
            x, y = points[trial % len(points)]
            assert cmath.isclose(
                tutte_eval(m, x, y), poly.evaluate(x, y), rel_tol=1e-9, abs_tol=1e-9
            )

    def test_exact_on_low_rank_programs(self):
        # zero rows, repeated rows and coloops in every mix; integer points
        # keep both evaluators in exact arithmetic
        rng = Random(41)
        for _ in range(60):
            l = rng.randint(1, 6)
            basis = [rng.getrandbits(l) for _ in range(rng.randint(1, 3))]
            rows = []
            for _ in range(rng.randint(0, 14)):
                pick = rng.random()
                if pick < 0.15:
                    rows.append(0)
                elif pick < 0.35 and rows:
                    rows.append(rng.choice(rows))
                else:
                    v = 0
                    for b in basis:
                        v ^= b * rng.getrandbits(1)
                    rows.append(v)
            m = BinaryMatrix.from_rows(l, (gf2.BitVector(l, v) for v in rows))
            assert gf2.rank(m) <= 3
            poly = tutte_subset_sum(m)
            for x, y in [(2, 3), (-1, 2), (0, 0), (1, -3)]:
                assert tutte_eval(m, x, y) == poly.evaluate(x, y)

    def test_depth_is_the_distinct_row_count(self):
        # one class of 1990 parallel coloops and 10 loops: one level deep,
        # where a recursion per row would pass Python's recursion limit
        m = BinaryMatrix(2000, 3, (5,) * 1990 + (0,) * 10)
        want = 3**10 * (2 + sum(3**j for j in range(1, 1990)))
        assert tutte_eval(m, 2, 3) == want

    def test_handles_more_rows_than_subset_sum(self):
        # 2^26 subsets would be far out of reach for the direct sum
        rng = Random(44)
        m = random_matrix(rng, 26, 4)
        got = tutte_eval(m, 2.0, 2.0)
        assert got == pytest.approx(2.0**26, rel=1e-9)

    @pytest.mark.parametrize(
        "rows", [["10", "01", "11"], ["00", "00", "10"], ["00"] * 4 + ["10"]]
    )
    def test_non_finite_values_raise(self, rows):
        # (1e200, 1e200) overflows to inf+nanj or nan+nanj; exact ints are
        # not checked, as complex() of a huge int overflows
        m = BinaryMatrix.from_strings(rows)
        with pytest.raises(NumericalInconsistency):
            tutte_eval(m, complex(1e200), complex(1e200))
        with pytest.raises(NumericalInconsistency):
            tutte_eval(m, 1e200, 1e200)
        exact = tutte_eval(m, 10**200, 10**200)
        assert exact == tutte_subset_sum(m).evaluate(10**200, 10**200) > 0

    def test_memo_budget(self):
        rng = Random(45)
        m = random_matrix(rng, 18, 14)
        with pytest.raises(BudgetExceeded):
            tutte_eval(m, 0.3 + 0.7j, 1.9, memo_limit=4)

    def test_deletion_chain_past_the_recursion_limit(self, monkeypatch):
        # 2000 distinct rows of rank 64: the first deletion chain alone is
        # 1936 levels deep, so the call fails before the first minor
        keys = []
        monkeypatch.setattr(tutte, "_canonical_key", keys.append)
        rng = Random(46)
        m = BinaryMatrix(2000, 64, tuple({rng.getrandbits(64) | 1 << 63 for _ in range(2000)}))
        assert gf2.rank(m) == 64
        with pytest.raises(BudgetExceeded, match="deletion chain of 1936 levels") as info:
            tutte_eval(m, 2, 3)
        assert f"headroom of {tutte._recursion_headroom() - 1} levels" in str(info.value)
        assert keys == []

    def test_headroom_admits_only_chains_that_fit(self, monkeypatch):
        # the chain against a headroom of exactly its length passes, one
        # less fails
        rng = Random(47)
        m = random_matrix(rng, 12, 4)
        chain = len(set(m.bits) - {0}) - gf2.rank(m)
        want = tutte_subset_sum(m).evaluate(2, 3)
        monkeypatch.setattr(tutte, "_recursion_headroom", lambda: chain)
        assert tutte_eval(m, 2, 3) == want
        monkeypatch.setattr(tutte, "_recursion_headroom", lambda: chain - 1)
        with pytest.raises(BudgetExceeded, match=f"of {chain} levels .* of {chain - 1}"):
            tutte_eval(m, 2, 3)

    def test_headroom_check_never_lets_a_recursion_overflow(self):
        # under ever higher interpreter limits each call either fails the
        # check or answers, never with RecursionError
        base = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        for seed in range(6):
            rng = Random(seed)
            r = rng.choice([4, 5])
            rows = rng.sample(range(1, 1 << r), rng.randint(r + 3, (1 << r) - 1))
            m = BinaryMatrix(len(rows), r, tuple(rows))
            want = tutte_eval(m, 2, 3)
            answered = False
            try:
                for extra in range(16, 96):
                    sys.setrecursionlimit(base + extra)
                    try:
                        answered = tutte_eval(m, 2, 3) == want
                    except BudgetExceeded:
                        continue
                    break
            finally:
                sys.setrecursionlimit(limit)
            assert answered

    def test_star_closed_form(self):
        for arms in [(1,), (3,), (1, 2), (2, 2, 4), (5, 1, 3)]:
            rows = []
            width = len(arms)
            for arm, size in enumerate(arms):
                rows.extend(["0" * arm + "1" + "0" * (width - arm - 1)] * size)
            m = BinaryMatrix.from_strings(rows)
            assert tutte_subset_sum(m) == star_tutte(arms)


def _classes_program(rng: Random) -> BinaryMatrix:
    # a low-rank part with zero and repeated rows, plus one or two classes
    # of k >= 2 copies of a row on a bit the rest never touch: a coloop of
    # the distinct rows, so each class is a separator of the matroid
    l = rng.randint(3, 7)
    coloops = rng.randint(1, 2)
    basis = [rng.getrandbits(l - coloops) for _ in range(rng.randint(1, 3))]
    rows = []
    for _ in range(rng.randint(0, 6)):
        pick = rng.random()
        if pick < 0.2:
            rows.append(0)
        elif pick < 0.45 and rows:
            rows.append(rng.choice(rows))
        else:
            v = 0
            for b in basis:
                v ^= b * rng.getrandbits(1)
            rows.append(v)
    for c in range(coloops):
        top = 1 << (l - 1 - c)
        v = top | rng.getrandbits(l - coloops)
        rows.extend([v] * rng.randint(2, (12 - len(rows)) // (coloops - c)))
    rng.shuffle(rows)
    return BinaryMatrix(len(rows), l, tuple(rows))


class TestAgainstOracle:
    """Both faces of the one recursion against the independent subset sum."""

    POINTS = [(2, 3), (-1, 2), (0, 0), (1, -3), (-1, -1)]

    def test_classes_of_loops_repeats_and_coloops(self):
        rng = Random(47)
        for _ in range(60):
            m = _classes_program(rng)
            assert m.n <= 12
            want = oracle.oracle_tutte(m)
            assert tutte_subset_sum(m) == want
            for x, y in self.POINTS:
                assert tutte_eval(m, x, y) == want.evaluate(x, y)


    def test_every_minor_splits_once(self, monkeypatch):
        # each minor the recursion evaluates, the root and two per memo
        # entry, makes one _split call, which takes the one circuit basis
        split, circuits, key = tutte._split, gf2._circuits, tutte._canonical_key
        splits, bases, keys = [], [], set()

        def counted_split(rows):
            before = len(bases)
            parts = split(rows)
            splits.append(len(bases) - before)
            return parts

        def counted_circuits(rows):
            bases.append(rows)
            return circuits(rows)

        def recorded_key(sizes):
            keys.add(found := key(sizes))
            return found

        monkeypatch.setattr(tutte, "_split", counted_split)
        monkeypatch.setattr(gf2, "_circuits", counted_circuits)
        monkeypatch.setattr(tutte, "_canonical_key", recorded_key)
        rng = Random(48)
        for _ in range(30):
            m = _classes_program(rng)
            want = tutte_subset_sum(m)
            for x, y in [(2, 3), (0.5 + 0.25j, 1.5)]:
                splits.clear()
                bases.clear()
                keys.clear()
                value = tutte_eval(m, x, y)
                assert cmath.isclose(value, want.evaluate(x, y), rel_tol=1e-9)
                assert splits == [1] * (1 + 2 * len(keys))
                assert len(bases) == len(splits)


def _graph(edges, vertices: int) -> BinaryMatrix:
    # one row per edge, its two end vertices set: the cycle matroid
    return BinaryMatrix(len(edges), vertices, tuple(1 << a | 1 << b for a, b in edges))


def _circuit(n: int) -> BinaryMatrix:
    # n - 1 unit rows and their sum: one circuit through all n rows
    return BinaryMatrix(n, n - 1, tuple(1 << i for i in range(n - 1)) + ((1 << n - 1) - 1,))


def _wheel(spokes: int) -> BinaryMatrix:
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return _graph([(0, i) for i in range(1, spokes + 1)] + rim, spokes + 1)


def _dual(m: BinaryMatrix) -> BinaryMatrix:
    # the circuit-space basis as columns: its row matroid is M*
    basis = gf2.kernel(gf2.transpose(m))
    rows = tuple(gf2._parities(1 << (m.n - 1 - i), [v.bits for v in basis]) for i in range(m.n))
    return BinaryMatrix(m.n, len(basis), rows)


def _transform_lengths(monkeypatch) -> list[int]:
    lengths: list[int] = []
    zeta = tutte._zeta

    def recording(values):
        lengths.append(values.size)
        return zeta(values)

    monkeypatch.setattr(tutte, "_zeta", recording)
    return lengths


class TestSubsetTransform:
    """The corank-nullity transform against the oracle and the recursion."""

    def assert_matches_recursion(self, m: BinaryMatrix, poly: TuttePolynomial) -> None:
        # the last point is the one whose base-2^(n+1) digits are the
        # coefficients: there the recursion's value holds the whole polynomial
        shift = m.n + 1
        points = [(2, 3), (-1, 2), (0, 0), (1, -3), (1 << shift * shift, 1 << shift)]
        for x, y in points:
            assert poly.evaluate(x, y) == tutte_eval(m, x, y)

    def test_generated_classes_against_the_oracle(self):
        rng = Random(48)
        cases = [BinaryMatrix.zeros(0, 3), BinaryMatrix.zeros(1, 2), BinaryMatrix(1, 2, (2,))]
        for _ in range(10):
            # loops; classes of parallel coloops; parallel classes in circuits
            l = rng.randint(1, 5)
            cases.append(BinaryMatrix.zeros(rng.randint(1, 12), l))
            coloops = [1 << i for i in range(l)]
            cases.append(BinaryMatrix(12, l, tuple(rng.choice(coloops) for _ in range(12))))
            basis = [rng.getrandbits(3) for _ in range(4)]
            rows = tuple(rng.choice(basis) for _ in range(rng.randint(2, 13)))
            cases.append(BinaryMatrix(len(rows), 3, rows))
            m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 8))
            cases += [m, _dual(m)]
        cases += [_circuit(12), _wheel(6), _graph(list(combinations(range(5), 2)), 5)]
        for m in cases:
            got = tutte_subset_sum(m)
            assert got == oracle.oracle_tutte(m)
            self.assert_matches_recursion(m, got)

    def test_dual_swaps_the_variables(self):
        rng = Random(49)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 8))
            swapped = {(j, i): c for (i, j), c in tutte_subset_sum(m).items()}
            assert tutte_subset_sum(_dual(m)) == TuttePolynomial(swapped)

    def test_twenty_rows(self):
        rng = Random(50)
        circuit = tutte_subset_sum(_circuit(20))
        assert circuit == TuttePolynomial({(i, 0): 1 for i in range(1, 20)} | {(0, 1): 1})
        assert tutte_subset_sum(BinaryMatrix.zeros(20, 3)) == TuttePolynomial({(0, 20): 1})
        low_rank = BinaryMatrix(20, 4, tuple(rng.getrandbits(4) for _ in range(20)))
        dense = random_matrix(rng, 20, 12)
        for m in [_circuit(20), _wheel(10), low_rank, dense]:
            self.assert_matches_recursion(m, tutte_subset_sum(m))
        # T(2, 2) counts the subsets and T(1, 1) the bases, 2^(n-1) for a wheel
        wheel = tutte_subset_sum(_wheel(10))
        assert wheel.evaluate(2, 2) == 1 << 20
        assert wheel.basis_count() == 15125

    def test_twenty_one_rows(self):
        with pytest.raises(TooManyRows):
            tutte_subset_sum(BinaryMatrix.zeros(21, 2))
        with pytest.raises(TooManyRows):
            tutte_subset_sum(_circuit(21))

    def test_no_dual_when_the_primal_side_has_no_class(self, monkeypatch):
        # zero rows and parallel coloops are closed-form factors on M, so
        # M* is never built: one circuit basis, the one _split takes
        calls = []
        circuits = gf2._circuits

        def counted(rows):
            calls.append(len(rows))
            return circuits(rows)

        monkeypatch.setattr(gf2, "_circuits", counted)
        rng = Random(52)
        zeros = [BinaryMatrix.zeros(n, 3) for n in (1, 7, 13)]
        coloops = [BinaryMatrix.identity(6), BinaryMatrix(9, 3, (4, 4, 2, 0, 1, 1, 1, 0, 2))]
        units = [0, 1, 2, 4, 8, 16]
        coloops.append(BinaryMatrix(13, 5, tuple(rng.choice(units) for _ in range(13))))
        for m in zeros + coloops:
            calls.clear()
            assert tutte_subset_sum(m) == oracle.oracle_tutte(m)
            assert len(calls) == 1
        # a circuit beside zero rows and coloops: both sides are weighed
        mixed = [
            BinaryMatrix(8, 4, (0, 8, 8, 4, 3, 2, 1, 0)),
            BinaryMatrix(6, 3, (0, 4, 3, 2, 1, 1)),
        ]
        for m in mixed:
            calls.clear()
            assert tutte_subset_sum(m) == oracle.oracle_tutte(m)
            assert len(calls) > 1

    def test_transform_length_follows_the_smaller_side(self, monkeypatch):
        lengths = _transform_lengths(monkeypatch)
        # 20 distinct rows in one circuit, 2^20 subsets; the dual is one
        # class of 20 parallel coloops, a closed-form factor
        tutte_subset_sum(_circuit(20))
        assert max(lengths, default=0) <= 2
        lengths.clear()
        # full rank: every row a coloop, no transform
        tutte_subset_sum(BinaryMatrix.identity(12))
        tutte_subset_sum(BinaryMatrix.from_strings(["110", "011", "001"]))
        assert lengths == []
        rng = Random(51)
        for _ in range(5):
            tutte_subset_sum(random_matrix(rng, 14, 8))
        assert lengths and max(lengths) <= 1 << 14
        lengths.clear()
        # 20 rows in 4 columns: at most 15 distinct ones, as classes
        tutte_subset_sum(BinaryMatrix(20, 4, tuple(rng.getrandbits(4) for _ in range(20))))
        assert max(lengths) <= 1 << 15


def _low_rank(rng: Random, n: int, l: int, r: int) -> BinaryMatrix:
    gens = [rng.getrandbits(l) for _ in range(r)]
    rows = []
    for _ in range(n):
        v = 0
        for g in gens:
            v ^= g * rng.getrandbits(1)
        rows.append(v)
    return BinaryMatrix(n, l, tuple(rows))


def _repeated_rows(rng: Random, classes: int, l: int) -> BinaryMatrix:
    # classes distinct rows, each repeated 1 to 4 times, with zero rows
    distinct = rng.sample(range(1, 1 << l), classes)
    rows = [v for v in distinct for _ in range(rng.randint(1, 4))] + [0] * rng.randint(0, 2)
    rng.shuffle(rows)
    return BinaryMatrix(len(rows), l, tuple(rows))


def _point_programs(rng: Random, count: int) -> list[BinaryMatrix]:
    # n <= 12 and l <= 7: dense, low-rank with zero rows, and split programs
    programs = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            programs.append(random_matrix(rng, rng.randint(0, 12), rng.randint(1, 7)))
        elif kind == 1:
            n, l = rng.randint(1, 12), rng.randint(2, 7)
            programs.append(_low_rank(rng, n, l, rng.randint(1, 4)))
        else:
            programs.append(_classes_program(rng))
    return programs


def _theta_graph(length: int) -> BinaryMatrix:
    # three paths of length edges each between vertices 0 and 1: 3 * length
    # distinct rows, whose dual keeps three classes, one per path
    edges = []
    vertex = 2
    for _ in range(3):
        previous = 0
        for _ in range(length - 1):
            edges.append((previous, vertex))
            previous, vertex = vertex, vertex + 1
        edges.append((previous, 1))
    return _graph(edges, vertex)


class TestTutteAt:
    """tutte_at: the code at the easy points, else the class transform at
    the point, else deletion and contraction."""

    EASY = [(2, 3), (3, 2), (0, -1), (-1, 0), (-1, -1)]
    INTEGER = EASY + [(1, 1), (2, 2), (0, 0), (1, -3), (-1, 2), (5, 7), (-3, 4)]
    # the float points of the tests and the bench, and points far from 1
    FLOAT = [(x, y) for x in (0.5, 1.0, 2.0, 3.0) for y in (0.5, 1.0, 1.5, 2.0)] + [
        (0.3, -0.7), (2.0, 3.0), (3.0, 0.5), (50.0, -40.0), (-30.0, 0.5), (0.5, -20.0),
    ]

    def test_easy_points_equal_the_recursion(self):
        rng = Random(53)
        for m in _point_programs(rng, 210):
            for x, y in self.EASY:
                assert tutte._easy_value(m, x, y) == tutte_eval(m, x, y)
            assert tutte._easy_value(m, 2, 2) is None

    def test_transform_equals_the_recursion_at_integer_points(self):
        rng = Random(54)
        for m in _point_programs(rng, 210):
            primal, dual = tutte._split(m.bits), tutte._dual_split(m.bits)
            for x, y in self.INTEGER:
                want = tutte_eval(m, x, y)
                assert tutte._side_value(primal, x, y) == want
                assert tutte._side_value(dual, y, x) == want
                got = tutte.tutte_at(m, x, y)
                assert got == want and isinstance(got, int)

    def test_float_transform_within_the_exact_sum(self):
        # the float sum against the same sum over Fractions, at up to 20 classes
        rng = Random(55)
        sides = [tutte._split(random_matrix(rng, n, l).bits) for n, l in ((9, 4), (14, 8), (20, 12))]
        sides += [tutte._split(_repeated_rows(rng, k, l).bits) for k, l in ((5, 3), (11, 4), (17, 5))]
        for n, r in ((60, 3), (100, 4), (20, 5)):
            sides.append(tutte._split(_low_rank(rng, n, 8, r).bits))
        for side in sides:
            assert 3 <= len(side[2]) <= 20
            for x, y in self.FLOAT:
                exact = tutte._side_value(side, Fraction(x), Fraction(y))
                got = tutte._side_value(side, x, y)
                assert isinstance(got, float)
                assert abs(got - exact) <= 1e-9 * max(1, abs(exact))

    def test_exact_sum_is_the_polynomial(self):
        rng = Random(56)
        for m in [random_matrix(rng, 12, 7), _repeated_rows(rng, 6, 5), _circuit(9)]:
            poly = tutte_subset_sum(m)
            for x, y in [(0.5, 1.5), (50.0, -40.0), (0.3, -0.7)]:
                fx, fy = Fraction(x), Fraction(y)
                assert tutte._side_value(tutte._split(m.bits), fx, fy) == poly.evaluate(fx, fy)

    def test_dispatch(self, monkeypatch):
        calls = []
        for name in ("tutte_eval", "_easy_value", "_side_value", "_dual_split"):
            function = getattr(tutte, name)

            def counted(*args, _name=name, _function=function, **kwargs):
                calls.append(_name)
                return _function(*args, **kwargs)

            monkeypatch.setattr(tutte, name, counted)
        rng = Random(57)
        # at most 8 distinct nonzero rows: deletion and contraction alone
        few = _low_rank(rng, 100, 6, 3)
        assert len(set(few.bits) - {0}) <= tutte._RECURSION_MAX_ROWS
        for x, y in [(2, 3), (0.5, 1.5)]:
            calls.clear()
            tutte.tutte_at(few, x, y)
            assert calls == ["tutte_eval"]
        # rank 8, nullity 6: M* may keep fewer of the 14 classes, and the
        # code's 2^6 words are fewer than either side's subsets
        dense = random_matrix(rng, 14, 8)
        assert gf2.rank(dense) == 8 and len(tutte._split(dense.bits)[2]) == 14
        calls.clear()
        tutte.tutte_at(dense, 2, 3)
        assert calls == ["_dual_split", "_easy_value"]
        want = tutte_subset_sum(dense).evaluate(0.5, 1.5)
        calls.clear()
        assert tutte.tutte_at(dense, 0.5, 1.5) == pytest.approx(want, rel=1e-12)
        assert calls == ["_dual_split", "_side_value"]
        # the 20-element circuit is one parallel class in M*, which keeps none
        circuit = _circuit(20)
        calls.clear()
        got = tutte.tutte_at(circuit, 0.5, 1.5)
        assert calls == ["_dual_split", "_side_value"]
        assert got == pytest.approx(1.5 + sum(0.5**i for i in range(1, 20)), rel=1e-12)
        # 30 distinct rows of nullity 2: M* keeps three series classes
        theta = _theta_graph(10)
        calls.clear()
        got = tutte.tutte_at(theta, 0.5, 1.5)
        assert calls == ["_dual_split", "_side_value"]
        assert got == pytest.approx(tutte_eval(theta, 0.5, 1.5), rel=1e-12)
        # M and M* both keep more than 20 classes: M* is never built
        wide = random_matrix(rng, 50, 20)
        calls.clear()
        with pytest.raises(BudgetExceeded):
            tutte.tutte_at(wide, 0.5, 1.5, memo_limit=10)
        assert calls == ["tutte_eval"]

    def test_transform_where_the_code_is_dearer(self, monkeypatch):
        # rank 46 and nullity 38, past the enumeration limit of 26, but M
        # keeps 16 classes of 3 parallel rows beside 30 coloops and 6 loops
        def never(*args, **kwargs):
            raise AssertionError("the code was asked where the transform is cheaper")

        monkeypatch.setattr(tutte, "_easy_value", never)
        rng = Random(58)
        units = [1 << i for i in range(46)]
        rows = [v for v in units[:16] for _ in range(3)] + units[16:] + [0] * 6
        rng.shuffle(rows)
        m = BinaryMatrix(len(rows), 46, tuple(rows))
        want = 3**6 * 2**30 * (2 + 3 + 9) ** 16  # y^6 x^30 (x + y + y^2)^16 at (2, 3)
        assert tutte.tutte_at(m, 2, 3) == want
        # 26 coloops and 26 loops: r = n - r = 26, within the enumeration
        # limit, and no class is left to transform
        rows = units[:26] + [0] * 26
        rng.shuffle(rows)
        m = BinaryMatrix(52, 26, tuple(rows))
        assert tutte.tutte_at(m, 2, 3) == 2**26 * 3**26
        assert tutte.tutte_at(m, -1, -1) == 1

    def test_easy_point_past_the_budget_falls_through(self):
        # 60 distinct rows of rank 30 and nullity 30: the code is past the
        # enumeration limit and M* is never built, so the recursion is left
        m = random_matrix(Random(59), 60, 30)
        assert gf2.rank(m) == 30 and len(set(m.bits)) == 60
        assert tutte._easy_value(m, 2, 3) is None
        with pytest.raises(BudgetExceeded):
            tutte.tutte_at(m, 2, 3, memo_limit=10)

    def test_long_circuit(self):
        # 1199 unit rows and their sum: T = y + x + ... + x^1199, whose
        # contraction path passes the recursion limit; M* is one class
        l = 1199
        m = BinaryMatrix(l + 1, l, tuple(1 << i for i in range(l)) + ((1 << l) - 1,))
        assert tutte.tutte_at(m, 2, 3) == 2**1200 + 1
        assert tutte.tutte_at(m, -1, -1) == -2
        want = 1.5 + sum(2.0**-i for i in range(1, 1200))
        assert abs(tutte.tutte_at(m, 0.5, 1.5) - want) <= 1e-9

    def test_non_finite_values_raise(self):
        # K5's cycle matroid keeps its 10 classes on M and M* and has no
        # separator: only products of the power tables overflow, and no
        # warning escapes
        m = _graph([(a, b) for a in range(5) for b in range(a + 1, 5)], 5)
        assert tutte._transform_side(m.bits, 0, 1, tutte.DEFAULT_ROW_LIMIT)[1] == (0, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalInconsistency):
                tutte.tutte_at(m, 1e160, 1e160)
            with pytest.raises(NumericalInconsistency):
                tutte.tutte_at(m, 1e200, -1e200)
        assert caught == []


class TestStarTutte:
    def test_single_edge(self):
        assert star_tutte([1]) == TuttePolynomial({(1, 0): 1})

    def test_parallel_pair(self):
        assert star_tutte([2]) == TuttePolynomial({(1, 0): 1, (0, 1): 1})

    def test_bad_arm(self):
        with pytest.raises(ValueError):
            star_tutte([0])


class TestGreeneAlpha:
    def test_matches_enumeration_alpha(self):
        rng = Random(46)
        angles = [
            Angle.exact(1, 8), Angle.exact(1, 4), Angle.exact(1, 2),
            Angle.exact(2, 5), Angle.radians(1.0),
        ]
        for trial in range(60):
            m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 8))
            theta = angles[trial % len(angles)]
            via_code = codes.alpha(m, theta)
            via_tutte = greene_alpha(m, theta)
            assert cmath.isclose(via_code, via_tutte, rel_tol=1e-8, abs_tol=1e-10)

    def test_half_turn_closed_form(self, pex):
        assert greene_alpha(pex, Angle.exact(1, 1)) == pytest.approx(1.0)
        odd = BinaryMatrix.from_strings(["101"])
        assert greene_alpha(odd, Angle.exact(1, 1)) == pytest.approx(-1.0)
        assert greene_alpha(odd, Angle.exact(0, 1)) == pytest.approx(1.0)

    def test_zero_rows(self):
        m = BinaryMatrix.zeros(3, 2)
        theta = Angle.radians(0.7)
        want = cmath.exp(1j * 0.7 * 3)
        assert cmath.isclose(greene_alpha(m, theta), want, rel_tol=1e-12)
