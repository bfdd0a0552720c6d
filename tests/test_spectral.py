"""Irreducible blocks, averaging operators, per-level gaps, and defect
functionals, checked against eigensolver and analytic oracles."""

import math

import numpy as np
import pytest

import su2gap.spectral as spectral
from su2gap import (
    IDENTITY,
    ConvergenceError,
    Move,
    Pair,
    SU2Element,
    Word,
    apply_move,
    averaging_operator,
    conjugate,
    construct_pair_from_fricke,
    gap_profile,
    haar_pair,
    haar_sample,
    irrep_matrix,
    level_gap,
    min_defect_level,
    trace,
    word_defect_check,
)
from su2gap.su2_core import reduce_letters

DIAG_I = SU2Element(1j, 0.0j)
ROT_J = SU2Element(0.0j, -1.0 + 0.0j)


def binomial_irrep_reference(g: SU2Element, n: int) -> np.ndarray:
    """The level-n block by expanding the substituted monomials directly.

    Column k is the image of sqrt(C(n, k)) x^(n-k) y^k under
    x -> alpha x - conj(beta) y, y -> beta x + conj(alpha) y, expanded as a
    convolution of two binomial rows.  Exact in exact arithmetic but
    cancelling catastrophically past level 60 or so, so it is a reference for
    the basis convention at low levels only.
    """
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    alpha, beta = g.alpha, g.beta
    sqrt_binom = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    powers = np.arange(n + 1)
    pow_alpha = alpha**powers
    pow_nconj_beta = (-beta.conjugate()) ** powers
    pow_beta = beta**powers
    pow_conj_alpha = alpha.conjugate() ** powers
    out = np.empty((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        first = np.array([float(math.comb(n - k, i)) for i in range(n - k + 1)])
        first = first * pow_alpha[: n - k + 1][::-1] * pow_nconj_beta[: n - k + 1]
        second = np.array([float(math.comb(k, m)) for m in range(k + 1)])
        second = second * pow_beta[: k + 1][::-1] * pow_conj_alpha[: k + 1]
        out[:, k] = np.convolve(first, second) * (sqrt_binom[k] / sqrt_binom)
    return out


def character_oracle(g: SU2Element, n: int) -> float:
    """tr(pi_n(g)) = sin((n+1) theta) / sin(theta), with trace(g) = 2 cos(theta)."""
    theta = math.acos(max(-1.0, min(1.0, trace(g) / 2.0)))
    return math.sin((n + 1) * theta) / math.sin(theta)


class TestIrrepMatrix:
    def test_level_zero_is_trivial(self, rng):
        np.testing.assert_array_equal(irrep_matrix(haar_sample(rng), 0), [[1.0]])

    def test_level_one_is_the_element(self, rng):
        for _ in range(50):
            g = haar_sample(rng)
            np.testing.assert_allclose(irrep_matrix(g, 1), g.matrix, atol=1e-15)

    def test_level_two_matches_tensor_square(self, rng):
        # oracle: restrict g (x) g to the symmetric subspace of C^2 (x) C^2
        basis = np.zeros((4, 3), dtype=complex)
        basis[0, 0] = 1.0
        basis[1, 1] = basis[2, 1] = 1.0 / math.sqrt(2.0)
        basis[3, 2] = 1.0
        for _ in range(50):
            g = haar_sample(rng)
            oracle = basis.conj().T @ np.kron(g.matrix, g.matrix) @ basis
            np.testing.assert_allclose(irrep_matrix(g, 2), oracle, atol=1e-12)

    def test_character_formula(self, rng):
        # oracle: tr(pi_n(g)) = sin((n+1) theta) / sin(theta), trace(g) = 2 cos(theta)
        for _ in range(100):
            g = haar_sample(rng)
            theta = math.acos(max(-1.0, min(1.0, trace(g) / 2.0)))
            if math.sin(theta) < 1e-3:
                continue
            for n in (2, 3, 7, 19, 30):
                character = float(np.trace(irrep_matrix(g, n)).real)
                expected = math.sin((n + 1) * theta) / math.sin(theta)
                assert abs(character - expected) < 1e-9

    def test_homomorphism_and_unitarity(self, rng):
        for n in range(1, 31):
            eye = np.eye(n + 1)
            for _ in range(30):
                g, h = haar_sample(rng), haar_sample(rng)
                pg, ph = irrep_matrix(g, n), irrep_matrix(h, n)
                pgh = irrep_matrix(g * h, n)
                assert np.linalg.norm(pgh - pg @ ph) < 1e-9
                assert np.linalg.norm(pg.conj().T @ pg - eye) < 1e-9

    def test_rejects_negative_level(self, rng):
        with pytest.raises(ValueError):
            irrep_matrix(haar_sample(rng), -1)

    def test_center_acts_by_sign(self, rng):
        # pi_n(-g) = (-1)^n pi_n(g), also for rotation angles near pi, where
        # log g is ill conditioned
        minus = SU2Element(-1.0 + 0.0j, 0.0j)
        elements = [SU2Element.from_quaternion(1.0, 1e-9, -2e-9, 3e-9)]
        elements += [haar_sample(rng) for _ in range(5)]
        for n in (1, 2, 3, 8, 51, 200):
            np.testing.assert_allclose(
                irrep_matrix(minus, n), (-1) ** n * np.eye(n + 1), rtol=0, atol=1e-15
            )
            for g in elements:
                negated = SU2Element(-g.alpha, -g.beta)
                np.testing.assert_allclose(
                    irrep_matrix(negated, n), (-1) ** n * irrep_matrix(g, n), rtol=0, atol=1e-9
                )

    def test_matches_binomial_expansion_at_low_levels(self, rng):
        # pins the monomial basis convention independently of the construction
        for _ in range(30):
            g = haar_sample(rng)
            for n in range(31):
                np.testing.assert_allclose(
                    irrep_matrix(g, n), binomial_irrep_reference(g, n), rtol=0, atol=1e-10
                )

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_high_level_unitarity_homomorphism_character(self, rng, n):
        eye = np.eye(n + 1)
        for _ in range(3):
            g, h = haar_sample(rng), haar_sample(rng)
            pg, ph = irrep_matrix(g, n), irrep_matrix(h, n)
            assert np.linalg.norm(pg.conj().T @ pg - eye) < 1e-9
            assert np.linalg.norm(irrep_matrix(g * h, n) - pg @ ph) < 1e-9
            character = float(np.trace(pg).real)
            assert abs(character - character_oracle(g, n)) < 1e-9

    def test_lps_ramanujan_bound(self):
        # Lubotzky-Phillips-Sarnak (CPAM 39, 1986): the six p = 5 generators
        # (1 +- 2i, 1 +- 2j, 1 +- 2k) / sqrt(5) average to an operator whose
        # eigenvalues on every nontrivial level have |lambda| <= 2 sqrt(5) / 6.
        generators = [
            SU2Element.from_quaternion(1, *(s * e for e in unit))
            for unit in ((2, 0, 0), (0, 2, 0), (0, 0, 2))
            for s in (1, -1)
        ]
        bound = 2.0 * math.sqrt(5.0) / 6.0
        for n in range(1, 161):
            average = sum(irrep_matrix(g, n) for g in generators) / 6.0
            radius = float(np.abs(np.linalg.eigvalsh(average)).max())
            assert radius <= bound + 1e-9, (n, radius)


class TestAveragingOperator:
    def test_identity_pair_gives_identity(self):
        for n in (1, 2, 5):
            np.testing.assert_allclose(
                averaging_operator(Pair(IDENTITY, IDENTITY), n), np.eye(n + 1), atol=0
            )

    def test_hermitian(self, rng):
        for _ in range(100):
            op = averaging_operator(haar_pair(rng), 6)
            assert np.linalg.norm(op - op.conj().T) < 1e-12

    def test_spectral_radius_at_most_one(self, rng):
        # oracle: dense eigensolver on small levels
        for _ in range(100):
            for n in (1, 3, 8):
                eigenvalues = np.linalg.eigvalsh(averaging_operator(haar_pair(rng), n))
                assert abs(eigenvalues).max() <= 1.0 + 1e-10

    def test_requires_positive_level(self, rng):
        with pytest.raises(ValueError):
            averaging_operator(haar_pair(rng), 0)


def commuting_gap_oracle(angle_a: float, angle_b: float, n: int) -> float:
    """Analytic gap for a commuting diagonal pair: the averaging operator is
    diagonal with entries (cos(k a) + cos(k b)) / 2, k = n - 2j."""
    k = n - 2 * np.arange(n + 1)
    eigenvalues = (np.cos(k * angle_a) + np.cos(k * angle_b)) / 2.0
    return 1.0 - float(eigenvalues.max())


class TestLevelGap:
    def test_identity_pair(self):
        for n in range(1, 11):
            assert level_gap(Pair(IDENTITY, IDENTITY), n) <= 1e-12

    def test_minus_identity_pair_level_two(self):
        minus = SU2Element(-1.0 + 0.0j, 0.0j)
        np.testing.assert_allclose(irrep_matrix(minus, 2), np.eye(3), atol=1e-15)
        assert level_gap(Pair(minus, minus), 2) <= 1e-12

    def test_commuting_pair_matches_analytic_oracle(self, commuting_pair):
        for n in range(1, 21):
            got = level_gap(commuting_pair, n)
            expected = commuting_gap_oracle(np.pi / 5, np.sqrt(2), n)
            assert abs(got - expected) < 1e-9

    def test_commuting_pair_profile_minimum(self, commuting_pair):
        profile = gap_profile(commuting_pair, 50)
        assert profile.min_gap < 0.05
        # even levels fix the zero-weight vector exactly
        assert commuting_gap_oracle(np.pi / 5, np.sqrt(2), 2) == 0.0

    def test_gap_against_eigensolver_on_random_pairs(self, rng):
        for _ in range(50):
            pair = haar_pair(rng)
            for n in (1, 4, 9):
                oracle = 1.0 - np.linalg.eigvalsh(averaging_operator(pair, n))[-1]
                assert abs(level_gap(pair, n) - oracle) < 1e-9

    def test_conjugation_invariance(self, rng):
        for _ in range(30):
            pair = haar_pair(rng)
            k = haar_sample(rng)
            moved = Pair(conjugate(pair.a, k), conjugate(pair.b, k))
            for n in (1, 3, 8):
                assert abs(level_gap(pair, n) - level_gap(moved, n)) < 1e-9

    def test_range(self, rng):
        for _ in range(30):
            gap = level_gap(haar_pair(rng), 5)
            assert 0.0 <= gap <= 2.0

    def test_impossible_eigenvalue_raises(self, lps_pair, monkeypatch):
        monkeypatch.setattr(spectral, "irrep_matrix", lambda g, n: 1.5 * np.eye(n + 1))
        with pytest.raises(ConvergenceError) as info:
            level_gap(lps_pair, 4)
        assert info.value.level == 4

    def test_eigensolver_failure_raises_with_level(self, lps_pair, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        for compute in (level_gap, min_defect_level):
            with pytest.raises(ConvergenceError) as info:
                compute(lps_pair, 3)
            assert info.value.level == 3


class TestGapProfile:
    def test_identity_pair_min_zero(self):
        profile = gap_profile(Pair(IDENTITY, IDENTITY), 10)
        assert profile.min_gap == 0.0
        assert profile.n_max == 10
        assert [row[0] for row in profile.rows()] == list(range(1, 11))
        assert all(dim == n + 1 for n, dim, _ in profile.rows())

    def test_lps_pair_truncated_gap(self, lps_pair):
        profile = gap_profile(lps_pair, 50)
        # oracle: dense eigensolver per level
        oracle = min(
            1.0 - np.linalg.eigvalsh(averaging_operator(lps_pair, n))[-1]
            for n in range(1, 51)
        )
        assert abs(profile.min_gap - oracle) < 1e-9
        assert profile.min_gap > 0.05

    def test_quarter_turn_with_identity_loses_gap(self):
        pair = construct_pair_from_fricke(0.0, 2.0)
        # pi_2(a) and pi_4(a) have +1 diagonal entries while b = I, so the
        # level gap vanishes there
        diag2 = np.diag(irrep_matrix(pair.a, 2))
        assert any(abs(entry - 1.0) < 1e-15 for entry in diag2)
        assert level_gap(pair, 2) <= 1e-12
        assert level_gap(pair, 4) <= 1e-12
        profile = gap_profile(pair, 20)
        assert profile.min_gap <= 1e-12

    def test_finite_subgroup_hits_zero_within_exponent(self):
        # quaternion group of order 8; exponent 4
        profile = gap_profile(Pair(DIAG_I, ROT_J), 4)
        assert profile.min_gap <= 1e-12
        assert profile.argmin_level <= 4

    def test_requires_positive_nmax(self, lps_pair):
        with pytest.raises(ValueError):
            gap_profile(lps_pair, 0)


def random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestWordDefect:
    def test_empty_word(self, rng):
        pair = haar_pair(rng)
        lhs, rhs = word_defect_check(pair, Word(), 4, random_unit_vector(rng, 5))
        assert lhs == 0.0 and rhs == 0.0

    def test_squared_generator_factor_two(self, rng):
        for _ in range(100):
            pair = haar_pair(rng)
            n = 6
            v = random_unit_vector(rng, n + 1)
            lhs, rhs = word_defect_check(pair, Word.from_string("aa"), n, v)
            pa = irrep_matrix(pair.a, n)
            generator_defect = np.linalg.norm(pa @ v - v)
            assert lhs <= 2.0 * generator_defect + 1e-10
            assert abs(rhs - 2.0 * max(
                np.linalg.norm(m @ v - v)
                for m in (pa, pa.conj().T, irrep_matrix(pair.b, n), irrep_matrix(pair.b, n).conj().T)
            )) < 1e-12

    def test_random_words_respect_bound(self, rng):
        for _ in range(200):
            pair = haar_pair(rng)
            length = int(rng.integers(0, 13))
            word = Word(reduce_letters(rng.choice([1, -1, 2, -2], size=length)))
            n = int(rng.integers(1, 21))
            v = random_unit_vector(rng, n + 1)
            lhs, rhs = word_defect_check(pair, word, n, v)
            assert lhs <= rhs + 1e-10

    def test_rejects_bad_vector(self, rng):
        pair = haar_pair(rng)
        with pytest.raises(ValueError):
            word_defect_check(pair, Word(), 3, np.ones(4))
        with pytest.raises(ValueError):
            word_defect_check(pair, Word(), 3, random_unit_vector(rng, 3))


def min_sum_displacement_oracle(pair, n, rng, iterations=300):
    """Projected gradient descent on the unit sphere for
    min ||(I - pi(a)) v|| + ||(I - pi(b)) v||, seeded with the eigensolver."""
    eye = np.eye(n + 1, dtype=complex)
    da = eye - irrep_matrix(pair.a, n)
    db = eye - irrep_matrix(pair.b, n)
    qa = da.conj().T @ da
    qb = db.conj().T @ db

    def value(v):
        return math.sqrt(max(np.vdot(v, qa @ v).real, 0.0)) + math.sqrt(
            max(np.vdot(v, qb @ v).real, 0.0)
        )

    _, vectors = np.linalg.eigh(qa + qb)
    starts = [vectors[:, 0]] + [random_unit_vector(rng, n + 1) for _ in range(3)]
    best = math.inf
    for v in starts:
        v = v / np.linalg.norm(v)
        current = value(v)
        step = 0.5
        for _ in range(iterations):
            na = math.sqrt(max(np.vdot(v, qa @ v).real, 0.0))
            nb = math.sqrt(max(np.vdot(v, qb @ v).real, 0.0))
            grad = qa @ v / (na + 1e-18) + qb @ v / (nb + 1e-18)
            candidate = v - step * grad
            candidate /= np.linalg.norm(candidate)
            cand_value = value(candidate)
            if cand_value < current:
                v, current = candidate, cand_value
            else:
                step /= 2.0
                if step < 1e-12:
                    break
        best = min(best, current)
    return best


class TestMinDefect:
    def test_identity_pair(self):
        assert min_defect_level(Pair(IDENTITY, IDENTITY), 3) == 0.0

    def test_sandwich_against_direct_minimization(self, rng):
        for _ in range(100):
            pair = haar_pair(rng)
            n = int(rng.integers(1, 11))
            lower = min_defect_level(pair, n)
            direct = min_sum_displacement_oracle(pair, n, rng)
            assert lower <= direct + 1e-9
            assert direct <= math.sqrt(2.0) * lower + 1e-9

    def test_commuting_pair_with_shared_fixed_vector(self):
        for k in (3, 5, 8):
            angle = 2.0 * np.pi / k
            pair = Pair(
                SU2Element(np.exp(1j * angle), 0.0),
                SU2Element(np.exp(1j * angle), 0.0),
            )
            assert min_defect_level(pair, k) <= 1e-10

    def test_zero_defect_persists_under_moves(self, commuting_pair):
        for n in (2, 4, 6):
            assert min_defect_level(commuting_pair, n) <= 1e-10
            for move in Move:
                moved = apply_move(commuting_pair, move)
                assert min_defect_level(moved, n) <= 1e-10
