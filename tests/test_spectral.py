"""Irreducible blocks, per-level gaps, and defect functionals, checked
against eigensolver and analytic oracles."""

import cmath
import collections
import itertools
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
    construct_pair_from_fricke,
    evaluate_word,
    gap_profile,
    haar_pair,
    haar_sample,
    inverse,
    irrep_matrix,
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


def averaging_operator(pair: Pair, n: int) -> np.ndarray:
    """Hermitian averaging operator (pi(a) + pi(a)* + pi(b) + pi(b)*) / 4 of
    the pair on the level-n block, built densely from the blocks of the pair
    as given: the oracle for every per-level gap.  Spectrum in [-1, 1]."""
    if n < 1:
        raise ValueError("averaging operator requires level n >= 1")
    pa = irrep_matrix(pair.a, n)
    pb = irrep_matrix(pair.b, n)
    return (pa + pa.conj().T + pb + pb.conj().T) / 4.0


def level_gap_reference(pair: Pair, n: int) -> float:
    """1 - lambda_max of the level-n averaging operator from one eigh and one
    full eigvalsh, without the sweep or the fold: on the frame of
    spectral._frame, pi(a') + pi(a')* = 2 diag(cos((n - 2k) theta_a)), and
    pi(b') + pi(b')* = 2 sign V diag(cos w) V^T up to the diagonal phase of
    spectral._real_tridiagonal_exp, which commutes with pi(a')."""
    theta_a, alpha, r = spectral._frame(pair)
    sign, _, w, v = spectral._real_tridiagonal_exp(alpha, complex(0.0, r), n)
    operator = (v * (0.5 * sign * np.cos(w))) @ v.T
    k = np.arange(n + 1)
    operator[k, k] += 0.5 * np.cos((n - 2.0 * k) * theta_a)
    return 1.0 - float(np.linalg.eigvalsh(operator)[-1])


def rotation_blocks_reference(c: float, s: float, n_max: int):
    """Yield d_n, n = 1..n_max: the full level-n block of g = [[c, s],
    [-s, c]] by Risbo's step on all n + 1 rows, the sweep that
    spectral._rotation_blocks halves.  d_n[j, k] = sum over x, y in {0, 1} of
    w[j, x] w[k, y] g[x, y] d_{n-1}[j - x, k - y], w[j, 0] = sqrt((n - j) / n),
    w[j, 1] = sqrt(j / n).  Each d_n is a view that the next step overwrites."""
    norm = math.hypot(c, s)
    c, s = c / norm, s / norm
    # d_n sits at [1:n+2, 1:n+2] inside zero borders, so shifted copies are views
    size = n_max + 2
    buffers = np.zeros((4, size, size))
    prev, cur, top, low = buffers
    prev[1, 1] = 1.0
    roots = np.sqrt(np.arange(size))
    for n in range(1, n_max + 1):
        w = roots[: n + 1] / roots[n]  # w[k, 1]; w[::-1] is w[k, 0]
        cw, sw = np.multiply.outer((c, s), w)
        same, shifted = prev[1 : n + 1, 1 : n + 2], prev[1 : n + 1, : n + 1]
        scratch = cur[1 : n + 1, 1 : n + 2]  # overwritten by the last step
        # rows x = 0, 1 of sum_y g[x, y] w[k, y] d_{n-1}[i, k - y]
        row0 = np.multiply(same, cw[::-1], out=top[1 : n + 1, : n + 1])
        row0 += np.multiply(shifted, sw, out=scratch)
        row1 = np.multiply(shifted, cw, out=low[1 : n + 1, : n + 1])
        row1 -= np.multiply(same, sw[::-1], out=scratch)
        # d_n[j] = w[j, 0] row0[j] + w[j, 1] row1[j - 1], zero rows at the ends
        top[n + 1, : n + 1] = low[0, : n + 1] = 0.0
        head, tail = top[1 : n + 2, : n + 1], low[: n + 1, : n + 1]
        head *= w[::-1, None]
        tail *= w[:, None]
        yield np.add(head, tail, out=cur[1 : n + 2, 1 : n + 2])
        prev, cur = cur, prev


def profile_gaps(pair: Pair, n_max: int) -> dict[int, float]:
    """{n: gap} of gap_profile(pair, n_max)."""
    return dict(gap_profile(pair, n_max).levels)


def patch_solves_from_level(monkeypatch, level: int, replacement) -> None:
    """Route every eigvalsh of a profile to `replacement` from the first solve
    of `level` on; each odd level below takes one solve, each even level two
    (the fold's half blocks)."""
    solve, calls = np.linalg.eigvalsh, itertools.count(1)
    before = sum(1 if n % 2 else 2 for n in range(1, level))

    def patched(matrix):
        return solve(matrix) if next(calls) <= before else replacement(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", patched)


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


def edge_pairs(rng) -> list[Pair]:
    """Haar pairs and the frame's edge cases: +-I, parallel and antiparallel
    axes, Re alpha < 0 on either generator, |v_a| ~ 1e-9, and a diagonal
    pair (r == 0.0)."""
    minus = SU2Element(-1.0 + 0.0j, 0.0j)
    g, h = haar_sample(rng), haar_sample(rng)
    axis = SU2Element.from_quaternion(0.3, 0.5, -0.4, 0.7)
    pairs = [haar_pair(rng) for _ in range(3)]
    pairs += [Pair(IDENTITY, g), Pair(minus, g), Pair(g, IDENTITY), Pair(g, minus)]
    pairs += [
        Pair(axis, axis * axis),  # parallel axes
        Pair(axis, SU2Element(-axis.alpha.conjugate(), axis.beta)),  # parallel, Re alpha < 0
        Pair(axis, SU2Element(axis.alpha.conjugate(), -axis.beta)),  # antiparallel
        Pair(SU2Element(-g.alpha, -g.beta), h),  # Re alpha < 0 on either side
        Pair(g, SU2Element(-h.alpha, -h.beta)),
        Pair(SU2Element.from_quaternion(1.0, 1e-9, -2e-9, 3e-9), h),  # |v_a| ~ 1e-9
        Pair(SU2Element.from_quaternion(-1.0, 1e-9, 0.0, 0.0), h),
        Pair(SU2Element(cmath.exp(0.7j), 0.0), SU2Element(cmath.exp(-2.3j), 0.0)),
    ]
    return pairs


@pytest.fixture(scope="module")
def edge_profiles() -> list[tuple[Pair, dict[int, float]]]:
    """(pair, gaps of levels 1..201) for edge_pairs, drawn from the rng
    fixture's seed, and the identity pair: one sweep per pair per module."""
    pairs = edge_pairs(np.random.default_rng(20260808)) + [Pair(IDENTITY, IDENTITY)]
    return [(pair, profile_gaps(pair, 201)) for pair in pairs]


class TestLevelGap:
    def test_identity_pair(self):
        for _, gap in gap_profile(Pair(IDENTITY, IDENTITY), 10).levels:
            assert gap <= 1e-12

    def test_minus_identity_pair_level_two(self):
        minus = SU2Element(-1.0 + 0.0j, 0.0j)
        np.testing.assert_allclose(irrep_matrix(minus, 2), np.eye(3), atol=1e-15)
        assert profile_gaps(Pair(minus, minus), 2)[2] <= 1e-12

    def test_commuting_pair_matches_analytic_oracle(self, commuting_pair):
        for n, got in gap_profile(commuting_pair, 20).levels:
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
            gaps = profile_gaps(pair, 9)
            for n in (1, 4, 9):
                oracle = 1.0 - np.linalg.eigvalsh(averaging_operator(pair, n))[-1]
                assert abs(gaps[n] - oracle) < 1e-9

    def test_conjugation_invariance(self, rng):
        # every level through 8 against the conjugate's profile, and level 150
        # against the conjugate's reference gap, on each pair
        for _ in range(30):
            pair = haar_pair(rng)
            k = haar_sample(rng)
            moved = Pair(k * pair.a * inverse(k), k * pair.b * inverse(k))
            gaps, moved_gaps = profile_gaps(pair, 150), profile_gaps(moved, 8)
            for n, moved_gap in moved_gaps.items():
                assert abs(gaps[n] - moved_gap) < 1e-9
            assert abs(gaps[150] - level_gap_reference(moved, 150)) < 1e-9

    @pytest.mark.parametrize("n", [60, 61, 62, 63, 120, 200, 201])
    def test_canonical_frame_against_averaging_operator(self, edge_profiles, n):
        # gap_profile works on a conjugate of the pair; averaging_operator
        # builds the blocks of the pair as given; n mod 4 covers every fold
        # branch, and the diagonal pair and those with b = +-I take the
        # diagonal branch
        for pair, gaps in edge_profiles:
            oracle = 1.0 - np.linalg.eigvalsh(averaging_operator(pair, n))[-1]
            assert abs(gaps[n] - oracle) < 1e-9

    def test_range(self, rng):
        for _ in range(30):
            gap = profile_gaps(haar_pair(rng), 5)[5]
            assert 0.0 <= gap <= 2.0

    def test_impossible_eigenvalue_raises(self, lps_pair, monkeypatch):
        # the spectrum of a 1.5 I averaging operator, which no unitary blocks give
        patch_solves_from_level(monkeypatch, 4, lambda matrix: np.full(len(matrix), 1.5))
        with pytest.raises(ConvergenceError) as info:
            gap_profile(lps_pair, 6)
        assert info.value.level == 4

    def test_eigensolver_failure_raises_with_level(self, lps_pair, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("no convergence")

        patch_solves_from_level(monkeypatch, 3, fail)
        with pytest.raises(ConvergenceError) as info:
            gap_profile(lps_pair, 6)
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
        profile = gap_profile(pair, 20)
        gaps = dict(profile.levels)
        assert gaps[2] <= 1e-12
        assert gaps[4] <= 1e-12
        assert profile.min_gap <= 1e-12

    def test_finite_subgroup_hits_zero_within_exponent(self):
        # quaternion group of order 8; exponent 4
        profile = gap_profile(Pair(DIAG_I, ROT_J), 4)
        assert profile.min_gap <= 1e-12
        assert profile.argmin_level <= 4

    def test_requires_positive_nmax(self, lps_pair):
        with pytest.raises(ValueError):
            gap_profile(lps_pair, 0)

    def test_diagonal_pairs_give_exact_zeros(self, rng):
        # r == 0.0 takes the diagonal closed form, where every even level fixes
        # the zero-weight vector exactly, for a diagonal pair and each move
        for angles in rng.uniform(-np.pi, np.pi, size=(20, 2)):
            pair = Pair(*(SU2Element(cmath.exp(1j * angle), 0.0) for angle in angles))
            for moved in [pair] + [apply_move(pair, move) for move in Move]:
                assert spectral._frame(moved)[2] == 0.0
                for n, gap in gap_profile(moved, 60).levels:
                    if n % 2 == 0:
                        assert gap == 0.0, (moved, n)


class TestSweepAgainstPoint:
    def test_profile_rows_match_level_gap(self, edge_profiles):
        for pair, gaps in edge_profiles:
            for n, gap in gaps.items():
                assert abs(gap - level_gap_reference(pair, n)) <= 1e-12, (pair, n)

    def test_rotation_blocks(self, rng):
        # the sweep's rows 0..n//2 are those of the full-block reference with
        # row j signed (-1)^j, to the bit; the reference is checked against
        # irrep_matrix, for orthogonality and for the exact mirror identity
        pair = haar_pair(rng)
        _, alpha, r = spectral._frame(pair)
        signs = (-1.0) ** np.arange(402)
        for c, s in ((abs(alpha), r), (0.0, 1.0), (math.cos(1e-6), math.sin(1e-6))):
            rotation = SU2Element(complex(c, 0.0), complex(s, 0.0))
            blocks = zip(rotation_blocks_reference(c, s, 400), spectral._rotation_blocks(c, s, 400))
            for n, (full, (half, _)) in enumerate(blocks, start=1):
                if n <= 30:
                    np.testing.assert_allclose(full, irrep_matrix(rotation, n), rtol=0, atol=1e-12)
                mirror = np.multiply.outer(signs[: n + 1], signs[: n + 1])
                assert np.array_equal(full[::-1, ::-1], mirror * full), n
                assert np.array_equal(half, signs[: n // 2 + 1, None] * full[: n // 2 + 1]), n
            assert n == 400
            assert np.abs(full @ full.T - np.eye(401)).max() <= 1e-13

    def test_blocks_against_characters(self, lps_pair, monkeypatch):
        # the solved blocks against Weyl characters chi_n at every level to 400:
        # their traces sum to tr A_n, and the squared Frobenius norms of their
        # Hermitian completions (eigvalsh reads the lower triangle) to tr A_n^2;
        # an odd level's Kramers block holds each eigenvalue once, so counts twice
        solve, blocks = np.linalg.eigvalsh, []

        def capture(matrix):
            lower = np.tril(matrix)
            blocks.append(lower + np.tril(lower, -1).conj().T)
            return solve(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", capture)
        gap_profile(lps_pair, 400)
        a, b = lps_pair
        squares = ((2.0, a * a), (2.0, b * b), (4.0, a * b), (4.0, a * inverse(b)))
        worst_trace = worst_square = 0.0
        for n in range(1, 401):
            weight, level = (2.0, blocks[:1]) if n % 2 else (1.0, blocks[:2])
            del blocks[: len(level)]
            trace_a = (character_oracle(a, n) + character_oracle(b, n)) / 2.0
            trace_a2 = (4.0 * (n + 1) + sum(c * character_oracle(g, n) for c, g in squares)) / 16.0
            got_trace = weight * sum(np.trace(block).real for block in level)
            got_square = weight * sum(np.vdot(block, block).real for block in level)
            worst_trace = max(worst_trace, abs(got_trace - trace_a))
            worst_square = max(worst_square, abs(got_square - trace_a2))
        assert not blocks
        assert worst_trace <= 1.5e-12 and worst_square <= 1.2e-11, (worst_trace, worst_square)

    def test_solved_spectra_against_character_moments(self, lps_pair, monkeypatch):
        # at deep levels, sum(lambda^k) over the eigenvalues that eigvalsh
        # returns for the half blocks, k <= 6, against tr A_n^k = 4^-k times
        # the sum of chi_n over the 4^k words of length k, so the solves are
        # checked as well as the blocks; an odd level's Kramers block holds
        # each eigenvalue once, so counts twice
        deep, n_max = (199, 200, 301), 301
        solve, spectra = np.linalg.eigvalsh, {n: [] for n in deep}
        solves = iter([n for n in range(1, n_max + 1) for _ in range(2 - n % 2)])

        def capture(matrix):
            values, n = solve(matrix), next(solves)
            if n in spectra:
                spectra[n].append(values)
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", capture)
        gap_profile(lps_pair, n_max)
        assert next(solves, None) is None
        for k in range(1, 7):
            # the LPS pair generates a free group, so only the empty reduced word is
            # +-1, where character_oracle would divide by sin(0)
            words = collections.Counter(
                reduce_letters(letters) for letters in itertools.product((1, -1, 2, -2), repeat=k)
            )
            for n in deep:
                chi = sum(
                    count * (character_oracle(evaluate_word(Word(w), lps_pair), n) if w else n + 1)
                    for w, count in words.items()
                )
                got = (1 + n % 2) * sum(float(np.sum(values**k)) for values in spectra[n])
                assert abs(got - chi / 4.0**k) <= 1e-11, (n, k, got, chi / 4.0**k)


BINARY_POLYHEDRAL = {
    # name: (second generator as a quaternion, group order, Molien series
    # (1 + t^e) / ((1 - t^d1)(1 - t^d2)) as (e, d1, d2), Cayley gap)
    "2T": ((0.0, 1.0, 0.0, 0.0), 24, (12, 6, 8), 0.359612),
    "2O": ((1.0, 1.0, 0.0, 0.0), 48, (18, 8, 12), 0.250000),
    "2I": (((1 + 5**0.5) / 2, 2 / (1 + 5**0.5), 1.0, 0.0), 120, (30, 12, 20), 0.095492),
}


def binary_polyhedral_pair(name: str) -> Pair:
    """<(1 + i + j + k) / 2, second generator>, a binary polyhedral group."""
    second = BINARY_POLYHEDRAL[name][0]
    return Pair(SU2Element.from_quaternion(1, 1, 1, 1), SU2Element.from_quaternion(*second))


def molien_coefficients(exponent: int, d1: int, d2: int, n_max: int) -> np.ndarray:
    """t^n coefficients of (1 + t^exponent) / ((1 - t^d1)(1 - t^d2)): the
    number of invariant binary forms of degree n."""
    count = np.zeros(n_max + 1, dtype=int)
    for i in range(0, n_max + 1, d1):
        count[i::d2] += 1
    count[exponent:] += count[: n_max + 1 - exponent].copy()
    return count


def cayley_graph(pair: Pair) -> tuple[int, float]:
    """(order, gap) of the finite group <a, b> from its multiplication table:
    1 minus the second eigenvalue of the averaging operator on its Cayley graph."""
    moves = [pair.a, inverse(pair.a), pair.b, inverse(pair.b)]

    def key(g):
        return tuple(round(x, 8) + 0.0 for x in (g.alpha.real, g.alpha.imag, g.beta.real, g.beta.imag))

    elements, index, table = [IDENTITY], {key(IDENTITY): 0}, []
    while len(table) < len(elements):
        row = []
        for move in moves:
            product = elements[len(table)] * move
            if key(product) not in index:
                index[key(product)] = len(elements)
                elements.append(product)
            row.append(index[key(product)])
        table.append(row)
    operator = np.zeros((len(elements), len(elements)))
    for i, row in enumerate(table):
        for j in row:
            operator[i, j] += 0.25
    return len(elements), 1.0 - float(np.linalg.eigvalsh(operator)[-2])


class TestExactOracles:
    @pytest.mark.parametrize("name, n_max", [("2T", 200), ("2O", 200), ("2I", 300)])
    def test_molien_zeros_and_cayley_floor(self, name, n_max):
        # every level splits into irreducibles of the finite group G, so the
        # eigenvalue-1 space holds the G-invariant forms (counted by Molien's
        # series; Springer, Invariant Theory, LNM 585) and every other
        # eigenvalue is one of G's Cayley graph
        _, order, series, cayley = BINARY_POLYHEDRAL[name]
        pair = binary_polyhedral_pair(name)
        size, floor = cayley_graph(pair)
        assert size == order
        assert abs(floor - cayley) < 1e-6
        invariants = molien_coefficients(*series, n_max)
        for n, gap in gap_profile(pair, n_max).levels:
            if invariants[n]:
                assert gap <= 1e-12, n
            else:
                assert gap >= floor - 1e-12, n

    def test_word_moves(self, rng):
        # <(I - A)v, v> = (|pi(a)v - v|^2 + |pi(b)v - v|^2) / 4 and the
        # triangle inequality: |pi(a^2)v - v| <= 2 |pi(a)v - v|, and
        # |pi(ab)v - v| <= |pi(a)v - v| + |pi(b)v - v|, and back from ab to a
        for _ in range(4):
            a, b = haar_pair(rng)
            pairs = [(a, b), (a * a, b), (a * b, b), (b, a), (inverse(a), b), (a, inverse(b))]
            gaps = [dict(gap_profile(Pair(*p), 150).levels) for p in pairs]
            for n in (1, 5, 20, 80, 150):
                gap, squared, product, swapped, inverted_a, inverted_b = (g[n] for g in gaps)
                assert squared <= 4.0 * gap + 1e-12
                assert product <= 3.0 * gap + 1e-12
                assert gap <= 3.0 * product + 1e-12
                for same in (swapped, inverted_a, inverted_b):
                    assert abs(same - gap) <= 1e-12


def random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def defect_of_one(pair, word, n, v):
    """word_defect_check on the one column v, as two floats."""
    (lhs,), (rhs,) = word_defect_check(pair, word, n, v[:, None])
    return lhs, rhs


class TestWordDefect:
    def test_empty_word(self, rng):
        pair = haar_pair(rng)
        lhs, rhs = defect_of_one(pair, Word(), 4, random_unit_vector(rng, 5))
        assert lhs == 0.0 and rhs == 0.0

    def test_squared_generator_factor_two(self, rng):
        for _ in range(100):
            pair = haar_pair(rng)
            n = 6
            v = random_unit_vector(rng, n + 1)
            lhs, rhs = defect_of_one(pair, Word.from_string("aa"), n, v)
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
            lhs, rhs = defect_of_one(pair, word, n, v)
            assert lhs <= rhs + 1e-10

    def test_rejects_bad_vector(self, rng):
        pair = haar_pair(rng)
        with pytest.raises(ValueError):
            word_defect_check(pair, Word(), 3, np.ones((4, 1)))
        with pytest.raises(ValueError):
            word_defect_check(pair, Word(), 3, random_unit_vector(rng, 3)[:, None])
        with pytest.raises(ValueError):  # one vector is no longer a form of v
            word_defect_check(pair, Word(), 3, random_unit_vector(rng, 4))
        columns = np.stack([random_unit_vector(rng, 4), np.ones(4)], axis=1)
        with pytest.raises(ValueError):
            word_defect_check(pair, Word(), 3, columns)
        with pytest.raises(ValueError):
            word_defect_check(pair, Word(), 3, np.ones((4, 1, 1)) / 2.0)
        # |norm - 1| > 1e-6 is False for NaN, so only a test that NaN fails rejects it
        columns = np.stack([random_unit_vector(rng, 4), np.full(4, np.nan)], axis=1)
        with pytest.raises(ValueError, match="unit columns"):
            word_defect_check(pair, Word.from_string("abAB"), 3, columns)

    def test_batch_matches_single_vectors(self, rng):
        for word, n in (("abAB", 4), ("aaBabA", 7), ("aBabAbaB", 10)):
            pair = haar_pair(rng)
            word = Word.from_string(word)
            columns = np.stack([random_unit_vector(rng, n + 1) for _ in range(25)], axis=1)
            lhs, rhs = word_defect_check(pair, word, n, columns)
            assert lhs.shape == rhs.shape == (25,)
            for j in range(25):
                single = defect_of_one(pair, word, n, columns[:, j])
                assert abs(lhs[j] - single[0]) < 1e-12
                assert abs(rhs[j] - single[1]) < 1e-12


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


def defect_matrix_reference(pair: Pair, n: int) -> np.ndarray:
    """M = (I - pi(a))*(I - pi(a)) + (I - pi(b))*(I - pi(b)) from the blocks."""
    eye = np.eye(n + 1, dtype=complex)
    da = eye - irrep_matrix(pair.a, n)
    db = eye - irrep_matrix(pair.b, n)
    return da.conj().T @ da + db.conj().T @ db


class TestMinDefect:
    @pytest.mark.parametrize("n", [1, 7, 40, 120])
    def test_four_level_gaps_are_the_defect_minimum(
        self, rng, lps_pair, commuting_pair, n
    ):
        pairs = [lps_pair, commuting_pair] + [haar_pair(rng) for _ in range(5)]
        for pair in pairs:
            lowest = np.linalg.eigvalsh(defect_matrix_reference(pair, n))[0]
            assert abs(4.0 * profile_gaps(pair, n)[n] - lowest) <= 1e-12

    def test_identity_pair(self):
        assert profile_gaps(Pair(IDENTITY, IDENTITY), 3)[3] == 0.0

    def test_sandwich_against_direct_minimization(self, rng):
        for _ in range(100):
            pair = haar_pair(rng)
            n = int(rng.integers(1, 11))
            # sqrt(lambda_min(M)) = 2 sqrt(gap_n) bounds the summed displacement
            lower = 2.0 * math.sqrt(profile_gaps(pair, n)[n])
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
            # a combined displacement of at most 1e-10
            assert 4.0 * profile_gaps(pair, k)[k] <= 1e-20

    def test_zero_defect_persists_under_moves(self, commuting_pair):
        moves = [commuting_pair] + [apply_move(commuting_pair, move) for move in Move]
        for pair in moves:
            gaps = profile_gaps(pair, 6)
            for n in (2, 4, 6):
                assert 4.0 * gaps[n] <= 1e-20
