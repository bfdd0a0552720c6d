"""Group arithmetic, Haar sampling, and word evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2gap import (
    IDENTITY,
    Pair,
    SU2Element,
    Word,
    commutator,
    evaluate_word,
    haar_quaternions,
    haar_sample,
    inverse,
    multiply,
    pair_to_spec,
    trace,
)
from su2gap.su2_core import pair_from_matrix_spec, reduce_letters

# chi-square 0.999 quantile at 49 degrees of freedom
CHI2_CRIT_49_999 = 85.3505646085


def elements(draw_norm_floor=0.05):
    """Hypothesis strategy: SU(2) elements from normalized 4-vectors."""
    coords = st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ).filter(lambda v: sum(c * c for c in v) > draw_norm_floor)
    return coords.map(lambda v: SU2Element.from_quaternion(*v))


def words():
    """Hypothesis strategy: freely reduced words of length <= 12."""
    return st.lists(
        st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=12
    ).map(lambda ls: Word(reduce_letters(ls)))


MINUS_I = SU2Element(-1.0 + 0.0j, 0.0j)
DIAG_I = SU2Element(1j, 0.0j)  # diag(i, -i)
ROT_J = SU2Element(0.0j, -1.0 + 0.0j)  # [[0, -1], [1, 0]]


class TestTraceAndProducts:
    def test_trace_examples(self):
        assert trace(IDENTITY) == 2.0
        assert trace(MINUS_I) == -2.0
        assert trace(DIAG_I) == 0.0

    def test_multiply_matches_matrix_product(self, rng):
        for _ in range(300):
            g, h = haar_sample(rng), haar_sample(rng)
            np.testing.assert_allclose(
                multiply(g, h).matrix, g.matrix @ h.matrix, atol=1e-14
            )

    def test_inverse_is_conjugate_transpose(self, rng):
        for _ in range(300):
            g = haar_sample(rng)
            np.testing.assert_allclose(inverse(g).matrix, g.matrix.conj().T, atol=0)
            assert multiply(g, inverse(g)).isclose(IDENTITY, tol=1e-14)

    def test_constructor_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            SU2Element(0.5 + 0.0j, 0.0j)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_constructor_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            SU2Element(bad, 0.0j)
        with pytest.raises(ValueError):
            SU2Element(0.0j, bad)


class TestCommutator:
    def test_self_and_identity(self, rng):
        a = haar_sample(rng)
        assert commutator(a, a).isclose(IDENTITY, tol=1e-14)
        assert commutator(a, IDENTITY).isclose(IDENTITY, tol=1e-14)

    def test_quarter_turn_pair_gives_minus_identity(self):
        # oracle: direct 2x2 multiplication
        a, b = DIAG_I.matrix, ROT_J.matrix
        expected = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        np.testing.assert_allclose(expected, -np.eye(2), atol=1e-15)
        got = commutator(DIAG_I, ROT_J)
        np.testing.assert_allclose(got.matrix, -np.eye(2), atol=1e-15)
        assert abs(trace(got) + 2.0) < 1e-15


class TestHaarSampling:
    def test_sample_invariants(self, rng):
        for _ in range(200):
            g = haar_sample(rng)
            m = g.matrix
            assert abs(np.linalg.det(m) - 1.0) < 1e-12
            assert np.linalg.norm(m.conj().T @ m - np.eye(2)) < 1e-12
            assert -2.0 <= trace(g) <= 2.0

    def test_trace_mean_matches_quadrature(self):
        # oracle first: the trace density is sqrt(4 - x^2) / (2 pi); its mass
        # is 1 and its mean 0 by quadrature
        xs = np.linspace(-2.0, 2.0, 200001)
        density = np.sqrt(np.clip(4.0 - xs * xs, 0.0, None)) / (2.0 * np.pi)
        assert abs(np.trapezoid(density, xs) - 1.0) < 1e-6
        assert abs(np.trapezoid(xs * density, xs)) < 1e-12

        traces = 2.0 * haar_quaternions(np.random.default_rng(11), 100000)[:, 0]
        assert abs(traces.mean()) < 0.02

    def test_trace_semicircle_chi_square(self):
        # closed-form bin masses from the antiderivative
        #   F(x) = x sqrt(4 - x^2) / (4 pi) + arcsin(x / 2) / pi
        def cdf(x):
            return x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi

        edges = np.linspace(-2.0, 2.0, 51)
        probs = np.diff(cdf(edges))
        assert abs(probs.sum() - 1.0) < 1e-12

        n = 1_000_000
        traces = 2.0 * haar_quaternions(np.random.default_rng(5), n)[:, 0]
        observed, _ = np.histogram(traces, bins=edges)
        expected = n * probs
        chi_sq = float(((observed - expected) ** 2 / expected).sum())
        assert chi_sq < CHI2_CRIT_49_999

    def test_seed_determinism(self):
        g = haar_sample(np.random.default_rng(123))
        h = haar_sample(np.random.default_rng(123))
        assert g.alpha == h.alpha and g.beta == h.beta


class TestAlgebraicInvariants:
    @settings(max_examples=150, deadline=None)
    @given(g=elements(), h=elements())
    def test_trace_conjugation_invariance(self, g, h):
        assert abs(trace(multiply(multiply(g, h), inverse(g))) - trace(h)) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(g=elements())
    def test_trace_of_inverse(self, g):
        assert abs(trace(g) - trace(inverse(g))) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(g=elements())
    def test_cayley_hamilton(self, g):
        m = g.matrix
        residual = m @ m - trace(g) * m + np.eye(2)
        assert np.linalg.norm(residual) < 1e-12

    def test_renormalization_keeps_long_products_unitary(self, rng):
        product = IDENTITY
        for _ in range(10000):
            product = multiply(product, haar_sample(rng))
        assert abs(abs(product.alpha) ** 2 + abs(product.beta) ** 2 - 1.0) < 1e-12


class TestWords:
    def test_parsing_and_reduction(self):
        assert Word.from_string("abAB").letters == (1, 2, -1, -2)
        assert Word.from_string("aA").letters == ()
        assert Word.from_string("a bA  B").to_string() == "abAB"
        with pytest.raises(ValueError):
            Word.from_string("abc")
        with pytest.raises(ValueError):
            Word((1, -1))

    def test_word_inverse_and_length(self):
        w = Word.from_string("aabA")
        assert (w * w.inverse()).letters == ()
        assert len(w) == 4

    def test_evaluate_examples(self, rng):
        pair = Pair(haar_sample(rng), haar_sample(rng))
        assert evaluate_word(Word(), pair).isclose(IDENTITY, tol=0)
        assert evaluate_word(Word.from_string("a"), pair).isclose(pair.a, tol=0)
        assert evaluate_word(Word.from_string("abAB"), pair).isclose(
            commutator(pair.a, pair.b), tol=1e-14
        )

    @settings(max_examples=100, deadline=None)
    @given(w1=words(), w2=words(), g=elements(), h=elements())
    def test_evaluation_is_homomorphism(self, w1, w2, g, h):
        pair = Pair(g, h)
        left = evaluate_word(w1 * w2, pair)
        right = multiply(evaluate_word(w1, pair), evaluate_word(w2, pair))
        assert left.isclose(right, tol=1e-10)


class TestPairSpec:
    def test_matrix_roundtrip(self, rng):
        pair = Pair(haar_sample(rng), haar_sample(rng))
        back = pair_from_matrix_spec(pair_to_spec(pair))
        assert back.a.alpha == pair.a.alpha and back.a.beta == pair.a.beta
        assert back.b.alpha == pair.b.alpha and back.b.beta == pair.b.beta

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError):
            pair_from_matrix_spec({"type": "fricke", "x": 0, "t": 2})
