"""Group arithmetic, Haar sampling, and word evaluation."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su2gap.cli as cli
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
    pair_from_spec,
    pair_to_spec,
    pi_map,
    trace,
)
from su2gap.su2_core import (
    _unit_pairs,
    commutator_trace,
    quaternion_product,
    reduce_letters,
)

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

    def test_repeated_squaring_stays_unit(self, rng):
        # every product is renormalized, so the norm error cannot build up
        g = haar_sample(rng)
        for _ in range(64):
            g = g * g
            assert abs(sum(c * c for c in g.quaternion) - 1.0) <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_constructor_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            SU2Element(bad, 0.0j)
        with pytest.raises(ValueError):
            SU2Element(0.0j, bad)


def off_unit_elements(rng, count):
    """Haar elements scaled off unit norm by 1e-10, as (w, x, y, z) columns
    and as SU2Elements; the scale makes every renormalization visible."""
    q = haar_quaternions(rng, count) * (1 + 1e-10)
    return tuple(q.T), [SU2Element(complex(w, x), complex(y, z)) for w, x, y, z in q.tolist()]


class TestComponentProducts:
    def test_rows_equal_scalar_multiply(self, rng):
        # oracle: multiply on each row
        (g, gs), (h, hs) = off_unit_elements(rng, 40000), off_unit_elements(rng, 40000)
        got = quaternion_product(g, h)
        expected = zip(*(multiply(a, b).quaternion for a, b in zip(gs, hs)))
        for got_column, expected_column in zip(got, expected):
            np.testing.assert_array_equal(got_column, expected_column)

    def test_pi_map_equals_array_commutator_trace(self, rng):
        (a, gs), (b, hs) = off_unit_elements(rng, 20000), off_unit_elements(rng, 20000)
        expected = [pi_map(Pair(g, h)).t for g, h in zip(gs, hs)]
        np.testing.assert_array_equal(commutator_trace(a[1:], b[1:]), expected)


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

        def trapezoid(ys):
            return float(np.sum((ys[1:] + ys[:-1]) * np.diff(xs)) / 2.0)

        assert abs(trapezoid(density) - 1.0) < 1e-6
        assert abs(trapezoid(xs * density)) < 1e-12

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

    def test_quaternions_are_the_normalized_gaussian_draw(self):
        # oracle: one (count, 4) Gaussian draw divided by np.linalg.norm of
        # its rows
        for count in (1, 5000, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 100001):
            q = np.random.default_rng(9).standard_normal((count, 4))
            expected = q / np.linalg.norm(q, axis=1)[:, None]
            got = haar_quaternions(np.random.default_rng(9), count)
            np.testing.assert_array_equal(got, expected, err_msg=f"count {count}")

    @pytest.mark.parametrize("bad_draws", [1, 2])
    @pytest.mark.parametrize("bad_row", [[0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, -1e-13, 0.0]])
    def test_rows_below_the_norm_floor_are_redrawn(self, bad_draws, bad_row):
        # the first `bad_draws` draws put a row of norm < 1e-12 at row 2 (the
        # first draw) and row 0 (each one-row redraw); the redraws come from
        # one child generator, and the oracle is the draws spliced by hand and
        # divided by np.linalg.norm of their rows
        class FloorStub:
            def __init__(self, rng, draws):
                self.rng, self.draws, self.children = rng, draws, []

            def standard_normal(self, size):
                q = self.rng.standard_normal(size)
                if len(self.draws) < bad_draws:
                    q[2 if not self.draws else 0] = bad_row
                self.draws.append((self, q.copy()))
                return q

            def spawn(self, n_children):
                self.children += [FloorStub(g, self.draws) for g in self.rng.spawn(n_children)]
                return self.children[-n_children:]

        stub = FloorStub(np.random.default_rng(4), [])
        got = haar_quaternions(stub, 6)
        (parent, first), *redraws = stub.draws
        assert parent is stub and first.shape == (6, 4) and len(stub.children) == 1
        assert [(owner, r.shape) for owner, r in redraws] == [(stub.children[0], (1, 4))] * bad_draws
        spliced = first.copy()
        spliced[2] = redraws[-1][1][0]
        np.testing.assert_array_equal(got, spliced / np.linalg.norm(spliced, axis=1)[:, None])

    def test_traced_peak_is_near_the_result(self):
        # the draw is the result, normalized in place a block of rows at a
        # time, so only one block's norms and temporaries are live beside it
        # (a per-block draw and its transposed copy took 0.88 MiB more);
        # a first small call keeps one-time allocations out of the peak
        haar_quaternions(np.random.default_rng(1), 4)
        tracemalloc.start()
        try:
            q = haar_quaternions(np.random.default_rng(1), 2**18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q.nbytes == 8 * 2**20
        assert peak < q.nbytes + 0.6 * 2**20

    def test_draw_is_returned_without_a_copy(self, rng, monkeypatch, tmp_path):
        # the result is the C-contiguous draw, and `sample` hands the renderer
        # a (count, 8) view of it; 8,193 pairs span two row blocks
        q = haar_quaternions(rng, 1000)
        assert q.shape == (1000, 4) and q.flags.c_contiguous
        seen, pairs_artifact = {}, cli._pairs_artifact

        def draw(*args):
            seen["draw"] = haar_quaternions(*args)
            return seen["draw"]

        def artifact(meta, pairs):
            seen["pairs"] = pairs
            return pairs_artifact(meta, pairs)

        monkeypatch.setattr(cli, "haar_quaternions", draw)
        monkeypatch.setattr(cli, "_pairs_artifact", artifact)
        assert cli.main(["sample", "--count", "8193", "--out", str(tmp_path / "pairs.json")]) == 0
        assert seen["draw"].shape == (16386, 4) and seen["draw"].flags.c_contiguous
        assert seen["pairs"].shape == (8193, 8) and np.shares_memory(seen["pairs"], seen["draw"])

    def test_seed_determinism(self):
        g = haar_sample(np.random.default_rng(123))
        h = haar_sample(np.random.default_rng(123))
        assert g.alpha == h.alpha and g.beta == h.beta


class TestUnitPairs:
    def test_refuses_what_su2element_refuses(self, rng):
        # norms stepped across the 1e-9 tolerance, and non-finite elements,
        # as a of a pair and as b; the array check raises SU2Element's error
        elements = haar_quaternions(rng, 300) * (1.0 + np.linspace(-6e-10, 6e-10, 300))[:, None]
        elements[:3] = [[np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0], [0.0, -np.inf, np.inf, 0.0]]
        refused = 0
        for element in elements.tolist():
            for pair in ([*element, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, *element]):
                pairs = np.array([pair, pair])
                try:
                    SU2Element(complex(*element[:2]), complex(*element[2:]))
                except ValueError as exc:
                    refused += 1
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        _unit_pairs(pairs)
                else:
                    assert _unit_pairs(pairs) is pairs
        assert 0 < refused < 2 * len(elements)  # both outcomes occur


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
        back = pair_from_spec(pair_to_spec(pair))
        assert back.a.alpha == pair.a.alpha and back.a.beta == pair.a.beta
        assert back.b.alpha == pair.b.alpha and back.b.beta == pair.b.beta
