"""Pushforward histograms, boundary mass, fiber sampling, and transport."""

import numpy as np
import pytest

from su2gap import (
    DegenerateFiberWarning,
    Move,
    Pair,
    apply_move,
    boundary_distance,
    boundary_mass,
    fiber_transport_demo,
    fricke_commutator_trace,
    conjugate,
    construct_pair_from_traces,
    haar_sample,
    in_omega,
    pi_map,
    pushforward_histogram,
    sample_fiber,
    trace,
    trace_triple,
)
from su2gap.measure_lab import _CHUNK, _parabola_segment_distance
from su2gap.su2_core import haar_quaternions

# chi-square 0.999 quantile at 49 degrees of freedom
CHI2_CRIT_49_999 = 85.3505646085


def cell_wholly_outside_D(x_lo, x_hi, t_lo, t_hi):
    """True when every point of the cell violates x^2 - 2 <= t."""
    min_x_sq = 0.0 if x_lo <= 0.0 <= x_hi else min(x_lo * x_lo, x_hi * x_hi)
    return t_hi < min_x_sq - 2.0


class TestPushforwardHistogram:
    def test_counts_conserved_and_deterministic(self):
        first = pushforward_histogram(20000, 20, seed=9)
        second = pushforward_histogram(20000, 20, seed=9)
        assert first.total == 20000
        assert int(first.counts.sum()) == first.total
        assert np.array_equal(first.counts, second.counts)

    def test_samples_respect_domain(self):
        hist = pushforward_histogram(100000, 40, seed=3)
        edges_x, edges_t = hist.x_edges, hist.t_edges
        for i in range(hist.bins_per_axis):
            for j in range(hist.bins_per_axis):
                if cell_wholly_outside_D(
                    edges_x[i], edges_x[i + 1], edges_t[j], edges_t[j + 1]
                ):
                    assert hist.counts[i, j] == 0

    def test_interior_cells_populated(self):
        hist = pushforward_histogram(200000, 40, seed=3)
        edges_x, edges_t = hist.x_edges, hist.t_edges
        centers_x = (edges_x[:-1] + edges_x[1:]) / 2.0
        centers_t = (edges_t[:-1] + edges_t[1:]) / 2.0
        for i, cx in enumerate(centers_x):
            for j, ct in enumerate(centers_t):
                inside = cx * cx - 2.0 <= ct and boundary_distance(cx, ct) >= 0.3
                if inside:
                    assert hist.counts[i, j] > 0, (cx, ct)

    def test_x_marginal_matches_semicircle(self):
        # oracle: closed-form bin masses of sqrt(4 - x^2) / (2 pi)
        def cdf(x):
            return x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi

        bins = 50
        hist = pushforward_histogram(1_000_000, bins, seed=17)
        marginal = hist.counts.sum(axis=1)
        edges = hist.x_edges
        probs = np.diff(cdf(edges))
        expected = hist.total * probs
        chi_sq = float(((marginal - expected) ** 2 / expected).sum())
        assert chi_sq < CHI2_CRIT_49_999

    def test_validation(self):
        with pytest.raises(ValueError):
            pushforward_histogram(0, 10, seed=0)
        with pytest.raises(ValueError):
            pushforward_histogram(10, 1, seed=0)


class TestBoundaryDistance:
    def test_parabola_distance_against_brute_force(self, rng):
        # oracle: dense minimization over the parabola segment
        us = np.linspace(-2.0, 2.0, 400001)
        curve = np.stack([us, us * us - 2.0], axis=1)
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0)
            t = rng.uniform(-2.0, 2.0)
            brute = np.sqrt(((curve - [x, t]) ** 2).sum(axis=1)).min()
            fast = float(_parabola_segment_distance(x, t))
            assert abs(fast - brute) < 1e-8

    def test_center_point_value(self):
        # analytic: nearest parabola point to (0, 0) solves u^2 = 3/2
        expected = np.sqrt(1.5 + (1.5 - 2.0) ** 2)
        assert abs(float(boundary_distance(0.0, 0.0)) - expected) < 1e-12

    def test_zero_on_boundary_pieces(self):
        assert float(boundary_distance(1.0, -1.0)) < 1e-12  # on the parabola
        assert float(boundary_distance(0.3, 2.0)) == 0.0  # top edge
        assert float(boundary_distance(2.0, 2.0)) == 0.0  # corner


class TestBoundaryMass:
    def test_everything_is_near_for_huge_delta(self):
        assert boundary_mass(2000, 2.0, seed=1) == 1.0

    def test_decreases_when_delta_halves(self):
        wide = boundary_mass(1_000_000, 0.1, seed=8)
        narrow = boundary_mass(1_000_000, 0.05, seed=8)
        assert narrow < wide

    def test_tiny_delta_has_tiny_mass(self):
        assert boundary_mass(1_000_000, 1e-6, seed=8) < 1e-2

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_mass(100, 0.0, seed=0)


def unchunked_fricke_reference(count, seed):
    """(x, t) of the same Haar draws as the library, from 2x2 matrix products
    over the whole sample at once."""
    rng = np.random.default_rng(seed)
    draws = []
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        draws.append((haar_quaternions(rng, size), haar_quaternions(rng, size)))
    qa = np.concatenate([d[0] for d in draws])
    qb = np.concatenate([d[1] for d in draws])

    def matrices(q):
        alpha, beta = q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]
        return np.stack(
            [np.stack([alpha, beta], -1), np.stack([-beta.conj(), alpha.conj()], -1)], -2
        )

    def inverse(m):
        return np.conj(np.swapaxes(m, -1, -2))

    a, b = matrices(qa), matrices(qb)
    comm = a @ b @ inverse(a) @ inverse(b)
    return 2.0 * qa[:, 0], np.trace(comm, axis1=-2, axis2=-1).real


class TestChunking:
    # one sample past a chunk boundary, so two chunks are drawn
    COUNT = _CHUNK + 17

    def test_boundary_mass_matches_unchunked_reference(self):
        xs, ts = unchunked_fricke_reference(self.COUNT, seed=7)
        for delta in (0.05, 0.3):
            expected = float(np.mean(boundary_distance(xs, ts) <= delta))
            assert boundary_mass(self.COUNT, delta, seed=7) == expected

    def test_histogram_matches_unchunked_reference(self):
        xs, ts = unchunked_fricke_reference(self.COUNT, seed=9)
        expected, _, _ = np.histogram2d(
            np.clip(xs, -2.0, 2.0), np.clip(ts, -2.0, 2.0), bins=12, range=[[-2, 2], [-2, 2]]
        )
        counts = pushforward_histogram(self.COUNT, 12, seed=9).counts
        np.testing.assert_array_equal(counts, expected.astype(np.int64))


def sample_fiber_reference(t, count, seed):
    """The per-pair loop sample_fiber used to run: one scalar construction,
    one haar_sample and two conjugate calls per pair.  Returns the pairs and
    the number of plane draws."""
    rng_plane, rng_conj = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    if t <= -2.0 + 1e-12:
        base = construct_pair_from_traces(0.0, 0.0, 0.0)
        pairs = []
        for _ in range(count):
            k = haar_sample(rng_conj)
            pairs.append(Pair(conjugate(base.a, k), conjugate(base.b, k)))
        return pairs, 0
    pairs, draws = [], 0
    while len(pairs) < count:
        draws += 1
        draw = max(1024, 2 * (count - len(pairs)))
        xy = rng_plane.uniform(-2.0, 2.0, size=(draw, 2))
        x, y = xy[:, 0], xy[:, 1]
        disc = x * x * y * y - 4.0 * (x * x + y * y - 2.0 - t)
        has_roots = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(has_roots, disc, 0.0))
        z_plus = (x * y + sqrt_disc) / 2.0
        z_minus = (x * y - sqrt_disc) / 2.0
        for i in np.nonzero(has_roots)[0]:
            roots = [z_plus[i]]
            if disc[i] > 0.0:
                roots.append(z_minus[i])
            for z in roots:
                if abs(z) > 2.0:
                    continue
                base = construct_pair_from_traces(x[i], y[i], z)
                k = haar_sample(rng_conj)
                pairs.append(Pair(conjugate(base.a, k), conjugate(base.b, k)))
                if len(pairs) == count:
                    return pairs, draws
    return pairs, draws


def pair_components(pairs):
    return np.array([[p.a.alpha, p.a.beta, p.b.alpha, p.b.beta] for p in pairs])


class TestArrayFiberAgainstLoop:
    @pytest.mark.filterwarnings("ignore::su2gap.DegenerateFiberWarning")
    @pytest.mark.parametrize("t", [-2.0, -1.5, 0.0, 0.5, 1.7, 2.0])
    @pytest.mark.parametrize("count", [1, 700, 3000])
    def test_pairs_match_in_order(self, t, count):
        expected, draws = sample_fiber_reference(t, count, seed=31)
        got = sample_fiber(t, count, seed=31)
        assert len(got) == count
        np.testing.assert_allclose(
            pair_components(got), pair_components(expected), rtol=0, atol=1e-12
        )
        if t == -1.5 and count > 1:
            # fewer than half a root per plane point: the first draw runs short
            assert draws >= 2

    @pytest.mark.parametrize("t", [-1.5, 0.0, 0.5, 1.7, 2.0])
    def test_transport_matches_per_pair_moves(self, t):
        demo = fiber_transport_demo(t, 2500, seed=8)
        expected = [
            pi_map(apply_move(pair, Move.SQUARE_FIRST)).t
            for pair in sample_fiber(t, 2500, seed=8)
        ]
        np.testing.assert_allclose(demo.values, expected, rtol=0, atol=1e-12)


class TestSampleFiber:
    def test_commutator_trace_is_pinned(self):
        for t in (-1.0, 0.0, 0.5, 1.7, 2.0):
            for pair in sample_fiber(t, 300, seed=21):
                assert abs(pi_map(pair).t - t) < 1e-9

    def test_outputs_live_in_omega(self):
        for pair in sample_fiber(0.3, 300, seed=4):
            x, y, z = trace_triple(pair)
            assert in_omega(x, y, z, tol=1e-9)
            assert abs(fricke_commutator_trace(x, y, z) - 0.3) < 1e-9

    def test_full_trace_solution_at_top(self):
        # (2, 0, 0) solves the fiber quadratic at t = 2: commuting pairs appear
        x, y, t = 2.0, 0.0, 2.0
        z_sq_coefficient = x * x + y * y - 2.0 - t
        assert z_sq_coefficient == 0.0  # z = 0 is the (double) root
        assert in_omega(2.0, 0.0, 0.0)

    def test_degenerate_bottom_fiber(self):
        # oracle: on a grid of [-2, 2]^3 the identity x^2+y^2+z^2-xyz = 0
        # holds only near the origin
        lin = np.linspace(-2.0, 2.0, 81)
        gx, gy, gz = np.meshgrid(lin, lin, lin, indexing="ij")
        values = gx**2 + gy**2 + gz**2 - gx * gy * gz
        away = np.sqrt(gx**2 + gy**2 + gz**2) > 0.25
        assert np.abs(values[away]).min() > 0.005

        with pytest.warns(DegenerateFiberWarning):
            pairs = sample_fiber(-2.0, 200, seed=13)
        assert len(pairs) == 200
        for pair in pairs:
            x, y, z = trace_triple(pair)
            assert max(abs(x), abs(y), abs(z)) < 1e-9

    def test_symmetry_of_first_trace_at_mid_fiber(self):
        pairs = sample_fiber(0.0, 10000, seed=2)
        mean_x = np.mean([trace(p.a) for p in pairs])
        assert abs(mean_x) < 0.05

    def test_determinism(self):
        first = sample_fiber(0.7, 50, seed=33)
        second = sample_fiber(0.7, 50, seed=33)
        for p, q in zip(first, second):
            assert p.a.alpha == q.a.alpha and p.b.beta == q.b.beta

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_fiber(2.5, 10, seed=0)
        with pytest.raises(ValueError):
            sample_fiber(0.0, 0, seed=0)


class TestFiberTransport:
    def test_top_fiber_is_fixed(self):
        demo = fiber_transport_demo(2.0, 500, seed=5)
        np.testing.assert_allclose(demo.values, 2.0, atol=1e-9)

    def test_values_stay_in_interval(self):
        for t in (-1.0, 0.0, 1.0, 1.9):
            demo = fiber_transport_demo(t, 2000, seed=6)
            lower = t * t - 2.0
            assert demo.values.min() >= lower - 1e-9
            assert demo.values.max() <= 2.0 + 1e-9

    def test_mid_fiber_covers_full_range(self):
        demo = fiber_transport_demo(0.0, 20000, seed=10)
        assert demo.values.min() <= -1.9
        assert demo.values.max() >= 1.9

    def test_unit_fiber_minimum_approaches_endpoint(self):
        demo = fiber_transport_demo(1.0, 100000, seed=12)
        assert abs(demo.values.min() - (-1.0)) < 0.01

    def test_histogram_bookkeeping(self):
        demo = fiber_transport_demo(0.5, 3000, seed=7, bins=32)
        assert demo.counts.sum() == demo.total == 3000
        assert demo.bins == 32
        repeat = fiber_transport_demo(0.5, 3000, seed=7, bins=32)
        assert np.array_equal(demo.counts, repeat.counts)
        assert np.array_equal(demo.values, repeat.values)
