"""Pushforward histograms, boundary mass, fiber sampling, and transport."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2gap import (
    Move,
    Pair,
    SU2Element,
    apply_move,
    boundary_distance,
    boundary_mass,
    fiber_transport_demo,
    fricke_commutator_trace,
    in_omega,
    pi_map,
    pushforward_histogram,
    sample_fiber,
    trace_triple,
)
from su2gap import measure_lab
from su2gap.measure_lab import (
    _cell_counts,
    _cell_index,
    _count_near,
    _haar_fricke_sum,
    _parabola_segment_distance,
)
from su2gap.su2_core import _ROW_BLOCK, commutator_trace, haar_quaternions, quaternion_product

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


def arc_distance_brute_force(x: float, t: float) -> float:
    """Oracle: dense minimization over the parabola segment |u| <= 2, refined
    once around the best grid point (a point on the arc, where the distance
    has a kink, is otherwise off by the grid step)."""
    lo, hi = -2.0, 2.0
    for _ in range(2):
        us = np.linspace(lo, hi, 400001)
        gap_sq = (us - x) ** 2 + (us * us - 2.0 - t) ** 2
        best = us[np.argmin(gap_sq)]
        lo, hi = max(best - 1e-5, -2.0), min(best + 1e-5, 2.0)
    return float(np.sqrt(gap_sq.min()))


class TestBoundaryDistance:
    def test_parabola_distance_against_brute_force(self, rng):
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0)
            t = rng.uniform(-2.0, 2.0)
            fast = float(_parabola_segment_distance(x, t))
            assert abs(fast - arc_distance_brute_force(x, t)) < 1e-8

    @pytest.mark.parametrize("region", ["outside-square", "evolute"])
    def test_parabola_distance_off_square_and_on_evolute(self, rng, region):
        if region == "outside-square":
            x, t = rng.uniform(-6.0, 6.0, (2, 40))
            keep = np.maximum(np.abs(x), np.abs(t)) > 2.0
            x, t = x[keep], t[keep]
        else:
            # the evolute of the arc, where the stationary cubic has a double
            # root: s = x^2 / 16 - ((3 + 2t) / 6)^3 = 0
            t = np.linspace(-1.5, 3.0, 19)
            x = 4.0 * ((3.0 + 2.0 * t) / 6.0) ** 1.5 * np.where(np.arange(19) % 2, 1.0, -1.0)
        assert len(x) > 10
        for xi, ti in zip(x, t):
            fast = float(_parabola_segment_distance(xi, ti))
            assert abs(fast - arc_distance_brute_force(xi, ti)) < 1e-8, (xi, ti)

    def test_mirror_symmetric_to_the_bit(self, rng):
        x, t = rng.uniform(-3.0, 3.0, (2, 100_000))
        assert np.array_equal(_parabola_segment_distance(x, t), _parabola_segment_distance(-x, t))

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


def boundary_band_points(distances):
    """Points at each of the given distances from the pieces of the boundary
    of D, on both sides of each: along arc normals at and near the vertex
    x = 0, across the arc and at its ends x = +-2, across the top and side
    edges, and around the corners."""
    d = np.asarray(distances, dtype=float)[:, None]
    u = np.concatenate([[0.0, 1e-9, 1e-3, 2.0 - 1e-3, 2.0 - 1e-9], np.linspace(0.05, 2.0, 40)])
    u = np.concatenate([u, -u])
    unit = np.sqrt(1.0 + 4.0 * u * u)
    nx, nt = -2.0 * u / unit, 1.0 / unit  # unit normal of the arc, into D
    along = np.linspace(-2.0, 2.0, 41)
    angle = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    pieces = []
    for side in (1.0, -1.0):
        pieces += [
            (u + side * d * nx, u * u - 2.0 + side * d * nt),
            (along, 2.0 - side * d),
            (2.0 - side * d, along),
            (-2.0 + side * d, along),
            (2.0 * side + d * np.cos(angle), 2.0 + d * np.sin(angle)),
        ]
    xs, ts = zip(*(np.broadcast_arrays(x, t) for x, t in pieces))
    return np.concatenate([x.ravel() for x in xs]), np.concatenate([t.ravel() for t in ts])


def fricke_points(qa, qb):
    """(x, t) of the pairs whose quaternions are the rows of qa and qb."""
    return 2.0 * qa[:, 0], commutator_trace(qa.T[1:], qb.T[1:])


def haar_fricke_points(count, seed):
    """(x, t) of `count` Haar pairs from one qa draw and then one qb draw."""
    rng = np.random.default_rng(seed)
    return fricke_points(haar_quaternions(rng, count), haar_quaternions(rng, count))


class TestNearCount:
    """boundary_mass's prefilter drops no point that boundary_distance puts
    within delta: the oracle is the distance on every point."""

    HAAR_POINTS = haar_fricke_points(20_000, seed=3)

    @staticmethod
    def unfiltered(xs, ts, delta):
        return int(np.count_nonzero(boundary_distance(xs, ts) <= delta))

    @pytest.mark.parametrize("delta", [1e-6, 0.01, 0.05, 0.3, 2.0])
    def test_band_edge(self, delta):
        inner, outer = boundary_band_points([delta - 1e-12]), boundary_band_points([delta + 1e-12])
        xs, ts = (np.concatenate(pair) for pair in zip(inner, outer))
        if delta < 2.0:  # at 2.0 every point is a hit; below, the band edge splits them
            assert self.unfiltered(*inner, delta) > self.unfiltered(*outer, delta)
        assert _count_near(xs, ts, delta) == self.unfiltered(xs, ts, delta)

    @settings(max_examples=200, deadline=None)
    @given(delta=st.floats(min_value=0.0, max_value=2.5, exclude_min=True))
    def test_any_delta(self, delta):
        band = [max(delta - 1e-12, 0.0), delta * (1 - 1e-9), delta, delta * (1 + 1e-9), delta + 1e-12]
        xs, ts = (np.concatenate(pair) for pair in zip(boundary_band_points(band), self.HAAR_POINTS))
        assert _count_near(xs, ts, delta) == self.unfiltered(xs, ts, delta)


def unchunked_fricke_reference(count, seed):
    """(x, t) of the same Haar draws as the library, from 2x2 matrix products
    over the whole sample at once."""
    rng = np.random.default_rng(seed)
    draws = []
    for start in range(0, count, _ROW_BLOCK):
        n = min(_ROW_BLOCK, count - start)
        q = haar_quaternions(rng, 2 * n)
        draws.append((q[:n], q[n:]))
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
    # past three block boundaries, so the last of four blocks is short
    COUNT = 3 * _ROW_BLOCK + 17

    def test_boundary_mass_matches_unchunked_reference(self):
        xs, ts = unchunked_fricke_reference(self.COUNT, seed=7)
        for delta in (1e-6, 0.01, 0.05, 0.3, 2.0):
            expected = float(np.mean(boundary_distance(xs, ts) <= delta))
            assert boundary_mass(self.COUNT, delta, seed=7) == expected

    def test_histogram_matches_unchunked_reference(self):
        xs, ts = unchunked_fricke_reference(self.COUNT, seed=9)
        expected, _, _ = np.histogram2d(
            np.clip(xs, -2.0, 2.0), np.clip(ts, -2.0, 2.0), bins=12, range=[[-2, 2], [-2, 2]]
        )
        counts = pushforward_histogram(self.COUNT, 12, seed=9).counts
        np.testing.assert_array_equal(counts, expected.astype(np.int64))


class StreamStub:
    """A Generator whose normal rows at the stream positions in `zero_rows`
    are 0, and whose draw raises `error` once `raise_after` rows are out.
    Its children (spawn) are StreamStubs of the Generator's own children,
    with the zero rows `child_zero_rows`."""

    def __init__(self, rng, zero_rows=(), raise_after=None, error=None, child_zero_rows=()):
        self.rng, self.row, self.children = np.random.default_rng(rng), 0, []
        self.zero_rows, self.raise_after, self.error = zero_rows, raise_after, error
        self.child_zero_rows = child_zero_rows

    def standard_normal(self, size=None, out=None):
        if self.raise_after is not None and self.row >= self.raise_after:
            raise self.error
        out = self.rng.standard_normal(size, out=out)
        for row in self.zero_rows:
            if self.row <= row < self.row + len(out):
                out[row - self.row] = 0.0
        self.row += len(out)
        return out

    def spawn(self, n_children):
        children = [StreamStub(g, self.child_zero_rows) for g in self.rng.spawn(n_children)]
        self.children += children
        return children


def chunk_points(rng, count):
    """(x, t) of all blocks that _haar_fricke_sum passes to per_block, concatenated."""
    blocks = []
    _haar_fricke_sum(rng, count, lambda xs, ts: blocks.append((xs, ts)) or 0)
    xs, ts = zip(*blocks)
    return np.concatenate(xs), np.concatenate(ts)


class TestNormalStream:
    """_haar_fricke_sum draws the normals of each _ROW_BLOCK-pair block,
    its a and b rows together, on a worker thread; the points, the rows
    drawn and the threads it leaves must not show it."""

    @pytest.mark.parametrize("count", [1, _ROW_BLOCK - 1, _ROW_BLOCK + 1, (1 << 18) + 17])
    def test_counts_and_mass_match_unchunked_reference(self, count):
        xs, ts = unchunked_fricke_reference(count, seed=5)
        expected, _, _ = np.histogram2d(
            np.clip(xs, -2.0, 2.0), np.clip(ts, -2.0, 2.0), bins=12, range=[[-2, 2], [-2, 2]]
        )
        counts = pushforward_histogram(count, 12, seed=5).counts
        np.testing.assert_array_equal(counts, expected.astype(np.int64))
        for delta in (1e-6, 0.05, 0.3):
            assert boundary_mass(count, delta, seed=5) == float(np.mean(boundary_distance(xs, ts) <= delta))

    @pytest.mark.parametrize(
        "count, zero_rows",
        [
            pytest.param(1000, (), id="1000"),
            pytest.param(5 * _ROW_BLOCK + 3, (), id="81923"),
            # rows below the norm floor in the first, a middle and the last block
            pytest.param(5 * _ROW_BLOCK + 3, (7, 4 * _ROW_BLOCK + 1, 10 * _ROW_BLOCK + 5), id="zero-rows"),
        ],
    )
    def test_a_call_draws_only_its_planned_rows(self, count, zero_rows):
        stub = StreamStub(4, zero_rows=zero_rows)
        chunk_points(stub, count)
        assert stub.row == 2 * count
        assert len(stub.children) == (3 if zero_rows else 0)

    def test_zero_rows_are_redrawn_from_a_child_generator(self):
        # n pairs in two blocks.  The first is stream rows [0, 2B): a is rows
        # [0, B), b is rows [B, 2B).  Its zero rows, a's row 3 and b's row 7,
        # are replaced by rows 0 and 1 of the block's child generator; child
        # row 1 is 0 as well, so b's row 7 takes child row 2.  The second
        # block is the next 10 rows, and its b row 2 takes row 0 of a second
        # child.  The call reads no row of the stream past the 2n it plans.
        b = _ROW_BLOCK
        n, second = b + 5, 2 * b
        stub = StreamStub(6, zero_rows=(3, b + 7, second + 5 + 2), child_zero_rows=(1,))
        rows = np.random.default_rng(6).standard_normal((second + 10, 4))
        first_child, second_child = (g.standard_normal((3, 4)) for g in np.random.default_rng(6).spawn(2))
        qa = np.concatenate([rows[:b], rows[second : second + 5]])
        qb = np.concatenate([rows[b:second], rows[second + 5 :]])
        qa[3], qb[7], qb[b + 2] = first_child[0], first_child[2], second_child[0]
        expected = fricke_points(*(q / np.linalg.norm(q, axis=1)[:, None] for q in (qa, qb)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chunk_points(stub, n)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)
        assert stub.row == 2 * n
        assert [child.row for child in stub.children] == [3, 1]

    def test_no_thread_outlives_a_call(self, monkeypatch):
        baseline = threading.active_count()
        pushforward_histogram(_ROW_BLOCK + 1, 12, seed=1)
        assert threading.active_count() == baseline
        boundary_mass(3 * _ROW_BLOCK, 0.05, seed=1)
        assert threading.active_count() == baseline

        def failing_count(xs, ts, arg):
            raise ArithmeticError("count failed")

        for name, call in (("_cell_counts", pushforward_histogram), ("_count_near", boundary_mass)):
            monkeypatch.setattr(measure_lab, name, failing_count)
            with pytest.raises(ArithmeticError, match="count failed") as caught:
                call(3 * _ROW_BLOCK, 12, 1)
            # the traceback held in `caught` keeps the caller's frame alive
            assert caught.tb is not None and threading.active_count() == baseline

    def test_producer_error_reaches_the_reader(self):
        baseline = threading.active_count()
        stub = StreamStub(2, raise_after=3 * _ROW_BLOCK, error=FloatingPointError("draw failed"))
        with pytest.raises(FloatingPointError, match="draw failed"):
            chunk_points(stub, 4 * _ROW_BLOCK)
        assert threading.active_count() == baseline


class TestMemory:
    """A call holds two block buffers of pairs, whatever its sample count."""

    @pytest.mark.parametrize(
        "call, arg", [(pushforward_histogram, 12), (boundary_mass, 0.05)], ids=["histogram", "mass"]
    )
    def test_traced_peak_is_bounded(self, call, arg):
        tracemalloc.start()
        try:
            call(2**20 + 1, arg, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "call, arg", [(pushforward_histogram, 40), (boundary_mass, 0.05)], ids=["histogram", "mass"]
    )
    def test_draws_are_normalized_in_their_buffers(self, call, arg):
        # two 1 MiB block buffers, the norms of one block and the temporaries
        # of one slice; a fresh draw per block and its component copy beside
        # them took 4.5 MiB.  A first call keeps one-time allocations out.
        call(1000, arg, 1)
        tracemalloc.start()
        try:
            call(10**6, arg, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 2**20

    def test_fiber_sample_forms_its_products_by_block(self):
        # a 4 MiB result beside the frame's arrays, the conjugators and one
        # block of products; forming every product whole took 17.0 MiB
        tracemalloc.start()
        try:
            sample_fiber(0.5, 2**16, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12.5 * 2**20


class TestCellCounts:
    @pytest.mark.parametrize("bins", [2, 3, 7, 12, 40, 41, 97])
    def test_matches_histogram2d_on_and_beside_every_edge(self, rng, bins):
        # binary search (histogram2d) and a corrected multiply must agree on
        # every edge, one ulp to either side of it, and past the square
        edges = np.linspace(-2.0, 2.0, bins + 1)
        points = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [-2.5, 2.5]]
        )
        points = np.concatenate([points, rng.uniform(-2.0, 2.0, 500)])
        xs, ts = (grid.ravel() for grid in np.meshgrid(points, points[::-1]))
        expected, _, _ = np.histogram2d(
            np.clip(xs, -2.0, 2.0), np.clip(ts, -2.0, 2.0), bins=bins, range=[[-2, 2], [-2, 2]]
        )
        np.testing.assert_array_equal(_cell_counts(xs, ts, bins), expected.astype(np.int64))

    @pytest.mark.parametrize("bins", [2, 3, 7, 40, 41, 100, 333, 1000])
    def test_cell_index_matches_histogram_on_and_beside_every_edge(self, rng, bins):
        # the one-dimensional rule of fiber_transport_demo against np.histogram
        edges = np.linspace(-2.0, 2.0, bins + 1)
        beside = [np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        values = np.concatenate([edges, *beside, [-2.5, 2.5], rng.uniform(-2.5, 2.5, 20000)])
        expected, _ = np.histogram(np.clip(values, -2.0, 2.0), bins=bins, range=(-2.0, 2.0))
        np.testing.assert_array_equal(np.bincount(_cell_index(values, bins), minlength=bins), expected)

    @pytest.mark.parametrize("t", [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    def test_transport_counts_match_histogram(self, t):
        for seed in range(3):
            demo = fiber_transport_demo(t, 2500, seed)
            expected, _ = np.histogram(np.clip(demo.values, -2.0, 2.0), bins=40, range=(-2.0, 2.0))
            np.testing.assert_array_equal(demo.counts, expected)
            assert demo.counts.dtype == np.int64


def fiber_pairs(t, count, seed):
    """sample_fiber's rows as Pairs: (w, x, y, z) of a, then of b."""
    def element(w, x, y, z):
        return SU2Element(complex(w, x), complex(y, z))

    return [Pair(element(*r[:4]), element(*r[4:])) for r in sample_fiber(t, count, seed).tolist()]


class TestArrayFiberAgainstLoop:
    @pytest.mark.parametrize("t", [-1.5, 0.0, 0.5, 1.7, 2.0])
    def test_transport_matches_per_pair_moves(self, t):
        demo = fiber_transport_demo(t, 2500, seed=8)
        expected = [
            pi_map(apply_move(pair, Move.SQUARE_FIRST)).t
            for pair in fiber_pairs(t, 2500, seed=8)
        ]
        np.testing.assert_allclose(demo.values, expected, rtol=0, atol=1e-12)


class TestSampleFiber:
    def test_commutator_trace_is_pinned(self):
        for t in (-1.0, 0.0, 0.5, 1.7, 2.0):
            for pair in fiber_pairs(t, 300, seed=21):
                assert abs(pi_map(pair).t - t) < 1e-9

    def test_outputs_live_in_omega(self):
        for pair in fiber_pairs(0.3, 300, seed=4):
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

        # the closed form puts a = i exactly there, with no special case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = sample_fiber(-2.0, 200, seed=13)
        assert pairs.shape == (200, 8) and pairs.dtype == np.float64
        for pair in fiber_pairs(-2.0, 200, seed=13):
            x, y, z = trace_triple(pair)
            assert max(abs(x), abs(y), abs(z)) <= 1e-15

    def test_symmetry_of_first_trace_at_mid_fiber(self):
        mean_x = np.mean(2.0 * sample_fiber(0.0, 10000, seed=2)[:, 0])
        assert abs(mean_x) < 0.05

    def test_determinism(self):
        np.testing.assert_array_equal(sample_fiber(0.7, 50, seed=33), sample_fiber(0.7, 50, seed=33))

    @pytest.mark.parametrize("count", [1, 1000, _ROW_BLOCK + 3, 4 * _ROW_BLOCK])
    @pytest.mark.parametrize("t", [-2.0, 0.5, 2.0])
    def test_blocked_products_keep_the_bits(self, count, t):
        # the reference forms each conjugation product on whole columns
        (a, b), rng_conj = measure_lab._fiber_components(t, count, 1)
        k = tuple(haar_quaternions(rng_conj, count).T)
        k_inverse = (k[0], -k[1], -k[2], -k[3])
        columns = [c for g in (a, b) for c in quaternion_product(quaternion_product(k, g), k_inverse)]
        assert sample_fiber(t, count, 1).tobytes() == np.column_stack(columns).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_fiber(2.5, 10, seed=0)
        with pytest.raises(ValueError):
            sample_fiber(0.0, 0, seed=0)

    @pytest.mark.parametrize("scale, row", [(1.0 + 1e-8, 17), (np.nan, 42)], ids=["off-unit", "nan"])
    def test_unit_check_refuses_a_bad_row(self, monkeypatch, scale, row):
        # SU2Element refused such an element; the array's unit check still does
        product = measure_lab.quaternion_product

        def scaled(g, h):
            return tuple(np.where(np.arange(len(c)) == row, c * scale, c) for c in product(g, h))

        monkeypatch.setattr(measure_lab, "quaternion_product", scaled)
        with pytest.raises(ValueError, match=r"not special unitary: \|alpha\|\^2"):
            sample_fiber(0.5, 100, seed=3)


class TestFiberTransport:
    def test_top_fiber_is_fixed(self):
        # exactly: r = 0 at t = 2, so every pair commutes, and the bottom
        # fiber goes to the top, as a = i at t = -2 squares to -1
        for t in (2.0, -2.0):
            demo = fiber_transport_demo(t, 500, seed=5)
            assert np.all(demo.values == 2.0)

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


def _half_width(t):
    """h = arccos(sqrt(2 - t) / 2): given tr[a, b] = t, the angle of a from
    pi/2 is uniform on [-h, h] under Haar measure."""
    return np.arccos(np.sqrt(2.0 - t) / 2.0)


def _trace_cdf(x, t):
    """Distribution function of x = tr(a) = 2 sin(U[-h, h])."""
    h = _half_width(t)
    return np.clip((np.arcsin(np.clip(x / 2.0, -1.0, 1.0)) + h) / (2.0 * h), 0.0, 1.0)


def _transport_cdf(v, t):
    """F(v) = 1 - arcsin(sqrt((2 - v) / (4 (2 - t)))) / h, the distribution
    function of tr([a^2, b]) = 2 - x^2 (2 - t); 0 below t^2 - 2, 1 from 2."""
    h = _half_width(t)
    s_sq = np.clip((2.0 - v) / (4.0 * (2.0 - t)), 0.0, np.sin(h) ** 2)
    return 1.0 - np.arcsin(np.sqrt(s_sq)) / h


def _ks_scaled(sample, cdf):
    """sqrt(n) times the Kolmogorov-Smirnov distance of the sample to cdf."""
    s = np.sort(sample)
    n = len(s)
    f = cdf(s)
    gap = max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())
    return gap * np.sqrt(n)


# P(sqrt(n) D > 1.949) -> 0.001 for the Kolmogorov distribution
KS_CRIT_999 = 1.949


class TestConditionalLaw:
    """sample_fiber and fiber_transport_demo draw Haar measure given t."""

    @pytest.mark.parametrize("t, seed", [(-1.5, 41), (0.0, 42), (0.5, 43), (1.9, 44)])
    def test_transport_bins_match_the_closed_form(self, t, seed):
        """Bin counts of 10^5 transported values against the bin masses of F.
        Every bin with mass expects more than 900 values, and is held to
        |z| <= 4.5, a normal tail of 6.8e-6; with at most 40 such bins a
        correct sampler fails at a random seed with probability below 3e-4.
        Bins of no mass (below t^2 - 2) must be empty."""
        count = 100_000
        demo = fiber_transport_demo(t, count, seed=seed)
        mass = np.diff(_transport_cdf(np.linspace(-2.0, 2.0, demo.bins + 1), t))
        held = mass > 0.0
        assert np.all(demo.counts[~held] == 0)
        expected = count * mass[held]
        z = (demo.counts[held] - expected) / np.sqrt(expected * (1.0 - mass[held]))
        assert np.abs(z).max() <= 4.5

    @pytest.mark.parametrize("t, seed", [(-1.5, 51), (0.0, 52), (0.5, 53), (1.9, 54)])
    def test_first_trace_is_twice_a_sine_of_a_uniform_angle(self, t, seed):
        """KS test of x = tr(a) over 20,000 pairs against 2 sin(U[-h, h]);
        a correct sampler fails at a random seed with probability about 1e-3."""
        xs = 2.0 * sample_fiber(t, 20_000, seed=seed)[:, 0]
        assert _ks_scaled(xs, lambda x: _trace_cdf(x, t)) <= KS_CRIT_999

    def test_haar_pairs_near_a_fiber_follow_the_same_law(self):
        """The closed form is Haar's own conditional law: x = tr(a) of the
        Haar pairs with |tr[a, b] - t| < 0.01, among 2^20, against
        2 sin(U[-h, h]) by KS (about 3,500 to 8,000 pairs each).  The window moves
        the distribution function by under 1e-3, a tenth of the smallest
        critical distance, so each case fails at a random seed with
        probability about 1e-3."""
        xs, ts = chunk_points(np.random.default_rng(61), 2**20)
        for t in (-1.0, 0.5, 1.5):
            near = xs[np.abs(ts - t) < 0.01]
            assert len(near) > 2000
            assert _ks_scaled(near, lambda x: _trace_cdf(x, t)) <= KS_CRIT_999
