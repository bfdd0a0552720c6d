"""Escape iteration, fiber images, moves, and word-map orbits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2gap import (
    IDENTITY,
    Move,
    Pair,
    SU2Element,
    Word,
    apply_move,
    conjugate,
    evaluate_word,
    fiber_image_interval,
    fiber_image_numeric,
    haar_pair,
    haar_sample,
    in_domain_D,
    iterate_phi_endpoint,
    phi,
    pi_map,
    wordmap_orbit,
)
from su2gap.gap_dynamics import MOVES, ORBIT_DEDUP_GRID, _new_cells


class TestEscapeIteration:
    def test_already_negative_is_zero_steps(self):
        record = iterate_phi_endpoint(-1.0)
        assert record.steps_to_negative == 0
        assert record.orbit == (-1.0,)

    def test_orbit_from_one_point_nine(self):
        # oracle: direct iteration of t -> t^2 - 2
        expected = [1.9]
        while expected[-1] >= 0.0:
            expected.append(expected[-1] ** 2 - 2.0)
        assert len(expected) - 1 == 3

        record = iterate_phi_endpoint(1.9)
        assert record.steps_to_negative == 3
        np.testing.assert_allclose(record.orbit, expected, atol=0)
        np.testing.assert_allclose(record.orbit[:3], [1.9, 1.61, 0.5921], atol=1e-12)
        assert record.orbit[3] < 0.0

    def test_two_is_a_fixed_point(self):
        record = iterate_phi_endpoint(2.0, max_steps=100)
        assert record.steps_to_negative is None
        assert all(value == 2.0 for value in record.orbit)
        assert len(record.orbit) == 101

    def test_exact_zero_keeps_iterating(self):
        record = iterate_phi_endpoint(0.0)
        assert record.steps_to_negative == 1
        assert record.orbit == (0.0, -2.0)

    def test_orbit_recurrence_invariant(self):
        record = iterate_phi_endpoint(1.37)
        for current, nxt in zip(record.orbit, record.orbit[1:]):
            assert abs(nxt - (current * current - 2.0)) < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            iterate_phi_endpoint(2.5)
        with pytest.raises(ValueError):
            iterate_phi_endpoint(1.0, max_steps=0)

    def test_escape_universality_on_grid(self):
        for k in range(4000):
            t0 = -2.0 + k * 1e-3
            record = iterate_phi_endpoint(t0)
            assert record.steps_to_negative is not None, t0
            assert record.steps_to_negative <= 25

    def test_doubling_semiconjugacy(self):
        # with t = 2 cos(theta) one step doubles theta
        for theta in np.linspace(0.0, np.pi, 2001):
            t = 2.0 * math.cos(theta)
            stepped = t * t - 2.0
            assert abs(stepped - 2.0 * math.cos(2.0 * theta)) < 1e-9


class TestFiberImage:
    def test_interval_examples(self):
        assert fiber_image_interval(0.0) == (-2.0, 2.0)
        assert fiber_image_interval(2.0) == (2.0, 2.0)
        assert fiber_image_interval(-1.0) == (-1.0, 2.0)

    def test_numeric_examples(self):
        lower, upper = fiber_image_numeric(0.0, 1000)
        assert abs(lower + 2.0) < 1e-5 and abs(upper - 2.0) < 1e-5
        assert fiber_image_numeric(2.0, 100) == (2.0, 2.0)
        lower, upper = fiber_image_numeric(1.0, 100000)
        assert abs(lower + 1.0) < 1e-12
        assert abs(upper - 2.0) < 1e-9

    def test_numeric_matches_analytic_with_resolution(self):
        for t in np.linspace(-2.0, 2.0, 41):
            lower, upper = fiber_image_numeric(t, 4001)
            alow, aup = fiber_image_interval(t)
            spacing = 2.0 * math.sqrt(max(t + 2.0, 0.0)) / 4000
            resolution = (2.0 - t) * spacing * spacing
            assert abs(lower - alow) < 1e-9 + resolution
            assert abs(upper - aup) < 1e-9 + resolution

    def test_interval_nesting(self):
        for t_small, t_big in [(0.0, 1.0), (-0.5, 1.5), (0.3, -1.9), (-1.0, 2.0)]:
            if abs(t_small) > abs(t_big):
                t_small, t_big = t_big, t_small
            inner = fiber_image_interval(t_big)
            outer = fiber_image_interval(t_small)
            assert outer[0] <= inner[0] and inner[1] <= outer[1]


WORD_MOVES = {
    Move.SQUARE_FIRST: lambda wa, wb: (wa * wa, wb),
    Move.SWAP_GENERATORS: lambda wa, wb: (wb, wa),
    Move.INVERT_FIRST: lambda wa, wb: (wa.inverse(), wb),
    Move.MULTIPLY_FIRST_BY_SECOND: lambda wa, wb: (wa * wb, wb),
}


class TestMoves:
    def test_square_first_matches_phi(self, rng):
        for _ in range(10000):
            pair = haar_pair(rng)
            moved = apply_move(pair, Move.SQUARE_FIRST)
            np.testing.assert_allclose(pi_map(moved), phi(pi_map(pair)), atol=1e-10)

    def test_swap_and_invert(self, rng):
        b = haar_pair(rng).b
        swapped = apply_move(Pair(IDENTITY, b), Move.SWAP_GENERATORS)
        assert swapped.a.isclose(b, tol=0) and swapped.b.isclose(IDENTITY, tol=0)

        pair = haar_pair(rng)
        twice = apply_move(apply_move(pair, Move.INVERT_FIRST), Move.INVERT_FIRST)
        assert twice.a.isclose(pair.a, tol=1e-12) and twice.b.isclose(pair.b, tol=1e-12)

    def test_moves_stay_inside_generated_subgroup(self, rng):
        # oracle: track the same moves on free-group words and re-evaluate
        pair = haar_pair(rng)
        current = pair
        wa, wb = Word.from_string("a"), Word.from_string("b")
        sequence = [
            Move.SQUARE_FIRST,
            Move.SWAP_GENERATORS,
            Move.MULTIPLY_FIRST_BY_SECOND,
            Move.INVERT_FIRST,
            Move.SQUARE_FIRST,
            Move.MULTIPLY_FIRST_BY_SECOND,
        ]
        for move in sequence:
            current = apply_move(current, move)
            wa, wb = WORD_MOVES[move](wa, wb)
            assert evaluate_word(wa, pair).isclose(current.a, tol=1e-9)
            assert evaluate_word(wb, pair).isclose(current.b, tol=1e-9)


def wordmap_orbit_reference(pair, depth, max_points=10000):
    """The scalar breadth-first loop: one apply_move and one pi_map per
    candidate, and a set of the 1e-6 keys seen so far.  Returns
    (pair, coord, path) triples."""

    def key(coord):
        return (round(coord.x / ORBIT_DEDUP_GRID), round(coord.t / ORBIT_DEDUP_GRID))

    root = (pair, pi_map(pair), "")
    seen = {key(root[1])}
    points = [root]
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for parent, _, path in frontier:
            for move in MOVES:
                if len(points) >= max_points:
                    return points
                image = apply_move(parent, move)
                coord = pi_map(image)
                if key(coord) in seen:
                    continue
                seen.add(key(coord))
                point = (image, coord, path + move.value)
                points.append(point)
                next_frontier.append(point)
        if not next_frontier:
            break
        frontier = next_frontier
    return points


def assert_matches_reference(pair, depth, max_points):
    """The orbit is the scalar loop's: same paths, and the same floats, since
    each depth rounds as apply_move and pi_map do."""
    orbit = wordmap_orbit(pair, depth, max_points)
    expected = wordmap_orbit_reference(pair, depth, max_points)
    assert orbit.paths == [path for _, _, path in expected]
    assert len(orbit) == len(expected) == orbit.x.size == orbit.t.size
    assert np.array_equal(orbit.x, [c.x for _, c, _ in expected])
    assert np.array_equal(orbit.t, [c.t for _, c, _ in expected])
    return orbit


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# generators of the binary icosahedral group 2I, of orders 6 and 10
ICOSAHEDRAL = Pair(
    SU2Element.from_quaternion(1, 1, 1, 1),
    SU2Element.from_quaternion(GOLDEN, 1.0 / GOLDEN, 1, 0),
)


def covering_radius(orbit, grid):
    cloud = np.stack([orbit.x, orbit.t], axis=1)
    dist = np.sqrt(((grid[:, None, :] - cloud[None, :, :]) ** 2).sum(-1))
    return float(dist.min(axis=1).max())


class TestWordmapOrbit:
    def test_depth_zero_is_the_pair_itself(self, rng):
        pair = haar_pair(rng)
        orbit = wordmap_orbit(pair, 0)
        assert len(orbit) == 1
        assert (orbit.x[0], orbit.t[0]) == pi_map(pair)
        assert orbit.paths == [""]

    def test_identity_pair_is_fixed(self):
        orbit = assert_matches_reference(Pair(IDENTITY, IDENTITY), 5, 10000)
        assert len(orbit) == 1

    def test_max_points_truncation(self, rng):
        orbit = wordmap_orbit(haar_pair(rng), 6, max_points=17)
        assert len(orbit) == 17

    def test_haar_pairs_match_the_scalar_loop(self, rng):
        for _ in range(3):
            orbit = assert_matches_reference(haar_pair(rng), 12, 20000)
            assert len(orbit) == 20000

    def test_caps_that_cut_a_depth_match_the_scalar_loop(self, rng):
        pair = haar_pair(rng)
        full = wordmap_orbit(pair, 12, 20000)
        for cap in (1, 17, 4 * 37 + 2, 4 * 1000 + 2):
            assert_matches_reference(pair, 12, cap)
            if cap > 1:
                # the cap falls inside a depth, not on its boundary
                assert len(full.paths[cap - 1]) == len(full.paths[cap])

    def test_commuting_pair_collides_within_a_depth(self, rng):
        k = haar_sample(rng)
        pair = Pair(
            conjugate(SU2Element(np.exp(0.7j), 0.0), k),
            conjugate(SU2Element(np.exp(1.9j), 0.0), k),
        )
        orbit = assert_matches_reference(pair, 8, 20000)
        np.testing.assert_allclose(orbit.t, 2.0, atol=1e-12)
        # S, I and M all keep b, so candidates share keys inside one depth
        per_depth = np.bincount([len(path) for path in orbit.paths])
        assert len(per_depth) == 9 and (per_depth[1:] < 4 * per_depth[:-1]).all()

    def test_icosahedral_pair_saturates_at_21_points(self, rng):
        # oracle: the 2I pair's orbit is finite; its 21 trace-plane points
        # are reached within 7 moves
        k = haar_sample(rng)
        pair = Pair(conjugate(ICOSAHEDRAL.a, k), conjugate(ICOSAHEDRAL.b, k))
        orbit = assert_matches_reference(pair, 12, 20000)
        assert len(orbit) == 21
        assert max(len(path) for path in orbit.paths) <= 7

    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8, unique=True),
        data=st.data(),
    )
    def test_new_cells_equal_unique_and_isin(self, pool, data):
        # oracle: np.unique's first occurrences, less the cells already seen;
        # keys repeat a few pool values, tiled up to 60,000 long
        keys = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
        keys = np.tile(np.array(keys, dtype=np.int64), data.draw(st.sampled_from([1, 3, 200])))
        seen = np.array(data.draw(st.lists(st.sampled_from(pool), unique=True)), dtype=np.int64)
        cells, first = np.unique(keys, return_index=True)
        new = ~np.isin(cells, seen, assume_unique=True)
        got = _new_cells(keys, seen)
        for value, expected in zip(got, (cells[new], first[new])):
            assert value.dtype == expected.dtype
            np.testing.assert_array_equal(value, expected)

    def test_covering_radius_shrinks_with_depth(self):
        # oracle: covering radius of the emitted cloud over a grid of D
        pair = haar_pair(np.random.default_rng(7))
        xs = np.linspace(-2.0, 2.0, 60)
        ts = np.linspace(-2.0, 2.0, 60)
        grid = np.array(
            [(x, t) for x in xs for t in ts if in_domain_D(x, t)]
        )
        radii = [
            covering_radius(wordmap_orbit(pair, depth, max_points=200000), grid)
            for depth in range(9)
        ]
        for shallow, deep in zip(radii, radii[1:]):
            assert deep <= shallow + 1e-12
        assert radii[8] < radii[0] / 2.0
