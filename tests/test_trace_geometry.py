"""Trace identities, the domain D and region Omega, the inverse
constructions and the pair-spec codec, each checked against direct 2x2
matrix arithmetic."""

import math
import re

import numpy as np
import pytest

from su2gap import (
    DomainError,
    IDENTITY,
    Pair,
    commutator,
    commutator_trace_of_square,
    construct_pair_from_fricke,
    construct_pair_from_traces,
    fricke_commutator_trace,
    haar_pair,
    in_domain_D,
    in_omega,
    multiply,
    pair_from_spec,
    pair_to_spec,
    phi,
    pi_map,
    trace,
    trace_of_square,
    trace_triple,
)


def matrix_commutator_trace(pair: Pair) -> float:
    """Oracle: tr(a b a^-1 b^-1) by direct numpy matrix products."""
    a, b = pair.a.matrix, pair.b.matrix
    return float(np.trace(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)).real)


class TestTraceIdentities:
    def test_pi_map_identity_pair(self):
        assert pi_map(Pair(IDENTITY, IDENTITY)) == (2.0, 2.0)

    def test_trace_of_square_examples(self):
        assert trace_of_square(2.0) == 2.0
        assert trace_of_square(0.0) == -2.0

    def test_trace_of_square_against_matrix_oracle(self, rng):
        for _ in range(500):
            a = haar_pair(rng).a
            direct = float(np.trace(a.matrix @ a.matrix).real)
            assert abs(direct - trace_of_square(trace(a))) < 1e-12

    def test_commutator_trace_of_square_examples(self):
        for t in (-2.0, -0.5, 0.0, 1.3, 2.0):
            assert commutator_trace_of_square(0.0, t) == 2.0
        assert commutator_trace_of_square(2.0, 2.0) == 2.0

    def test_commutator_trace_of_square_against_matrix_oracle(self, rng):
        for _ in range(500):
            pair = haar_pair(rng)
            x = trace(pair.a)
            t = matrix_commutator_trace(pair)
            squared = Pair(multiply(pair.a, pair.a), pair.b)
            direct = matrix_commutator_trace(squared)
            assert abs(direct - commutator_trace_of_square(x, t)) < 1e-12

    def test_fricke_commutator_trace_examples(self):
        assert fricke_commutator_trace(2.0, 2.0, 2.0) == 2.0
        assert fricke_commutator_trace(0.0, 0.0, 0.0) == -2.0

    def test_fricke_commutator_trace_against_matrix_oracle(self, rng):
        for _ in range(500):
            pair = haar_pair(rng)
            x, y, z = trace_triple(pair)
            assert abs(matrix_commutator_trace(pair) - fricke_commutator_trace(x, y, z)) < 1e-12

    def test_nonnegativity_decomposition(self, rng):
        # t - (x^2 - 2) = (y - x z / 2)^2 + z^2 (1 - x^2 / 4)
        for _ in range(500):
            pair = haar_pair(rng)
            x, y, z = trace_triple(pair)
            t = matrix_commutator_trace(pair)
            decomposition = (y - x * z / 2.0) ** 2 + z * z * (1.0 - x * x / 4.0)
            assert abs(t - (x * x - 2.0) - decomposition) < 1e-10


class TestPlaneMap:
    def test_phi_examples(self):
        np.testing.assert_allclose(phi((math.sqrt(2.0), 0.0)), (0.0, -2.0), atol=1e-12)
        assert phi((2.0, 2.0)) == (2.0, 2.0)
        assert phi((0.0, -2.0)) == (-2.0, 2.0)

    def test_phi_compatible_with_squaring(self, rng):
        for _ in range(300):
            pair = haar_pair(rng)
            squared = Pair(multiply(pair.a, pair.a), pair.b)
            np.testing.assert_allclose(
                phi(pi_map(pair)), pi_map(squared), atol=1e-10
            )

    def test_chebyshev_double_angle(self):
        for angle in np.linspace(0.0, np.pi, 1001):
            x = 2.0 * math.cos(angle)
            assert abs(trace_of_square(x) - 2.0 * math.cos(2.0 * angle)) < 1e-12

    def test_phi_maps_D_into_D(self):
        xs = np.linspace(-2.0, 2.0, 200)
        ts = np.linspace(-2.0, 2.0, 200)
        for x in xs:
            for t in ts:
                if in_domain_D(x, t):
                    image = phi((x, t))
                    assert in_domain_D(image.x, image.t, tol=1e-9)


class TestMembership:
    def test_domain_examples(self):
        assert not in_domain_D(2.0, 0.0)
        assert in_domain_D(0.0, -2.0)
        assert in_domain_D(2.0, 2.0)

    def test_omega_examples(self):
        assert not in_omega(2.0, -2.0, 2.0)
        assert in_omega(0.0, 0.0, 0.0)
        assert in_omega(2.0, 2.0, 2.0)

    def test_haar_images_land_in_D(self, rng):
        for _ in range(2000):
            x, t = pi_map(haar_pair(rng))
            assert x * x - 2.0 <= t + 1e-12


def sample_domain_points(rng, count):
    points = []
    while len(points) < count:
        x = rng.uniform(-2.0, 2.0)
        t = rng.uniform(-2.0, 2.0)
        if x * x - 2.0 <= t:
            points.append((x, t))
    return points


def sample_omega_points(rng, count):
    points = []
    while len(points) < count:
        x, y, z = rng.uniform(-2.0, 2.0, size=3)
        if x * x + y * y + z * z - x * y * z - 4.0 <= 0.0:
            points.append((x, y, z))
    return points


class TestFrickeConstruction:
    def test_zero_two_gives_quarter_turn_and_identity(self):
        a, b = construct_pair_from_fricke(0.0, 2.0)
        np.testing.assert_allclose(a.matrix, np.diag([1j, -1j]), atol=1e-15)
        assert b.isclose(IDENTITY, tol=0)

    def test_zero_minus_two_reaches_the_corner(self):
        a, b = construct_pair_from_fricke(0.0, -2.0)
        np.testing.assert_allclose(a.matrix, np.diag([1j, -1j]), atol=1e-15)
        np.testing.assert_allclose(b.matrix, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)
        # oracle: the commutator trace comes out at the bottom of the range
        assert abs(matrix_commutator_trace(Pair(a, b)) + 2.0) < 1e-12

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            construct_pair_from_fricke(2.0, 0.0)

    def test_edge_of_x_range(self):
        a, b = construct_pair_from_fricke(2.0, 2.0)
        assert a.isclose(IDENTITY, tol=0) and b.isclose(IDENTITY, tol=0)
        a, _ = construct_pair_from_fricke(-2.0, 2.0)
        assert trace(a) == -2.0

    def test_section_property_on_random_domain_points(self, rng):
        for x, t in sample_domain_points(rng, 2000):
            pair = construct_pair_from_fricke(x, t)
            for g in pair:
                assert abs(abs(g.alpha) ** 2 + abs(g.beta) ** 2 - 1.0) < 1e-12
            got = pi_map(pair)
            assert abs(got.x - x) < 1e-10 and abs(got.t - t) < 1e-10

    def test_boundary_hits_s_extremes(self, rng):
        # t = x^2 - 2 corresponds to s = 1, t = 2 to s = 0
        for _ in range(50):
            x = rng.uniform(-1.99, 1.99)
            _, b_bottom = construct_pair_from_fricke(x, x * x - 2.0)
            assert abs(abs(b_bottom.beta) - 1.0) < 1e-12
            _, b_top = construct_pair_from_fricke(x, 2.0)
            assert b_top.isclose(IDENTITY, tol=1e-12)


class TestTripleConstruction:
    def test_origin_triple(self):
        a, b = construct_pair_from_traces(0.0, 0.0, 0.0)
        np.testing.assert_allclose(a.matrix, np.diag([1j, -1j]), atol=1e-15)
        np.testing.assert_allclose(b.matrix, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15)
        x, y, z = trace_triple(Pair(a, b))
        assert max(abs(x), abs(y), abs(z)) < 1e-12

    def test_degenerate_x_requires_matching_z(self):
        with pytest.raises(DomainError):
            construct_pair_from_traces(2.0, 0.5, -0.5)
        pair = construct_pair_from_traces(2.0, 0.5, 0.5)
        x, y, z = trace_triple(pair)
        assert abs(x - 2.0) < 1e-10 and abs(y - 0.5) < 1e-10 and abs(z - 0.5) < 1e-10
        pair = construct_pair_from_traces(-2.0, 0.5, -0.5)
        x, y, z = trace_triple(pair)
        assert abs(x + 2.0) < 1e-10 and abs(y - 0.5) < 1e-10 and abs(z + 0.5) < 1e-10

    def test_outside_omega_raises(self):
        with pytest.raises(DomainError):
            construct_pair_from_traces(1.9, -1.9, 1.9)

    def test_traces_of_a_and_b_are_exact(self, rng):
        # cos(angle) is x / 2 itself and Re(p) is y / 2, so no rounding enters
        for x, y, z in sample_omega_points(rng, 2000):
            a, b = construct_pair_from_traces(x, y, z)
            assert 2.0 * a.alpha.real == x and 2.0 * b.alpha.real == y

    @pytest.mark.parametrize("x", [2.0, -2.0, 2.0 + 1e-13, -math.nextafter(2.0, 0.0)])
    def test_edge_gives_exactly_plus_minus_identity(self, x):
        sign = 1.0 if x > 0 else -1.0
        for y in (0.5, -1.3, 2.0, -2.0, -0.0):
            a, b = construct_pair_from_traces(x, y, sign * y)
            assert a.quaternion == (sign, 0.0, 0.0, 0.0)
            assert 2.0 * b.alpha.real == y
            zeros = [c for c in (*a.quaternion, *b.quaternion) if c == 0]
            assert all(math.copysign(1.0, c) == 1.0 for c in zeros)

    def test_reconstruction_on_random_omega_points(self, rng):
        for x, y, z in sample_omega_points(rng, 2000):
            got = trace_triple(construct_pair_from_traces(x, y, z))
            assert abs(got.x - x) < 1e-10
            assert abs(got.y - y) < 1e-10
            assert abs(got.z - z) < 1e-10

    def test_commutator_trace_consistency(self, rng):
        # the reconstructed pair realizes the commutator trace predicted by
        # the quadratic identity
        for x, y, z in sample_omega_points(rng, 200):
            pair = construct_pair_from_traces(x, y, z)
            t = matrix_commutator_trace(pair)
            assert abs(t - fricke_commutator_trace(x, y, z)) < 1e-10


class TestPairSpecDispatch:
    def test_three_forms(self):
        by_fricke = pair_from_spec({"type": "fricke", "x": 0.0, "t": 2.0})
        assert by_fricke.b.isclose(IDENTITY, tol=0)
        by_traces = pair_from_spec({"type": "traces", "x": 0.0, "y": 0.0, "z": 0.0})
        assert abs(trace(by_traces.a)) < 1e-12
        spec = {
            "type": "matrix",
            "a": [0.0, 1.0, 0.0, 0.0],
            "b": [1.0, 0.0, 0.0, 0.0],
        }
        by_matrix = pair_from_spec(spec)
        assert by_matrix.b.isclose(IDENTITY, tol=0)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            pair_from_spec({"type": "quaternion", "a": [1, 0, 0, 0]})

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            pair_from_spec({"type": "fricke", "x": 2.0, "t": 0.0})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"type": "fricke", "x": 0.0}, "fricke pair-spec has no key 't'"),
            ({"type": "matrix", "a": [1, 0, 0, 0]}, "matrix pair-spec has no key 'b'"),
            ({"type": "traces", "x": 0, "y": None, "z": 0}, "traces pair-spec 'y' has a value of the wrong type"),
            ({"type": "fricke", "x": [0.5], "t": 0}, "'x' has a value of the wrong type: [0.5]"),
            ({"type": "fricke", "x": "abc", "t": 0}, "'x' has a value of the wrong type: 'abc'"),
            ({"type": "matrix", "a": None, "b": [1, 0, 0, 0]}, "'a' has a value of the wrong type: None"),
            ({"type": "matrix", "a": 1.0, "b": [1, 0, 0, 0]}, "'a' has a value of the wrong type: 1.0"),
            ({"type": "matrix", "a": [1, 0, 0, 0], "b": [1, "abc", 0, 0]}, "wrong type: [1, 'abc', 0, 0]"),
            ({"type": "matrix", "a": [1, 0, 0, 0], "b": [1, None, 0, 0]}, "wrong type: [1, None, 0, 0]"),
            ({"type": "matrix", "a": [1, 0, 0], "b": [1, 0, 0, 0]}, "matrix pair-spec entries need 4 components"),
            ({"type": ["matrix"]}, "unknown pair-spec type ['matrix']"),
            ({"x": 0.0, "t": 2.0}, "unknown pair-spec type None"),
        ],
    )
    def test_malformed_record_raises_value_error(self, spec, message):
        # a plain ValueError naming the key or the value, never a KeyError
        # or TypeError from inside the decoder
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            pair_from_spec(spec)
        assert type(caught.value) is ValueError

    def test_matrix_checks_a_wholly_before_b(self):
        # an element's components, then its unit check, a before b
        with pytest.raises(ValueError, match="not special unitary"):
            pair_from_spec({"type": "matrix", "a": [2, 0, 0, 0], "b": [1, 0, 0]})
        with pytest.raises(ValueError, match="need 4 components"):
            pair_from_spec({"type": "matrix", "a": [1, 0, 0, 0, 0], "b": [2, 0, 0, 0]})
        with pytest.raises(ValueError, match="'b' has a value of the wrong type: None"):
            pair_from_spec({"type": "matrix", "a": [1, 0, 0, 0], "b": None})

    def test_codec_lives_in_trace_geometry(self):
        import su2gap
        from su2gap import su2_core, trace_geometry

        assert su2gap.pair_to_spec is trace_geometry.pair_to_spec
        assert su2gap.pair_from_spec is trace_geometry.pair_from_spec
        for name in ("pair_to_spec", "pair_from_spec", "pair_from_matrix_spec"):
            assert not hasattr(su2_core, name)

    def test_matrix_roundtrip_keeps_every_bit(self, rng):
        pair = haar_pair(rng)
        spec = pair_to_spec(pair)
        assert spec == {"type": "matrix", "a": list(pair.a.quaternion), "b": list(pair.b.quaternion)}
        assert pair_from_spec(spec) == pair
