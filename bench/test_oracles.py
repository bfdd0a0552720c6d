"""Tests of the benchmark's oracles, against facts that need no su2gap.

    python3 -m pytest bench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles as O


def haar(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return complex(q[0], q[1]), complex(q[2], q[3])


def ab(m):
    return complex(m[0, 0]), complex(m[0, 1])


@pytest.fixture
def rng():
    return np.random.default_rng(20261018)


def test_level_one_is_the_element(rng):
    for _ in range(20):
        g = haar(rng)
        np.testing.assert_allclose(O.reference_block(*g, 1), O.su2(*g), atol=1e-14)


def test_level_two_is_the_symmetric_square(rng):
    basis = np.zeros((4, 3), dtype=complex)
    basis[0, 0] = basis[3, 2] = 1.0
    basis[1, 1] = basis[2, 1] = 1.0 / math.sqrt(2.0)
    for _ in range(20):
        m = O.su2(*haar(rng))
        square = basis.conj().T @ np.kron(m, m) @ basis
        np.testing.assert_allclose(O.reference_block(*ab(m), 2), square, atol=1e-13)


@pytest.mark.parametrize("n", [100, 200, 400])
def test_unitary_with_the_character_at_high_levels(rng, n):
    elements = [haar(rng) for _ in range(4)] + [(-0.999 + 0.01j, math.sqrt(1 - 0.999**2 - 1e-4) + 0j)]
    for alpha, beta in elements:
        block = O.reference_block(alpha, beta, n)
        assert np.linalg.norm(block.conj().T @ block - np.eye(n + 1)) < 1e-11
        theta = math.acos(alpha.real)
        character = math.sin((n + 1) * theta) / math.sin(theta)
        assert abs(np.trace(block).real - character) < 1e-9


def test_homomorphism_at_level_100(rng):
    g, h = O.su2(*haar(rng)), O.su2(*haar(rng))
    gh = g @ h
    product = O.reference_block(*ab(g), 100) @ O.reference_block(*ab(h), 100)
    assert np.linalg.norm(O.reference_block(*ab(gh), 100) - product) < 1e-10


def test_commuting_closed_form_matches_the_blocks(rng):
    theta, psi = 0.7, 2.3
    k = O.su2(*haar(rng))
    a = k @ O.su2(np.exp(1j * theta), 0j) @ O.dagger(k)
    b = k @ O.su2(np.exp(1j * psi), 0j) @ O.dagger(k)
    ref = O.reference_gaps(ab(a), ab(b), 40)
    np.testing.assert_allclose(ref, O.commuting_gaps(theta, psi, 40), atol=1e-12)


def test_lps_pair_profile_minimum():
    s = 1.0 / math.sqrt(5.0)
    gaps = O.reference_gaps((complex(s, 2 * s), 0j), (complex(s, 0), complex(2 * s, 0)), 200)
    assert int(np.argmin(gaps)) + 1 == 50
    assert abs(gaps.min() - 0.1125) < 1e-4


def test_density_integrates_to_one():
    assert abs(O.cell_probabilities(40).sum() - 1.0) < 1e-12
    assert abs(O.cell_probabilities(7).sum() - 1.0) < 1e-12


def test_cell_probability_against_quadrature():
    u = (np.arange(200000) + 0.5) / 200000
    for x0, x1, t0, t1 in [(-0.3, 0.4, -2.0, -1.5), (1.0, 1.9, -0.5, 1.0), (-2.0, -1.7, 1.2, 2.0)]:
        span = math.asin(x1 / 2) - math.asin(x0 / 2)
        x = 2 * np.sin(math.asin(x0 / 2) + u * span)
        length = np.clip(t1 - np.maximum(t0, x * x - 2), 0.0, None)
        quad = length.mean() * span / (2 * math.pi)
        assert abs(O.cell_probability(x0, x1, t0, t1) - quad) < 1e-7


def test_arc_distance():
    x = np.linspace(-2, 2, 9)
    assert np.abs(O.arc_distance(x, x * x - 2)).max() < 1e-12
    assert abs(O.arc_distance(0.0, 0.0)[0] - math.sqrt(1.75)) < 1e-12


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.3])
def test_band_mass_against_a_grid(delta):
    n = 1000
    u = ((np.arange(n) + 0.5) / n - 0.5) * math.pi
    t = (np.arange(n) + 0.5) / n * 4 - 2
    xg, tg = np.meshgrid(2 * np.sin(u), t, indexing="ij")
    dist = np.minimum(O.arc_distance(xg.ravel(), tg.ravel()).reshape(xg.shape), 2 - np.abs(xg))
    dist = np.minimum(dist, 2 - np.abs(tg))
    inside = (tg >= xg * xg - 2) & (dist <= delta)
    grid = inside.sum() * (math.pi / n) * (4 / n) / (2 * math.pi)
    assert abs(O.band_mass(delta) - grid) < 1e-3


def test_band_mass_needs_a_thin_band():
    with pytest.raises(ValueError):
        O.band_mass(0.5)


def test_commutator_trace_obeys_fricke_vogt(rng):
    for _ in range(20):
        a, b = O.su2(*haar(rng)), O.su2(*haar(rng))
        x, y, z = O.real_trace(a), O.real_trace(b), O.real_trace(a @ b)
        assert abs(O.commutator_trace(a, b) - (x * x + y * y + z * z - x * y * z - 2)) < 1e-12
