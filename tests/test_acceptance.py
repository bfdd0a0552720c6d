"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line (pytest reports the failure line
otherwise).  Matrix-side oracles are computed here with plain numpy batch
arithmetic, independent of the library's element type.
"""

import json
import time

import numpy as np

from su2gap import (
    IDENTITY,
    Pair,
    SU2Element,
    Word,
    commutator_trace_of_square,
    construct_pair_from_fricke,
    fiber_image_numeric,
    fiber_transport_demo,
    fricke_commutator_trace,
    gap_profile,
    haar_pair,
    haar_quaternions,
    irrep_matrix,
    iterate_phi_endpoint,
    pi_map,
    pushforward_histogram,
    trace_of_square,
    word_defect_check,
)
from su2gap.cli import main
from su2gap.su2_core import reduce_letters


def batch_matrices(quaternions: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions -> (n, 2, 2) special unitary matrices."""
    alpha = quaternions[:, 0] + 1j * quaternions[:, 1]
    beta = quaternions[:, 2] + 1j * quaternions[:, 3]
    out = np.empty((len(quaternions), 2, 2), dtype=complex)
    out[:, 0, 0] = alpha
    out[:, 0, 1] = beta
    out[:, 1, 0] = -beta.conjugate()
    out[:, 1, 1] = alpha.conjugate()
    return out


def dagger(batch: np.ndarray) -> np.ndarray:
    return batch.conj().transpose(0, 2, 1)


def batch_trace(batch: np.ndarray) -> np.ndarray:
    return np.einsum("nii->n", batch).real


def batch_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b @ dagger(a) @ dagger(b)


def test_criterion_01_fricke_vogt_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    count = 100_000
    a = batch_matrices(haar_quaternions(rng, count))
    b = batch_matrices(haar_quaternions(rng, count))
    direct = batch_trace(batch_commutator(a, b))
    x, y, z = batch_trace(a), batch_trace(b), batch_trace(a @ b)
    worst = float(np.abs(direct - fricke_commutator_trace(x, y, z)).max())
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 5.0
    print(f"\nCRITERION 1 PASS: Fricke-Vogt max deviation {worst:.3e} over {count} pairs ({elapsed:.2f} s)")


def test_criterion_02_squared_generator_trace_formulas():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    count = 100_000
    a = batch_matrices(haar_quaternions(rng, count))
    b = batch_matrices(haar_quaternions(rng, count))
    x = batch_trace(a)
    t = batch_trace(batch_commutator(a, b))
    worst_square = float(np.abs(batch_trace(a @ a) - trace_of_square(x)).max())
    direct_squared = batch_trace(batch_commutator(a @ a, b))
    worst_comm = float(np.abs(direct_squared - commutator_trace_of_square(x, t)).max())
    elapsed = time.perf_counter() - started
    assert worst_square < 1e-10
    assert worst_comm < 1e-10
    assert elapsed < 5.0
    print(f"\nCRITERION 2 PASS: tr(a^2) dev {worst_square:.3e}, tr([a^2,b]) dev {worst_comm:.3e} ({elapsed:.2f} s)")


def test_criterion_03_construction_section_on_grid():
    started = time.perf_counter()
    step = 0.01
    axis = np.round(np.arange(-2.0, 2.0 + step / 2, step), 10)
    checked = 0
    worst_coord = 0.0
    worst_norm = 0.0
    for x in axis:
        floor = x * x - 2.0
        for t in axis[axis >= floor - 1e-12]:
            pair = construct_pair_from_fricke(float(x), float(t))
            for g in pair:
                worst_norm = max(
                    worst_norm, abs(abs(g.alpha) ** 2 + abs(g.beta) ** 2 - 1.0)
                )
            got = pi_map(pair)
            worst_coord = max(worst_coord, abs(got.x - x), abs(got.t - t))
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked > 100_000
    assert worst_coord < 1e-10
    assert worst_norm < 1e-12
    assert elapsed < 30.0
    print(f"\nCRITERION 3 PASS: {checked} grid points, max coordinate dev {worst_coord:.3e}, max norm dev {worst_norm:.3e} ({elapsed:.2f} s)")


def _interior_depth(cx: float, ct: float) -> float:
    """In-test oracle: distance from a point of D to its boundary set."""
    us = np.linspace(-2.0, 2.0, 20001)
    parabola = np.sqrt((us - cx) ** 2 + (us * us - 2.0 - ct) ** 2).min()
    return min(parabola, 2.0 - abs(cx), 2.0 - abs(ct))


def test_criterion_04_image_and_density():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    total = 1_000_000
    chunk = 250_000
    for _ in range(total // chunk):
        a = batch_matrices(haar_quaternions(rng, chunk))
        b = batch_matrices(haar_quaternions(rng, chunk))
        x = batch_trace(a)
        t = batch_trace(batch_commutator(a, b))
        assert np.all(x * x - 2.0 <= t + 1e-12)

    hist = pushforward_histogram(total, 40, seed=104)
    assert int(hist.counts.sum()) == total
    centers_x = (hist.x_edges[:-1] + hist.x_edges[1:]) / 2.0
    centers_t = (hist.t_edges[:-1] + hist.t_edges[1:]) / 2.0
    interior_cells = 0
    for i, cx in enumerate(centers_x):
        for j, ct in enumerate(centers_t):
            if cx * cx - 2.0 <= ct and _interior_depth(cx, ct) >= 0.05:
                interior_cells += 1
                assert hist.counts[i, j] > 0, (cx, ct)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nCRITERION 4 PASS: 10^6 samples in D; {interior_cells} interior cells all populated ({elapsed:.2f} s)")


def test_criterion_05_fiber_image_and_transport():
    for t in (-2.0, -1.0, 0.0, 1.0, 1.9, 2.0):
        lower, upper = fiber_image_numeric(t, 100_001)
        assert abs(lower - (t * t - 2.0)) < 1e-9
        assert abs(upper - 2.0) < 1e-9

        count = 2000 if t > -2.0 else 500
        demo = fiber_transport_demo(t, count, seed=105)
        assert demo.values.min() >= (t * t - 2.0) - 1e-9
        assert demo.values.max() <= 2.0 + 1e-9
    print("\nCRITERION 5 PASS: fiber-image endpoints and transport containment at all six test fibers")


def test_criterion_06_escape_iteration():
    worst = 0
    for k in range(4000):
        record = iterate_phi_endpoint(-2.0 + k * 1e-3)
        assert record.steps_to_negative is not None
        worst = max(worst, record.steps_to_negative)
    assert worst <= 25
    assert iterate_phi_endpoint(1.9).steps_to_negative == 3
    assert iterate_phi_endpoint(2.0).steps_to_negative is None
    print(f"\nCRITERION 6 PASS: all 4000 grid starts escape within {worst} steps; steps(1.9) = 3; t0 = 2 not-reached")


def test_criterion_07_word_length_bound():
    rng = np.random.default_rng(107)
    worst = -np.inf
    for _ in range(1000):
        pair = haar_pair(rng)
        word = Word(reduce_letters(rng.choice([1, -1, 2, -2], size=int(rng.integers(0, 13)))))
        n = int(rng.integers(1, 21))
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        v /= np.linalg.norm(v)
        lhs, rhs = word_defect_check(pair, word, n, v)
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-10

    # the squared-generator case carries the factor-2 bound
    pair = haar_pair(rng)
    n = 8
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    v /= np.linalg.norm(v)
    lhs, rhs = word_defect_check(pair, Word.from_string("aa"), n, v)
    pa = irrep_matrix(pair.a, n)
    assert lhs <= 2.0 * np.linalg.norm(pa @ v - v) + 1e-10
    assert lhs <= rhs + 1e-10
    print(f"\nCRITERION 7 PASS: 1000 word-bound trials, max lhs - rhs = {worst:.3e}; factor-2 case holds")


def test_criterion_08_representation_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    worst_hom = 0.0
    worst_unit = 0.0
    for n in range(1, 31):
        eye = np.eye(n + 1)
        for _ in range(1000):
            qa, qb = haar_quaternions(rng, 2)
            g = SU2Element(complex(qa[0], qa[1]), complex(qa[2], qa[3]))
            h = SU2Element(complex(qb[0], qb[1]), complex(qb[2], qb[3]))
            pg, ph = irrep_matrix(g, n), irrep_matrix(h, n)
            worst_hom = max(worst_hom, float(np.linalg.norm(irrep_matrix(g * h, n) - pg @ ph)))
            worst_unit = max(worst_unit, float(np.linalg.norm(pg.conj().T @ pg - eye)))
    assert worst_hom < 1e-9
    assert worst_unit < 1e-9

    worst_char = 0.0
    for n in range(1, 31):
        for theta in np.linspace(0.05, np.pi - 0.05, 40):
            g = SU2Element(complex(np.cos(theta), np.sin(theta)), 0.0)
            character = float(np.trace(irrep_matrix(g, n)).real)
            expected = np.sin((n + 1) * theta) / np.sin(theta)
            worst_char = max(worst_char, abs(character - expected))
    assert worst_char < 1e-9
    elapsed = time.perf_counter() - started
    print(f"\nCRITERION 8 PASS: n <= 30 with 1000 pairs/level: hom dev {worst_hom:.3e}, unitarity dev {worst_unit:.3e}, character dev {worst_char:.3e} ({elapsed:.1f} s)")


def test_criterion_09_spectral_extremes():
    identity_profile = gap_profile(Pair(IDENTITY, IDENTITY), 50)
    assert identity_profile.min_gap == 0.0

    commuting = Pair(
        SU2Element(np.exp(1j * np.pi / 5), 0.0),
        SU2Element(np.exp(1j * np.sqrt(2)), 0.0),
    )
    commuting_profile = gap_profile(commuting, 50)
    assert commuting_profile.min_gap < 0.05

    lps = Pair(
        SU2Element.from_quaternion(1, 2, 0, 0),
        SU2Element.from_quaternion(1, 0, 2, 0),
    )
    lps_profile = gap_profile(lps, 50)
    assert lps_profile.min_gap > 0.05
    print(
        "\nCRITERION 9 PASS: min gaps over n <= 50: identity pair "
        f"{identity_profile.min_gap}, commuting {commuting_profile.min_gap:.3e}, "
        f"quaternion-generator pair {lps_profile.min_gap:.4f} (evidence, not certification)"
    )


SEEDED_COMMANDS = [
    ["sample", "--count", "5", "--seed", "42"],
    ["density", "--samples", "20000", "--bins", "20", "--seed", "42"],
    ["fiber-sample", "--t", "0.5", "--count", "40", "--seed", "42"],
    ["fiber-transport", "--t", "0.5", "--count", "1500", "--seed", "42"],
    ["phi-iterate", "--t0", "1.9"],
    ["construct", "--fricke", "0.3", "1.1"],
]


def test_criterion_10_seeded_determinism(tmp_path):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps({"type": "fricke", "x": 0.3, "t": 0.7}))
    commands = SEEDED_COMMANDS + [
        ["defect", "--pair", str(pair_file), "--word", "abAB", "--level", "6",
         "--trials", "20", "--seed", "42"],
        ["gap-profile", "--pair", str(pair_file), "--nmax", "12"],
    ]
    for index, argv in enumerate(commands):
        first = tmp_path / f"first_{index}.out"
        second = tmp_path / f"second_{index}.out"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv
    print(f"\nCRITERION 10 PASS: {len(commands)} seeded commands byte-identical across reruns")
