"""Monte Carlo checks of the measure-level claims in trace coordinates.

Provides the empirical pushforward of Haar measure under the projection to
(tr(a), tr([a, b])), the mass near the boundary of the domain D, approximate
sampling of commutator-trace fibers, and the transport of a fiber under
squaring the first generator.

Every sampler works on flat arrays of (alpha, beta) components, one numpy
pass per chunk of Haar pairs or per fiber, so no per-sample Python code runs;
SU2Element objects are built only for the pairs that sample_fiber returns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFiberWarning
from .su2_core import Pair, SU2Element, haar_quaternions
from .trace_geometry import construct_components_from_traces

_CHUNK = 1 << 18


def _mul(a1, b1, a2, b2):
    """Componentwise product of SU(2) elements given as (alpha, beta) arrays."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _imag_part(alpha, beta):
    """Imaginary part (i, j, k components) of the quaternion of (alpha, beta)."""
    return alpha.imag, beta.real, beta.imag


def _commutator_trace(u, v):
    """tr(a b a^-1 b^-1) = 2 - 4 |u x v|^2 for unit quaternions a and b with
    imaginary parts u and v, each three arrays; one cross component at a time."""
    norm_sq = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        c = u[j] * v[k] - u[k] * v[j]
        norm_sq = norm_sq + c * c
    return 2.0 - 4.0 * norm_sq


def _haar_fricke_chunk(rng: np.random.Generator, size: int):
    """(x, t) coordinates of `size` Haar pairs; the quaternions die on return."""
    qa = haar_quaternions(rng, size)
    qb = haar_quaternions(rng, size)
    return 2.0 * qa[:, 0], _commutator_trace(qa.T[1:], qb.T[1:])


def _haar_fricke_chunks(rng: np.random.Generator, count: int):
    """(x, t) coordinates of `count` Haar pairs, yielded in fixed-size chunks."""
    for start in range(0, count, _CHUNK):
        yield _haar_fricke_chunk(rng, min(_CHUNK, count - start))


@dataclass(frozen=True, eq=False)
class Histogram2D:
    """Binned counts of (x, t) samples over [-2, 2]^2."""

    counts: np.ndarray
    bins_per_axis: int
    total: int
    seed: int
    x_range: tuple[float, float] = (-2.0, 2.0)
    t_range: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ValueError("histogram counts do not sum to the sample total")

    @property
    def x_edges(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.bins_per_axis + 1)

    @property
    def t_edges(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.bins_per_axis + 1)


def pushforward_histogram(sample_count: int, bins: int, seed: int) -> Histogram2D:
    """Empirical pushforward of Haar measure to the (x, t) plane.

    Draws `sample_count` Haar pairs, projects each to (tr(a), tr([a, b])) and
    bins the results on a bins x bins grid over [-2, 2]^2.  Floating-point
    drift of order 1e-16 past the square is clipped before binning so every
    sample lands in a cell.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    rng = np.random.default_rng(seed)
    counts = np.zeros((bins, bins), dtype=np.int64)
    for xs, ts in _haar_fricke_chunks(rng, sample_count):
        chunk_counts, _, _ = np.histogram2d(
            np.clip(xs, -2.0, 2.0),
            np.clip(ts, -2.0, 2.0),
            bins=bins,
            range=[[-2.0, 2.0], [-2.0, 2.0]],
        )
        counts += chunk_counts.astype(np.int64)
    return Histogram2D(
        counts=counts,
        bins_per_axis=bins,
        total=sample_count,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Distance to the boundary of D
# ---------------------------------------------------------------------------


def _parabola_segment_distance(x, t):
    """Euclidean distance from points (x, t) to {(u, u^2 - 2) : |u| <= 2}.

    Stationary points of the squared distance solve the depressed cubic
    u^3 + p u + q = 0 with p = -(3 + 2 t) / 2 and q = -x / 2; the minimum over
    those roots (clipped to the segment) and the segment endpoints is exact.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)

    def gap_sq(u):
        u = np.clip(u, -2.0, 2.0)
        return (u - x) ** 2 + (u * u - 2.0 - t) ** 2

    p = -(3.0 + 2.0 * t) / 2.0
    q = -x / 2.0
    s = q * q / 4.0 + p**3 / 27.0
    one_root = s >= 0.0

    # single real root (Cardano), valid where s >= 0
    root_s = np.sqrt(np.maximum(s, 0.0))
    u_card = np.cbrt(-q / 2.0 + root_s) + np.cbrt(-q / 2.0 - root_s)
    best = gap_sq(np.where(one_root, u_card, 0.0))

    # three real roots (trigonometric form), valid where s < 0, which forces p < 0
    p_safe = np.where(one_root, -1.0, p)
    m = 2.0 * np.sqrt(-p_safe / 3.0)
    theta = np.arccos(np.clip(3.0 * q / (p_safe * m), -1.0, 1.0)) / 3.0
    for k in range(3):
        root = np.where(one_root, 0.0, m * np.cos(theta - 2.0 * np.pi * k / 3.0))
        best = np.minimum(best, gap_sq(root))

    for end in (-2.0, 2.0):
        best = np.minimum(best, gap_sq(end))
    return np.sqrt(best)


def boundary_distance(x, t):
    """Distance from (x, t) to the boundary set of D.

    The boundary is the parabola arc {t = x^2 - 2} together with the edges
    {|x| = 2} and {t = +-2} of the ambient square.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    edge = np.minimum(2.0 - np.abs(x), 2.0 - np.abs(t))
    return np.minimum(_parabola_segment_distance(x, t), edge)


def boundary_mass(sample_count: int, delta: float, seed: int) -> float:
    """Fraction of Haar pushforward samples within delta of the boundary of D."""
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    hits = sum(
        int(np.count_nonzero(boundary_distance(xs, ts) <= delta))
        for xs, ts in _haar_fricke_chunks(rng, sample_count)
    )
    return hits / sample_count


# ---------------------------------------------------------------------------
# Fiber sampling and transport
# ---------------------------------------------------------------------------


def _fiber_triples(rng: np.random.Generator, t: float, count: int):
    """Trace triples (x, y, z) of `count` fiber points at t, as arrays, in
    (plane draw, z_plus before z_minus) order."""
    parts, found = [], 0
    while found < count:
        draw = max(1024, 2 * (count - found))
        xy = rng.uniform(-2.0, 2.0, size=(draw, 2))
        x, y = xy[:, 0], xy[:, 1]
        disc = x * x * y * y - 4.0 * (x * x + y * y - 2.0 - t)
        has_roots = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(has_roots, disc, 0.0))
        z = np.stack([(x * y + sqrt_disc) / 2.0, (x * y - sqrt_disc) / 2.0], axis=1)
        keep = np.stack([has_roots, disc > 0.0], axis=1) & (np.abs(z) <= 2.0)
        flat = np.flatnonzero(keep)[: count - found]
        rows = flat // 2
        parts.append((x[rows], y[rows], z.ravel()[flat]))
        found += len(flat)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _fiber_components(t: float, count: int, seed: int):
    """(alpha_a, beta_a, alpha_b, beta_b) arrays of `count` pairs on the fiber
    at t; see sample_fiber for the construction and its random streams."""
    t = float(t)
    if not -2.0 <= t <= 2.0:
        raise ValueError(f"t = {t!r} must lie in [-2, 2]")
    if count < 1:
        raise ValueError("count must be at least 1")
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    rng_plane, rng_conj = streams

    if t <= -2.0 + 1e-12:
        warnings.warn(
            "the fiber at t = -2 is a single conjugacy class; returning "
            "conjugates of the (0, 0, 0) construction",
            DegenerateFiberWarning,
            stacklevel=3,
        )
        triples = (np.zeros(count),) * 3
    else:
        triples = _fiber_triples(rng_plane, t, count)
    alpha_a, beta_a, alpha_b, beta_b = construct_components_from_traces(*triples)

    k = haar_quaternions(rng_conj, count)
    k_alpha, k_beta = k[:, 0] + 1j * k[:, 1], k[:, 2] + 1j * k[:, 3]

    def conjugate(alpha, beta):  # k g k^-1
        return _mul(*_mul(k_alpha, k_beta, alpha, beta), np.conj(k_alpha), -k_beta)

    return (*conjugate(alpha_a, beta_a), *conjugate(alpha_b, beta_b))


def sample_fiber(t: float, count: int, seed: int) -> list[Pair]:
    """Pairs whose commutator trace equals t, spread over the fiber.

    Draws (x, y) uniformly on [-2, 2]^2, solves the quadratic

        z^2 - x y z + (x^2 + y^2 - 2 - t) = 0

    for z (keeping both real roots with |z| <= 2, to avoid biasing the
    fiber), reconstructs a pair from the trace triple, and conjugates it by
    an independent Haar element.  The result is a measure supported on the
    whole fiber, not the conditional law of Haar measure given t; support
    coverage is the property downstream checks rely on.

    At t = -2 the admissible triples collapse to (0, 0, 0); that degenerate
    fiber is sampled as Haar conjugates of the single construction and a
    DegenerateFiberWarning is issued.
    """
    components = (c.tolist() for c in _fiber_components(t, count, seed))
    return [
        Pair(SU2Element(alpha_a, beta_a), SU2Element(alpha_b, beta_b))
        for alpha_a, beta_a, alpha_b, beta_b in zip(*components)
    ]


@dataclass(frozen=True, eq=False)
class TransportHistogram:
    """Commutator traces of fiber samples after squaring the first generator."""

    source_t: float
    values: np.ndarray
    counts: np.ndarray
    bins: int
    total: int
    seed: int


def fiber_transport_demo(
    t: float, count: int, seed: int, bins: int = 40
) -> TransportHistogram:
    """Histogram of tr([a^2, b]) over samples of the fiber at t.

    All transported values lie in [t^2 - 2, 2] up to arithmetic error, and
    their support fills the interval as the sample count grows.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    alpha_a, beta_a, alpha_b, beta_b = _fiber_components(t, count, seed)
    square = _mul(alpha_a, beta_a, alpha_a, beta_a)
    values = _commutator_trace(_imag_part(*square), _imag_part(alpha_b, beta_b))
    counts, _ = np.histogram(
        np.clip(values, -2.0, 2.0), bins=bins, range=(-2.0, 2.0)
    )
    return TransportHistogram(
        source_t=float(t),
        values=values,
        counts=counts.astype(np.int64),
        bins=bins,
        total=count,
        seed=seed,
    )
