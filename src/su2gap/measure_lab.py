"""Monte Carlo checks of the measure-level claims in trace coordinates.

Provides the empirical pushforward of Haar measure under the projection to
(tr(a), tr([a, b])), the mass near the boundary of the domain D, approximate
sampling of commutator-trace fibers, and the transport of a fiber under
squaring the first generator.

Sampling is vectorized over flat arrays of (alpha, beta) components so that
million-sample runs stay in numpy; the scalar element API is used where the
per-sample work is a handful of products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFiberWarning
from .gap_dynamics import Move, apply_move
from .su2_core import Pair, conjugate, haar_quaternions, haar_sample
from .trace_geometry import construct_pair_from_traces, pi_map

_CHUNK = 1 << 18


def _mul(a1, b1, a2, b2):
    """Componentwise product of SU(2) elements given as (alpha, beta) arrays."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _commutator_trace(alpha_a, beta_a, alpha_b, beta_b):
    """tr(a b a^-1 b^-1) for arrays of element components."""
    ab = _mul(alpha_a, beta_a, alpha_b, beta_b)
    ab_ai = _mul(ab[0], ab[1], np.conj(alpha_a), -beta_a)
    comm = _mul(ab_ai[0], ab_ai[1], np.conj(alpha_b), -beta_b)
    return 2.0 * comm[0].real


def _haar_fricke_chunks(rng: np.random.Generator, count: int):
    """(x, t) coordinates of `count` Haar pairs, yielded in fixed-size chunks."""
    done = 0
    while done < count:
        size = min(_CHUNK, count - done)
        qa = haar_quaternions(rng, size)
        qb = haar_quaternions(rng, size)
        t = _commutator_trace(
            qa[:, 0] + 1j * qa[:, 1],
            qa[:, 2] + 1j * qa[:, 3],
            qb[:, 0] + 1j * qb[:, 1],
            qb[:, 2] + 1j * qb[:, 3],
        )
        yield 2.0 * qa[:, 0], t
        done += size


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
    p = -(3.0 + 2.0 * t) / 2.0
    q = -x / 2.0
    s = q * q / 4.0 + p**3 / 27.0

    # single real root (Cardano), valid where s >= 0
    root_s = np.sqrt(np.maximum(s, 0.0))
    u_card = np.cbrt(-q / 2.0 + root_s) + np.cbrt(-q / 2.0 - root_s)

    # three real roots (trigonometric form), valid where s < 0, which forces p < 0
    p_safe = np.where(s < 0.0, p, -1.0)
    m = 2.0 * np.sqrt(-p_safe / 3.0)
    cos_arg = np.clip(3.0 * q / (p_safe * m), -1.0, 1.0)
    theta = np.arccos(cos_arg) / 3.0
    trig_roots = [m * np.cos(theta - 2.0 * np.pi * k / 3.0) for k in range(3)]

    candidates = [np.where(s >= 0.0, u_card, 0.0)]
    candidates += [np.where(s < 0.0, root, 0.0) for root in trig_roots]
    candidates += [np.full_like(x, -2.0), np.full_like(x, 2.0)]

    best = None
    for u in candidates:
        u = np.clip(u, -2.0, 2.0)
        d_sq = (u - x) ** 2 + (u * u - 2.0 - t) ** 2
        best = d_sq if best is None else np.minimum(best, d_sq)
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
            stacklevel=2,
        )
        base = construct_pair_from_traces(0.0, 0.0, 0.0)
        out = []
        for _ in range(count):
            k = haar_sample(rng_conj)
            out.append(Pair(conjugate(base.a, k), conjugate(base.b, k)))
        return out

    pairs: list[Pair] = []
    while len(pairs) < count:
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
                    return pairs
    return pairs


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
    samples = sample_fiber(t, count, seed)
    values = np.array(
        [pi_map(apply_move(pair, Move.SQUARE_FIRST)).t for pair in samples]
    )
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
