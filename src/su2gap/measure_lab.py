"""Monte Carlo checks of the measure-level claims in trace coordinates.

Provides the empirical pushforward of Haar measure under the projection to
(tr(a), tr([a, b])), the mass near the boundary of the domain D, exact
sampling of Haar measure conditioned on a commutator-trace fiber, and the
transport of a fiber under squaring the first generator.

Every sampler works on flat arrays of quaternion components (w, x, y, z),
one numpy pass per block of Haar pairs or per fiber, so no per-sample Python
code runs.  Products go through su2_core.quaternion_product and every
commutator trace is the closed form su2_core.commutator_trace.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .su2_core import (
    _unit_components,
    _unit_pairs,
    commutator_trace,
    haar_quaternions,
    quaternion_product,
)

_HAAR_BLOCK = 1 << 14  # pairs per block of the Haar pushforward


def _haar_fricke_chunks(rng: np.random.Generator, count: int):
    """(x, t) coordinates of `count` Haar pairs, yielded in blocks of at most
    _HAAR_BLOCK pairs.

    Each block of n pairs is one draw rng.standard_normal((2 n, 4)), made
    into unit quaternions by su2_core._unit_components: its first n rows are
    the first elements a and its last n rows the second elements b.  The
    draws run on one worker thread, one block ahead of the block being read;
    the draw releases the GIL, so the reader's arithmetic runs beside it,
    and future.result() raises a draw's exception in the reader.  A call
    reads exactly the first 2 * count rows of rng's stream, since a row of
    norm < 1e-12 is redrawn from a child generator.  The worker is joined
    when the generator is exhausted, closed or left by an exception.
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded only by calls that draw pairs

    def draw(start):
        return pool.submit(rng.standard_normal, (2 * min(_HAAR_BLOCK, count - start), 4))

    with ThreadPoolExecutor(1) as pool:
        ahead = draw(0)
        for start in range(0, count, _HAAR_BLOCK):
            normals = ahead.result()
            ahead = draw(start + _HAAR_BLOCK) if start + _HAAR_BLOCK < count else None
            q = _unit_components(rng, normals)
            del normals  # copied into q; only the draw ahead stays live
            n = q.shape[1] // 2
            yield 2.0 * q[0, :n], commutator_trace(q[1:, :n], q[1:, n:])


@dataclass(frozen=True, eq=False)
class Histogram2D:
    """Binned counts of (x, t) samples over [-2, 2]^2."""

    counts: np.ndarray
    bins_per_axis: int
    total: int
    seed: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ValueError("histogram counts do not sum to the sample total")

    @property
    def x_edges(self) -> np.ndarray:
        return np.linspace(-2.0, 2.0, self.bins_per_axis + 1)

    @property
    def t_edges(self) -> np.ndarray:
        return np.linspace(-2.0, 2.0, self.bins_per_axis + 1)


def _cell_counts(xs, ts, bins: int) -> np.ndarray:
    """Counts of the points (x, t), clipped to [-2, 2]^2, in the cells of
    np.histogram2d over the same linspace edges: a cell index from one
    multiply, corrected against those edges, replaces the binary search."""
    edges = np.linspace(-2.0, 2.0, bins + 1)
    cells = np.zeros(len(xs), dtype=np.intp)
    for values in (xs, ts):
        v = np.clip(values, -2.0, 2.0)
        index = ((v + 2.0) * (bins / 4.0)).astype(np.intp)
        np.minimum(index, bins - 1, out=index)
        index -= v < edges[index]
        index += v >= edges[index + 1]
        np.minimum(index, bins - 1, out=index)  # x = 2 closes the last cell
        cells *= bins
        cells += index
    return np.bincount(cells, minlength=bins * bins).reshape(bins, bins)


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
    with closing(_haar_fricke_chunks(rng, sample_count)) as chunks:
        for xs, ts in chunks:
            counts += _cell_counts(xs, ts, bins)
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

    The arc is symmetric, so x is replaced by |x|.  Stationary points of the
    squared distance solve the depressed cubic u^3 + p u + q = 0 with
    p = -(3 + 2 t) / 2 and q = -|x| / 2 <= 0, so by Vieta's formulas every
    real root but the largest is <= 0.  On [0, inf) the squared distance
    falls until the largest root and rises after it, and no u < 0 is nearer
    than -u; the nearest arc point is that root clipped to [0, 2].
    """
    x = np.abs(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    p = -(3.0 + 2.0 * t) / 2.0
    q = -x / 2.0
    s = q * q / 4.0 + p**3 / 27.0
    one_root = s >= 0.0

    # Cardano where s >= 0; the trigonometric k = 0 root where s < 0, which forces p < 0
    root_s = np.sqrt(np.maximum(s, 0.0))
    u_card = np.cbrt(-q / 2.0 + root_s) + np.cbrt(-q / 2.0 - root_s)
    p_safe = np.where(one_root, -1.0, p)
    m = 2.0 * np.sqrt(-p_safe / 3.0)
    u_trig = m * np.cos(np.arccos(np.clip(3.0 * q / (p_safe * m), -1.0, 1.0)) / 3.0)
    u = np.clip(np.where(one_root, u_card, u_trig), 0.0, 2.0)
    return np.sqrt((u - x) ** 2 + (u * u - 2.0 - t) ** 2)


def boundary_distance(x, t):
    """Distance from (x, t) to the boundary set of D.

    The boundary is the parabola arc {t = x^2 - 2} together with the edges
    {|x| = 2} and {t = +-2} of the ambient square.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    edge = np.minimum(2.0 - np.abs(x), 2.0 - np.abs(t))
    return np.minimum(_parabola_segment_distance(x, t), edge)


def _count_near(xs, ts, delta: float) -> int:
    """Number of points (x, t) with boundary_distance <= delta; see
    boundary_mass for the prefilter.  Its temporaries die on return, before
    the next block is drawn."""
    gap = np.abs(ts - (xs * xs - 2.0))
    slope = 2.0 * np.minimum(2.0, np.abs(xs) + gap)
    keep = gap <= (delta * (1.0 + 1e-9) + 1e-12) * np.sqrt(1.0 + slope * slope)
    keep |= np.minimum(2.0 - np.abs(xs), 2.0 - np.abs(ts)) <= delta
    near = np.flatnonzero(keep)
    return int(np.count_nonzero(boundary_distance(xs[near], ts[near]) <= delta))


def boundary_mass(sample_count: int, delta: float, seed: int) -> float:
    """Fraction of Haar pushforward samples within delta of the boundary of D.

    The count is that of boundary_distance(xs, ts) <= delta over all samples,
    but the distance runs only on the points a conservative bound cannot
    exclude.  With the vertical gap g = |t - (x^2 - 2)|, the arc point
    (x, x^2 - 2) is g away, so for |x| <= 2 the nearest arc point (u, u^2 - 2)
    has |u - x| <= g, and the arc's slope between x and u is at most
    L = 2 min(2, |x| + g).  Then g <= |t - (u^2 - 2)| + L |u - x|, and by
    Cauchy-Schwarz the arc distance is at least g / sqrt(1 + L^2).  A point
    is kept when g <= (delta (1 + 1e-9) + 1e-12) sqrt(1 + L^2) or its edge
    distance min(2 - |x|, 2 - |t|) (the same floats as boundary_distance)
    is <= delta; points with |x| > 2 always pass the edge test.  The fixed
    margins, 1e-9 relative and 1e-12 absolute, are far wider than the
    rounding of g, L and the computed distance (about 1e-15 absolute), so no
    point whose computed distance is <= delta is dropped, and as
    boundary_distance works point by point, the count is exact.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    with closing(_haar_fricke_chunks(rng, sample_count)) as chunks:
        hits = sum(_count_near(xs, ts, delta) for xs, ts in chunks)
    return hits / sample_count


# ---------------------------------------------------------------------------
# Fiber sampling and transport
# ---------------------------------------------------------------------------


def _fiber_components(t: float, count: int, seed: int):
    """Quaternion components ((w, x, y, z) of a, (w, x, y, z) of b), as arrays,
    of `count` pairs drawn from Haar measure given tr[a, b] = t, in the frame
    where a = (sin angle, cos angle, 0, 0), and the generator of the
    conjugators; see sample_fiber for the law and its random streams."""
    t = float(t)
    if not -2.0 <= t <= 2.0:
        raise ValueError(f"t = {t!r} must lie in [-2, 2]")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng_frame, rng_conj = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    u = rng_frame.random((3, count))
    angle = np.arccos(np.sqrt(2.0 - t) / 2.0) * (2.0 * u[0] - 1.0)
    cos = np.cos(angle)
    r = np.minimum(1.0, (2.0 - t) / (4.0 * cos * cos))
    along, across = np.sqrt(1.0 - r), np.sqrt(r)
    psi = 2.0 * np.pi * u[1:]
    zero = np.zeros(count)
    a = (np.sin(angle), cos, zero, zero)
    b = (along * np.cos(psi[0]), along * np.sin(psi[0]), across * np.cos(psi[1]), across * np.sin(psi[1]))
    return (a, b), rng_conj


def sample_fiber(t: float, count: int, seed: int) -> np.ndarray:
    """Pairs drawn from Haar measure conditioned on tr([a, b]) = t, as a
    (count, 8) array: row i is (w, x, y, z) of a, then of b, of pair i.

    Conjugate a Haar pair so that a = cos(theta) + sin(theta) i, and let r be
    the squared norm of the part of Im b across i.  Under Haar measure theta
    has density (2/pi) sin^2(theta) on [0, pi], r is uniform on [0, 1] and
    independent of theta, and both phases of b are uniform; t = 2 - 4
    sin^2(theta) r.  Given t, theta is therefore uniform on
    [theta0, pi - theta0] with sin^2(theta0) = (2 - t)/4, and
    r = (2 - t)/(4 sin^2(theta)).  The draw centres theta at pi/2: with
    angle = pi/2 - theta uniform on [-h, h], h = arccos(sqrt(2 - t)/2),

        a = (sin angle, cos angle, 0, 0),
        b = (sqrt(1-r) cos psi1, sqrt(1-r) sin psi1, sqrt(r) cos psi2, sqrt(r) sin psi2),

    with psi1, psi2 uniform phases, and each pair is then conjugated by an
    independent Haar element.  cos(angle) > 0, so r needs no guard but the
    clip to 1; at t = -2, h = 0 and a = i exactly, and at t = 2, r = 0 and
    every pair commutes exactly.

    The seed is split by SeedSequence.spawn(2): the first stream gives one
    rng.random((3, count)) draw of (angle, psi1, psi2), the second the
    Haar conjugators.  An element off unit norm raises SU2Element's ValueError.
    """
    (a, b), rng_conj = _fiber_components(t, count, seed)
    k = tuple(haar_quaternions(rng_conj, count).T)
    k_inverse = (k[0], -k[1], -k[2], -k[3])
    # the columns (w, x, y, z) of k a k^-1, then of k b k^-1
    columns = [c for g in (a, b) for c in quaternion_product(quaternion_product(k, g), k_inverse)]
    return _unit_pairs(np.column_stack(columns))


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

    The pairs are those of sample_fiber, so tr([a^2, b]) = 2 - x^2 (2 - t)
    with x = tr(a) = 2 sin(angle), angle uniform on [-h, h]: the values
    lie in [t^2 - 2, 2] and have the distribution function
    F(v) = 1 - arcsin(sqrt((2 - v) / (4 (2 - t)))) / h there (t < 2).
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    # tr([a^2, b]) is unchanged by simultaneous conjugation, so the pairs
    # are not conjugated
    (a, b), _ = _fiber_components(t, count, seed)
    values = commutator_trace(quaternion_product(a, a)[1:], b[1:])
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
