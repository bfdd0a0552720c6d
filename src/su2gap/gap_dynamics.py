"""Dynamics of the induced plane map and word-map orbits of pairs.

The map phi(x, t) = (x^2 - 2, x^2 (t - 2) + 2) acts on the domain D.  Its
restriction to the t-axis endpoint sequence t -> t^2 - 2 is the degree-2
Chebyshev map; every start below 2 eventually falls below 0, which is the
escape behaviour recorded here.  Word-map orbits track how far a single pair
spreads through D under elementary moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .su2_core import Pair, commutator_trace, inverse, multiply, quaternion_product

DEFAULT_MAX_STEPS = 64
ORBIT_DEDUP_GRID = 1e-6


@dataclass(frozen=True)
class EscapeRecord:
    """Orbit of t under t -> t^2 - 2 up to the first negative value.

    steps_to_negative is the index of the first orbit entry below 0, or
    None when max_steps iterations never produced one ("not-reached";
    only the fixed point t0 = 2 behaves this way on [-2, 2]).
    """

    t0: float
    orbit: tuple[float, ...]
    steps_to_negative: int | None


def iterate_phi_endpoint(t0: float, max_steps: int = DEFAULT_MAX_STEPS) -> EscapeRecord:
    """Iterate t -> t^2 - 2 from t0 until the value is strictly negative.

    A value of exactly 0 keeps iterating (it maps to -2 next step).
    """
    t0 = float(t0)
    if not -2.0 <= t0 <= 2.0:
        raise ValueError(f"t0 = {t0!r} must lie in [-2, 2]")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    orbit = [t0]
    steps = 0 if t0 < 0.0 else None
    while steps is None and len(orbit) - 1 < max_steps:
        nxt = orbit[-1] * orbit[-1] - 2.0
        orbit.append(nxt)
        if nxt < 0.0:
            steps = len(orbit) - 1
    return EscapeRecord(t0, tuple(orbit), steps)


def fiber_image_interval(t: float) -> tuple[float, float]:
    """Projection onto the t-axis of phi applied to the fiber over t.

    The fiber is {(x, t) : x^2 <= t + 2}; its image projects to exactly
    [t^2 - 2, 2].
    """
    t = float(t)
    if not -2.0 <= t <= 2.0:
        raise ValueError(f"t = {t!r} must lie in [-2, 2]")
    return (t * t - 2.0, 2.0)


def fiber_image_numeric(t: float, grid_points: int) -> tuple[float, float]:
    """Endpoints of the fiber image computed by evaluating phi on a grid.

    Matches fiber_image_interval up to the grid resolution; the lower
    endpoint is exact because the grid contains x = +-sqrt(t + 2).
    """
    t = float(t)
    if not -2.0 <= t <= 2.0:
        raise ValueError(f"t = {t!r} must lie in [-2, 2]")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    half_width = math.sqrt(max(t + 2.0, 0.0))
    xs = np.linspace(-half_width, half_width, grid_points)
    second = xs * xs * (t - 2.0) + 2.0
    return (float(second.min()), float(second.max()))


class Move(Enum):
    """Elementary word-map moves on a pair (a, b)."""

    SQUARE_FIRST = "S"
    SWAP_GENERATORS = "X"
    INVERT_FIRST = "I"
    MULTIPLY_FIRST_BY_SECOND = "M"


MOVES = tuple(Move)
_MOVE_CODES = "".join(move.value for move in MOVES)


def apply_move(pair: Pair, move: Move) -> Pair:
    """Apply one move; every image lies in the subgroup generated by the pair."""
    a, b = pair
    if move is Move.SQUARE_FIRST:
        return Pair(multiply(a, a), b)
    if move is Move.SWAP_GENERATORS:
        return Pair(b, a)
    if move is Move.INVERT_FIRST:
        return Pair(inverse(a), b)
    if move is Move.MULTIPLY_FIRST_BY_SECOND:
        return Pair(multiply(a, b), b)
    raise ValueError(f"unknown move {move!r}")


@dataclass(frozen=True, eq=False)
class Orbit:
    """A word-map orbit in breadth-first order: point i is reached by the
    moves in paths[i] and lies at (x[i], t[i])."""

    paths: list[str]
    x: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return len(self.paths)


def _dedup_keys(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One int64 per 1e-6 cell of (x, t), one to one as |t| < 2^31 * 1e-6."""
    kx, kt = (np.rint(v / ORBIT_DEDUP_GRID).astype(np.int64) for v in (x, t))
    return kx * (1 << 32) + kt


def _new_cells(keys: np.ndarray, seen: np.ndarray) -> tuple:
    """The distinct keys not in seen, ascending, and each one's first index in
    keys, its smallest: so any argsort serves, not only np.unique's stable
    one, which takes about five times as long on 60,000 keys."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    cells, first = keys[starts], np.minimum.reduceat(order, starts)
    del keys, order, starts  # np.isin's arrays reuse their space: a lower peak RSS
    new = ~np.isin(cells, seen, assume_unique=True)
    return cells[new], first[new]


def wordmap_orbit(pair: Pair, depth: int, max_points: int = 10000) -> Orbit:
    """Breadth-first closure of a pair under the four moves.

    Points are deduplicated by rounding Fricke coordinates to the 1e-6 grid
    (coordinates, not matrices, are what the downstream analysis consumes).
    Expansion order is deterministic: frontier in insertion order, moves in
    declaration order, each new cell kept at its first candidate (of least
    index) at its depth, up to max_points.
    Each depth is one numpy pass with the rounding of apply_move and pi_map,
    exact to the bit; generators are kept only for the next depth's frontier.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if max_points < 1:
        raise ValueError("max_points must be at least 1")
    a, b = (tuple(np.array([v]) for v in g.quaternion) for g in pair)
    x, t = 2.0 * a[0], commutator_trace(a[1:], b[1:])
    seen = _dedup_keys(x, t)
    paths, frontier = [""], [""]
    levels = [(x, t)]
    for _ in range(depth):
        if len(paths) >= max_points:
            break
        # the frontier's images under MOVES in order S, X, I, M: candidate i
        # is move i % 4 of frontier point i // 4
        square, product = quaternion_product(a, a), quaternion_product(a, b)
        images = ((square, b), (b, a), ((a[0], -a[1], -a[2], -a[3]), b), (product, b))
        coords = zip(*((2.0 * g[0], commutator_trace(g[1:], h[1:])) for g, h in images))
        x, t = (np.stack(c, axis=1).ravel() for c in coords)
        cells, first = _new_cells(_dedup_keys(x, t), seen)
        fresh = np.sort(first)[: max_points - len(paths)]
        if fresh.size == 0:
            break
        # not np.union1d: its first call imports numpy.ma, about 26 ms
        seen = np.concatenate([seen, cells])
        a, b = (
            tuple(np.stack(c)[fresh & 3, fresh >> 2] for c in zip(*(im[k] for im in images)))
            for k in (0, 1)
        )
        x, t = x[fresh], t[fresh]
        del square, product, images
        frontier = [frontier[i >> 2] + _MOVE_CODES[i & 3] for i in fresh.tolist()]
        paths += frontier
        levels.append((x, t))
    x, t = (np.concatenate(column) for column in zip(*levels))
    return Orbit(paths, x, t)
