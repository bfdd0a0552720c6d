"""Trace coordinates for pairs: the plane domain D, the solid region Omega,
the quadratic trace identities, and the explicit inverse constructions.

Coordinates used throughout:

    x = tr(a),  y = tr(b),  z = tr(ab),  t = tr([a, b])

The realizable loci are

    D     = {(x, t) in [-2, 2]^2 : x^2 - 2 <= t}
    Omega = {(x, y, z) in [-2, 2]^3 : x^2 + y^2 + z^2 - x*y*z - 4 <= 0}

and the two are linked by t = x^2 + y^2 + z^2 - x*y*z - 2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .su2_core import (
    IDENTITY,
    Pair,
    SU2Element,
    commutator,
    multiply,
    pair_from_matrix_spec,
    trace,
)

MEMBERSHIP_TOL = 1e-12
CONSTRUCTION_TOL = 1e-10


class FrickeCoord(NamedTuple):
    """A point (x, t) = (tr(a), tr([a, b])) in the domain D."""

    x: float
    t: float


class TraceTriple(NamedTuple):
    """A point (x, y, z) = (tr(a), tr(b), tr(ab)) in the region Omega."""

    x: float
    y: float
    z: float


def in_domain_D(x: float, t: float, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership in D with one-sided boundary tolerance."""
    return (
        abs(x) <= 2.0 + tol
        and abs(t) <= 2.0 + tol
        and x * x - 2.0 <= t + tol
    )


def in_omega(x, y, z, tol: float = MEMBERSHIP_TOL):
    """Membership in Omega with one-sided boundary tolerance.  Accepts
    scalars or arrays."""
    return (
        (abs(x) <= 2.0 + tol)
        & (abs(y) <= 2.0 + tol)
        & (abs(z) <= 2.0 + tol)
        & (x * x + y * y + z * z - x * y * z - 4.0 <= tol)
    )


def pi_map(pair: Pair) -> FrickeCoord:
    """Project a pair to (tr(a), tr([a, b])); the image is always in D."""
    return FrickeCoord(trace(pair.a), trace(commutator(pair.a, pair.b)))


def trace_of_square(x):
    """tr(a^2) = x^2 - 2 where x = tr(a).  Accepts scalars or arrays."""
    return x * x - 2.0


def commutator_trace_of_square(x, t):
    """tr([a^2, b]) = x^2 (t - 2) + 2.  Accepts scalars or arrays."""
    return x * x * (t - 2.0) + 2.0


def phi(coord) -> FrickeCoord:
    """The plane map (x, t) -> (x^2 - 2, x^2 (t - 2) + 2) induced on D
    by squaring the first generator."""
    x, t = coord
    return FrickeCoord(trace_of_square(x), commutator_trace_of_square(x, t))


def fricke_commutator_trace(x, y, z):
    """tr([a, b]) = x^2 + y^2 + z^2 - x*y*z - 2 from the traces of a, b, ab.

    Accepts scalars or arrays.
    """
    return x * x + y * y + z * z - x * y * z - 2.0


def construct_pair_from_fricke(x: float, t: float) -> Pair:
    """Explicit pair with tr(a) = x and tr([a, b]) = t, for (x, t) in D.

    With x = 2 cos(angle), angle in [0, pi], and s = (2 - t) / (4 - x^2):

        a = diag(e^{i angle}, e^{-i angle})
        b = [[sqrt(1-s), -sqrt(s)], [sqrt(s), sqrt(1-s)]]

    At |x| = 2 the domain forces t = 2 and the pair is (+-I, I).

    Raises DomainError when (x, t) lies outside D beyond tolerance.
    """
    x = float(x)
    t = float(t)
    if not in_domain_D(x, t):
        raise DomainError(f"(x, t) = ({x!r}, {t!r}) is not in D: requires x^2 - 2 <= t")
    if abs(x) >= 2.0 - 1e-15:
        sign = 1.0 if x > 0 else -1.0
        return Pair(SU2Element(sign + 0.0j, 0.0j), IDENTITY)
    angle = math.acos(min(1.0, max(-1.0, x / 2.0)))
    s = (2.0 - t) / (4.0 - x * x)
    s = min(1.0, max(0.0, s))
    a = SU2Element(complex(math.cos(angle), math.sin(angle)), 0.0j)
    b = SU2Element(complex(math.sqrt(1.0 - s), 0.0), complex(-math.sqrt(s), 0.0))
    return Pair(a, b)


def construct_components_from_traces(x, y, z):
    """Components (alpha_a, beta_a, alpha_b, beta_b) of pairs with traces
    (tr(a), tr(b), tr(ab)) = (x, y, z) in Omega, one pair per array entry.

    Puts a = diag(e^{i angle}, e^{-i angle}) with x = 2 cos(angle) and solves
    the two linear conditions on the (1, 1) entry p of b:

        Re(p) = y / 2
        cos(angle) Re(p) - sin(angle) Im(p) = z / 2

    then completes b with the real nonnegative off-diagonal sqrt(1 - |p|^2);
    |p| <= 1 is exactly the Omega inequality.  cos(angle) is taken as x / 2
    itself, so tr(a) = x holds exactly.

    Entries with |x| = 2 (a = +-I) require z = sign(x) * y and get b as the
    real rotation with trace y.

    Takes scalars or 1-D arrays of one length and returns four complex 1-D
    arrays.  Raises DomainError, naming the first offending entry, when a
    triple lies outside Omega beyond tolerance.
    """
    x, y, z = (np.asarray(v, dtype=float).ravel() for v in (x, y, z))

    def refuse(bad, message):
        if bad.any():
            raise DomainError(message(*(float(v[np.argmax(bad)]) for v in (x, y, z))))

    refuse(~in_omega(x, y, z), lambda x, y, z: (
        f"(x, y, z) = ({x!r}, {y!r}, {z!r}) is not in Omega: "
        "requires x^2 + y^2 + z^2 - x*y*z - 4 <= 0"
    ))
    edge = np.abs(x) >= 2.0 - 1e-15
    sign = np.where(x > 0, 1.0, -1.0)
    refuse(edge & (np.abs(z - sign * y) > CONSTRUCTION_TOL), lambda x, y, z: (
        f"with a = {'+' if x > 0 else '-'}I the trace of ab is forced "
        f"to {(1.0 if x > 0 else -1.0) * y!r}, but z = {z!r} was requested"
    ))
    cos_a = np.clip(x / 2.0, -1.0, 1.0)
    sin_a = np.sqrt((1.0 - cos_a) * (1.0 + cos_a))
    re_p = y / 2.0
    im_p = (cos_a * re_p - z / 2.0) / np.where(edge, 1.0, sin_a)
    q_sq = 1.0 - np.hypot(re_p, im_p) ** 2
    refuse(~edge & (q_sq < -1e-9), lambda x, y, z: (
        f"no unitary completion for (x, y, z) = ({x!r}, {y!r}, {z!r})"
    ))
    half = np.clip(re_p, -1.0, 1.0)
    alpha_a = np.where(edge, sign, cos_a + 1j * sin_a)
    alpha_b = np.where(edge, half + 0j, re_p + 1j * im_p)
    beta_b = np.where(edge, -np.sqrt(1.0 - half * half), np.sqrt(np.maximum(0.0, q_sq)))
    return alpha_a, np.zeros_like(alpha_a), alpha_b, beta_b + 0j


def construct_pair_from_traces(x: float, y: float, z: float) -> Pair:
    """Explicit pair with traces (tr(a), tr(b), tr(ab)) = (x, y, z) in Omega,
    built by construct_components_from_traces; raises DomainError outside."""
    alpha_a, beta_a, alpha_b, beta_b = (
        complex(c[0]) for c in construct_components_from_traces(x, y, z)
    )
    return Pair(SU2Element(alpha_a, beta_a), SU2Element(alpha_b, beta_b))


def pair_from_spec(spec: dict) -> Pair:
    """Decode any of the three pair-spec record forms into a Pair.

    Supported types: "matrix" (raw components), "fricke" (keys x, t), and
    "traces" (keys x, y, z).
    """
    kind = spec.get("type")
    if kind == "matrix":
        return pair_from_matrix_spec(spec)
    if kind == "fricke":
        return construct_pair_from_fricke(float(spec["x"]), float(spec["t"]))
    if kind == "traces":
        return construct_pair_from_traces(
            float(spec["x"]), float(spec["y"]), float(spec["z"])
        )
    raise ValueError(f"unknown pair-spec type {kind!r}")


def trace_triple(pair: Pair) -> TraceTriple:
    """(tr(a), tr(b), tr(ab)) for a pair."""
    return TraceTriple(
        trace(pair.a), trace(pair.b), trace(multiply(pair.a, pair.b))
    )
