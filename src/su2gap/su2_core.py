"""SU(2) group arithmetic, Haar sampling, and free-group word evaluation.

Elements are stored as the complex pair (alpha, beta) of the matrix

    [[alpha, beta], [-conj(beta), conj(alpha)]],      |alpha|^2 + |beta|^2 = 1,

or as the unit quaternion (w, x, y, z) = (Re alpha, Im alpha, Re beta,
Im beta).  One product on those real components serves single elements and
arrays of them alike, and every product is divided by its norm, so the
unit-norm invariant holds to rounding however long a product gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

APPROX_TOL = 1e-10
_ROW_BLOCK = 1 << 14  # rows per draw of haar_quaternions


@dataclass(frozen=True)
class SU2Element:
    """One special unitary 2x2 matrix, parametrized by its first row."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not (math.isfinite(norm_sq) and abs(norm_sq - 1.0) <= 1e-9):
            raise ValueError(
                f"not special unitary: |alpha|^2 + |beta|^2 = {norm_sq!r}; "
                "use SU2Element.from_quaternion to normalize arbitrary input"
            )

    @classmethod
    def identity(cls) -> "SU2Element":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    @classmethod
    def from_quaternion(cls, w: float, x: float, y: float, z: float) -> "SU2Element":
        """Element for the quaternion w + xi + yj + zk, normalized to unit norm."""
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if norm < 1e-12:
            raise ValueError("quaternion too close to zero to normalize")
        return cls(complex(w / norm, x / norm), complex(y / norm, z / norm))

    @property
    def quaternion(self) -> tuple[float, float, float, float]:
        """The components (w, x, y, z) = (Re alpha, Im alpha, Re beta, Im beta)."""
        return self.alpha.real, self.alpha.imag, self.beta.real, self.beta.imag

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 complex matrix [[alpha, beta], [-conj(beta), conj(alpha)]]."""
        return np.array(
            [
                [self.alpha, self.beta],
                [-self.beta.conjugate(), self.alpha.conjugate()],
            ]
        )

    def isclose(self, other: "SU2Element", tol: float = APPROX_TOL) -> bool:
        """Componentwise comparison within tolerance (all products are floats)."""
        return (
            abs(self.alpha - other.alpha) <= tol
            and abs(self.beta - other.beta) <= tol
        )

    def __mul__(self, other: "SU2Element") -> "SU2Element":
        return multiply(self, other)


IDENTITY = SU2Element.identity()


class Pair(NamedTuple):
    """An ordered pair of SU(2) elements."""

    a: SU2Element
    b: SU2Element


def quaternion_product(g: tuple, h: tuple) -> tuple:
    """Product g*h of elements given as (w, x, y, z) components, each a float
    or an array, divided by its norm; floats and array rows round alike."""
    gw, gx, gy, gz = g
    hw, hx, hy, hz = h
    w = (gw * hw - gx * hx) - (gy * hy + gz * hz)
    x = (gw * hx + gx * hw) - (gz * hy - gy * hz)
    y = (gw * hy - gx * hz) + (gy * hw + gz * hx)
    z = (gw * hz + gx * hy) + (gz * hw - gy * hx)
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    return w / norm, x / norm, y / norm, z / norm


def commutator_trace(u: tuple, v: tuple):
    """tr(a b a^-1 b^-1) = 2 - 4 |u x v|^2 for unit quaternions a and b with
    imaginary parts u = (x, y, z) and v, each a float or an array, one cross
    component at a time."""
    norm_sq = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        c = u[j] * v[k] - u[k] * v[j]
        norm_sq = norm_sq + c * c
    return 2.0 - 4.0 * norm_sq


def multiply(g: SU2Element, h: SU2Element) -> SU2Element:
    """Matrix product g*h, renormalized against drift."""
    w, x, y, z = quaternion_product(g.quaternion, h.quaternion)
    return SU2Element(complex(w, x), complex(y, z))


def inverse(g: SU2Element) -> SU2Element:
    """Group inverse (w, -x, -y, -z); equals the conjugate transpose."""
    return SU2Element(g.alpha.conjugate(), -g.beta)


def trace(g: SU2Element) -> float:
    """Real trace 2*Re(alpha), always in [-2, 2]."""
    return 2.0 * g.alpha.real


def commutator(a: SU2Element, b: SU2Element) -> SU2Element:
    """a * b * a^-1 * b^-1."""
    return multiply(multiply(multiply(a, b), inverse(a)), inverse(b))


def conjugate(g: SU2Element, k: SU2Element) -> SU2Element:
    """k * g * k^-1."""
    return multiply(multiply(k, g), inverse(k))


def haar_quaternions(rng: np.random.Generator, count: int) -> np.ndarray:
    """C-contiguous (count, 4) array of unit quaternions uniform on the
    3-sphere: one rng.standard_normal((count, 4)) draw, normalized in place by
    _normalize_rows _ROW_BLOCK rows at a time, so the values are those of
    q / np.linalg.norm(q, axis=1)[:, None] and a call holds one block's
    temporaries beyond its result.  A call reads exactly `count` rows of
    rng's stream; a row of norm < 1e-12 (about 1e-49 per row) is redrawn from
    a child generator of its block.
    """
    q = rng.standard_normal((count, 4))
    for start in range(0, count, _ROW_BLOCK):
        _normalize_rows(rng, q[start : start + _ROW_BLOCK])
    return q


def _normalize_rows(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    """The (rows, 4) draw `q` with each row divided by its norm, in place.

    The norm is summed in np.linalg.norm's order, ((w^2 + x^2) + y^2) + z^2.
    Rows of norm < 1e-12 are redrawn, in row order and all at once per pass,
    until none is left, from one child generator rng.spawn(1)[0], spawned
    only when such a row occurs, so the call reads nothing more of rng's
    own stream.
    """
    w, x, y, z = q.T
    child = None
    while True:
        norms = np.sqrt(((w * w + x * x) + y * y) + z * z)
        bad = norms < 1e-12
        if not bad.any():
            break
        child = child or rng.spawn(1)[0]
        q[bad] = child.standard_normal((int(bad.sum()), 4))
    q /= norms[:, None]
    return q


def _unit_pairs(pairs: np.ndarray) -> np.ndarray:
    """`pairs`, rows of (w, x, y, z) of a then of b, once every element passes
    SU2Element's check in the same floats; the first that fails raises its ValueError."""
    w, x, y, z = pairs.reshape(-1, 4).T
    bad = np.flatnonzero(~(np.abs(np.hypot(w, x) ** 2 + np.hypot(y, z) ** 2 - 1.0) <= 1e-9))
    for i in bad[:1]:  # SU2Element raises for the first
        SU2Element(complex(w[i], x[i]), complex(y[i], z[i]))
    return pairs


def haar_sample(rng: np.random.Generator) -> SU2Element:
    """One element distributed by normalized Haar measure."""
    w, x, y, z = haar_quaternions(rng, 1)[0]
    return SU2Element(complex(w, x), complex(y, z))


def haar_pair(rng: np.random.Generator) -> Pair:
    """Two independent Haar elements."""
    return Pair(haar_sample(rng), haar_sample(rng))


# ---------------------------------------------------------------------------
# Free-group words on two generators
# ---------------------------------------------------------------------------

# Letter codes: 1 = a, -1 = a^-1, 2 = b, -2 = b^-1.
_CHAR_TO_LETTER = {"a": 1, "A": -1, "b": 2, "B": -2}
_LETTER_TO_CHAR = {1: "a", -1: "A", 2: "b", -2: "B"}


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence by cancelling adjacent inverses."""
    stack: list[int] = []
    for let in letters:
        if let not in _LETTER_TO_CHAR:
            raise ValueError(f"invalid letter code {let!r}")
        if stack and stack[-1] == -let:
            stack.pop()
        else:
            stack.append(let)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group on two generators.

    Strings use lowercase a, b for the generators and uppercase A, B for
    their inverses, e.g. "abAB" is the commutator word.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for let in self.letters:
            if let not in _LETTER_TO_CHAR:
                raise ValueError(f"invalid letter code {let!r}")
        for prev, nxt in zip(self.letters, self.letters[1:]):
            if prev == -nxt:
                raise ValueError("word is not freely reduced")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        letters = []
        for ch in text:
            if ch.isspace():
                continue
            if ch not in _CHAR_TO_LETTER:
                raise ValueError(f"invalid word character {ch!r}; expected a, A, b, B")
            letters.append(_CHAR_TO_LETTER[ch])
        return cls(reduce_letters(letters))

    def to_string(self) -> str:
        return "".join(_LETTER_TO_CHAR[let] for let in self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-let for let in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation followed by free reduction."""
        return Word(reduce_letters(self.letters + other.letters))

    def __len__(self) -> int:
        return len(self.letters)


def evaluate_word(word: Word, pair: Pair) -> SU2Element:
    """Substitute the pair into the word and multiply left to right.

    The empty word evaluates to the identity.
    """
    images = {
        1: pair.a,
        -1: inverse(pair.a),
        2: pair.b,
        -2: inverse(pair.b),
    }
    result = IDENTITY
    for let in word.letters:
        result = multiply(result, images[let])
    return result
