"""Quaternion algebra over double-precision reals.

Scalar values are ``Quaternion`` instances (components w, x, y, z for the
scalar part and the i, j, k parts); an axis is one with zero scalar part
and unit length, as ``PureUnitQuaternion`` returns it.  Bulk data lives
in numpy arrays of shape (..., 4) with the same component order; the
``*_arr`` functions operate on those, and a ``QuaternionField2D`` holds
one sampled 2D field, an n1 x n2 grid of shape (n1, n2, 4).

>>> mul(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))
Quaternion(w=0.0, x=0.0, y=0.0, z=1.0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ZeroQuaternion(ZeroDivisionError):
    """Inverse of the zero quaternion was requested."""


@dataclass(frozen=True)
class Quaternion:
    """One element of the quaternion algebra, w + x*i + y*j + z*k."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"non-finite component {name}={v!r}")
            object.__setattr__(self, name, v)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return mul(self, other)
        return Quaternion(self.w * other, self.x * other,
                          self.y * other, self.z * other)

    def __rmul__(self, other) -> "Quaternion":
        return Quaternion(other * self.w, other * self.x,
                          other * self.y, other * self.z)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = (float(c) for c in a)
        return cls(w, x, y, z)


def PureUnitQuaternion(x: float, y: float, z: float) -> Quaternion:
    """The pure unit quaternion along (x, y, z), e.g. an axis.

    The direction is divided by its length and the scalar part is exactly
    zero; a direction already unit within 4 ulps is kept as it is, so
    normalizing an axis again gives back its bits.  Directions shorter
    than 1e-9 are rejected as undefined.

    >>> PureUnitQuaternion(0.0, 0.0, 2.0)
    Quaternion(w=0.0, x=0.0, y=0.0, z=1.0)
    """
    x, y, z = float(x), float(y), float(z)
    m = math.hypot(x, y, z)
    if math.isinf(m) and all(map(math.isfinite, (x, y, z))):
        # the length overflows, not the direction: scale the largest to 1
        s = max(abs(x), abs(y), abs(z))
        x, y, z = x / s, y / s, z / s
        m = math.hypot(x, y, z)
    if not math.isfinite(m) or m < 1e-9:
        raise ValueError(f"axis direction undefined: ({x}, {y}, {z})")
    if abs(m - 1.0) > 4 * math.ulp(1.0):  # more than a division by m leaves
        x, y, z = x / m, y / m, z / m
    return Quaternion(0.0, x, y, z)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
QI = Quaternion(0.0, 1.0, 0.0, 0.0)
QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)
ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product, via ij = k, jk = i, ki = j and anticommutation.

    >>> mul(QJ, QI)
    Quaternion(w=0.0, x=0.0, y=0.0, z=-1.0)
    """
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def conj(q: Quaternion) -> Quaternion:
    """Quaternion conjugate: negates the i, j, k parts.

    Anti-automorphism: conj(p*q) == conj(q)*conj(p).
    """
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def norm(q: Quaternion) -> float:
    """Euclidean length, finite wherever it fits in a double; multiplicative over mul."""
    return math.hypot(q.w, q.x, q.y, q.z)


def scalar_part(q: Quaternion) -> float:
    """The w component.  Sc(pq) == Sc(qp) for all p, q."""
    return q.w


def inner(p: Quaternion, q: Quaternion) -> float:
    """R^4 inner product Sc(p*conj(q)) = componentwise dot product.

    >>> inner(Quaternion(1, 2, 0, 0), Quaternion(3, 4, 0, 0))
    11.0
    """
    return p.w * q.w + p.x * q.x + p.y * q.y + p.z * q.z


def inverse(q: Quaternion) -> Quaternion:
    """conj(q) / norm(q) / norm(q): the squared norm, which can overflow or
    underflow where q's inverse does not, is never formed.  Raises ZeroQuaternion on 0."""
    n = norm(q)
    if n == 0.0:
        raise ZeroQuaternion("zero quaternion has no inverse")
    return Quaternion(q.w / n / n, -q.x / n / n, -q.y / n / n, -q.z / n / n)


def exp_pure(f: Quaternion, angle: float) -> Quaternion:
    """cos(angle) + sin(angle)*f for a pure unit axis f; a unit quaternion.

    >>> exp_pure(QI, 0.0)
    Quaternion(w=1.0, x=0.0, y=0.0, z=0.0)
    """
    c, s = math.cos(angle), math.sin(angle)
    return Quaternion(c, s * f.x, s * f.y, s * f.z)


# ---------------------------------------------------------------------------
# Vectorized forms on (..., 4) float arrays, component order (w, x, y, z).

@dataclass(frozen=True, eq=False)
class QuaternionField2D:
    """A row-major grid of quaternion samples; float64 data is held
    without a copy, any other is converted."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 3 or a.shape[2] != 4:
            raise ValueError(f"expected shape (n1, n2, 4), got {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"grid dimensions must be positive, got {a.shape[:2]}")
        object.__setattr__(self, "data", a)

    @property
    def n1(self) -> int:
        return self.data.shape[0]

    @property
    def n2(self) -> int:
        return self.data.shape[1]


def mul_arr(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Broadcasting Hamilton product of two (..., 4) arrays."""
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def conj_arr(q: np.ndarray) -> np.ndarray:
    return q * _CONJ_SIGNS


def norm_arr(q: np.ndarray) -> np.ndarray:
    """Per-sample Euclidean length, shape (...,); finite wherever it fits,
    as ``hypot`` never squares a component."""
    return np.hypot(np.hypot(q[..., 0], q[..., 1]), np.hypot(q[..., 2], q[..., 3]))


# Samples per block of every blocked pass of the package, FFT axis passes
# too: enough for BLAS-sized products, few enough that the blocks stay in
# cache and no pass holds a second array of the field's size.
_BLOCK = 1 << 14
# Relative margin within which a sum of squares may rank a sample below one
# of larger norm: far above the few ulps ``sq_norm_blocks`` and ``hypot`` err by.
_NEAR = 2.0 ** -40


def sq_norm_blocks(q: np.ndarray, top: float):
    """Yield ``(start, s)`` over blocks of the samples of ``q`` seen as an
    (N, 4) array: ``s[i]`` is the sum of the squared components of sample
    ``start + i`` divided by ``top``.  With ``top`` the largest |component|
    each square is at most 1, so none overflows; only one block of
    scratch is held beside ``q``."""
    flat = q.reshape(-1, 4)
    scratch = np.empty((min(_BLOCK, len(flat)), 4))
    for start in range(0, len(flat), _BLOCK):
        x = np.divide(flat[start:start + _BLOCK], top, out=scratch[:len(flat) - start])
        x *= x
        s = x[:, 0] + x[:, 1]  # column adds: several times faster than sum(axis=1)
        s += x[:, 2]
        s += x[:, 3]
        yield start, s


def max_norm_arr(q: np.ndarray) -> float:
    """``float(norm_arr(q).max())`` bit for bit, in one blocked pass.

    The scaled sums of squares of ``sq_norm_blocks`` rank the samples;
    ``norm_arr`` runs only on those within ``_NEAR`` of the largest sum so
    far, one of which has the largest norm.  Past the largest double the
    result is inf, as ``norm_arr``'s.
    """
    top = float(max(q.max(), -q.min()))
    if top == 0.0:
        return 0.0
    if not math.isfinite(top):  # NaN or inf data: no scale to divide by
        return float(norm_arr(q).max())
    flat = q.reshape(-1, 4)
    best_s = best = 0.0
    for start, s in sq_norm_blocks(q, top):
        best_s = max(best_s, float(s.max()))
        near = np.flatnonzero(s >= best_s * (1.0 - _NEAR))
        if len(near):
            best = max(best, float(norm_arr(flat[start + near]).max()))
    return best


def exp_arr(f: Quaternion, angles: np.ndarray) -> np.ndarray:
    """exp_pure over an array of angles; output shape angles.shape + (4,)."""
    angles = np.asarray(angles, dtype=np.float64)
    c = np.cos(angles)
    s = np.sin(angles)
    return np.stack([c, s * f.x, s * f.y, s * f.z], axis=-1)
