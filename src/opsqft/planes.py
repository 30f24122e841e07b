"""Orthogonal planes split of the quaternion algebra.

Two pure unit quaternions f, g decompose every quaternion as
q = q_plus + q_minus with q_pm = (q +- f q g) / 2.  The two parts live
in two mutually orthogonal 2D planes of R^4: the plus plane is spanned
by (1 + fg, f - g), the minus plane by (1 - fg, f + g).  The two-sided
map q -> f q g fixes the plus plane and negates the minus plane (a
half-turn of one plane about the other).

The pair g = +-f is accepted and flagged degenerate: for g = f the
minus plane is the complex subfield spanned by (1, f) and the plus
plane is its orthogonal complement; for g = -f the roles swap.

Right multiplication by g maps each plane onto itself for every pair,
degenerate or not, so each plane is a copy of the complex numbers with
g as the imaginary unit.  An ``OpsContext`` is the pair; from it come
the paper's plane bases and one orthonormal 4x4 frame W realizing both
copies at once.

The split parts are the projections q P+- onto the planes, with
P+ = W[:, :2] W[:, :2]^T and P- = W[:, 2:] W[:, 2:]^T.  Each map here is
one 4x4 product on (..., 4) arrays, finite wherever the data is; each
scalar function is its one-sample case, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .quat import (
    ONE,
    QI,
    QJ,
    QK,
    PureUnitQuaternion,
    Quaternion,
    conj,
    exp_pure,
    inner,
    mul,
    norm,
    scalar_part,
)

DEGENERACY_TOL = 1e-12
FRAME_TOL = 1e-9


class DegenerateContext(ValueError):
    """Operation undefined when g = +-f (a basis element vanishes)."""


class InvalidFrame(ValueError):
    """Plane-determination input frame fails orthonormality checks."""


class PlaneAssignment(Enum):
    AB_TO_MINUS = "minus"
    AB_TO_PLUS = "plus"


class SplitParts(NamedTuple):
    plus: Quaternion
    minus: Quaternion


@dataclass(frozen=True)
class OpsContext:
    """The pair (f, g) of pure unit axes, and the split geometry it fixes.

    The constructor checks f and g, normalizes them with
    ``PureUnitQuaternion`` (which keeps a unit axis's bits, so equal
    components make equal contexts, whatever object carried them) and
    derives the rest once; equality, hashing and the repr read the pair.
    degenerate_sign is 0 for a generic pair, +1 when g = f, -1 when
    g = -f; ``degenerate`` says it is not 0, and one element of each
    basis (1 + fg, f - g) and (1 - fg, f + g) is then zero.  ``frame``
    is the orthonormal 4x4 matrix with columns (u+, u+ g, u-, u- g),
    u+- a unit vector of the plus/minus plane: ``data @ frame`` gives
    the coordinates (x+, y+, x-, y-) with q_pm = u_pm (x_pm + y_pm g),
    and ``coords @ frame.T`` maps them back.
    """

    f: Quaternion
    g: Quaternion

    def __post_init__(self):
        f = _as_pure_unit(self.f, "f")
        g = _as_pure_unit(self.g, "g")
        same = max(abs(g.x - f.x), abs(g.y - f.y), abs(g.z - f.z)) <= DEGENERACY_TOL
        opposite = max(abs(g.x + f.x), abs(g.y + f.y), abs(g.z + f.z)) <= DEGENERACY_TOL
        fg = mul(f, g)
        derived = dict(f=f, g=g, degenerate_sign=1 if same else -1 if opposite else 0,
                       basis_plus=(ONE + fg, f - g), basis_minus=(ONE - fg, f + g),
                       frame=_plane_frame(f, g))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def degenerate(self) -> bool:
        return self.degenerate_sign != 0


def _as_pure_unit(q: Quaternion, name: str) -> Quaternion:
    if abs(q.w) > 1e-12:
        raise ValueError(f"{name}: not a pure quaternion: scalar part {q.w!r}")
    try:
        return PureUnitQuaternion(q.x, q.y, q.z)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def _plane_frame(f: Quaternion, g: Quaternion) -> np.ndarray:
    """Columns (u+, u+ g, u-, u- g) for the split along (f, g).

    u+- is P+- e normalized, P+- = (q -> (q +- f q g) / 2) the orthogonal
    projector onto the plane and e the element of {1, i, j, k} with the
    largest projection.  The four squared lengths sum to 2, so that
    projection is at least 1/sqrt(2) long and the normalization is well
    conditioned for every pair, g near +-f included.  Right
    multiplication by the pure unit g keeps each plane and turns u into
    an orthogonal unit vector.
    """
    columns = []
    for s in (1.0, -1.0):
        projections = [0.5 * (e + s * mul(mul(f, e), g)) for e in (ONE, QI, QJ, QK)]
        u = max(projections, key=norm)
        u = u * (1.0 / norm(u))
        columns += [u.to_array(), mul(u, g).to_array()]
    frame = np.column_stack(columns)
    frame.setflags(write=False)
    return frame


def make_context(f: Quaternion, g: Quaternion) -> OpsContext:
    """Build the split context for pure unit quaternions f and g."""
    return OpsContext(f, g)


def _times(data: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``data @ m`` for a (..., 4) array, with bits that do not depend on
    the batch a sample sits in (``matmul``'s do)."""
    return np.einsum("...i,ij->...j", data, m)


def _basis_rows(ctx: OpsContext, message: str) -> np.ndarray:
    """Rows 1+fg, f-g, 1-fg, f+g; g = +-f makes one vanish and raises."""
    if ctx.degenerate:
        raise DegenerateContext(message)
    return np.array([b.to_array() for b in ctx.basis_plus + ctx.basis_minus])


def split_part_arr(ctx: OpsContext, data: np.ndarray, sign: int) -> np.ndarray:
    """One part of a (..., 4) array: ``data @ P+`` for ``sign`` +1,
    ``data @ P-`` for -1."""
    w = ctx.frame[:, :2] if sign > 0 else ctx.frame[:, 2:]
    return _times(data, w @ w.T)


def split_arr(ctx: OpsContext, data: np.ndarray):
    """(plus, minus) of a (..., 4) array: ``data @ P+`` and ``data @ P-``."""
    return split_part_arr(ctx, data, 1), split_part_arr(ctx, data, -1)


def split(ctx: OpsContext, q: Quaternion) -> SplitParts:
    """q_pm = (q +- f q g) / 2; plus + minus restores q."""
    plus, minus = split_arr(ctx, q.to_array())
    return SplitParts(Quaternion.from_array(plus), Quaternion.from_array(minus))


def half_turn(ctx: OpsContext, q: Quaternion) -> Quaternion:
    """f q g = q_plus - q_minus; an involution."""
    plus, minus = split_arr(ctx, q.to_array())
    return Quaternion.from_array(plus - minus)


def coefficients(ctx: OpsContext, q: Quaternion):
    """(q1, q2, q3, q4) with q = q1 (1+fg) + q2 (f-g) + q3 (1-fg) + q4 (f+g);
    raises ``DegenerateContext`` for g = +-f, where 1+fg or 1-fg vanishes."""
    return tuple(float(c) for c in coefficients_arr(ctx, q.to_array()))


def coefficients_arr(ctx: OpsContext, data: np.ndarray) -> np.ndarray:
    """``coefficients`` of a (..., 4) array: ``data @ inv(B)``, B's rows
    the basis.  Near g = +-f two basis rows come from cancellation and
    are far from orthogonal in floating point, so the Gram formula
    b_i / |b_i|^2 would lose digits there; the inverse does not."""
    rows = _basis_rows(ctx, "coefficients need g != +-f")
    return _times(data, np.linalg.inv(rows))


def reconstruct(ctx: OpsContext, q1: float, q2: float, q3: float, q4: float) -> Quaternion:
    """Inverse of ``coefficients``: (q1, q2, q3, q4) @ B, B's rows the basis."""
    rows = _basis_rows(ctx, "reconstruct needs g != +-f")
    return Quaternion.from_array(_times(np.array([q1, q2, q3, q4], dtype=np.float64), rows))


def rotate_split(ctx: OpsContext, q: Quaternion, alpha: float, beta: float) -> Quaternion:
    """Two-sided phase action exp(alpha f) * q * exp(beta g).

    On the split parts it reduces to single-sided rotations:
    exp(alpha f) q_pm exp(beta g) = q_pm exp((beta -+ alpha) g)
    = exp((alpha -+ beta) f) q_pm.
    """
    return mul(mul(exp_pure(ctx.f, alpha), q), exp_pure(ctx.g, beta))


def _check_frame(a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion) -> None:
    named = [("a", a), ("b", b), ("c", c), ("d", d)]
    for name, q in named:
        if abs(norm(q) - 1.0) > FRAME_TOL:
            raise InvalidFrame(f"{name} is not unit: |{name}| = {norm(q)!r}")
    for i in range(4):
        for k in range(i + 1, 4):
            ni, qi = named[i]
            nk, qk = named[k]
            ip = inner(qi, qk)
            if abs(ip) > FRAME_TOL:
                raise InvalidFrame(f"{ni} and {nk} not orthogonal: inner = {ip!r}")
    for name, q in (("a", a), ("c", c)):
        if abs(scalar_part(q)) > FRAME_TOL:
            raise InvalidFrame(f"{name} is not pure: scalar part {q.w!r}")


def determine_context(a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion,
                      assignment: PlaneAssignment) -> OpsContext:
    """Solve for (f, g) so that prescribed planes become the split planes.

    The span of {a, b} becomes the minus plane (AB_TO_MINUS) or the plus
    plane (AB_TO_PLUS); {c, d} spans the complementary plane.  Inputs
    must form an orthonormal 4-frame with a and c pure; the result may
    legitimately be degenerate (g = +-f) and is flagged, not rejected.

    f is the product b*a; g is the signed projection of f onto the
    span of a and c.  Residual scalar parts inside the frame tolerance
    are dropped before normalization.
    """
    if not isinstance(assignment, PlaneAssignment):
        raise ValueError(f"bad plane assignment: {assignment!r}")
    _check_frame(a, b, c, d)
    f_raw = mul(b, a)
    f = PureUnitQuaternion(f_raw.x, f_raw.y, f_raw.z)
    sa = scalar_part(mul(f, conj(a)))
    sc = scalar_part(mul(f, conj(c)))
    g_raw = sa * a - sc * c
    if assignment is PlaneAssignment.AB_TO_PLUS:
        g_raw = -g_raw
    g = PureUnitQuaternion(g_raw.x, g_raw.y, g_raw.z)
    return make_context(f, g)
