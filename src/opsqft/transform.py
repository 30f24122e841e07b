"""Discrete quaternion Fourier transforms over split planes.

Every transform here is one formula on an N1 x N2 grid,

    F[k] = w sum_m exp(f cl.t) h[m] exp(g cr.t),
    t = (t1, t2) = (2 pi m1 k1 / N1, 2 pi m2 k2 / N2),

where cl and cr are the coefficients of (t1, t2) in the two phases and
w is 1 forward and 1/(N1 N2) for an inverse.  ``KERNELS`` holds the
six rows:

    family        direction  conj  cl            cr
    TWO_SIDED     forward    no    (-1, 0)       (0, -1)
    TWO_SIDED     inverse    no    (1, 0)        (0, 1)
    PHASE_ANGLE   forward    no    (-1/2, -1/2)  (-1/2, 1/2)
    PHASE_ANGLE   inverse    no    (1/2, 1/2)    (1/2, -1/2)
    CONJUGATE     forward    yes   (0, 1)        (1, 0)
    CONJUGATE     inverse    yes   (0, -1)       (-1, 0)

The conjugation family conjugates its spectrum: the forward output,
conj(sum exp(f t2) h exp(g t1)) = sum exp(-g t1) conj(h) exp(-f t2),
and the inverse input.  Each inverse row is its forward row negated.

``direct_sum`` evaluates the formula literally; ``forward_direct`` and
``inverse_direct`` are the in-package reference built on it.

The fast path is ``data @ A``, one complex FFT per split part, ``@ B``,
with A and B 4x4 matrices.  In the orthonormal frame W of the pair
(f, g) each part is q_pm = u_pm (x_pm + y_pm g), a complex number with
g as imaginary unit, and exp(a f) q_pm exp(b g) = q_pm exp((b -+ a) g)
moves both kernels to the right.  So plane +- sees the coefficients
cr -+ cl alone (``Kernel.planes``), each -1, 0 or +1: a +-1 is a signed
FFT along that axis, and a 0 makes the plane's spectrum constant along
that axis, so the axis is summed first and transformed at length 1.
A is W and B is W^T times w; a conjugated spectrum puts
diag(1, -1, -1, -1) after B (forward) or before A (inverse), so neither
the conjugation nor the weight costs a pass over the data.
Everything happens in the one output array, seen as (N1, 2, N2) complex
(row k1: plane +, then plane -): each plane of data @ A is written into
it and ``fft2`` transforms it in place; then each block of rows is
interleaved into a small scratch whose product with B overwrites those
rows.  No other full-size array is made.

The phase-angle family is where the zeros fall: forward, its plus plane
gets (0, 1) and its minus plane (-1, 0), so the plus spectrum is
constant along k1 and the minus spectrum along k2.  Its discrete
inverse therefore cannot restore a general field; the inverse is
evaluated literally all the same and its round-trip defect is reported
by the verification suite (``roundtrip/phased``) rather than asserted
away.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Tuple

import numpy as np

from .fftcore import TAU, _block_columns, fft2
from .fields import QuaternionField2D
from .quat import Quaternion, conj_arr, exp_arr, mul_arr
from .split import OpsContext, split_arr


class VariantMismatch(ValueError):
    """Spectrum fed to an inverse of a different transform variant."""


class Family(Enum):
    TWO_SIDED = "twosided"
    PHASE_ANGLE = "phased"
    CONJUGATE = "conjc"


@dataclass(frozen=True)
class TransformVariant:
    family: Family
    ctx: OpsContext


@dataclass(frozen=True, eq=False)
class Spectrum:
    field: QuaternionField2D
    variant: TransformVariant

    @property
    def data(self) -> np.ndarray:
        return self.field.data


def _require_same_variant(requested: TransformVariant, spectrum: Spectrum) -> None:
    if spectrum.variant != requested:
        raise VariantMismatch(
            f"spectrum was produced by {spectrum.variant.family.value}, "
            f"inverse requested for {requested.family.value} "
            "(or the split axes differ)")


# ---------------------------------------------------------------------------
# The kernel table.

class Kernel(NamedTuple):
    """One row of the table: h between exp(f cl.t) and exp(g cr.t).

    ``cl``/``cr`` are the coefficients of (t1, t2) in each phase;
    ``conjugate`` says the spectrum is conjugated, the output of a
    forward row and the input of an inverse one.
    """

    conjugate: bool
    cl: Tuple[float, float]
    cr: Tuple[float, float]

    @property
    def planes(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Coefficients of (t1, t2) left on plane + and plane -: cr - cl, cr + cl.

        With a = cl.t and b = cr.t, a part h_pm of the (f, g) split obeys
        exp(f a) h_pm exp(g b) = h_pm exp(g (b -+ a)) = exp(f (a -+ b)) h_pm.

        >>> KERNELS[Family.PHASE_ANGLE, False].planes
        ((0, 1), (-1, 0))
        """
        return tuple(tuple(int(r + s * l) for l, r in zip(self.cl, self.cr))
                     for s in (-1, 1))


KERNELS = {
    (Family.TWO_SIDED, False): Kernel(False, (-1, 0), (0, -1)),
    (Family.TWO_SIDED, True): Kernel(False, (1, 0), (0, 1)),
    (Family.PHASE_ANGLE, False): Kernel(False, (-0.5, -0.5), (-0.5, 0.5)),
    (Family.PHASE_ANGLE, True): Kernel(False, (0.5, 0.5), (0.5, -0.5)),
    (Family.CONJUGATE, False): Kernel(True, (0, 1), (1, 0)),
    (Family.CONJUGATE, True): Kernel(True, (0, -1), (-1, 0)),
}


# ---------------------------------------------------------------------------
# Direct evaluation.

def direct_sum(H: np.ndarray, left_unit: Quaternion, right_unit: Quaternion,
               cl, cr) -> np.ndarray:
    """sum_m exp(left_unit cl.t) H[m] exp(right_unit cr.t) for every output k.

    t = (2 pi m1 k1 / N1, 2 pi m2 k2 / N2).  A one-sided sum is the case
    where one side's coefficients are (0, 0).  One output row k1 at a
    time: the phases broadcast to (k2, m1, m2) and the quaternion triple
    product is summed over the full input grid for every k2 at once, so
    the work per output sample stays proportional to the grid size and
    no factorization of the kernels is used.  A term with a zero
    coefficient is a plain 0, so a kernel without t2 stays (1, m1, 1).
    """
    n1, n2 = H.shape[:2]

    def phase_terms(c):
        """c.t = k1 * first + second, each broadcastable to (k2, m1, m2)."""
        first = (c[0] * TAU * np.arange(n1) / n1)[None, :, None] if c[0] else 0.0
        second = (np.outer(np.arange(n2), c[1] * TAU * np.arange(n2) / n2)[:, None, :]
                  if c[1] else 0.0)
        return first, second

    l1, l2 = phase_terms(cl)
    r1, r2 = phase_terms(cr)
    out = np.empty((n1, n2, 4))
    Hb = H[None, :, :, :]
    for k1 in range(n1):
        L = exp_arr(left_unit, k1 * l1 + l2)
        R = exp_arr(right_unit, k1 * r1 + r2)
        out[k1] = mul_arr(mul_arr(L, Hb), R).sum(axis=(1, 2))
    return out


def _direct(variant: TransformVariant, data: np.ndarray, inverse: bool) -> np.ndarray:
    k, ctx = KERNELS[variant.family, inverse], variant.ctx
    if inverse:
        h = conj_arr(data) if k.conjugate else data
        return direct_sum(h, ctx.f, ctx.g, k.cl, k.cr) * (1.0 / (data.shape[0] * data.shape[1]))
    out = direct_sum(data, ctx.f, ctx.g, k.cl, k.cr)
    return conj_arr(out) if k.conjugate else out


def forward_direct(variant: TransformVariant, field: QuaternionField2D) -> Spectrum:
    """Reference forward transform by explicit summation."""
    out = _direct(variant, field.data, inverse=False)
    return Spectrum(QuaternionField2D(out), variant)


def inverse_direct(variant: TransformVariant, spectrum: Spectrum) -> QuaternionField2D:
    """Reference inverse transform by explicit summation."""
    _require_same_variant(variant, spectrum)
    return QuaternionField2D(_direct(variant, spectrum.data, inverse=True))


# ---------------------------------------------------------------------------
# Fast path: data @ A, one fft2 per plane, @ B, all in the output array.

def _fast(variant: TransformVariant, data: np.ndarray, inverse: bool) -> np.ndarray:
    """The table row through its frame W, in the one output array: plane p
    (0 is +, 1 is -) is ``x @ A[:, 2p:2p + 2]``, transformed in place with
    the signs from ``planes`` and broadcast; x is the data, summed first
    along each axis whose sign is 0 there (then the plane is a line)."""
    k = KERNELS[variant.family, inverse]
    n1, n2 = data.shape[:2]
    W = variant.ctx.frame
    A, B = W, (W.T / (n1 * n2) if inverse else W.T)
    if k.conjugate and inverse:
        A = conj_arr(W.T).T.copy()  # conj(x) @ W = x @ A, in C order as W
    elif k.conjugate:
        B = conj_arr(B)  # conj(y @ W.T) = y @ B
    out = np.empty((n1, n2, 4))
    spec = out.view(np.complex128).reshape(n1, 2, n2)  # row k1: plane +, then plane -
    planes = []
    for p, (c1, c2) in enumerate(k.planes):
        x = data.sum(axis=0, keepdims=True) if c1 == 0 else data
        if c2 == 0:  # a BLAS product: numpy's strided sum over axis 1 is slower
            x = (np.ones(x.shape[1]) @ x)[:, None, :]
        plane = spec[:, p] if x is data else np.empty(x.shape[:2], np.complex128)
        np.matmul(x, A[:, 2 * p:2 * p + 2], out=plane.view(np.float64).reshape(*x.shape[:2], 2))
        fft2(plane, c1 or 1, c2 or 1, out=plane)
        planes.append(np.broadcast_to(plane, (n1, n2)))
    # each block of rows is interleaved into z before z @ B overwrites it
    step = _block_columns(n2)
    z = np.empty((min(step, n1), n2, 2), dtype=np.complex128)
    for i in range(0, n1, step):
        rows = z[:min(step, n1 - i)]
        for p in (0, 1):
            rows[..., p] = planes[p][i:i + step]
        np.matmul(rows.view(np.float64).reshape(-1, 4), B, out=out[i:i + step].reshape(-1, 4))
    return out


def forward_fast(variant: TransformVariant, field: QuaternionField2D) -> Spectrum:
    """FFT-backed forward transform; agrees with ``forward_direct``."""
    out = _fast(variant, field.data, inverse=False)
    return Spectrum(QuaternionField2D(out), variant)


def inverse_fast(variant: TransformVariant, spectrum: Spectrum) -> QuaternionField2D:
    """FFT-backed inverse transform; agrees with ``inverse_direct``."""
    _require_same_variant(variant, spectrum)
    return QuaternionField2D(_fast(variant, spectrum.data, inverse=True))


# ---------------------------------------------------------------------------
# Split-spectrum structure.

def split_spectra(variant: TransformVariant, field: QuaternionField2D):
    """Spectra of the two split parts; they sum to the full spectrum.

    The conjugation family's part spectra live in the planes of the
    reversed pair (g, f), since conjugation carries each (f, g) plane
    onto its (g, f) counterpart after the kernels act.
    """
    plus, minus = split_arr(variant.ctx, field.data)
    spectrum_plus = forward_fast(variant, QuaternionField2D(plus))
    spectrum_minus = forward_fast(variant, QuaternionField2D(minus))
    return spectrum_plus, spectrum_minus
