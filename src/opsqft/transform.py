"""Discrete two-sided quaternion Fourier transforms over split planes.

Three families, each with a forward and an inverse realization:

* ``TWO_SIDED``   F[k] = sum_m exp(-f t1) h[m] exp(-g t2)
* ``PHASE_ANGLE`` kernels carry the half-sum/half-difference phases
                  (t1 + t2)/2 on the left (unit f) and (t1 - t2)/2 on
                  the right (unit g)
* ``CONJUGATE``   F[k] = sum_m exp(-g t1) conj(h[m]) exp(-f t2)

with t1 = 2 pi m1 k1 / N1 and t2 = 2 pi m2 k2 / N2 on an N1 x N2 grid.
Inverses flip the exponent signs (two-sided and phase-angle families)
or keep them and swap the kernel axes around the conjugated spectrum
(conjugation family); all inverses carry the 1/(N1 N2) weight.

``forward_direct``/``inverse_direct`` evaluate the double sum per
output sample and serve as the in-package reference.  The fast path is
``data @ A``, two complex FFTs, ``@ B`` with A and B 4x4 matrices.  A
rotates every sample into the context's orthonormal frame W, so the
plus and minus coordinates become two C-contiguous complex grids with g
as the imaginary unit; the signed-axis FFT engine transforms each, and
B rotates back.  The conjugation family's conjugation rides in A
(diag(1, -1, -1, -1) W) and every inverse's 1/(N1 N2) weight in B
(W^T / (N1 N2)), so neither costs a pass over the data.  Each plane
picks its axis signs from the rule exp(a f) q_pm = q_pm exp(-+ a g),
which moves both kernels to the same side.  The phase-angle family
collapses one grid axis per part instead (its plus spectrum is constant
along k1, its minus spectrum along k2): it transforms the two axis
sums of ``data @ A`` and returns the sum of the two rotated lines.  So
its discrete inverse cannot restore a general field; the inverse is
evaluated literally all the same and its round-trip defect is reported
by the verification suite rather than asserted away.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fftcore import TAU, AxisSigns, fft1, fft2
from .fields import Domain, QuaternionField2D
from .quat import Quaternion, conj_arr, exp_arr, mul_arr
from .split import OpsContext, split_arr, swapped_context


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

    def __post_init__(self):
        if self.field.domain is not Domain.FREQUENCY:
            object.__setattr__(self, "field", self.field.tagged(Domain.FREQUENCY))

    @property
    def data(self) -> np.ndarray:
        return self.field.data


@dataclass(frozen=True)
class CommutationReport:
    """Residuals of split-then-transform against transform-then-split.

    Each residual is the largest deviation of one split part, relative to
    the RMS sample norm of the full spectrum.
    """

    residual_plus: float
    residual_minus: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.residual_plus, self.residual_minus) <= self.tolerance


def _require_same_variant(requested: TransformVariant, spectrum: Spectrum) -> None:
    if spectrum.variant != requested:
        raise VariantMismatch(
            f"spectrum was produced by {spectrum.variant.family.value}, "
            f"inverse requested for {requested.family.value} "
            "(or the split axes differ)")


# ---------------------------------------------------------------------------
# Direct evaluation.  One batched row of outputs at a time: for a fixed
# output row t1, the phase builders return arrays broadcastable to
# (n2, n1, n2) indexed (t2, m1, m2), and the quaternion triple product
# is summed over the full input grid for every t2 at once.  Work per
# output sample stays proportional to the grid size; no factorization
# of the kernels is used.

def _direct_apply(H, left_unit, right_unit, lphase, rphase, scale):
    n1, n2 = H.shape[:2]
    out = np.empty((n1, n2, 4))
    Hb = H[None, :, :, :]
    for t1 in range(n1):
        L = exp_arr(left_unit, lphase(t1))
        R = exp_arr(right_unit, rphase(t1))
        term = mul_arr(mul_arr(L, Hb), R)
        out[t1] = term.sum(axis=(1, 2))
    if scale != 1.0:
        out *= scale
    return out


def _direct_twosided(H, left_unit, right_unit, sign, scale, swap_axes=False):
    """Separable full-angle kernels.

    ``swap_axes`` pairs the left kernel with the second grid axis and
    the right kernel with the first (the conjugation family's inverse).
    """
    n1, n2 = H.shape[:2]
    a1 = sign * TAU * np.arange(n1) / n1
    a2 = sign * TAU * np.arange(n2) / n2
    t2r = np.arange(n2)
    axis2_grid = np.outer(t2r, a2)[:, None, :]        # (t2, 1, m2)

    if not swap_axes:
        def lphase(t1):
            return (t1 * a1)[None, :, None]           # (1, m1, 1)

        def rphase(t1):
            return axis2_grid
    else:
        def lphase(t1):
            return axis2_grid

        def rphase(t1):
            return (t1 * a1)[None, :, None]

    return _direct_apply(H, left_unit, right_unit, lphase, rphase, scale)


def _direct_phase_angle(H, left_unit, right_unit, sign, scale):
    """Half-sum / half-difference kernels; phases are not separable."""
    n1, n2 = H.shape[:2]
    h1 = sign * TAU / 2.0 * np.arange(n1) / n1
    h2 = sign * TAU / 2.0 * np.arange(n2) / n2
    t2r = np.arange(n2)
    cross = np.outer(t2r, h2)[:, None, :]             # (t2, 1, m2)

    def lphase(t1):
        return (t1 * h1)[None, :, None] + cross

    def rphase(t1):
        return (t1 * h1)[None, :, None] - cross

    return _direct_apply(H, left_unit, right_unit, lphase, rphase, scale)


def forward_direct(variant: TransformVariant, field: QuaternionField2D) -> Spectrum:
    """Reference forward transform by explicit summation."""
    ctx = variant.ctx
    data = field.data
    if variant.family is Family.TWO_SIDED:
        out = _direct_twosided(data, ctx.f, ctx.g, -1, 1.0)
    elif variant.family is Family.PHASE_ANGLE:
        out = _direct_phase_angle(data, ctx.f, ctx.g, -1, 1.0)
    elif variant.family is Family.CONJUGATE:
        out = _direct_twosided(conj_arr(data), ctx.g, ctx.f, -1, 1.0)
    else:
        raise ValueError(f"unknown family {variant.family!r}")
    return Spectrum(QuaternionField2D(out, Domain.FREQUENCY), variant)


def inverse_direct(variant: TransformVariant, spectrum: Spectrum) -> QuaternionField2D:
    """Reference inverse transform by explicit summation."""
    _require_same_variant(variant, spectrum)
    ctx = variant.ctx
    data = spectrum.data
    n1, n2 = data.shape[:2]
    scale = 1.0 / (n1 * n2)
    if variant.family is Family.TWO_SIDED:
        out = _direct_twosided(data, ctx.f, ctx.g, +1, scale)
    elif variant.family is Family.PHASE_ANGLE:
        out = _direct_phase_angle(data, ctx.f, ctx.g, +1, scale)
    elif variant.family is Family.CONJUGATE:
        # forward-signed kernels around the conjugated spectrum, axes swapped
        out = _direct_twosided(conj_arr(data), ctx.f, ctx.g, -1, scale,
                               swap_axes=True)
    else:
        raise ValueError(f"unknown family {variant.family!r}")
    return QuaternionField2D(out, Domain.SPATIAL)


# ---------------------------------------------------------------------------
# Fast path: data @ A, two complex FFTs, @ B, with A and B 4x4 matrices.

# conj(q) = q @ _CONJ for a row (w, x, y, z)
_CONJ = np.diag([1.0, -1.0, -1.0, -1.0])


def _to_planes(data, A):
    """Plus and minus coordinates of ``data @ A`` as complex grids x + iy.

    ``data @ A`` holds (x+, y+, x-, y-) per sample; each adjacent pair
    is written straight into its own C-contiguous complex grid.
    """
    n1, n2 = data.shape[:2]
    flat = data.reshape(n1 * n2, 4)
    planes = []
    for p in (0, 2):
        z = np.empty((n1, n2), dtype=np.complex128)
        np.matmul(flat, A[:, p:p + 2], out=z.view(np.float64).reshape(n1 * n2, 2))
        planes.append(z)
    return planes


def _from_planes(plus, minus, B):
    """(x+, y+, x-, y-) @ B per sample, from the plus and minus grids."""
    n1, n2 = plus.shape
    z = np.empty((n1, n2, 2), dtype=np.complex128)
    z[..., 0] = plus
    z[..., 1] = minus
    return (z.view(np.float64).reshape(n1 * n2, 4) @ B).reshape(n1, n2, 4)


def _fast_twosided_apply(data, A, B, s_left, s_right, left_axis, right_axis):
    """A two-sided sum through FFTs: ``data @ A``, one fft2 per plane, ``@ B``.

    With A = W (the frame) and B = W^T this is
    sum_m exp(s_left f t_L) data[m] exp(s_right g t_R); A may also
    conjugate the samples and B weight the result.  t_L and t_R are the
    full-angle phases of the grid axes named by left_axis/right_axis.
    Each split part turns into one complex transform; the left kernel
    crosses the sample at the price of a sign that differs between the
    planes.
    """
    plus, minus = _to_planes(data, A)
    signs_p = [0, 0]
    signs_m = [0, 0]
    signs_p[left_axis] = -s_left
    signs_p[right_axis] = s_right
    signs_m[left_axis] = s_left
    signs_m[right_axis] = s_right
    plus = fft2(plus, AxisSigns(*signs_p))
    minus = fft2(minus, AxisSigns(*signs_m))
    return _from_planes(plus, minus, B)


def _fast_phase_angle(data, A, B, forward):
    """Phase-angle family: each part collapses to a single-axis transform.

    The plus part only needs the sums of its plane over m1 and the minus
    part its sums over m2, which are the sums of the samples times A.
    The spectrum is the broadcast sum of the two transformed lines times B.
    """
    n1, n2 = data.shape[:2]
    sign = 1 if forward else -1
    # the sum over m2 as a BLAS product: numpy's strided reduction over the
    # middle axis is several times slower, and far slower right after a
    # complex BLAS call
    line_plus = (data.sum(axis=0) @ A[:, 0:2]).view(np.complex128)[:, 0]
    line_minus = (np.ones(n2) @ data @ A[:, 2:4]).view(np.complex128)[:, 0]
    line_plus = fft1(line_plus, sign, axis=0).view(np.float64).reshape(n2, 2) @ B[0:2]
    line_minus = fft1(line_minus, -sign, axis=0).view(np.float64).reshape(n1, 2) @ B[2:4]
    return line_minus[:, None, :] + line_plus[None, :, :]


def forward_fast(variant: TransformVariant, field: QuaternionField2D) -> Spectrum:
    """FFT-backed forward transform; agrees with ``forward_direct``."""
    ctx = variant.ctx
    data = field.data
    W = ctx.frame
    if variant.family is Family.TWO_SIDED:
        out = _fast_twosided_apply(data, W, W.T, -1, -1, 0, 1)
    elif variant.family is Family.PHASE_ANGLE:
        out = _fast_phase_angle(data, W, W.T, forward=True)
    elif variant.family is Family.CONJUGATE:
        W = swapped_context(ctx).frame
        out = _fast_twosided_apply(data, _CONJ @ W, W.T, -1, -1, 0, 1)
    else:
        raise ValueError(f"unknown family {variant.family!r}")
    return Spectrum(QuaternionField2D(out, Domain.FREQUENCY), variant)


def inverse_fast(variant: TransformVariant, spectrum: Spectrum) -> QuaternionField2D:
    """FFT-backed inverse transform; agrees with ``inverse_direct``."""
    _require_same_variant(variant, spectrum)
    ctx = variant.ctx
    data = spectrum.data
    n1, n2 = data.shape[:2]
    W = ctx.frame
    back = W.T / (n1 * n2)
    if variant.family is Family.TWO_SIDED:
        out = _fast_twosided_apply(data, W, back, +1, +1, 0, 1)
    elif variant.family is Family.PHASE_ANGLE:
        out = _fast_phase_angle(data, W, back, forward=False)
    elif variant.family is Family.CONJUGATE:
        # forward-signed kernels around the conjugated spectrum, axes swapped
        out = _fast_twosided_apply(data, _CONJ @ W, back, -1, -1,
                                   left_axis=1, right_axis=0)
    else:
        raise ValueError(f"unknown family {variant.family!r}")
    return QuaternionField2D(out, Domain.SPATIAL)


# ---------------------------------------------------------------------------
# Split-spectrum structure.

def split_spectra(variant: TransformVariant, field: QuaternionField2D):
    """Spectra of the two split parts; they sum to the full spectrum.

    The conjugation family's part spectra live in the planes of the
    reversed pair (g, f), since conjugation carries each (f, g) plane
    onto its (g, f) counterpart before the kernels act.
    """
    plus, minus = split_arr(variant.ctx, field.data)
    spectrum_plus = forward_fast(variant, QuaternionField2D(plus, field.domain))
    spectrum_minus = forward_fast(variant, QuaternionField2D(minus, field.domain))
    return spectrum_plus, spectrum_minus


def transform_commutes_with_split(variant: TransformVariant,
                                  field: QuaternionField2D,
                                  tolerance: float = 1e-10) -> CommutationReport:
    """Check that transforming and splitting can be done in either order.

    The spectrum side splits with respect to (f, g) for the two-sided
    and phase-angle families and with respect to the reversed pair for
    the conjugation family.  Residuals and ``tolerance`` are relative to
    the RMS sample norm of the full spectrum, so the verdict does not
    depend on the scale of the field.
    """
    full = forward_fast(variant, field)
    spectrum_ctx = (swapped_context(variant.ctx)
                    if variant.family is Family.CONJUGATE else variant.ctx)
    spectrum_plus, spectrum_minus = split_arr(spectrum_ctx, full.data)
    part_plus, part_minus = split_spectra(variant, field)
    scale = max(float(np.sqrt(np.mean(np.sum(full.data ** 2, axis=-1)))), 1e-300)
    residual_plus = float(np.max(np.abs(spectrum_plus - part_plus.data))) / scale
    residual_minus = float(np.max(np.abs(spectrum_minus - part_minus.data))) / scale
    return CommutationReport(residual_plus, residual_minus, tolerance)
