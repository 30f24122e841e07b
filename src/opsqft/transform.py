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

A forward transform returns F as a ``Spectrum``: a ``QuaternionField2D``
that carries its ``TransformVariant``, which an inverse checks before it
runs.  ``direct_sum`` evaluates the formula literally; ``forward_direct``
and ``inverse_direct`` are the in-package reference built on it.

The fast path is ``data @ A``, one complex FFT per split part, ``@ B``,
with A and B 4x4 matrices.  In the orthonormal frame W of the pair
(f, g) each part is q_pm = u_pm (x_pm + y_pm g), a complex number with
g as imaginary unit, and exp(a f) q_pm exp(b g) = q_pm exp((b -+ a) g)
moves both kernels to the right.  So plane +- sees the coefficients
cr -+ cl alone (``Kernel.planes``), each -1, 0 or +1: a +-1 is a signed
FFT along that axis, and a 0 makes the plane's spectrum constant along
that axis, so the axis is summed first and the plane is a line.
A is W and B is W^T times w; a conjugated spectrum puts
diag(1, -1, -1, -1) after B (forward) or before A (inverse), so neither
the conjugation nor the weight costs a pass over the data.
``_fast`` is four stages in the one output array, seen as (N1, 2, N2)
complex (row k1: plane +, then plane -), on the routes that ``_stages``
alone picks: ``_frame`` gives A and B, ``_rotate`` writes plane p of
data @ A, ``_run`` runs its passes in place, and ``_back`` interleaves
each block of rows into a small scratch whose product with B overwrites
those rows.  No other full-size array is made.  A line is summed first
and runs ``fft1`` along its live axis.  Where N1 is a "grouped" length
of ``fftcore._plan``, ``_rotate`` writes the plane in the four-step's
input order at no cost, and ``_pass0_grouped`` runs axis 0 in place over
row groups, then ``fft1`` axis 1.  Any other plane goes through ``fft2``.

The two planes share nothing until ``@ B``, and the row blocks of
``@ B`` share nothing, so ``_halves`` runs each as independent jobs, on a
large grid half of them on a helper thread, which writes only its call's
planes and rows.  A transform therefore holds twice one pass's scratch.
The results are the same bits either way: a job's output does not depend
on the thread that runs it.  At its first call, at any size, ``_halves``
sets numpy's bundled OpenBLAS to one thread for the rest of the process,
so the two threads are the only ones: OpenBLAS's own threads, which the
block products would otherwise spread over both cores, gain nothing
beside a second Python thread and stall when another process takes a
core.  The count is not set back, since the BLAS worker that an earlier
product of the caller left spinning would then take back the second
core.  Where no count was set (numpy uses another BLAS, or keeps its
OpenBLAS elsewhere), ``_halves`` runs every job in the caller.

The phase-angle family is where the zeros fall: forward, its plus plane
gets (0, 1) and its minus plane (-1, 0), so the plus spectrum is
constant along k1 and the minus spectrum along k2.  Its discrete
inverse therefore cannot restore a general field; the inverse is
evaluated literally all the same.  The verification suite reports its
round-trip defect (``roundtrip/phased``) rather than asserting it away,
and gates what the round trip does return, the plus part summed along
m1 and the minus part along m2 (``roundtrip/phased-lines``).
"""

from __future__ import annotations

import contextvars
import ctypes
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from pathlib import Path
from typing import NamedTuple, Tuple

import numpy as np

from .fftcore import _PLAN_CACHE, _block_columns, _factors, _plan, fft1, fft2
from .quat import QuaternionField2D, conj_arr, exp_arr, mul_arr
from .planes import OpsContext, split_arr


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
class Spectrum(QuaternionField2D):
    """A field in the frequency domain, with the variant that produced it."""

    variant: TransformVariant


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

def direct_sum(H: np.ndarray, ctx: OpsContext, cl, cr) -> np.ndarray:
    """sum_m exp(ctx.f cl.t) H[m] exp(ctx.g cr.t) for every output k.

    t = (2 pi m1 k1 / N1, 2 pi m2 k2 / N2).  A one-sided sum is the case
    where one side's coefficients are (0, 0).  One output row k1 at a
    time: the phases broadcast to (k2, m1, m2) and the quaternion triple
    product is summed over the full input grid for every k2 at once, so
    the work per output sample stays proportional to the grid size and
    no factorization of the kernels is used.  Each coefficient must be a
    multiple of 1/2, c = j / 2, so c t_i = pi (j m_i k_i mod 2 N_i) / N_i:
    the product is reduced in integers before it becomes an angle, and an
    angle's error does not grow with the axis length.  A term with a zero
    coefficient is a plain 0, so a kernel without t2 stays (1, m1, 1).
    """
    n1, n2 = H.shape[:2]

    def in_halves(c, n):
        """j = 2c mod 2n, for a coefficient c that is a multiple of 1/2."""
        if not float(2 * c).is_integer():
            raise ValueError(f"kernel coefficient {c!r} is not a multiple of 1/2")
        return int(2 * c) % (2 * n)

    def angle(j, km, n):
        """pi j k m / n with j k m reduced mod 2n; 0 where j is 0."""
        return np.pi / n * (j * km % (2 * n)) if j else 0.0

    m1, m2 = np.arange(n1)[None, :, None], np.arange(n2)
    k2m2 = np.multiply.outer(m2, m2)[:, None, :] % (2 * n2)
    l1, r1 = in_halves(cl[0], n1), in_halves(cr[0], n1)
    l2, r2 = angle(in_halves(cl[1], n2), k2m2, n2), angle(in_halves(cr[1], n2), k2m2, n2)
    out = np.empty((n1, n2, 4))
    Hb = H[None, :, :, :]
    for k1 in range(n1):
        L = exp_arr(ctx.f, angle(l1 * k1 % (2 * n1), m1, n1) + l2)
        R = exp_arr(ctx.g, angle(r1 * k1 % (2 * n1), m1, n1) + r2)
        out[k1] = mul_arr(mul_arr(L, Hb), R).sum(axis=(1, 2))
    return out


def _direct(variant: TransformVariant, data: np.ndarray, inverse: bool) -> np.ndarray:
    k, ctx = KERNELS[variant.family, inverse], variant.ctx
    if inverse:
        h = conj_arr(data) if k.conjugate else data
        return direct_sum(h, ctx, k.cl, k.cr) * (1.0 / (data.shape[0] * data.shape[1]))
    out = direct_sum(data, ctx, k.cl, k.cr)
    return conj_arr(out) if k.conjugate else out


def forward_direct(variant: TransformVariant, field: QuaternionField2D) -> Spectrum:
    """Reference forward transform by explicit summation."""
    return Spectrum(_direct(variant, field.data, inverse=False), variant)


def inverse_direct(variant: TransformVariant, spectrum: Spectrum) -> QuaternionField2D:
    """Reference inverse transform by explicit summation."""
    _require_same_variant(variant, spectrum)
    return QuaternionField2D(_direct(variant, spectrum.data, inverse=True))


# ---------------------------------------------------------------------------
# Fast path: data @ A, one fft2 per plane, @ B, all in the output array.

# Fewest samples in a grid whose jobs are split over two threads: below
# it (320 x 320, say) the helper's start and the two threads' turns at the
# interpreter lock cost more than the half it takes.
_SPLIT_MIN = 1 << 17
# Where numpy's Linux wheels keep their bundled OpenBLAS.
_BLAS_LIBS = Path(np.__file__).parent.parent / "numpy.libs"


@cache
def _pin_blas() -> bool:
    """Set numpy's bundled OpenBLAS, if there is one, to one thread, and
    say whether a count was set."""
    pinned = False
    for path in _BLAS_LIBS.glob("libscipy_openblas64_*"):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        pinned = True
    return pinned


def _halves(run, jobs: Sequence, samples: int) -> None:
    """``run(jobs)`` for independent jobs over a grid of ``samples`` samples.

    ``_pin_blas`` runs first.  Once it has set the BLAS to one thread, from
    _SPLIT_MIN samples the second half of the jobs runs on a helper thread
    and the first in the caller; otherwise ``run`` takes them all there.
    Each call starts its own helper, in a copy of the caller's context, so
    numpy's error state (a context variable) holds there too; it is joined
    before the call returns, and an exception it raised is raised here.
    """
    if not _pin_blas() or len(jobs) < 2 or samples < _SPLIT_MIN:
        run(jobs)
        return
    half = len(jobs) // 2
    raised = []

    def second():
        try:
            run(jobs[half:])
        except BaseException as e:  # re-raised in the caller
            raised.append(e)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(second,))
    helper.start()
    try:
        run(jobs[:half])
    finally:
        helper.join()
    if raised:
        raise raised[0]


def _pass0_grouped(x: np.ndarray, sign: int) -> None:
    """Signed transform along axis 0 of an (n, r) complex array in place,
    n = a b grouped (``fftcore._plan``), whose row b m1 + m2 holds input
    a m2 + m1: the four-step of ``fftcore._pass0`` with its transpose left
    to the writer of x.  Afterwards row k holds output k.

    Each contiguous group of b rows (one m1) is multiplied by the stage-1
    matrix with its twiddles folded in, diag(T[:, m1]) Mb, into a scratch
    and copied back; then each strided group of a rows (one k2) by Ma.  The
    columns go in chunks of 2 ``_block_columns(b)``, so the scratch holds at
    most 2 ``quat._BLOCK`` samples (512 KiB).
    """
    n, r = x.shape
    a, twiddles, ma, mb = _factors(n, sign)
    b = n // a
    groups = x.view()
    groups.shape = (a, b, r)  # never a copy, unlike reshape
    w = 2 * _block_columns(b)
    z = np.empty((b, min(w, r)), dtype=np.complex128)
    d = np.empty((b, b), dtype=np.complex128)
    for j in range(0, r, w):
        cols = slice(j, j + w)
        s = z[:, :min(w, r - j)]
        for m1 in range(a):
            np.multiply(twiddles[:, m1, None], mb, out=d)
            np.matmul(d, groups[m1, :, cols], out=s)
            groups[m1, :, cols] = s
        for k2 in range(b):
            np.matmul(ma, groups[:, k2, cols], out=s[:a])
            groups[:, k2, cols] = s[:a]


class Route(NamedTuple):
    """One plane's route: the axes summed first (its zero coefficients),
    the factor a of the four-step row order n1 = a b that the rotation
    writes (0: natural order), and the passes run in place, (name, *args)."""

    summed: Tuple[int, ...]
    a: int
    passes: Tuple[tuple, ...]


@lru_cache(maxsize=_PLAN_CACHE)
def _stages(planes, n1: int, n2: int):
    """(route of plane +, route of plane -) for the coefficients ``planes``
    (``Kernel.planes``) on an n1 x n2 grid, and the rows of each ``@ B``
    block, by the module docstring's rules."""
    routes = []
    for signs in planes:
        summed = tuple(axis for axis, c in enumerate(signs) if c == 0)
        kind, a, _ = (None, 0, None) if summed else _plan(n1, signs[0])
        if kind == "grouped":
            routes.append(Route((), a, (("_pass0_grouped", signs[0]), ("fft1", signs[1], 1))))
        elif summed:  # a line: its one live axis
            routes.append(Route(summed, 0, tuple(("fft1", c, i) for i, c in enumerate(signs) if c)))
        else:
            routes.append(Route((), 0, (("fft2", *signs),)))
    return tuple(routes), _block_columns(n2)


def _frame(variant: TransformVariant, inverse: bool, n1: int, n2: int):
    """(A, B) of the table row on an n1 x n2 grid: the one place where the
    frame W, the weight 1/(N1 N2) and the conjugation enter."""
    W, conjugate = variant.ctx.frame, KERNELS[variant.family, inverse].conjugate
    B = W.T / (n1 * n2) if inverse else W.T
    if conjugate and inverse:  # conj(x) @ W = x @ A, in C order as W
        return conj_arr(W.T).T.copy(), B
    return W, (conj_arr(B) if conjugate else B)  # conj(y @ W.T) = y @ B


def _rotate(data: np.ndarray, A: np.ndarray, route: Route, p: int, plane) -> np.ndarray:
    """Plane p (0 is +, 1 is -) of ``data @ A`` in the route's row order,
    after its line sums: written into ``plane``, of the grid's shape, or
    where a sum made a line, into a new one.  Returns the plane written."""
    x = data.sum(axis=0, keepdims=True) if 0 in route.summed else data
    if 1 in route.summed:  # a BLAS product: numpy's strided sum over axis 1 is slower
        x = (np.ones(x.shape[1]) @ x)[:, None, :]
    plane = plane if x is data else np.empty(x.shape[:2], np.complex128)
    if route.a:  # plane row b m1 + m2 from data row a m2 + m1
        x = data.reshape(-1, route.a, data.shape[1], 4).transpose(1, 0, 2, 3)
    np.matmul(x, A[:, 2 * p:2 * p + 2], out=plane.view(np.float64).reshape(*x.shape[:-1], 2))
    return plane


def _run(plane: np.ndarray, route: Route) -> None:
    """The route's passes on ``plane`` in place, each looked up by name at call time."""
    for name, *args in route.passes:
        if name == "_pass0_grouped":
            _pass0_grouped(plane, *args)
        else:
            (fft1 if name == "fft1" else fft2)(plane, *args, out=plane)


def _back(planes, B: np.ndarray, out: np.ndarray, starts, step: int) -> None:
    """Rows i to i + step of ``out`` for each i in ``starts``: those rows of
    the planes, broadcast and interleaved into a small scratch, times B."""
    planes = [np.broadcast_to(plane, out.shape[:2]) for plane in planes]
    z = np.empty((min(step, len(out)), out.shape[1], 2), dtype=np.complex128)
    for i in starts:
        rows = z[:min(step, len(out) - i)]
        for p in (0, 1):
            rows[..., p] = planes[p][i:i + step]
        np.matmul(rows.view(np.float64).reshape(-1, 4), B, out=out[i:i + step].reshape(-1, 4))


def _fast(variant: TransformVariant, data: np.ndarray, inverse: bool) -> np.ndarray:
    """The table row by the module docstring's stages, each looked up at call time."""
    n1, n2 = data.shape[:2]
    A, B = _frame(variant, inverse, n1, n2)
    (routes, step), planes = _stages(KERNELS[variant.family, inverse].planes, n1, n2), [None, None]
    out = np.empty((n1, n2, 4))
    spec = out.view(np.complex128).reshape(n1, 2, n2)  # row k1: plane +, then plane -

    def transform(jobs):
        for p in jobs:
            planes[p] = _rotate(data, A, routes[p], p, spec[:, p])
            _run(planes[p], routes[p])

    _halves(transform, range(2), n1 * n2)
    _halves(lambda starts: _back(planes, B, out, starts, step), range(0, n1, step), n1 * n2)
    return out


def forward_fast(variant: TransformVariant, field: QuaternionField2D) -> Spectrum:
    """FFT-backed forward transform; agrees with ``forward_direct``."""
    return Spectrum(_fast(variant, field.data, inverse=False), variant)


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
