"""Complex 2D DFT with an independently chosen exponent sign per axis.

The transforms here use the convention
F[k] = sum_m x[m] * exp(i * (s1 * 2 pi m1 k1 / N1 + s2 * 2 pi m2 k2 / N2))
so s1 = s2 = -1 reproduces the usual forward DFT.  Mixed signs are
needed because the split transform kernels rotate the two planes in
opposite directions.

One kernel serves every length.  A length of at most 64 is one product
with its DFT matrix.  A longer composite length n = a b, with a the
largest divisor not above sqrt(n), runs Bailey's four-step
factorization: length-b transforms, the twiddles w^(m1 k2), one
transpose and length-a transforms, which leaves the output in natural
order.  When b is at most 64 (so n is at most 4096) the twiddles are
folded into the length-b matrices: row m1 of the input meets its own
matrix diag(w^(m1 k2)) M_b, and one batched product writes the
transposed, twiddled first stage.  A longer prime length runs
Bluestein's chirp-z transform, a circular convolution of power-of-two
length evaluated by the same kernel.  The DFT matrices, twiddles and
chirps are built on first use and cached per (length, sign); every
angle is reduced exactly in integers before ``exp``.  A folded stack
holds n b <= 2^18 complex numbers (4 MiB), the other plans O(n), so the
cache holds at most 256 MiB of folded stacks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TAU = 2.0 * np.pi

# Lengths up to this are a single dense DFT matrix product.
_DENSE_MAX = 64
# Most (length, sign) plans kept at once.  Worst case: 64 folded stacks
# of at most 4 MiB each (n = 4096, b = 64), 256 MiB, plus the O(n) tables
# of the other plans.
_PLAN_CACHE = 64
# Samples in one padded Bluestein buffer (4 MB): a prime-length pass over
# many columns runs in column blocks, so its scratch memory stays bounded.
_CHIRP_BLOCK = 1 << 18


class AxisSigns(NamedTuple):
    s1: int
    s2: int


def _check_sign(s: int) -> int:
    if s not in (-1, 1):
        raise ValueError(f"axis sign must be +1 or -1, got {s!r}")
    return s


def _roots(j: np.ndarray, n: int, sign: int) -> np.ndarray:
    """Read-only exp(sign * 2 pi i j / n) for integers j already reduced mod n."""
    w = np.exp(sign * 1j * TAU * j / n)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=_PLAN_CACHE)
def _plan(n: int, sign: int):
    """What ``_pass0`` needs for length n, tagged by the method.

    ("dense", M, None): M[k, m] = w^(m k), w = exp(sign 2 pi i / n).
    ("fused", a, F): n = a b with b <= _DENSE_MAX, and the stack
    F[m1, k2, m2] = w^(k2 (a m2 + m1)) = w^(m1 k2) w_b^(m2 k2): the
    length-b DFT matrix with the twiddles of row m1 folded in.
    ("four-step", a, T): n = a b and T[m1, k2] = w^(m1 k2) for m1 < a, k2 < b.
    ("chirp", c, K): c[m] = exp(sign pi i m^2 / n) as a column, and K the
    power-of-two length transform of the conjugate chirp, divided by its
    length, as a column.
    """
    if n <= _DENSE_MAX:
        m = np.arange(n)
        return "dense", _roots(np.outer(m, m) % n, n, sign), None
    a = math.isqrt(n)
    while n % a:
        a -= 1
    b = n // a
    if b <= _DENSE_MAX:
        m1, k2, m2 = np.ogrid[:a, :b, :b]
        return "fused", a, _roots(k2 * (a * m2 + m1) % n, n, sign)
    if a > 1:
        m1, k2 = np.ogrid[:a, :b]
        return "four-step", a, _roots(m1 * k2 % n, n, sign)
    size = 1 << (2 * n - 2).bit_length()
    m = np.arange(n, dtype=np.int64)
    chirp = _roots(m * m % (2 * n), 2 * n, sign)
    h = np.zeros((size, 1), dtype=np.complex128)
    h[:n, 0] = chirp.conj()
    h[size - n + 1:, 0] = chirp[:0:-1].conj()
    kernel = _pass0(h, -1) / size
    kernel.flags.writeable = False
    return "chirp", chirp[:, None], kernel


def _pass0(x: np.ndarray, sign: int) -> np.ndarray:
    """Signed transform along axis 0 of a C-contiguous (n, r) complex array."""
    n, r = x.shape
    kind, p, q = _plan(n, sign)
    if kind == "dense":
        return p @ x
    if kind != "chirp":
        # input index a m2 + m1, output index k2 + b k1
        a, b = p, n // p
        if kind == "fused":
            z = q @ x.reshape(b, a, r).transpose(1, 0, 2)
        else:
            y = _pass0(x.reshape(b, a * r), sign).reshape(b, a, r)
            z = np.empty((a, b, r), dtype=np.complex128)
            np.multiply(y.transpose(1, 0, 2), q[:, :, None], out=z)
            del y  # free the first pass before the second allocates its output
        return _pass0(z.reshape(a, b * r), sign).reshape(n, r)
    # w^(m k) = c[m] c[k] conj(c[k - m]): a convolution with the conjugate chirp
    size = q.shape[0]
    step = max(1, _CHIRP_BLOCK // size)
    out = np.empty_like(x)
    for j in range(0, r, step):
        y = np.zeros((size, min(step, r - j)), dtype=np.complex128)
        np.multiply(x[:, j:j + step], p, out=y[:n])
        y = _pass0(y, -1)
        y *= q
        np.multiply(_pass0(y, 1)[:n], p, out=out[:, j:j + step])
    return out


def fft1(x: np.ndarray, sign: int, axis: int = -1) -> np.ndarray:
    """Signed 1D transform of a complex array along ``axis``."""
    _check_sign(sign)
    moved = np.moveaxis(np.asarray(x, dtype=np.complex128), axis, 0)
    flat = np.ascontiguousarray(moved).reshape(moved.shape[0], math.prod(moved.shape[1:]))
    return np.moveaxis(_pass0(flat, sign).reshape(moved.shape), 0, axis)


def fft2(field: np.ndarray, signs: AxisSigns) -> np.ndarray:
    """Signed 2D transform: axis 0 with signs.s1, then axis 1 with signs.s2.

    The result is C-contiguous.
    """
    out = fft1(field, signs.s1, axis=0)
    return np.ascontiguousarray(fft1(out, signs.s2, axis=1))

