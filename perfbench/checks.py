"""Output checks, written against the definitions and not the fast path.

Quaternion arithmetic, the defining double sums of the three transform
families, and the QF2D file layout are all re-implemented here in plain
numpy, so a check never calls the code it is checking.  Every check
returns a relative error; a structural fault (wrong header, truncated
file, missing line) raises ``CheckFailed``.
"""

from __future__ import annotations

import struct

import numpy as np

TOL = 1e-9                         # relative tolerance of every numeric check
QF2D_HEADER = struct.Struct("<4sIII")
TAU = 2.0 * np.pi


class CheckFailed(Exception):
    """An output is structurally wrong (not merely inaccurate)."""


def qmul(p, q):
    pw, px, py, pz = (p[..., i] for i in range(4))
    qw, qx, qy, qz = (q[..., i] for i in range(4))
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw], axis=-1)


def qconj(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def pure(v):
    return np.concatenate([[0.0], v])


def _qexp(axis, angle):
    angle = np.asarray(angle, dtype=np.float64)
    return np.concatenate([np.cos(angle)[..., None],
                           np.sin(angle)[..., None] * axis], axis=-1)


def _left(p):
    """4x4 matrices M with p * q = M @ q, for a (..., 4) array p."""
    w, x, y, z = (p[..., i] for i in range(4))
    return np.stack([np.stack([w, -x, -y, -z], -1), np.stack([x, w, -z, y], -1),
                     np.stack([y, z, w, -x], -1), np.stack([z, -y, x, w], -1)], -2)


def _right(p):
    """4x4 matrices M with q * p = M @ q, for a (..., 4) array p."""
    w, x, y, z = (p[..., i] for i in range(4))
    return np.stack([np.stack([w, -x, -y, -z], -1), np.stack([x, w, z, -y], -1),
                     np.stack([y, -z, w, x], -1), np.stack([z, y, -x, w], -1)], -2)


def _norm2(a):
    """Euclidean norm of a whole array, safe at magnitudes near 1e150."""
    peak = float(np.max(np.abs(a)))
    return peak * float(np.sqrt(np.sum((a / peak) ** 2))) if peak > 0.0 else 0.0


def reference_sample(family, direction, data, f, g, k1, k2):
    """The defining double sum of one output sample, as a length-4 array.

    ``family`` is twosided, phased or conjc; ``direction`` is forward or
    inverse (inverses carry 1/(N1 N2)).  Every kernel factors as
    A2[m2] A1[m1] x[m1, m2] B1[m1] B2[m2] (phase factors about one axis
    commute), so the sum runs over m1 as one matrix product and then
    over m2.  Phases use (m k mod N), exact to rounding at any size.
    """
    n1, n2 = data.shape[:2]
    t1 = TAU * ((np.arange(n1) * k1) % n1) / n1
    t2 = TAU * ((np.arange(n2) * k2) % n2) / n2
    s = -1.0 if direction == "forward" else 1.0
    one1, one2 = np.zeros(n1), np.zeros(n2)
    x = data
    if family == "twosided":
        a1, b1, a2, b2 = _qexp(f, s * t1), _qexp(g, one1), _qexp(f, one2), _qexp(g, s * t2)
    elif family == "phased":
        a1, b1 = _qexp(f, s * t1 / 2), _qexp(g, s * t1 / 2)
        a2, b2 = _qexp(f, s * t2 / 2), _qexp(g, -s * t2 / 2)
    elif family == "conjc":
        x = qconj(data)
        if direction == "forward":
            a1, b1, a2, b2 = _qexp(g, -t1), _qexp(f, one1), _qexp(f, one2), _qexp(f, -t2)
        else:
            a1, b1, a2, b2 = _qexp(g, one1), _qexp(g, -t1), _qexp(f, -t2), _qexp(g, one2)
    else:
        raise ValueError(f"unknown family {family!r}")
    inner = np.tensordot(_left(a1) @ _right(b1), x, axes=([0, 2], [0, 2])).T   # (n2, 4)
    total = qmul(qmul(a2, inner), b2).sum(axis=0)
    return total if direction == "forward" else total / (n1 * n2)


def sample_error(out, family, direction, data, f, g, points):
    """Worst error of ``out`` at ``points`` against the double sum.

    Relative to the sum's natural size, ||data||_2 (times 1/N for inverses).
    """
    scale = _norm2(data) / (1.0 if direction == "forward" else data.shape[0] * data.shape[1])
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for k1, k2 in points:
        ref = reference_sample(family, direction, data, f, g, int(k1), int(k2))
        worst = max(worst, float(np.max(np.abs(out[k1, k2] - ref))) / scale)
    return worst


def roundtrip_error(back, original):
    peak = float(np.max(np.abs(original)))
    return float(np.max(np.abs(back - original))) / peak


# ---------------------------------------------------------------------------
# Files.

def write_qf2d(path, data):
    n1, n2 = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(QF2D_HEADER.pack(b"QF2D", 1, n1, n2))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_qf2d(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < QF2D_HEADER.size:
        raise CheckFailed(f"{path}: {len(raw)} bytes, shorter than the header")
    magic, version, n1, n2 = QF2D_HEADER.unpack_from(raw)
    if magic != b"QF2D" or version != 1:
        raise CheckFailed(f"{path}: header {magic!r} version {version}")
    if len(raw) != QF2D_HEADER.size + 32 * n1 * n2:
        raise CheckFailed(f"{path}: {len(raw)} bytes for a {n1}x{n2} grid")
    return np.frombuffer(raw, dtype="<f8", offset=QF2D_HEADER.size).reshape(n1, n2, 4)


def expect_shape(data, shape, what):
    if data.shape[:2] != tuple(shape):
        raise CheckFailed(f"{what}: grid {data.shape[:2]}, expected {tuple(shape)}")


def import_error(path, pixels):
    """import-ppm must give exactly (0, r/255, g/255, b/255) per pixel."""
    out = read_qf2d(path)
    expect_shape(out, pixels.shape[:2], "import-ppm")
    expected = np.zeros(pixels.shape[:2] + (4,))
    expected[..., 1:] = pixels / 255.0
    return float(np.max(np.abs(out - expected)))


def split_error(plus_path, minus_path, data, f, g):
    """plus + minus = h, f plus g = plus and f minus g = -minus."""
    plus, minus = read_qf2d(plus_path), read_qf2d(minus_path)
    expect_shape(plus, data.shape[:2], "split plus")
    expect_shape(minus, data.shape[:2], "split minus")
    fq, gq = pure(f), pure(g)
    peak = float(np.max(np.abs(data)))
    return max(float(np.max(np.abs(plus + minus - data))),
               float(np.max(np.abs(qmul(qmul(fq, plus), gq) - plus))),
               float(np.max(np.abs(qmul(qmul(fq, minus), gq) + minus)))) / peak


def pgm_error(path, shape):
    """P5 header of the right size, payload of n1 n2 bytes, peak at 255."""
    n1, n2 = shape
    header = b"P5\n%d %d\n255\n" % (n2, n1)
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(header) or len(raw) != len(header) + n1 * n2:
        raise CheckFailed(f"{path}: {len(raw)} bytes, header {raw[:16]!r}")
    if max(raw[len(header):]) != 255:
        raise CheckFailed(f"{path}: peak pixel is not 255")
    return 0.0


def info_error(stdout, shape):
    lines = set(stdout.decode("ascii", "replace").splitlines())
    for name, n in zip(("n1", "n2"), shape):
        if f"{name} = {n}" not in lines:
            raise CheckFailed(f"info does not print '{name} = {n}'")
    return 0.0


def coeffs_error(stdout, small, f, g, rows):
    """One line per sample; sampled lines rebuild their quaternion."""
    lines = stdout.decode("ascii", "replace").splitlines()
    flat = small.reshape(-1, 4)
    if len(lines) != len(flat):
        raise CheckFailed(f"coeffs printed {len(lines)} lines for {len(flat)} samples")
    fq, gq = pure(f), pure(g)
    fg = qmul(fq, gq)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    basis = np.stack([one + fg, fq - gq, one - fg, fq + gq])
    worst = 0.0
    for r in rows:
        try:
            q = np.array([float(t) for t in lines[r].split()])
        except ValueError:
            raise CheckFailed(f"coeffs line {r} is not four reals") from None
        if q.shape != (4,):
            raise CheckFailed(f"coeffs line {r} has {q.size} fields")
        worst = max(worst, float(np.max(np.abs(q @ basis - flat[r]))))
    return worst / float(np.max(np.abs(flat)))
