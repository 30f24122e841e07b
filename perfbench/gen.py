"""The one generator of benchmark inputs.

``make(workload, seed)`` draws every field, image and axis pair a
workload uses from one seeded stream, in a fixed order, so the same
seed gives byte-identical inputs and another seed gives other ones.
The package under test only ever receives these arrays (or the files
written from them).
"""

from __future__ import annotations

import zlib

import numpy as np

WORKLOADS = ("lib-pow2", "lib-odd", "cli-files")

POW2_SHAPE = (1024, 1024)
ODD_SHAPE = (1000, 1021)          # 2^3 5^3 x prime
CLI_SHAPE = (512, 512)
P3_SHAPE = (256, 256)
COEFFS_SHAPE = (64, 64)

ODD_SCALES = (1e-150, 1.0, 1e150)
NEAR_STEP = 1e-9                  # |g - f| of the near-degenerate pair
SAMPLES_PER_OP = 2                # double-sum samples checked per library op


def unit(v):
    return np.asarray(v, dtype=np.float64) / float(np.linalg.norm(v))


def _axis(rng):
    return unit(rng.standard_normal(3))


def _near_pair(rng, f):
    """g = normalize(f + 1e-9 u) with u a seeded unit orthogonal to f."""
    u = rng.standard_normal(3)
    u = unit(u - np.dot(u, f) * f)
    return f, unit(f + NEAR_STEP * u)


def _sample_points(rng, shape, count=64):
    return np.stack([rng.integers(0, shape[0], count),
                     rng.integers(0, shape[1], count)], axis=1)


def ppm_p6(pixels):
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def ppm_p3(pixels):
    h, w, _ = pixels.shape
    rows = [" ".join(map(str, row)) for row in pixels.reshape(h, w * 3).tolist()]
    return ("P3\n# perfbench\n%d %d\n255\n" % (w, h) + "\n".join(rows) + "\n").encode("ascii")


def make(workload: str, seed: int) -> dict:
    """Every input of ``workload`` for ``seed``, as plain numpy data and bytes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), zlib.crc32(workload.encode())])
    if workload == "lib-pow2":
        field = rng.standard_normal(POW2_SHAPE + (4,))
        f1, g1, f2, g2, f3, f4 = (_axis(rng) for _ in range(6))
        pairs = [("generic-1", f1, g1), ("generic-2", f2, g2),
                 ("g=f", f3, f3.copy()), ("g=-f", f4, -f4)]
        return {"field": field, "pairs": pairs,
                "samples": _sample_points(rng, POW2_SHAPE)}
    if workload == "lib-odd":
        field = rng.standard_normal(ODD_SHAPE + (4,))
        f, g = _axis(rng), _axis(rng)
        near = _near_pair(rng, f)
        pairs = [("generic", f, g), ("near-degenerate", near[0], near[1])]
        return {"field": field, "pairs": pairs, "scales": ODD_SCALES,
                "samples": _sample_points(rng, ODD_SHAPE)}
    field = rng.standard_normal(CLI_SHAPE + (4,))
    small = rng.standard_normal(COEFFS_SHAPE + (4,))
    p6 = rng.integers(0, 256, CLI_SHAPE + (3,), dtype=np.uint8)
    p3 = rng.integers(0, 256, P3_SHAPE + (3,), dtype=np.uint8)
    f, g = _axis(rng), _axis(rng)
    return {"field": field, "small": small, "p6": p6, "p3": p3,
            "p6_bytes": ppm_p6(p6), "p3_bytes": ppm_p3(p3),
            "pair": (f, g), "samples": _sample_points(rng, CLI_SHAPE),
            "coeff_rows": rng.integers(0, COEFFS_SHAPE[0] * COEFFS_SHAPE[1], 8)}
