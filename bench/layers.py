"""Layer timings of opsqft: the fast transform's stages, each FFT route
beside ``numpy.fft``, and the file formats.

    python bench/layers.py --label L [--quick]

The script times the package's own functions, never copies of them:

- the stages of one 1024 x 1024 twosided forward transform (generic axis
  pair), as ``transform._fast`` runs them: ``_rotate`` of each plane,
  ``_run`` of each pass of its route, and ``_back``; and ``_rotate`` of the
  phase-angle family's two line sums;
- ``fftcore.fft1`` along one axis for each kind of route (dense, grouped on
  either axis, four-step, chirp), interleaved round by round with
  ``numpy.fft.fft`` on the same array;
- ``formats.write_field`` and ``read_field`` at 1024 x 1024, and
  ``read_image_ppm`` on a 512 x 512 P6 and a 256 x 256 P3.

Each row holds the median and quartiles of its rounds, the ratio of the
medians to numpy's where there is one, the tracemalloc peak of one more
call above the memory held before it, and the route that ``_stages`` or
``fftcore._plan`` gives it.  A row whose route is not the one listed here
stops the script with exit status 1, before anything is written.
``--quick`` keeps every route and shrinks the other dimension, the images
and the number of rounds.

Before anything runs, ``transform._pin_blas`` sets numpy's bundled
OpenBLAS to one thread, as the first transform does.  The record (commit,
whether src/ or bench/ differ from it, numpy version, OpenBLAS core, the
CPUs the process may run on, rows) is appended to the JSON list in
``BENCH_<label>.json`` in the current directory.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # time this checkout's package

from opsqft import fftcore, formats, transform  # noqa: E402
from opsqft.planes import make_context  # noqa: E402
from opsqft.quat import PureUnitQuaternion, QuaternionField2D  # noqa: E402

# The routes of a 1024-row grid that the stage rows run, as ``_stages``
# gives them: twosided forward, then the phase-angle forward's lines.
TWOSIDED = ([(), 32, [["_pass0_grouped", 1], ["fft1", -1, 1]]],
            [(), 32, [["_pass0_grouped", -1], ["fft1", -1, 1]]])
PHASED = ([[0], 0, [["fft1", 1, 1]]], [[1], 0, [["fft1", -1, 0]]])
# (kind of ``fftcore._plan``, length, axis) of each kernel row.
KERNELS = (("dense", 64, 0), ("grouped", 1000, 0), ("grouped", 1000, 1),
           ("grouped", 1024, 0), ("grouped", 1024, 1), ("four-step", 515, 0),
           ("four-step", 8192, 0), ("chirp", 1021, 0), ("chirp", 1031, 0),
           ("chirp", 2053, 0))


def as_json(route):
    """A route of nested tuples as the nested lists that JSON holds."""
    return json.loads(json.dumps(route))


def require(name, route, want):
    if as_json(route) != as_json(want):
        sys.exit(f"layers: row {name} runs route {as_json(route)}, not {as_json(want)}")


def peak_mb(call):
    """Tracemalloc peak of one call above the memory held before it, in MB."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - held) / 1e6
    finally:
        tracemalloc.stop()


def timed(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def row(name, route, times, call, numpy_times=None):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    out = {"name": name, "route": as_json(route), "rounds": len(times), "median_s": median,
           "q1_s": q1, "q3_s": q3, "peak_mb": peak_mb(call)}
    if numpy_times:
        out["numpy_median_s"] = statistics.median(numpy_times)
        out["numpy_ratio"] = median / out["numpy_median_s"]
    return out


def interleaved(calls, rounds):
    """The rows of ``{(name, route): call}``, the calls taken in turn in each round."""
    times = {key: [] for key in calls}
    for _ in range(rounds):
        for key, call in calls.items():
            times[key].append(timed(call))
    return [row(name, route, times[name, route], calls[name, route]) for name, route in calls]


def stage_rows(n2, rounds, rng):
    """The stage rows on a 1024 x n2 grid."""
    n1 = 1024
    data = rng.standard_normal((n1, n2, 4))
    ctx = make_context(PureUnitQuaternion(0.3, -0.5, 0.8), PureUnitQuaternion(-0.6, 0.2, 0.4))
    rows = []
    for family, want in ((transform.Family.TWO_SIDED, TWOSIDED), (transform.Family.PHASE_ANGLE, PHASED)):
        variant = transform.TransformVariant(family, ctx)
        A, B = transform._frame(variant, False, n1, n2)
        routes, step = transform._stages(transform.KERNELS[family, False].planes, n1, n2)
        out = np.empty((n1, n2, 4))
        spec = out.view(np.complex128).reshape(n1, 2, n2)
        calls = {}
        for p, route in enumerate(routes):
            require(f"{family.value} plane {p}", route, want[p])
            calls[f"_rotate {family.value} plane {p}", route] = (
                lambda p=p, route=route: transform._rotate(data, A, route, p, spec[:, p]))
        if family is transform.Family.TWO_SIDED:  # each pass on the plane _rotate wrote
            for p, route in enumerate(routes):
                for i, one in enumerate(route.passes):
                    single = route._replace(passes=(one,))
                    calls[f"_run {family.value} plane {p} pass {i}", one] = (
                        lambda p=p, single=single: transform._run(spec[:, p], single))
            planes = [spec[:, 0], spec[:, 1]]
            calls[f"_back {family.value}", ("step", step)] = (
                lambda: transform._back(planes, B, out, range(0, n1, step), step))
        rows += interleaved(calls, rounds)  # one transform per round, in the product's order
    return rows


def kernel_rows(samples, rounds, rng):
    """``fft1`` with sign -1 along one axis of about ``samples`` samples,
    interleaved with ``numpy.fft.fft``, for each row of KERNELS."""
    rows = []
    for kind, n, axis in KERNELS:
        require(f"kernel {n}", fftcore._plan(n, -1)[0], kind)
        shape = (n, max(2, samples // n))[::1 if axis == 0 else -1]
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = np.empty_like(x)
        ours, theirs = [], []
        for _ in range(rounds):
            ours.append(timed(lambda: fftcore.fft1(x, -1, axis=axis, out=y)))
            theirs.append(timed(lambda: np.fft.fft(x, axis=axis)))
        rows.append(row(f"fft1 {kind} {n} axis {axis}", [kind, n, axis], ours,
                        lambda: fftcore.fft1(x, -1, axis=axis, out=y), theirs))
    return rows


def ppm(kind, pixels):
    h, w, _ = pixels.shape
    if kind == "P6":
        return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()
    body = "\n".join(" ".join(map(str, line)) for line in pixels.reshape(h, -1).tolist())
    return ("P3\n%d %d\n255\n%s\n" % (w, h, body)).encode("ascii")


def format_rows(n, image, rounds, rng, tmp):
    """``write_field`` and ``read_field`` of an n x n field, and
    ``read_image_ppm`` of a P6 and a P3 image of ``image`` and half its side."""
    field, path = QuaternionField2D(rng.standard_normal((n, n, 4))), tmp / "field.qf2d"
    calls = {(f"write_field {n}", "qf2d"): lambda: formats.write_field(field, path),
             (f"read_field {n}", "qf2d"): lambda: formats.read_field(path)}
    for kind, side in (("P6", image), ("P3", image // 2)):
        (tmp / kind).write_bytes(ppm(kind, rng.integers(0, 256, (side, side, 3), dtype=np.uint8)))
        calls[f"read_image_ppm {kind} {side}", kind] = lambda kind=kind: formats.read_image_ppm(tmp / kind)
    return interleaved(calls, rounds)


def openblas_core():
    """The core type that numpy's bundled OpenBLAS runs its kernels for, or None."""
    for path in sorted(transform._BLAS_LIBS.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def commit():
    """HEAD of the checkout, and whether its src/ or bench/ differ from it."""
    git = ["git", "-C", str(ROOT)]
    try:
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        diff = subprocess.run(git + ["diff", "--quiet", "HEAD", "--", "src", "bench"])
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head.stdout.strip(), diff.returncode != 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the record goes to BENCH_<label>.json")
    parser.add_argument("--quick", action="store_true", help="small sizes and 3 rounds")
    args = parser.parse_args(argv)
    transform._pin_blas()
    rng = np.random.default_rng(2013)
    rounds = 3 if args.quick else 15
    rows = stage_rows(16 if args.quick else 1024, rounds, rng)
    rows += kernel_rows(1 << 12 if args.quick else 1 << 20, rounds, rng)
    with tempfile.TemporaryDirectory() as tmp:
        rows += format_rows(64 if args.quick else 1024, 64 if args.quick else 512, rounds, rng, Path(tmp))
    head, dirty = commit()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    record = {"label": args.label, "commit": head, "dirty": dirty, "quick": args.quick,
              "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
              "numpy": np.__version__, "openblas_core": openblas_core(), "cpus": cpus, "rows": rows}
    path = Path(f"BENCH_{args.label}.json")
    records = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(records + [record], indent=1) + "\n")
    for r in rows:
        ratio = f"  numpy x{r['numpy_ratio']:.2f}" if "numpy_ratio" in r else ""
        print(f"{r['name']:36s} {r['median_s'] * 1e3:9.3f} ms "
              f"[{r['q1_s'] * 1e3:.3f}-{r['q3_s'] * 1e3:.3f}]  peak {r['peak_mb']:7.2f} MB{ratio}")
    print(f"appended to {path}")


if __name__ == "__main__":
    main()
