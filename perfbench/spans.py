"""Span recorder for the traced run, installed from outside the package.

``Recorder.install`` wraps each function in ``TARGETS`` at every name
under which a module of the package holds it, so calls are caught at
the names their callers look them up by (``opsqft.transform.fft2``,
``opsqft.fftcore.fft1`` inside ``fft2``, ...).  Each call records a span
(name, start, end, parent span, operation id) plus its error flag and
its tracemalloc peak above the level at entry.  Spans stay in memory
until the caller writes them out.  A target that no longer exists is
skipped and reports zero calls.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
import tracemalloc

TARGETS = (
    ("transform", "forward_fast"), ("transform", "inverse_fast"),
    ("split", "split_arr"), ("split", "make_context"),
    ("quat", "mul_arr"), ("quat", "conj_arr"),
    ("embed", "embed"), ("embed", "unembed"),
    ("fftcore", "fft2"), ("fftcore", "fft1"),
    ("formats", "read_field"), ("formats", "write_field"),
    ("formats", "read_image_ppm"), ("formats", "export_magnitude_pgm"),
    ("cli", "main"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)
MB = float(1 << 20)

# Fields of one span record.
NAME, START, END, PARENT, OP, PEAK, ERROR, META = range(8)


def _path_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _meta_in(name, args):
    """What a span needs from its arguments for the derived figures."""
    if name == "fftcore.fft2":
        return {"shape": list(getattr(args[0], "shape", ()))}
    if name in ("formats.read_field", "formats.read_image_ppm") and args:
        meta = {"bytes": _path_size(args[0])}
        if name == "formats.read_image_ppm":
            try:
                with open(args[0], "rb") as fh:
                    meta["kind"] = fh.read(2).decode("ascii", "replace")
            except OSError:
                meta["kind"] = "?"
        return meta
    return None


class Recorder:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self, memory: bool = True):
        self.memory = memory
        self.spans = []
        self.op = -1
        self._stack = []            # [span index, running peak, traced bytes at entry]
        self._patches = []

    def install(self) -> "Recorder":
        if self.memory:
            tracemalloc.start()
        for module_name, attr in TARGETS:
            try:
                module = importlib.import_module("opsqft." + module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "opsqft" or name.startswith("opsqft.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        return self

    def restore(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, fn):
        spans, stack, memory = self.spans, self._stack, self.memory
        write_target = name in ("formats.write_field", "formats.export_magnitude_pgm")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = 0
            if memory:
                base, running = tracemalloc.get_traced_memory()
                if stack:
                    stack[-1][1] = max(stack[-1][1], running)
                tracemalloc.reset_peak()
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op,
                      0, False, _meta_in(name, args)]
            spans.append(record)
            frame = [index, base, base]
            stack.append(frame)
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = time.perf_counter()
                stack.pop()
                if memory:
                    top = max(frame[1], tracemalloc.get_traced_memory()[1])
                    record[PEAK] = top - frame[2]
                    if stack:
                        stack[-1][1] = max(stack[-1][1], top)
                if write_target and len(args) > 1:
                    record[META] = {"bytes": _path_size(args[1])}

        return wrapper


# ---------------------------------------------------------------------------
# Analysis.

def merge(span_lists):
    """Concatenate span lists from several processes, re-basing parents."""
    out = []
    for spans in span_lists:
        offset = len(out)
        for s in spans:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += offset
            out.append(s)
    return out


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _fft2_flops(shape):
    """5 n log2 n per line per axis, the nominal radix-2 count:
    n2 lines of n1 plus n1 lines of n2 is 5 n1 n2 log2(n1 n2)."""
    n1, n2 = shape[:2]
    return 5.0 * n1 * n2 * math.log2(n1 * n2)


def layer_metrics(spans, busy_s, numpy_fft2_s, memory_spans):
    """Per-layer metrics from spans.

    ``busy_s`` is the wall time of the traced operations, the base of
    every ``share``; ``numpy_fft2_s`` maps a plane shape "n1xn2" to the
    numpy.fft.fft2 time on that shape, for ``fftcore.numpy_ratio``.
    Times come from ``spans``, recorded without tracemalloc; ``peak_mb``
    comes from ``memory_spans``, a separate pass recorded with it.
    """
    own = self_times(spans)
    m = {}
    incl = {n: 0.0 for n in NAMES}
    for n in NAMES:
        m[f"{n}.calls"] = 0
        m[f"{n}.self_s"] = 0.0
        m[f"{n}.errors"] = 0
        m[f"{n}.peak_mb"] = 0.0
    for s, t in zip(spans, own):
        n = s[NAME]
        m[f"{n}.calls"] += 1
        m[f"{n}.self_s"] += t
        m[f"{n}.errors"] += int(bool(s[ERROR]))
        incl[n] += s[END] - s[START]
    for s in memory_spans:
        m[f"{s[NAME]}.peak_mb"] = max(m[f"{s[NAME]}.peak_mb"], s[PEAK] / MB)
    for n in NAMES:
        m[f"{n}.share"] = m[f"{n}.self_s"] / busy_s if busy_s > 0 else 0.0

    fft2 = [s for s in spans if s[NAME] == "fftcore.fft2"]
    flops = sum(_fft2_flops(s[META]["shape"]) for s in fft2)
    m["fftcore.fft2.nominal_gflops"] = flops / incl["fftcore.fft2"] / 1e9 if fft2 else 0.0
    # one read and one write of the complex128 plane per axis pass
    m["fftcore.fft2.computed_gb"] = sum(
        2 * 2 * 16.0 * s[META]["shape"][0] * s[META]["shape"][1] for s in fft2) / 1e9
    ceiling = sum(numpy_fft2_s.get(shape_key(s[META]["shape"]), 0.0) for s in fft2)
    m["fftcore.numpy_ratio"] = incl["fftcore.fft2"] / ceiling if ceiling > 0 else 0.0

    for n in ("formats.read_field", "formats.write_field"):
        moved = sum((s[META] or {}).get("bytes", 0) for s in spans if s[NAME] == n)
        m[f"{n}.mb_per_s"] = moved / MB / incl[n] if incl[n] > 0 else 0.0
    for kind in ("P3", "P6"):
        chosen = [s for s in spans if s[NAME] == "formats.read_image_ppm"
                  and (s[META] or {}).get("kind") == kind]
        secs = sum(s[END] - s[START] for s in chosen)
        moved = sum(s[META]["bytes"] for s in chosen)
        m[f"formats.read_image_ppm.{kind.lower()}_mb_per_s"] = moved / MB / secs if secs > 0 else 0.0

    covered = sum(own)
    m["trace.spans_s"] = covered
    m["trace.untraced_s"] = busy_s - covered
    return m


def shape_key(shape):
    return "x".join(str(int(n)) for n in shape[:2])
