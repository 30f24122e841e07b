"""One workload process: set up, say READY, then play one role.

    python3 perfbench/worker.py --workload W --seed N --units U --role R \
        [--extra ceiling|peak|probe ...]

Set-up is everything before the first timed operation: interpreter
start, imports, the seeded inputs, contexts, and one untimed warm-up of
every operation type.  ``run.py`` times it from launch to the READY
line.  The roles are

  timed   the closed loop of U cycles, every output checked; each --extra adds a job after it: the numpy.fft.fft2
          ceiling on the workload's plane (ceiling), the tracemalloc peak
          of one operation of each type (peak, library only) or the
          known-defect inputs of lib-odd, checked like the rest (probe)
  traced  the whole loop untraced, then again under the span recorder,
          then one cycle with tracemalloc on

The result is one JSON line on stdout after READY.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

LIB_FAMILIES = {"lib-pow2": ("twosided", "phased", "conjc"),
                "lib-odd": ("twosided", "conjc")}
MB = float(1 << 20)


def _op(kind, seconds, samples, err=None, note="", tol=checks.TOL, probe=False):
    ok = not note and err is not None and err <= tol
    return {"type": kind, "s": seconds, "samples": samples if ok else 0,
            "ok": ok, "err": err, "note": note, "probe": probe}


def numpy_fft2_s(plane, reps=5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.fft.fft2(plane)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def ceiling(data):
    """numpy.fft.fft2 on the first complex plane of a (n1, n2, 4) field."""
    plane = data[..., 0] + 1j * data[..., 1]
    return {"numpy_fft2_s": numpy_fft2_s(plane), "plane": list(plane.shape),
            "field_mb": data.nbytes / MB}


# ---------------------------------------------------------------------------
# Library workloads: forward_fast then inverse_fast on the spectrum.

class Library:
    def __init__(self, name, seed, units):
        import opsqft
        self.o = opsqft
        self.name, self.units = name, units
        self.inp = gen.make(name, seed)
        self.points = self.inp["samples"]
        self.variants = {}
        for fam in LIB_FAMILIES[name]:
            family = opsqft.Family(fam)
            for p, (_, f, g) in enumerate(self.inp["pairs"]):
                ctx = opsqft.make_context(opsqft.PureUnitQuaternion(*f),
                                          opsqft.PureUnitQuaternion(*g))
                self.variants[fam, p] = opsqft.TransformVariant(family, ctx)
        scales = self.inp.get("scales", (1.0,))
        self.fields = {s: opsqft.QuaternionField2D(self.inp["field"] * s) for s in scales}
        for fam in LIB_FAMILIES[name]:          # warm-up: each operation type once
            self.round_trip((0, fam, 0, 1.0), check=False)

    def plan(self):
        """Round trips of the timed loop: (index, family, pair index, scale)."""
        fams = LIB_FAMILIES[self.name]
        if self.name == "lib-pow2":
            return [(i, fams[i % 3], i % 4, 1.0) for i in range(3 * self.units)]
        return [(i, fams[i % 2], 0, (1e-150, 1.0)[(i // 2) % 2]) for i in range(2 * self.units)]

    def probe_plan(self):
        """The lib-odd inputs that raise or fail their check today."""
        return [(100, "twosided", 1, 1e-150), (101, "conjc", 1, 1.0),
                (102, "twosided", 1, 1e150), (103, "conjc", 0, 1e150)]

    def _points(self, index, first, count):
        """Seeded sample points of round trip ``index``, distinct per round trip."""
        return [self.points[(3 * index + first + i) % len(self.points)] for i in range(count)]

    def round_trip(self, rt, check=True, probe=False, on_op=None):
        """Forward then inverse; returns the two operation records."""
        index, fam, p, scale = rt
        variant = self.variants[fam, p]
        field = self.fields[scale]
        f, g = self.inp["pairs"][p][1:]
        samples = field.data.shape[0] * field.data.shape[1]
        kind = f"{fam}.forward"
        if on_op:
            on_op(kind)
        t0 = time.perf_counter()
        try:
            spectrum = self.o.forward_fast(variant, field)
        except Exception as e:           # a failed operation is counted, not fatal
            return [_op(kind, time.perf_counter() - t0, samples,
                        note=f"{type(e).__name__}: {e}", probe=probe)]
        records = [_op(kind, time.perf_counter() - t0, samples, err=0.0, probe=probe)]
        if check:
            err = checks.sample_error(spectrum.data, fam, "forward", field.data, f, g,
                                      self._points(index, 0, gen.SAMPLES_PER_OP))
            records[0] = _op(kind, records[0]["s"], samples, err=err, probe=probe)
        kind = f"{fam}.inverse"
        if on_op:
            on_op(kind)
        t0 = time.perf_counter()
        try:
            back = self.o.inverse_fast(variant, spectrum)
        except Exception as e:
            records.append(_op(kind, time.perf_counter() - t0, samples,
                               note=f"{type(e).__name__}: {e}", probe=probe))
            return records
        seconds = time.perf_counter() - t0
        err = 0.0
        if check:
            err = checks.sample_error(back.data, fam, "inverse", spectrum.data, f, g,
                                      self._points(index, gen.SAMPLES_PER_OP, 1))
            if fam != "phased":     # the phase-angle family is not invertible by design
                err = max(err, checks.roundtrip_error(back.data, field.data))
        records.append(_op(kind, seconds, samples, err=err, probe=probe))
        return records

    def run(self, plan, on_op=None, probe=False):
        ops = []
        for rt in plan:
            ops += self.round_trip(rt, probe=probe, on_op=on_op)
        return ops

    def role_timed(self):
        return {"ops": self.run(self.plan())}

    def ceiling(self):
        return ceiling(self.fields[1.0].data)

    def memory_cycle(self):
        """One round trip per family under the span recorder with tracemalloc
        on; returns the spans and the operation type of each operation id."""
        kinds = []
        memory = spans.Recorder(memory=True)
        with memory:
            def next_op(kind):
                memory.op += 1
                kinds.append(kind)
            self.run([(0, fam, 0, 1.0) for fam in LIB_FAMILIES[self.name]], on_op=next_op)
        return memory.spans, kinds

    def peak(self):
        """Largest tracemalloc rise inside one call, per operation type."""
        memory_spans, kinds = self.memory_cycle()
        by_type = {}
        for s in memory_spans:
            if s[spans.NAME] in ("transform.forward_fast", "transform.inverse_fast"):
                kind = kinds[s[spans.OP]]
                by_type[kind] = max(by_type.get(kind, 0.0), s[spans.PEAK] / MB)
        return {"peak_mb": max(by_type.values()), "by_type": by_type}

    def probe(self):
        return self.run(self.probe_plan(), probe=True)

    def role_traced(self):
        untraced = self.run(self.plan())
        rec = spans.Recorder(memory=False)
        with rec:
            def next_op(_kind):
                rec.op += 1
            traced = self.run(self.plan(), on_op=next_op)
            if self.name == "lib-odd":
                traced += self.run(self.probe_plan(), on_op=next_op, probe=True)
        memory_spans, _ = self.memory_cycle()
        return {"untraced": untraced, "traced": traced, "spans": rec.spans,
                "memory_spans": memory_spans, "numpy_fft2_s": _numpy_by_shape(rec.spans)}


def _numpy_by_shape(span_list):
    """numpy.fft.fft2 time on each plane shape that fft2 was called with."""
    keys = {spans.shape_key(s[spans.META]["shape"]) for s in span_list
            if s[spans.NAME] == "fftcore.fft2"}
    rng = np.random.default_rng(0)
    out = {}
    for key in sorted(keys):
        n1, n2 = (int(v) for v in key.split("x"))
        out[key] = numpy_fft2_s(rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2)))
    return out


# ---------------------------------------------------------------------------
# CLI workload: one `python -m opsqft` process per operation.

class Cli:
    def __init__(self, name, seed, units):
        self.units = units
        self.inp = inp = gen.make(name, seed)
        self.work = OUT / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        w = self.work
        checks.write_qf2d(w / "field.qf2d", inp["field"])
        checks.write_qf2d(w / "small.qf2d", inp["small"])
        (w / "image6.ppm").write_bytes(inp["p6_bytes"])
        (w / "image3.ppm").write_bytes(inp["p3_bytes"])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        f, g = inp["pair"]
        # "--f=..." keeps argparse from reading a leading minus as an option
        self.axes = ["--f=" + ",".join("%.17g" % v for v in f),
                     "--g=" + ",".join("%.17g" % v for v in g)]
        try:
            self.run([0])                        # warm-up: each operation type once
        except BaseException:
            self.close()
            raise

    def cycle(self, index):
        """(type, argv, samples, check, tolerance) of cycle ``index``, in
        dependency order; ``check`` takes the child's stdout."""
        w, inp, axes = self.work, self.inp, self.axes
        n = gen.CLI_SHAPE[0] * gen.CLI_SHAPE[1]
        field, (f, g) = inp["field"], inp["pair"]
        tw = ["transform", "--variant", "twosided"] + axes

        def pts():
            return [inp["samples"][(2 * index + i) % len(inp["samples"])]
                    for i in range(gen.SAMPLES_PER_OP)]

        def spectrum_error(path, family):
            out = checks.read_qf2d(path)
            checks.expect_shape(out, gen.CLI_SHAPE, "transform")
            return checks.sample_error(out, family, "forward", field, f, g, pts())

        def back_error(_):
            back = checks.read_qf2d(w / "back.qf2d")
            checks.expect_shape(back, gen.CLI_SHAPE, "transform --inverse")
            return checks.roundtrip_error(back, field)

        return [
            ("import-ppm.p6", ["import-ppm", "--in", w / "image6.ppm", "--out", w / "image6.qf2d"],
             n, lambda _: checks.import_error(w / "image6.qf2d", inp["p6"]), 0.0),
            ("import-ppm.p3", ["import-ppm", "--in", w / "image3.ppm", "--out", w / "image3.qf2d"],
             gen.P3_SHAPE[0] * gen.P3_SHAPE[1],
             lambda _: checks.import_error(w / "image3.qf2d", inp["p3"]), 0.0),
            ("transform.twosided", tw + ["--in", w / "field.qf2d", "--out", w / "spec.qf2d"],
             n, lambda _: spectrum_error(w / "spec.qf2d", "twosided"), checks.TOL),
            ("transform.twosided.inverse",
             tw + ["--inverse", "--in", w / "spec.qf2d", "--out", w / "back.qf2d"],
             n, back_error, checks.TOL),
            ("transform.phased", ["transform", "--variant", "phased"] + axes
             + ["--in", w / "field.qf2d", "--out", w / "phased.qf2d"],
             n, lambda _: spectrum_error(w / "phased.qf2d", "phased"), checks.TOL),
            ("split", ["split"] + axes + ["--in", w / "field.qf2d",
                                         "--out-plus", w / "plus.qf2d", "--out-minus", w / "minus.qf2d"],
             n, lambda _: checks.split_error(w / "plus.qf2d", w / "minus.qf2d", field, f, g),
             checks.TOL),
            ("export-pgm", ["export-pgm", "--centered", "--in", w / "spec.qf2d", "--out", w / "spec.pgm"],
             n, lambda _: checks.pgm_error(w / "spec.pgm", gen.CLI_SHAPE), 0.0),
            ("info", ["info", "--in", w / "spec.qf2d"],
             n, lambda out: checks.info_error(out, gen.CLI_SHAPE), 0.0),
            ("coeffs", ["coeffs"] + axes + ["--in", w / "small.qf2d"],
             gen.COEFFS_SHAPE[0] * gen.COEFFS_SHAPE[1],
             lambda out: checks.coeffs_error(out, inp["small"], f, g, inp["coeff_rows"]),
             checks.TOL),
        ]

    def _child(self, argv):
        """Run one child; returns (seconds, exit code, stdout, max RSS in MB)."""
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, out, usage.ru_maxrss * 1024 / MB

    def run(self, cycles, traced_dir=None, memory=False):
        """Run the cycles with these indices, one child per operation."""
        ops = []
        for index in cycles:
            for kind, args, samples, check, tol in self.cycle(index):
                args = [str(a) for a in args]
                if traced_dir is None:
                    argv = [sys.executable, "-m", "opsqft"] + args
                else:
                    argv = [sys.executable, str(HERE / "launcher.py"),
                            str(traced_dir / f"spans-{len(ops)}.json"), str(len(ops)),
                            str(int(memory)), "--"] + args
                seconds, code, out, rss = self._child(argv)
                if code != 0:
                    note = f"exit {code}: " + (self.work / "stderr.txt").read_text(errors="replace")[-300:]
                    op = _op(kind, seconds, samples, note=note)
                else:
                    try:
                        op = _op(kind, seconds, samples, err=check(out), tol=tol)
                    except (checks.CheckFailed, OSError) as e:
                        op = _op(kind, seconds, samples, err=1.0, note=str(e))
                op["rss_mb"] = rss
                ops.append(op)
        return ops

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def role_timed(self):
        return {"ops": self.run(range(self.units))}

    def ceiling(self):
        return ceiling(self.inp["field"])

    def _traced(self, cycles, memory):
        """Run through the launcher; returns (ops, their merged spans)."""
        traced_dir = self.work / ("memory" if memory else "spans")
        traced_dir.mkdir()
        ops = self.run(cycles, traced_dir=traced_dir, memory=memory)
        span_lists = []
        for i in range(len(ops)):
            path = traced_dir / f"spans-{i}.json"
            span_lists.append(json.loads(path.read_text()) if path.exists() else [])
        return ops, spans.merge(span_lists)

    def role_traced(self):
        untraced = self.run(range(self.units))
        traced, merged = self._traced(range(self.units), memory=False)
        _, memory_spans = self._traced([0], memory=True)
        return {"untraced": untraced, "traced": traced, "spans": merged,
                "memory_spans": memory_spans, "numpy_fft2_s": _numpy_by_shape(merged)}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--role", required=True, choices=("timed", "traced"))
    parser.add_argument("--extra", action="append", default=[],
                        choices=("ceiling", "peak", "probe"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    workload = (Cli if args.workload == "cli-files" else Library)(
        args.workload, args.seed, args.units)
    try:
        print("READY", flush=True)
        if args.role == "traced":
            result = workload.role_traced()
        else:
            result = workload.role_timed()
        for job in args.extra:
            result["probe_ops" if job == "probe" else job] = getattr(workload, job)()
    finally:
        if isinstance(workload, Cli):
            workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
