"""The opsqft benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload lib-pow2 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run; see README.md.  The last
line of stdout is one JSON object (correct, attempted, failed, metrics)
holding the metrics that BENCHMARK.json names; the lines before it
report every metric with its unit, sample count and tail percentile.
A full record (machine, ceiling, every operation) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import machine
import spans
from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Cycle time of one unit of the timed loop at the commit that defined the
# benchmark (2-core Xeon VM).  --seconds fixes the number of units, so every
# commit runs the same operations and the tail percentile keeps its rank.
UNIT_S = {"lib-pow2": 5.5, "lib-odd": 3.7, "cli-files": 3.1}
MIN_UNITS = 2
# A timed run starts one workload process: its set-up is timed up to READY,
# then it runs the whole loop, then these jobs, none of them timed as
# operations.  One set-up per run keeps the run's time on timed operations.
EXTRAS = {"lib-pow2": ("ceiling", "peak"),
          "lib-odd": ("ceiling", "probe", "peak"),
          "cli-files": ("ceiling",)}
DEADLINE_S = 170.0
# Printed in the report and kept in the record, but not declared in
# BENCHMARK.json: a declared metric carries a bound or is compared across
# runs, and these cannot be.
REPORT_ONLY = {
    "fail_frac": "0 on lib-pow2 and cli-files at the defining commit; the result "
                 "line carries attempted and failed instead",
    "max_rel_err": "rounding-level maxima vary many-fold between seeds",
    **{f"{n}.self_s": "0 s on the workloads that never call it; declared as share"
       for n in ("quat.conj_arr", "formats.read_field", "formats.write_field",
                 "formats.read_image_ppm", "formats.export_magnitude_pgm", "cli.main")},
}


class BenchError(Exception):
    pass


def units_for(workload, seconds):
    return max(MIN_UNITS, round(seconds / UNIT_S[workload]))


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0, 0
    i = n - 11
    return v[i], 100.0 * (i + 1) / n, n - 1 - i


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(values, kind):
    """The BENCHMARK.json metrics of ``kind``, valued from ``values``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared()[kind]}


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(workload, seed, units, deadline, *options):
    """Launch one workload process; returns (set-up seconds, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--units", str(units), *options]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - t0), _kill_group, (proc,))
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        proc.stdout.close()
    if first.strip() != b"READY" or code != 0 or not rest.strip():
        raise BenchError(f"worker {' '.join(options)} of {workload} failed (exit {code})")
    return ready - t0, json.loads(rest.strip().splitlines()[-1])


def import_s(reps=5):
    """Wall time of a fresh interpreter running `import opsqft.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import opsqft.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _entry(value, unit, n, note):
    return {"value": value, "unit": unit, "n": n, "note": note}


def timed_run(workload, seed, units, deadline):
    options = [arg for job in EXTRAS[workload] for arg in ("--extra", job)]
    setup, payload = run_worker(workload, seed, units, deadline, "--role", "timed", *options)
    return summarize_timed(payload, setup)


def summarize_timed(p, setup):
    """End-to-end metrics, the record and the result line of a timed run."""
    timed, probe, peak_pass = p["ops"], p.get("probe_ops", []), p.get("peak")
    lat = [op["s"] for op in timed]
    n = len(lat)
    t_value, t_pct, t_beyond = tail(lat)
    ranked = sorted(timed, key=lambda op: op["s"])
    t_type = ranked[n - 1 - t_beyond]["type"]
    beyond = collections.Counter(op["type"] for op in ranked[n - t_beyond:])
    peak = peak_pass["peak_mb"] if peak_pass else max(op["rss_mb"] for op in timed)
    every = timed + probe
    failed = [op for op in every if not op["ok"]]
    errs = [op["err"] for op in every if op["err"] is not None]
    metrics = {
        "op_p50_s": _entry(statistics.median(lat), "s", n, f"median of {n} operations"),
        "op_tail_s": _entry(t_value, "s", n,
                            f"p{t_pct:.1f}, a {t_type} operation; {t_beyond} of {n} samples "
                            "beyond it: " + ", ".join(f"{c} {k}" for k, c in beyond.most_common())),
        "msamples_per_s": _entry(sum(op["samples"] for op in timed) / sum(lat) / 1e6,
                                 "Msamples/s", n, f"checked samples over {sum(lat):.3f} s timed"),
        "peak_mem_mb": _entry(peak, "MB", len(peak_pass["by_type"]) if peak_pass else n,
                              "tracemalloc peak, max over operation types"
                              if peak_pass else "max child max RSS"),
        "setup_s": _entry(setup, "s", 1, "launch to READY, warm-up included"),
        "fail_frac": _entry(len(failed) / len(every), "ratio", len(every),
                            f"{len(failed)} of {len(every)} operations failed"
                            + (f"; the {len(every)} include {len(probe)} known-defect probes"
                               if probe else "")),
        "max_rel_err": _entry(max(errs), "ratio", len(errs), "worst output check"),
    }
    t = p["ceiling"]
    record = {
        "ops": timed, "probe_ops": probe, "setup_s": setup,
        "peak_by_type_mb": peak_pass["by_type"] if peak_pass else None,
        "known_defects": [{"type": op["type"], "ok": op["ok"], "err": op["err"], "note": op["note"]}
                          for op in probe],
        "ceiling": {"numpy_fft2_s": t["numpy_fft2_s"], "plane": t["plane"]},
        "tail_op_types": {"at": t_type, "beyond": dict(beyond)},
        "working_set_mb": {"field": t["field_mb"], "peak": peak},
    }
    line = {"correct": all(op["ok"] for op in timed), "attempted": n,
            "failed": sum(not op["ok"] for op in timed),
            "metrics": declared_metrics({k: v["value"] for k, v in metrics.items()}, "end_to_end")}
    return metrics, record, line


def traced_run(workload, seed, units, deadline):
    _, payload = run_worker(workload, seed, units, deadline, "--role", "traced")
    return summarize_traced(payload, import_s())


def summarize_traced(p, import_seconds):
    """Per-layer metrics, the record and the result line of a traced run."""
    untraced = p["untraced"]
    traced = [op for op in p["traced"] if not op["probe"]]
    busy = sum(op["s"] for op in p["traced"])
    values = spans.layer_metrics(p["spans"], busy, p["numpy_fft2_s"], p["memory_spans"])
    values["cli.import_s"] = import_seconds
    values["trace.overhead_s"] = (statistics.median(op["s"] for op in traced)
                                  - statistics.median(op["s"] for op in untraced))
    values["trace.busy_s"] = busy
    record = {"untraced_ops": untraced, "traced_ops": p["traced"],
              "numpy_fft2_s": p["numpy_fft2_s"], "spans": p["spans"]}
    ok = untraced + traced
    line = {"correct": all(op["ok"] for op in ok), "attempted": len(ok),
            "failed": sum(not op["ok"] for op in ok),
            "metrics": declared_metrics(values, "per_layer")}
    return values, record, line


def report_timed(workload, seed, metrics):
    print(f"{workload} seed {seed}: end-to-end (untraced)")
    for name, m in metrics.items():
        print(f"  {name:<15} {m['value']:<14.6g} {m['unit']:<11} n={m['n']:<4} {m['note']}")


def report_traced(workload, seed, values):
    print(f"{workload} seed {seed}: per layer (traced run)")
    print(f"  {'function':<30} {'calls':>6} {'self_s':>10} {'share':>7} {'errors':>6} {'peak_mb':>8}")
    for n in spans.NAMES:
        print(f"  {n:<30} {values[n + '.calls']:>6} {values[n + '.self_s']:>10.4f} "
              f"{values[n + '.share']:>7.3f} {values[n + '.errors']:>6} {values[n + '.peak_mb']:>8.1f}")
    for key in sorted(values):
        if key.split(".")[-1] not in ("calls", "self_s", "share", "errors", "peak_mb"):
            print(f"  {key:<40} {values[key]:.6g}")
    print(f"  accounting: sum of self_s {values['trace.spans_s']:.4f} s + untraced "
          f"{values['trace.untraced_s']:.4f} s = traced operation time {values['trace.busy_s']:.4f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opsqft" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'opsqft'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + DEADLINE_S
    units = units_for(args.workload, args.seconds)
    if args.trace:
        # The traced run plays its loop twice (untraced, then traced), so it
        # takes half the cycles of a timed run to last about as long.
        units = max(MIN_UNITS, units // 2)
    try:
        if args.trace:
            values, record, line = traced_run(args.workload, args.seed, units, deadline)
            report_traced(args.workload, args.seed, values)
        else:
            values, record, line = timed_run(args.workload, args.seed, units, deadline)
            report_timed(args.workload, args.seed, values)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "timed"
    path = OUT / f"{args.workload}-seed{args.seed}-{kind}.json"
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "units": units, "metrics": values, "machine": machine.record()})
    l3 = record["machine"]["caches_bytes"].get("L3")
    if l3 and "working_set_mb" in record:
        record["working_set_mb"]["L3"] = l3 / float(1 << 20)
    path.write_text(json.dumps(record, indent=1))
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
