"""bench/layers.py: the record of a quick run, and the route of every row."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from opsqft import fftcore, transform

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
# Each stage row's route, as ``_stages`` gives it for a twosided and a
# phase-angle forward transform with 1024 rows, in JSON's lists.
STAGE_ROUTES = {
    "_rotate twosided plane 0": [[], 32, [["_pass0_grouped", 1], ["fft1", -1, 1]]],
    "_rotate twosided plane 1": [[], 32, [["_pass0_grouped", -1], ["fft1", -1, 1]]],
    "_run twosided plane 0 pass 0": ["_pass0_grouped", 1],
    "_run twosided plane 0 pass 1": ["fft1", -1, 1],
    "_run twosided plane 1 pass 0": ["_pass0_grouped", -1],
    "_run twosided plane 1 pass 1": ["fft1", -1, 1],
    "_rotate phased plane 0": [[0], 0, [["fft1", 1, 1]]],
    "_rotate phased plane 1": [[1], 0, [["fft1", -1, 0]]],
}
FORMAT_ROWS = {"write_field 64", "read_field 64", "read_image_ppm P6 64", "read_image_ppm P3 32"}


def test_quick_run_appends_its_record(tmp_path):
    for runs in (1, 2):
        subprocess.run([sys.executable, str(LAYERS), "--label", "t", "--quick"], cwd=tmp_path,
                       check=True, capture_output=True, timeout=60)
        records = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert len(records) == runs
    record = records[-1]
    assert record["label"] == "t" and record["quick"] is True
    assert record["numpy"] and record["cpus"] >= 1 and record.keys() >= {"commit", "dirty", "openblas_core"}
    rows = {r["name"]: r for r in record["rows"]}
    assert len(rows) == len(record["rows"])
    for r in rows.values():
        assert r["rounds"] == 3 and 0 < r["q1_s"] <= r["median_s"] <= r["q3_s"] and r["peak_mb"] >= 0
    for name, route in STAGE_ROUTES.items():
        assert rows.pop(name)["route"] == route
    assert rows.pop("_back twosided")["route"][0] == "step"
    assert {name for name in rows if not name.startswith("fft1")} == FORMAT_ROWS
    kernels = [rows[name] for name in rows if name.startswith("fft1")]
    for r in kernels:
        kind, n, axis = r["route"]
        assert r["name"] == f"fft1 {kind} {n} axis {axis}" and fftcore._plan(n, -1)[0] == kind
        assert r["numpy_ratio"] > 0
    assert {tuple(r["route"]) for r in kernels} >= {("grouped", 1024, 0), ("grouped", 1024, 1)}
    assert {r["route"][0] for r in kernels} == {"dense", "grouped", "four-step", "chirp"}


def test_a_row_off_its_route_stops_the_run(monkeypatch, tmp_path):
    # each grouped plane written in natural row order: the script names
    # the row and writes nothing
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    stages = transform._stages

    def natural_order(planes, n1, n2):
        routes, rows = stages(planes, n1, n2)
        return tuple(route._replace(a=0) for route in routes), rows

    monkeypatch.setattr(transform, "_stages", natural_order)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="^layers: row twosided plane 0 runs route"):
        layers.main(["--label", "t", "--quick"])
    assert not list(tmp_path.iterdir())
