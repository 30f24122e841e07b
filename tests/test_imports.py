"""What a command and the package load: importing the package loads
nothing, each public name loads with its module on first use, and each
`opsqft` command imports only the modules it runs.  A command process
freezes what its import left, keeps the collector on, and runs clean in
development mode.

Each case runs in a fresh interpreter, which then reports what it holds.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import opsqft
from opsqft.quat import QuaternionField2D
from opsqft.formats import write_field

SRC = os.path.dirname(os.path.dirname(opsqft.__file__))
AXES = ["--f", "1,0,0", "--g", "0.6,0.8,0"]
HEAVY = {"opsqft.fftcore", "opsqft.planes", "opsqft.transform", "opsqft.verify"}
# every package module a command that neither splits nor transforms holds
LIGHT = {"opsqft", "opsqft.cli", "opsqft.formats", "opsqft.quat"}


def _fresh(code, *args, env=os.environ):
    env = {k: v for k, v in env.items() if k != "PYTHONWARNINGS"}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env={**env, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    return out.stdout


def _loaded(argv):
    """The package modules a fresh interpreter holds after ``main(argv)``."""
    code = ("import json, sys\n"
            "from opsqft.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(json.dumps([rc] + sorted(m for m in sys.modules if m.startswith('opsqft'))))")
    rc, *modules = json.loads(_fresh(code, *map(str, argv)).splitlines()[-1])
    assert rc == 0
    return set(modules)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("imports")
    write_field(QuaternionField2D(np.random.default_rng(3).standard_normal((4, 4, 4))),
                d / "a.qf2d")
    (d / "a.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(range(48)))
    return d


@pytest.mark.parametrize("argv, absent", [
    (["info", "--in", "{d}/a.qf2d"], HEAVY),
    (["export-pgm", "--in", "{d}/a.qf2d", "--out", "{d}/a.pgm"], HEAVY),
    (["import-ppm", "--in", "{d}/a.ppm", "--out", "{d}/b.qf2d"], HEAVY),
    (["coeffs", *AXES, "--in", "{d}/a.qf2d"], {"opsqft.transform", "opsqft.verify"}),
    (["split", *AXES, "--in", "{d}/a.qf2d", "--out-plus", "{d}/p.qf2d",
      "--out-minus", "{d}/m.qf2d"], {"opsqft.transform", "opsqft.verify"}),
    (["transform", "--variant", "twosided", *AXES, "--in", "{d}/a.qf2d",
      "--out", "{d}/s.qf2d"], {"opsqft.verify"}),
], ids=["info", "export-pgm", "import-ppm", "coeffs", "split", "transform"])
def test_command_loads_only_what_it_runs(files, argv, absent):
    loaded = _loaded([a.format(d=files) for a in argv])
    assert "opsqft.formats" in loaded
    assert not loaded & absent
    if absent is HEAVY:
        assert loaded == LIGHT
    if argv[0] == "transform":
        assert "opsqft.transform" in loaded


def test_every_public_name_resolves_and_is_listed():
    for name in opsqft.__all__:
        assert getattr(opsqft, name) is not None, name
    assert set(opsqft.__all__) <= set(dir(opsqft))
    assert {"forward_fast", "read_field", "run_all", "fft2", "transform"} <= set(dir(opsqft))
    with pytest.raises(AttributeError, match="no_such_name"):
        opsqft.no_such_name


def test_star_import_in_a_fresh_process():
    code = ("from opsqft import *\n"
            "import importlib, opsqft\n"
            "module = importlib.import_module('opsqft.planes')\n"
            "names = [n for n in opsqft.__all__ if n != '__version__']\n"
            "assert all(globals()[n] is getattr(opsqft, n) for n in names)\n"
            "assert split is opsqft.split is module.split\n"
            "print(len(names))")
    assert int(_fresh(code)) == len(opsqft.__all__) - 1


def test_package_import_loads_no_submodule_and_no_numpy():
    code = ("import json, os, sys\n"
            "before = dict(os.environ)\n"
            "import opsqft\n"
            "held = sorted(m for m in sys.modules if m.startswith(('opsqft.', 'numpy')))\n"
            "print(json.dumps([held, dict(os.environ) == before]))")
    assert json.loads(_fresh(code)) == [[], True]


def test_split_is_the_function_and_planes_the_module_whatever_loads_first():
    code = ("import inspect\n"
            "import opsqft.transform\n"
            "assert inspect.isfunction(opsqft.split), opsqft.split\n"
            "assert inspect.ismodule(opsqft.planes) and opsqft.planes.split is opsqft.split\n"
            "print('ok')")
    assert _fresh(code).strip() == "ok"


def test_split_stays_the_function_after_the_lazy_modules_load():
    # verify and transform import from the planes module; the package's
    # name still holds the function
    code = ("import inspect, opsqft\n"
            "opsqft.run_all, opsqft.forward_fast\n"
            "assert inspect.isfunction(opsqft.split), opsqft.split\n"
            "print('ok')")
    assert _fresh(code).strip() == "ok"


@pytest.mark.parametrize("preset", [None, "2"])
def test_command_process_starts_openblas_with_one_thread(files, preset):
    # a count the caller set wins; the default leaves OpenBLAS no idle worker
    code = ("import ctypes, os, pathlib, sys\n"
            "from opsqft.__main__ import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "import numpy as np\n"
            "libs = pathlib.Path(np.__file__).parent.parent / 'numpy.libs'\n"
            "found = sorted(libs.glob('libscipy_openblas64_*'))\n"
            "get = ctypes.CDLL(str(found[0])).scipy_openblas_get_num_threads64_ if found else None\n"
            "if get:\n"
            "    get.argtypes, get.restype = [], ctypes.c_int\n"
            "tasks = '/proc/self/task'\n"
            "print(get() if get else None, len(os.listdir(tasks)) if os.path.isdir(tasks) else None)")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    threads, tasks = _fresh(code, "info", "--in", str(files / "a.qf2d"), env=env).split()[-2:]
    if threads == "None":
        pytest.skip("numpy has no bundled OpenBLAS here")
    if preset:
        assert int(threads) == min(int(preset), len(os.sched_getaffinity(0)))
    else:
        assert int(threads) == 1
        assert tasks in ("None", "1")


def test_command_process_freezes_the_import_and_keeps_the_collector_on(files):
    # a failed import freezes nothing and leaves the collector on; a command
    # runs with the collector on and the import's objects frozen
    code = ("import gc, sys\n"
            "from opsqft.__main__ import main\n"
            "sys.modules['opsqft.cli'] = None\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except ImportError:\n"
            "    print(gc.isenabled(), gc.get_freeze_count())\n"
            "del sys.modules['opsqft.cli']\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0)")
    out = _fresh(code, "info", "--in", str(files / "a.qf2d")).splitlines()
    assert out[0] == "True 0"
    assert out[-1] == "True True"


@pytest.mark.parametrize("argv", [
    ["import-ppm", "--in", "{d}/a.ppm", "--out", "{d}/dev-b.qf2d"],
    ["transform", "--variant", "twosided", *AXES, "--in", "{d}/a.qf2d", "--out", "{d}/dev-s.qf2d"],
    ["transform", "--variant", "twosided", "--inverse", *AXES, "--in", "{d}/a.qf2d",
     "--out", "{d}/dev-t.qf2d"],
    ["split", *AXES, "--in", "{d}/a.qf2d", "--out-plus", "{d}/dev-p.qf2d",
     "--out-minus", "{d}/dev-m.qf2d"],
    ["export-pgm", "--centered", "--in", "{d}/a.qf2d", "--out", "{d}/dev-a.pgm"],
    ["info", "--in", "{d}/a.qf2d"],
    ["coeffs", *AXES, "--in", "{d}/a.qf2d"],
], ids=["import-ppm", "transform", "transform-inverse", "split", "export-pgm", "info", "coeffs"])
def test_command_process_is_clean_in_development_mode(files, argv):
    # an unclosed file, or an unraisable exception at exit, prints on stderr;
    # freezing the import's objects must not hide one
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "opsqft",
            *(a.format(d=files) for a in argv)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    out = subprocess.run(argv, capture_output=True, text=True, env={**env, "PYTHONPATH": SRC},
                         timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
