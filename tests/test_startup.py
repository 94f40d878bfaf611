"""What a command pays before its analysis starts: the package imports
lazily, the CLI loads only the modules its command runs, no command that
reads a corpus but ``null`` loads OpenSSL, and numpy starts with one
OpenBLAS thread unless the user chose a count."""

import importlib
import json
import os
import platform
import subprocess
import sys
import time

import pytest

import helixmi
from helixmi import cache, cli, infotheory, mesh, synth

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# prints, when the process exits, the BLAS thread variables, the helixmi
# modules loaded, whether numpy and OpenSSL's hashes (``_hashlib``) were,
# the process's threads and, for each fork, the threads of the process
# that forked
PROBE = """
import atexit, json, os, sys
FORKS = []
def _threads():
    return len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
def _report():
    print(json.dumps({
        "env": {name: os.environ.get(name) for name in %r},
        "modules": sorted(m for m in sys.modules if m.startswith("helixmi.")),
        "numpy": "numpy" in sys.modules,
        "hashlib": "_hashlib" in sys.modules,
        "threads": _threads(),
        "forks": FORKS,
    }))
atexit.register(_report)
os.register_at_fork(before=lambda: FORKS.append(_threads()))
""" % (BLAS_VARIABLES,)

# how ``python -m helixmi.cli`` runs the module, and the console script
AS_MODULE = "import runpy; runpy.run_module('helixmi.cli', run_name='__main__', alter_sys=True)"
AS_SCRIPT = "from helixmi.cli import entry; entry()"


# prints at exit whether a 1 MB block gets pages of its own after a freed
# 4 MB one, which raises glibc's mmap threshold above 1 MB unless it is fixed
MAPPED = """
import atexit, ctypes
def _mapped():
    class Info(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
            "uordblks", "fordblks", "keepcost")]
    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = Info
    libc.malloc.restype = ctypes.c_void_p
    libc.malloc.argtypes = [ctypes.c_size_t]
    libc.free.argtypes = [ctypes.c_void_p]
    libc.free(libc.malloc(4 << 20))
    before = libc.mallinfo2().hblks
    block = libc.malloc(1 << 20)
    print(libc.mallinfo2().hblks - before)
    libc.free(block)
atexit.register(_mapped)
"""


def probe(code, args, **env):
    """The report of ``code`` run with ``args`` in a fresh interpreter whose
    environment has none of the BLAS variables but those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", PROBE + code, *map(str, args)],
                          env=dict(base, PYTHONPATH=SRC, **env), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert cli.main(["synth", "--mode", "xor", "--pubs", "200", "--years", "4",
                     "--seed", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def settled_dir(synth_dir):
    """``synth_dir`` once its files are older than ``cache._RECENT_NS``, so
    that the digest index keeps their rows, as after the CI's ``sleep``."""
    newest = max(path.stat().st_ctime_ns for path in synth_dir.iterdir())
    time.sleep(max(0, newest + cache._RECENT_NS - time.time_ns()) / 1e9 + 0.1)
    return synth_dir


def test_import_loads_no_numpy_and_sets_no_variable():
    code = ("import os, sys; before = dict(os.environ); import helixmi, helixmi.cli; "
            "assert 'numpy' not in sys.modules, 'numpy'; "
            "assert dict(os.environ) == before, 'environment'")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    for name in helixmi.__all__:
        value = getattr(helixmi, name)
        defined = importlib.import_module(f"helixmi.{helixmi._MODULE_OF[name]}")
        assert value is getattr(defined, name), name
    assert set(helixmi.__all__) <= set(dir(helixmi))
    namespace = {}
    exec("from helixmi import *", namespace)
    assert set(helixmi.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        helixmi.no_such_name  # noqa: B018


def test_moved_names_resolve_from_their_old_modules():
    # the readers and writers that moved to ``formats``, found where they were
    # defined before, with ``formats`` imported only when one is asked for
    code = """
import sys
import helixmi.corpus, helixmi.mesh
assert "helixmi.formats" not in sys.modules
for module in (helixmi.corpus, helixmi.mesh):
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(module)
assert "helixmi.formats" not in sys.modules
from helixmi.corpus import ingest_jsonl
from helixmi import formats
assert ingest_jsonl is formats.ingest_jsonl
for module in (helixmi.corpus, helixmi.mesh):
    for name in module._FORMATS_NAMES:
        assert getattr(module, name) is getattr(formats, name), name
"""
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_flag_choices_are_the_modules_names():
    assert cli.BRANCHES == mesh.BRANCHES
    assert cli.TARGETS == infotheory.TARGETS
    assert cli.MODES == synth.MODES


def test_mi_loads_only_the_modules_it_runs(synth_dir, tmp_path):
    io = ["--corpus", synth_dir / "corpus.jsonl", "--mesh", synth_dir / "mesh.tsv"]
    loaded = {}
    for run in ("miss", "hit"):
        report = probe(AS_MODULE, ["mi", *io, "--out", tmp_path / run])
        stages = json.loads((tmp_path / run / "manifest.json").read_text())["stages"]
        assert stages["cache"] == ("stored" if run == "miss" else "hit")
        loaded[run] = set(report["modules"])
        assert "helixmi.infotheory" in loaded[run]
        assert not loaded[run] & {"helixmi.nullmodel", "helixmi.synth", "helixmi.dynamics",
                                  "helixmi.scaling"}
    # only a miss reads a file format
    assert "helixmi.formats" in loaded["miss"]
    assert "helixmi.formats" not in loaded["hit"]
    version = probe(AS_MODULE, ["--version"])
    assert not version["numpy"]


def test_hits_load_no_openssl_and_no_file_format(settled_dir, tmp_path):
    io = ["--corpus", settled_dir / "corpus.jsonl", "--mesh", settled_dir / "mesh.tsv"]
    commands = {"stats": [], "mi": [], "scaling": [], "dynamics": [], "pairs": [],
                "null": ["--replicates", "20"]}
    # the first command parses and hashes the inputs, with the builtin
    # BLAKE2b, and indexes their digests; every later one reads them from
    # the index
    report = probe(AS_MODULE, ["ingest", *io, "--out", tmp_path / "ingest"])
    stages = json.loads((tmp_path / "ingest" / "manifest.json").read_text())["stages"]
    assert (stages["cache"], stages["digests"]) == ("stored", "hashed")
    assert not report["hashlib"]
    # so does a command that parses inputs just written, which it hashes
    # before and after the parse (another year window, another entry)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for name in ("corpus.jsonl", "mesh.tsv"):
        (fresh / name).write_bytes((settled_dir / name).read_bytes())
    report = probe(AS_MODULE, ["mi", "--corpus", fresh / "corpus.jsonl", "--mesh",
                               fresh / "mesh.tsv", "--years", "1000:3000",
                               "--out", tmp_path / "mi-fresh"])
    stages = json.loads((tmp_path / "mi-fresh" / "manifest.json").read_text())["stages"]
    assert (stages["cache"], stages["digests"]) == ("stored", "hashed")
    assert not report["hashlib"]
    for command, options in commands.items():
        out = tmp_path / command
        report = probe(AS_MODULE, [command, *io, *options, "--out", out])
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert (stages["cache"], stages["digests"]) == ("hit", "index"), command
        assert "helixmi.formats" not in report["modules"], command
        # ``null`` hashes the corpus with ``hashlib``, and numpy.random loads
        # OpenSSL anyway, through ``secrets``
        if command != "null":
            assert not report["hashlib"], command


@pytest.mark.parametrize("code", [AS_MODULE, AS_SCRIPT], ids=["module", "script"])
def test_one_blas_thread_unless_the_user_sets_a_count(synth_dir, tmp_path, code):
    args = ["mi", "--corpus", synth_dir / "corpus.jsonl", "--mesh", synth_dir / "mesh.tsv",
            "--out", tmp_path / "out"]
    report = probe(code, args)
    assert report["numpy"]
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                             "OMP_NUM_THREADS": None}
    if sys.platform == "linux":
        assert report["threads"] == 1
    for name in BLAS_VARIABLES:
        report = probe(code, args, **{name: "2"})
        expected = dict.fromkeys(BLAS_VARIABLES)
        expected[name] = "2"
        assert report["env"] == expected, name


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
@pytest.mark.parametrize("code", [AS_MODULE, AS_SCRIPT, ""], ids=["module", "script", "library"])
def test_the_cli_fixes_the_mmap_threshold(code):
    proc = subprocess.run([sys.executable, "-c", MAPPED + code, "--version"],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # a library caller's process is left as it is
    assert proc.stdout.splitlines()[-1] == ("1" if code else "0")


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
def test_null_forks_from_a_single_threaded_process(synth_dir, tmp_path):
    # two processes whatever the host's cores; the null model is imported
    # inside the command, after the thread count is chosen
    code = """
from helixmi import cli
run = cli.main
def main(argv=None):
    from helixmi import nullmodel
    nullmodel.usable_cores = lambda: 2
    nullmodel.MIN_SLICE_LABELS = 1
    return run(argv)
cli.main = main
cli.entry()
"""
    report = probe(code, ["null", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
                          synth_dir / "mesh.tsv", "--replicates", "20",
                          "--out", tmp_path / "out"])
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert stages["null_workers"] == 2
    assert report["forks"] == [1]
