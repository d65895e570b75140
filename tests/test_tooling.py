"""The repo's own lint gates, run as tests so they cannot rot.

``tools/check_construction.py`` enforces four rules:

* concrete scheme classes (TdmNetwork, CircuitNetwork, WormholeNetwork,
  MultiSwitchTdmNetwork, IslipNetwork) may only be constructed inside
  ``src/repro/networks/`` and ``tests/`` — everything else resolves
  through ``repro.networks.registry.build_network``;
* the switch-graph builders (``full_mesh``, ``fat_tree``, ``line``) may
  only be called inside ``src/repro/topo/``, ``src/repro/networks/`` and
  ``tests/``;
* ``multiprocessing`` / ``ProcessPoolExecutor`` may only appear inside
  ``src/repro/exec/`` and ``tests/`` — all process fan-out goes through
  ``repro.exec.map_cells``;
* every public name defined under ``src/repro`` has a use outside tests,
  or is listed in ``DELIBERATE_API``.

The benchmark harness's ``archive`` is checked here too: a smoke run must
not rewrite the committed records under ``benchmarks/results/``.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_construction.py"
BENCH_CONFTEST = REPO / "benchmarks" / "conftest.py"


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(CHECKER), *args], capture_output=True, text=True
    )


def test_repo_has_no_direct_scheme_construction():
    proc = _run()
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_flags_a_direct_construction(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text(
        "from repro.networks.tdm import TdmNetwork\n"
        "net = TdmNetwork(params, k=4, mode='dynamic')\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "rogue.py:2" in proc.stdout
    assert "TdmNetwork" in proc.stdout


def test_checker_flags_attribute_construction(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text(
        "import repro.networks.circuit as c\nnet = c.CircuitNetwork(params)\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "CircuitNetwork" in proc.stdout


def test_checker_ignores_registry_style_code(tmp_path):
    ok = tmp_path / "fine.py"
    ok.write_text(
        "from repro.networks.registry import RunSpec, build_network\n"
        "net = build_network(RunSpec('dynamic-tdm', params))\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_flags_multiprocessing_import(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text("import multiprocessing\npool = multiprocessing.Pool(4)\n")
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "rogue.py:1" in proc.stdout
    assert "multiprocessing" in proc.stdout
    assert "repro.exec.map_cells" in proc.stdout


def test_checker_flags_from_multiprocessing_import(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text("from multiprocessing import Pool\n")
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "rogue.py:1" in proc.stdout


def test_checker_flags_process_pool_executor(tmp_path):
    bad = tmp_path / "rogue.py"
    bad.write_text(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "with ProcessPoolExecutor() as pool:\n    pass\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "ProcessPoolExecutor" in proc.stdout


def test_checker_allows_thread_pool_executor(tmp_path):
    # the boundary is about *process* fan-out; thread pools carry no
    # seed/reset determinism hazard and stay legal everywhere
    ok = tmp_path / "fine.py"
    ok.write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "with ThreadPoolExecutor() as pool:\n    pass\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_repro_exec_is_exempt_from_the_pool_rule():
    # the engine itself obviously uses ProcessPoolExecutor; the default
    # run (exercised above) must not flag it
    engine = REPO / "src" / "repro" / "exec" / "engine.py"
    assert "ProcessPoolExecutor" in engine.read_text()


def test_checker_flags_an_uncalled_def(tmp_path):
    (tmp_path / "lib.py").write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "    def unused(self):\n"
        "        return Box().used()\n"
        "\n"
        "\n"
        "def orphan():\n"
        "    return orphan()\n"
    )
    (tmp_path / "app.py").write_text("from lib import Box\nBox().used()\n")
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "lib.py:5: lib.Box.unused is defined but nothing" in proc.stdout
    # recursion is no use: a def's own body does not count
    assert "lib.py:9: lib.orphan is defined but nothing" in proc.stdout
    assert "lib.Box.used" not in proc.stdout
    assert "lib.Box " not in proc.stdout


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_construction", CHECKER)
    assert spec is not None and spec.loader is not None
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


def test_deliberate_api_reasons_are_from_the_vocabulary():
    checker = _load_checker()
    assert set(checker.DELIBERATE_API.values()) <= {"oracle", "paper", "documented"}


def test_a_dead_caller_does_not_keep_its_callee_alive(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def leaf():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def middle():\n"
        "    return leaf()\n"
        "\n"
        "\n"
        "def top():\n"
        "    return middle()\n"
        "\n"
        "\n"
        "def kept_leaf():\n"
        "    return 2\n"
        "\n"
        "\n"
        "def kept():\n"
        "    return kept_leaf()\n"
    )
    # top is uncalled, so middle's only use is dead, and then leaf's
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "lib.py:1: lib.leaf is defined but nothing" in proc.stdout
    assert "lib.py:5: lib.middle is defined but nothing" in proc.stdout
    # an allowlisted def is still reported, but its uses count
    checker = _load_checker()
    found = checker.find_unreferenced([(lib, "lib")], [lib], keep={"lib.kept"})
    assert [name for _, _, name in found] == [
        "lib.leaf",
        "lib.middle",
        "lib.top",
        "lib.kept",
    ]


def _load_bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_CONFTEST)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_smoke_run_leaves_committed_records_alone(tmp_path, monkeypatch, capsys):
    conftest = _load_bench_conftest()
    monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path / "results")
    # any value marks a smoke run, the full size included: some benches
    # pick their own sizes and never read it
    for ports in ("16", "128"):
        monkeypatch.setenv("REPRO_BENCH_PORTS", ports)
        conftest.archive("obs", f"{ports}-port smoke")
        assert f"{ports}-port smoke" in capsys.readouterr().out
    assert not (tmp_path / "results").exists()

    monkeypatch.delenv("REPRO_BENCH_PORTS")
    conftest.archive("obs", "full run")
    conftest.archive("service_slo", "| table |", suffix=".md")
    assert (tmp_path / "results" / "obs.txt").read_text() == "full run"
    assert (tmp_path / "results" / "service_slo.md").read_text() == "| table |"
