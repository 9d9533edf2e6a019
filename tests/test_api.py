"""The names the benchmark harness and the README reach into must exist."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import goebel

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    # bench/tracing.py imports goebel only when it installs its wrappers
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracing_targets_and_readme_quick_tour_resolve():
    tracing = _load_tracing()
    missing = [
        f"goebel.{module_name}.{attr}"
        for module_name, attr, _span, _attrs in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"goebel.{module_name}"), attr, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("goebel.modarith").QrTable.__init__)

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"\bgoebel\.(\w+)", tour))
    assert len(names) >= 7
    assert sorted(n for n in names if not hasattr(goebel, n)) == []


def test_package_root_exports_resolve_on_first_use(monkeypatch):
    assert goebel.__all__ == sorted([
        "DEFAULT_N_LIMIT", "Classification", "DomainError", "GoebelError",
        "bad_residues", "billiard_path", "classify_l", "compute_jp", "construct_a",
        "empty_iff_conditions", "exact_N", "exact_N_range", "grid_scan",
        "jp_summaries", "prime_trace_mod_p", "primes_in_range", "scan_two_in_jp",
        "sieve_range", "sieve_tables", "smallest_sieving_prime",
        "verify_nonmultiplicativity", "verify_range",
    ])
    assert set(goebel.__all__) <= set(dir(goebel))
    for name in goebel.__all__:
        # drop what an earlier lookup cached, so both lookups go through __getattr__
        monkeypatch.delitem(vars(goebel), name, raising=False)
        value = getattr(goebel, name)
        monkeypatch.delitem(vars(goebel), name)
        namespace = {}
        exec(f"from goebel import {name}", namespace)
        submodule = importlib.import_module(f"goebel.{goebel._SUBMODULE[name]}")
        assert value is namespace[name] is getattr(submodule, name), name
    assert not hasattr(goebel, "no_such_name")


def test_bench_quick_run_is_correct(tmp_path):
    """bench/run.py --quick, every workload in both trace modes, on a copy of
    the checkout, so the spans its traced rounds keep stay out of bench/.work."""
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--quick"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), proc.stderr


def test_traced_sieve_run_records_tables_io_and_rows_once(tmp_path):
    """bench/tracing.py wraps the file readers and writers by name and counts rows per call."""
    from goebel.cli import main

    tables = tmp_path / "tables.txt"
    argv = ["sieve", "--k-lo", "2", "--k-hi", "400", "--p-max", "19"]
    assert main(argv + ["-o", str(tmp_path / "first.csv")]) == 0
    # a file with the tables up to 13 only: the traced run reads it, builds
    # the tables of 17 and 19, and writes it back
    low = ["sieve", "--k-lo", "2", "--k-hi", "400", "--p-max", "13", "--tables", str(tables)]
    assert main(low + ["-o", str(tmp_path / "low.csv")]) == 0
    argv += ["--tables", str(tables)]
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    traced = [sys.executable, str(ROOT / "bench" / "tracing.py"), "--spans", str(spans_path)]
    proc = subprocess.run(
        [*traced, "--", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    survivors = proc.stdout.splitlines()[1:]
    assert proc.stdout == (tmp_path / "first.csv").read_text()
    spans = json.loads(spans_path.read_text())["spans"]
    names = [span[0] for span in spans]
    assert names.count("sieve.tables_io") == 2  # read, then written back
    assert "cli.write_text" not in names
    assert [span[4] for span in spans if span[0] == "cli.write_rows"] == [{"rows": len(survivors)}]


def test_kernels_take_no_residue_table_and_one_module_builds_it():
    from goebel.billiards import empty_iff_conditions
    from goebel.reduced import classify_l, final_value

    builders = sorted(
        f.name for f in (ROOT / "src" / "goebel").glob("*.py") if "QrTable(" in f.read_text()
    )
    assert builders == ["modarith.py"]
    for fn in (final_value, classify_l, empty_iff_conditions):
        assert list(inspect.signature(fn).parameters) == ["p", "l"], fn.__name__
