"""The names the benchmark harness and the README reach into must exist."""

import importlib
import importlib.util
import re
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
