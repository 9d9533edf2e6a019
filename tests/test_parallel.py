import concurrent.futures
import operator
import os
import subprocess
import sys
from pathlib import Path

from goebel import parallel
from goebel.parallel import pmap

ROOT = Path(__file__).resolve().parent.parent


def test_pmap_keeps_input_order():
    for n in (0, 1, 2, 33, 1000):
        for workers in (1, 2):
            assert pmap(operator.neg, range(n), workers) == [-i for i in range(n)], (n, workers)


def test_pmap_starts_at_most_one_worker_per_cpu(monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            started.append(chunksize)
            return map(fn, items)

    # a pool bound at import would escape the fake and start real processes
    assert not hasattr(parallel, "ProcessPoolExecutor")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pmap(operator.neg, range(200), 1000) == [-i for i in range(200)]
    assert pmap(operator.neg, range(200), 2) == [-i for i in range(200)]
    # (workers, chunk size): 200 // (16 * 3) and 200 // (16 * 2)
    assert started == [3, 4, 2, 6]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pmap(operator.neg, range(5), 1000) == [-i for i in range(5)]
    assert started == [3, 4, 2, 6]


def test_inline_commands_do_not_import_the_process_pool():
    script = (
        "import sys\n"
        "from goebel.cli import main\n"
        "assert main(['exact', '--k', '2..5', '--limit', '40', '--no-cache']) == 0\n"
        "assert main(['jp', '--p-max', '349', '--threads', '2']) == 0\n"  # one batch
        "print('concurrent.futures' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"


def test_exact_and_stats_load_no_numpy_or_kernel_module(tmp_path):
    cache = tmp_path / "cache"
    # dataclasses pulls in inspect, ast and dis; a site hook may load it first
    script = (
        "import sys\n"
        "preloaded = 'dataclasses' in sys.modules\n"
        "import goebel\n"
        "print(sorted(m for m in sys.modules if m.startswith('goebel.')), file=sys.stderr)\n"
        "from goebel.cli import main\n"
        f"exact = ['exact', '--k', '2..40', '--limit', '60', '--cache-dir', {str(cache)!r}]\n"
        "assert main(exact) == 0 and main(exact) == 0\n"  # cold, then from its cache
        f"assert main(['stats', '--dataset', {str(cache / 'nk_l2.csv')!r}, '--prime-share']) == 0\n"
        "assert goebel.prime_trace_mod_p(2, 2, 43) == 24\n"
        "heavy = ('numpy', 'goebel.sieve', 'goebel.reduced', 'goebel.billiards')\n"
        "heavy += () if preloaded else ('dataclasses',)\n"
        "print([m for m in heavy if m in sys.modules], file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n[]\n"
    assert proc.stdout.splitlines()[-2:] == ["prime_N,total,share", "15,15,1.000000"]


def test_walk_and_billiard_commands_load_no_dataclasses():
    # their records are named tuples; the sieve's outcome is the one dataclass
    script = (
        "import sys\n"
        "preloaded = 'dataclasses' in sys.modules\n"
        "from goebel.cli import main\n"
        "for argv in (['jp', '--p-max', '349'], ['two-in-jp', '--p-max', '2000'],\n"
        "             ['verify', '--p-max', '200'], ['billiards', '--p', '37']):\n"
        "    assert main(argv) == 0, argv\n"
        "heavy = () if preloaded else ('dataclasses',)\n"
        "print([m for m in heavy if m in sys.modules], file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"
