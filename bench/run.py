#!/usr/bin/env python3
"""Benchmark for goebel: CLI workloads end to end, and a traced run per module.

    python3 bench/run.py --workload nk-table --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --quick            # every workload, tiny sizes, both modes

Run from the root of a checkout; goebel is imported from its src/.  A run
times whole rounds of the workload's commands (bench/workloads.py), one
fresh `python -m goebel` process per command, until --seconds are spent,
and checks every command's output.  The first round is checked in full;
each later round must reproduce its bytes.

--trace 0 prints the end-to-end metrics: those of the median round, and
setup_s, the median of the set-ups timed before each round, with every
time scaled to the reference speed by a reference command run after each
command (bench/speed.py).  --trace 1 runs each round twice through
bench/tracing.py, once with only the worker pool timed and once with
every library function wrapped, and prints the per-layer metrics made from
the spans, with the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Without
--workload every workload runs, and the metric names carry the workload.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUPS_PER_ROUND = 2  # set-ups timed before each plain round; setup_s is their median
COMMAND_TIMEOUT_S = 150

# How a run's end-to-end figure comes from its rounds: the median round, its
# times scaled to the reference speed (speed.py), and the largest peak RSS.
FROM_ROUNDS = {"peak_rss_mb": max}


def metric_units(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under kind, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class Command:
    """Run one command in its own session; wall, CPU and peak RSS come from wait4."""

    def __init__(self, argv, out_dir: Path, tag: str, env):
        self.stdout = out_dir / f"{tag}.out"
        self.stderr = out_dir / f"{tag}.err"
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        # workers of a killed command share its process group
        _kill_group(proc.pid)
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        # on Linux wait4 reports the command together with its reaped worker processes
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def digest(outcome: Outcome) -> str:
    h = hashlib.sha256()
    for path in [outcome.stdout, outcome.stderr] + outcome.files:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


class Run:
    """One run of one workload: its rounds, the verdict on every command, the metrics.

    The first pass of commands is kept on disk and checked in full.  Every
    command of every pass, the first included, fails when it exits non-zero,
    when its label failed the full check, or when its bytes differ from the
    first pass.
    """

    def __init__(self, workload, work: Path, env, seed: int):
        self.wl = workload
        self.work = work
        self.env = env
        self.seed = seed
        self.records = []  # (label, exit code, digest) of every command run
        self.reference = None  # label -> Outcome of the first pass
        self.speed = SpeedProbe()

    def _pass(self, d: Path, head, traced=False, probe=False) -> dict:
        d.mkdir(parents=True)
        results = {}
        outcomes = {}
        for op in self.wl.ops(d):
            spans = d / f"{op.label}.spans.json"
            args = op.traced_args if traced and op.traced_args else op.args
            cmd = Command(head(spans) + args, d, op.label, self.env)
            if probe:
                self.speed.sample()
            outcome = Outcome(cmd.stdout, cmd.stderr, [Path(f) for f in op.files])
            self.records.append((op.label, cmd.rc, digest(outcome)))
            outcomes[op.label] = outcome
            results[op.label] = (cmd, op, spans)
        if self.reference is None:
            self.reference = outcomes
        return results

    def plain_round(self, i: int) -> list:
        """The commands of one round of plain `python -m goebel` commands, with their times."""
        d = self.work / f"round-{i}"
        results = self._pass(d, lambda _spans: [sys.executable, "-m", "goebel"], probe=True)
        for cmd, op, _ in results.values():
            cmd.warm = op.warm
        cmds = [cmd for cmd, _, _ in results.values()]
        if i:
            shutil.rmtree(d)
        raw = round_figures(cmds, self.wl.items, lambda t: t)
        print(f"{self.wl.name} round {i} (raw): " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()),
              file=sys.stderr)
        return cmds

    def traced_round(self, i: int) -> dict:
        """Per-layer figures of one round: a pass with only the pool timed, then a traced pass."""
        d = self.work / f"round-{i}"
        head = [sys.executable, str(BENCH / "tracing.py"), "--spans"]
        untraced = self._pass(d / "u", lambda s: head + [str(s), "--pmap-only", "--"])
        traced = self._pass(d / "t", lambda s: head + [str(s), "--"], traced=True)

        def spans(results):
            return {label: json.loads(s.read_text())["spans"]
                    for label, (_, _, s) in results.items() if s.exists()}

        t_spans, u_spans = spans(traced), spans(untraced)
        if i == 0:
            kept = {"untraced": u_spans, "traced": t_spans}
            (BENCH / ".work" / f"spans-{self.wl.name}.json").write_text(json.dumps(kept))
        figures = tracing.layer_metrics(list(t_spans.values()), list(u_spans.values()))
        # overhead over the commands whose arguments are the same in both passes
        same = [label for label, (_, op, _) in traced.items() if not op.traced_args]
        t_wall = sum(traced[label][0].wall for label in same)
        u_wall = sum(untraced[label][0].wall for label in same)
        figures["trace.overhead"] = 100 * (t_wall / u_wall - 1)
        shutil.rmtree(d / "t")
        if i:
            shutil.rmtree(d)
        return figures

    def verdict(self) -> tuple:
        """(correct, attempted, failed, problems) over every command run."""
        problems = []
        try:
            found = self.wl.check(self.reference, random.Random(self.seed))
        except (ValueError, OSError) as exc:
            # malformed or missing output fails the workload's commands, not the harness
            found = {label: [f"output could not be read: {exc!r}"] for label in self.reference}
        bad = {label for label, p in found.items() if p}
        for label in sorted(bad):
            problems += [f"{label}: {p}" for p in found[label][:5]]
        want = {label: digest(outcome) for label, outcome in self.reference.items()}
        failed = 0
        for label, rc, dg in self.records:
            if rc != 0:
                problems.append(f"{label}: exit code {rc}")
            elif dg != want[label] and label not in bad:
                problems.append(f"{label}: output differs from the first pass")
            failed += rc != 0 or label in bad or dg != want[label]
        # every command ran and was judged: `correct` speaks of those that did not fail
        correct = len(self.records) > 0 and set(found) == set(want)
        return correct, len(self.records), failed, sorted(set(problems))


def timed_rounds(seconds: float, quick: bool, one_round) -> list:
    """Whole rounds until the next one would end after `seconds`; at least one."""
    start = time.perf_counter()
    figures = []
    while True:
        figures.append(one_round(len(figures)))
        spent = time.perf_counter() - start
        if quick or spent + spent / len(figures) > seconds:
            return figures


def round_figures(cmds, items: int, rescale) -> dict:
    """End-to-end figures of one round's commands, each time passed through rescale."""
    wall = sum(rescale(c.wall) for c in cmds)
    return {
        "wall_s": wall,
        "cpu_s": sum(rescale(c.cpu) for c in cmds),
        "peak_rss_mb": max(c.rss_mb for c in cmds),
        "items_per_s": items / wall,
        "warm_s": sum(rescale(c.wall) for c in cmds if c.warm),
    }


def measure_setup(work: Path, env) -> list:
    """Times to import goebel in a fresh interpreter and make a round's directories."""
    times = []
    for i in range(SETUPS_PER_ROUND):
        start = time.perf_counter()
        for sub in ("cache", "tables", "out"):
            (work / f"setup-{i}" / sub).mkdir(parents=True)
        subprocess.run([sys.executable, "-c", "import goebel"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    shutil.rmtree(work)
    return times


def run_workload(name, seed, seconds, trace, quick, spot_seed, work, env) -> dict:
    cls = WORKLOADS[name]
    wl = cls(seed, quick, spot_seed) if name == "sieve-range" else cls(seed, quick)
    wdir = work / name / f"trace{trace}"
    wdir.mkdir(parents=True)
    run = Run(wl, wdir, env, seed)
    if trace:
        units = metric_units("per_layer")
        rounds = timed_rounds(seconds, quick, run.traced_round)
    else:
        units = metric_units("end_to_end")
        setups = []

        def setup_and_round(i):
            # set-ups spread over the run like the rounds, so one scale fits both
            setups.extend(measure_setup(wdir / f"setup-{i}", env))
            return run.plain_round(i)

        raw_rounds = timed_rounds(seconds, quick, setup_and_round)
        start = statistics.median(setups)
        k_start, k_work = run.speed.scales()
        print(f"{name}: {len(run.speed.work_s)} probes; start-up took {1 / k_start:.3f}x "
              f"and work {1 / k_work:.3f}x its reference time", file=sys.stderr)

        def rescale(t):
            # a command is an interpreter start, as long as a set-up, then its own work
            s = min(t, start)
            return s * k_start + (t - s) * k_work

        rounds = [dict(round_figures(cmds, wl.items, rescale), setup_s=start * k_start)
                  for cmds in raw_rounds]
    pick = {} if trace else FROM_ROUNDS
    metrics = {k: (pick.get(k, statistics.median)(r[k] for r in rounds), unit)
               for k, unit in units.items()}
    correct, attempted, failed, problems = run.verdict()
    for p in problems:
        print(f"{name}: {p}", file=sys.stderr)
    print(f"{name} (trace {trace}): {len(rounds)} round(s), {attempted} commands, {failed} failed")
    for k, (v, unit) in metrics.items():
        print(f"  {k:44s} {v:14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0, help="picks the checks' samples and the warm sieve range")
    ap.add_argument("--seconds", type=float, default=40.0, help="time spent on rounds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics (default 0; both with --quick)")
    ap.add_argument("--quick", action="store_true", help="one round of each mode at tiny sizes")
    ap.add_argument("--spot-seed", type=int, default=0, help="seed of sieve-range's spot check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "goebel" / "__main__.py").is_file():
        print(f"error: no goebel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [args.trace] if args.trace is not None else ([0, 1] if args.quick else [0])
    work = BENCH / ".work" / f"run-{os.getpid()}"
    env["GOEBEL_CACHE"] = str(work / "goebel-cache")
    results = {}
    try:
        for name in names:
            for trace in modes:
                results[(name, trace)] = run_workload(
                    name, args.seed, args.seconds, trace, args.quick, args.spot_seed, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for (name, _), r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
