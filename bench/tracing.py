"""Spans around goebel's library calls, and the per-layer metrics made from them.

Run as a script, it executes one goebel CLI command in this process with
the public functions of each module wrapped:

    python3 bench/tracing.py --spans OUT.json [--pmap-only] -- <goebel arguments>

Each wrapper appends a span [name, start_ns, end_ns, parent, attrs] to a
list in memory; the list is written to OUT.json when the command ends.
stdout carries the command's own output and nothing else.  With
--pmap-only only parallel.pmap is wrapped, so no span falls inside the
work: that run times the worker pool as an untraced run would see it.

Imported as a module, it turns the span lists of one round into the
per-layer metrics (layer_metrics) without importing goebel.
"""

import functools
import json
import sys
import time


class Recorder:
    """Nested spans in call order; parent is the index of the enclosing span, -1 at the top."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced


def _pmap_workers(args, kwargs, _result):
    # the worker count parallel.pmap actually uses for this call
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    n = len(args[1])
    return {"workers": 1 if workers <= 1 or n <= 1 else min(workers, n)}


# (module, attribute, span name, attrs) for every wrapped function
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "write_rows", "cli.write_rows", lambda a, kw, r: {"rows": len(a[2])}),
    ("cli", "write_text", "cli.write_text", lambda a, kw, r: {"rows": len(a[1])}),
    ("exact", "exact_N_range", "exact.exact_N_range", None),
    ("exact", "exact_N", "exact.exact_N", None),
    ("exact", "run_once", "exact.run_once", lambda a, kw, r: {"n_max": a[2]}),
    ("modarith", "cumulative_product", "modarith.cumulative_product",
     lambda a, kw, r: {"bits": r.bit_length()}),
    ("modarith", "primes_up_to", "modarith.primes", None),
    ("modarith", "primes_in_range", "modarith.primes", None),
    ("sieve", "sieve_tables", "sieve.sieve_tables", None),
    ("sieve", "bad_residues", "sieve.bad_residues", lambda a, kw, r: {"p": a[0]}),
    ("sieve", "sieve_range", "sieve.sieve_range", None),
    ("sieve", "smallest_sieving_prime", "sieve.smallest_sieving_prime", None),
    ("sieve", "read_sieve_tables", "sieve.tables_io", None),
    ("sieve", "write_sieve_tables", "sieve.tables_io", None),
    ("reduced", "jp_ratio_table", "reduced.jp_ratio_table", None),
    ("reduced", "compute_jp", "reduced.compute_jp", None),
    ("reduced", "final_value", "reduced.final_value", None),
    ("reduced", "scan_two_in_jp", "reduced.scan_two_in_jp", None),
    ("billiards", "verify_range", "billiards.verify_range", None),
    ("billiards", "verify_nonmultiplicativity", "billiards.verify_nonmultiplicativity",
     lambda a, kw, r: {"witnesses": len(r)}),
    ("parallel", "pmap", "parallel.pmap", _pmap_workers),
]


def install(recorder, pmap_only=False):
    """Replace each target in every goebel module that binds it, and QrTable.__init__."""
    import importlib

    # goebel imports some modules lazily; load them all before rebinding
    for module_name in {t[0] for t in TARGETS}:
        importlib.import_module(f"goebel.{module_name}")
    modules = [m for n, m in sys.modules.items() if n == "goebel" or n.startswith("goebel.")]
    for module_name, attr, span, attrs in TARGETS:
        if pmap_only and span != "parallel.pmap":
            continue
        original = getattr(sys.modules[f"goebel.{module_name}"], attr)
        wrapper = recorder.wrap(span, original, attrs)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    if not pmap_only:
        from goebel.modarith import QrTable

        QrTable.__init__ = recorder.wrap("modarith.QrTable", QrTable.__init__)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or "--" not in argv:
        print("usage: tracing.py --spans OUT.json [--pmap-only] -- <goebel arguments>",
              file=sys.stderr)
        return 2
    out_path = argv[1]
    split = argv.index("--")
    pmap_only = "--pmap-only" in argv[2:split]
    import goebel.cli

    recorder = Recorder()
    install(recorder, pmap_only)
    try:
        rc = goebel.cli.main(argv[split + 1:])
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump({"argv": argv[split + 1:], "spans": recorder.spans}, fh)
    return rc


# ---------------------------------------------------------------- metrics

def _seconds(ns):
    return ns / 1e9


def _dur(span):
    return span[2] - span[1]


def layer_metrics(traced, untraced):
    """Per-layer metrics of one round.

    traced: span lists of the fully traced commands; untraced: span lists of
    the same commands run with --pmap-only (at the workload's own worker
    counts).  Times are seconds, summed over the round.
    """
    total = {}
    calls = {}
    steps = bits = class_steps = walks_in_jp = witnesses = rows = 0
    cli_self = range_self = 0
    task_ns = 0
    for spans in traced:
        child_ns = [0] * len(spans)
        lib_under_cli = [0] * len(spans)
        for span in spans:
            name, parent = span[0], span[3]
            total[name] = total.get(name, 0) + _dur(span)
            calls[name] = calls.get(name, 0) + 1
            attrs = span[4] or {}
            if parent >= 0:
                child_ns[parent] += _dur(span)
                if spans[parent][0].startswith("cli.") and not name.startswith("cli."):
                    lib_under_cli[parent] += _dur(span)
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name == "exact.run_once":
                steps += attrs["n_max"] - 1
            elif name == "modarith.cumulative_product" and parent_name == "exact.run_once":
                bits += attrs["bits"]
            elif name == "sieve.bad_residues":
                class_steps += (attrs["p"] - 1) ** 2
            elif name == "reduced.final_value" and parent_name == "reduced.compute_jp":
                walks_in_jp += 1
            elif name == "billiards.verify_nonmultiplicativity":
                witnesses += attrs["witnesses"]
            elif name in ("cli.write_rows", "cli.write_text"):
                rows += attrs["rows"]
            elif name == "parallel.pmap":
                task_ns += _dur(span)
        for i, span in enumerate(spans):
            if span[0] == "cli.main":
                cli_self += _dur(span) - lib_under_cli[i]
            elif span[0] == "sieve.sieve_range":
                range_self += _dur(span) - child_ns[i]
    pool_ns = pool_slots_ns = 0
    for spans in untraced:
        for span in spans:
            if span[0] == "parallel.pmap":
                pool_ns += _dur(span)
                pool_slots_ns += span[4]["workers"] * _dur(span)

    def s(name):
        return _seconds(total.get(name, 0))

    def n(name):
        return calls.get(name, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    return {
        "exact.exact_N.calls": n("exact.exact_N"),
        "exact.exact_N.s": s("exact.exact_N"),
        "exact.run_once.calls": n("exact.run_once"),
        "exact.run_once.s": s("exact.run_once"),
        "exact.steps": steps,
        "exact.steps_per_s": rate(steps, s("exact.run_once")),
        "exact.modulus_bits": bits,
        "modarith.cumulative_product.s": s("modarith.cumulative_product"),
        "modarith.QrTable.calls": n("modarith.QrTable"),
        "modarith.QrTable.s": s("modarith.QrTable"),
        "modarith.primes.s": s("modarith.primes"),
        "sieve.bad_residues.calls": n("sieve.bad_residues"),
        "sieve.bad_residues.s": s("sieve.bad_residues"),
        "sieve.class_steps": class_steps,
        "sieve.class_steps_per_s": rate(class_steps, s("sieve.bad_residues")),
        "sieve.smallest_sieving_prime.s": s("sieve.smallest_sieving_prime"),
        "sieve.sieve_range.self_s": _seconds(range_self),
        "sieve.tables_io.s": s("sieve.tables_io"),
        "reduced.compute_jp.calls": n("reduced.compute_jp"),
        "reduced.compute_jp.s": s("reduced.compute_jp"),
        "reduced.final_value.calls": n("reduced.final_value"),
        "reduced.final_value.s": s("reduced.final_value"),
        "reduced.walks_per_prime": rate(walks_in_jp, n("reduced.compute_jp")),
        "reduced.scan_two_in_jp.s": s("reduced.scan_two_in_jp"),
        "billiards.verify_nonmultiplicativity.calls": n("billiards.verify_nonmultiplicativity"),
        "billiards.verify_nonmultiplicativity.s": s("billiards.verify_nonmultiplicativity"),
        "billiards.witnesses": witnesses,
        "parallel.pmap.s": _seconds(pool_ns),
        "parallel.efficiency": task_ns / pool_slots_ns if pool_slots_ns else 0.0,
        "cli.self_s": _seconds(cli_self),
        "cli.rows_written": rows,
    }


if __name__ == "__main__":
    sys.exit(main())
