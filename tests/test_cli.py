import io
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goebel.cli import main, parse_krange

from .goldens import JP_TABLE, NK_RECORDS


def run_cli(*argv) -> int:
    return main(list(argv))


def command_peak_kb(*argv) -> int:
    """The peak resident memory (VmHWM, in kB) of goebel.cli.main(argv) run in a fresh process.

    The child reads its own /proc/self/status as the command returns.  Its
    ru_maxrss would not do: Linux carries the high-water RSS of the process
    that forks over to the child, so it could not read below this one's.
    """
    import subprocess
    from pathlib import Path

    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    script = (
        "import sys\n"
        "from goebel.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(rc, peak, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    rc, peak_kb = map(int, proc.stderr.splitlines()[-1].split())
    assert rc == 0, proc.stderr
    return peak_kb


def test_parse_krange():
    assert list(parse_krange("142")) == [142]
    assert list(parse_krange("2..5")) == [2, 3, 4, 5]
    import argparse

    for bad in ("x", "5..2", "0..3"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_krange(bad)


def test_usage_error_exit_code():
    for argv in (
        ("exact",),
        ("no-such-command",),
        ("sieve", "--k-lo", "2", "--k-hi", "10", "--p-max", "5", "--spot-check", "-1"),
        ("sieve", "--k-lo", "2", "--k-hi", "10", "--p-max", "5", "--spot-check", "x"),
        ("jp", "--p-max", "50", "--classify", "13"),
        ("verify", "--p-max", "20", "--threads", "0"),
        ("verify", "--p-max", "20", "--threads", "-3"),
        ("exact", "--k", "2", "--threads", "0"),
        ("sieve", "--k-lo", "2", "--k-hi", "10", "--p-max", "5", "--threads", "-3"),
        ("jp", "--p-max", "50", "--threads", "0"),
        ("two-in-jp", "--p-max", "50", "--threads", "-3"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv


def test_domain_error_exit_code(tmp_path):
    assert run_cli("grid", "--p", "15", "-o", str(tmp_path / "x.csv")) == 1


def test_exact_csv_and_cache(tmp_path):
    out = tmp_path / "nk.csv"
    cache = tmp_path / "cache"
    code = run_cli(
        "exact", "--k", "2..8", "--l", "2", "--limit", "300",
        "--cache-dir", str(cache), "-o", str(out),
    )
    assert code == 0
    body = out.read_bytes()
    assert body == (
        b"k,l,N,status\n"
        b"2,2,43,exact\n3,2,89,exact\n4,2,97,exact\n5,2,214,exact\n"
        b"6,2,19,exact\n7,2,239,exact\n8,2,37,exact\n"
    )
    # cached rerun is byte-identical
    out2 = tmp_path / "nk2.csv"
    assert run_cli(
        "exact", "--k", "2..8", "--l", "2", "--limit", "300",
        "--cache-dir", str(cache), "-o", str(out2),
    ) == 0
    assert out2.read_bytes() == body
    cache_file = cache / "nk_l2.csv"
    assert cache_file.exists()


def test_exact_exceeded_row_and_cache_limit_upgrade(tmp_path):
    out = tmp_path / "nk.csv"
    cache = tmp_path / "cache"
    assert run_cli(
        "exact", "--k", "2", "--limit", "20", "--cache-dir", str(cache), "-o", str(out)
    ) == 0
    assert out.read_bytes() == b"k,l,N,status\n2,2,,exceeded\n"
    # a larger limit must not trust the cached exceeded outcome
    assert run_cli(
        "exact", "--k", "2", "--limit", "50", "--cache-dir", str(cache), "-o", str(out)
    ) == 0
    assert out.read_bytes() == b"k,l,N,status\n2,2,43,exact\n"


def test_exact_cached_N_above_limit_renders_exceeded(tmp_path):
    out = tmp_path / "nk.csv"
    cache = tmp_path / "cache"
    for limit in ("300", "100"):
        assert run_cli(
            "exact", "--k", "5", "--limit", limit, "--cache-dir", str(cache), "-o", str(out)
        ) == 0
    assert out.read_bytes() == b"k,l,N,status\n5,2,,exceeded\n"
    assert run_cli(
        "exact", "--k", "5", "--limit", "100", "--no-cache", "-o", str(tmp_path / "cold.csv")
    ) == 0
    assert (tmp_path / "cold.csv").read_bytes() == out.read_bytes()


def test_exact_damaged_cache_is_an_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    for line in (
        b"2,2,4",
        b"2,2,\xff,exact,50",
        b"3,2,1,exact,90",  # N below 2
        b"2,2,43,exact,40",  # N above the row's own limit
        b"2,2,43,done,50",
        b"2,2,43,exceeded,50",
        b"2,2,,exact,50",
        b"2,2,43,exact,50,7",
        b"2,3,7,exact,50",  # a row for another l
        b"2,2,43,exact,50\n2,2,44,exact,50",  # a repeated k
    ):
        (cache / "nk_l2.csv").write_bytes(b"k,l,N,status,limit\n" + line + b"\n")
        assert run_cli("exact", "--k", "2", "--limit", "50", "--cache-dir", str(cache)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "nk_l2.csv" in err[0]


def test_exact_cache_is_replaced_not_rewritten(tmp_path, monkeypatch):
    import goebel.cli

    cache = tmp_path / "cache"
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append((os.path.dirname(src), dst))
        real_replace(src, dst)

    monkeypatch.setattr(goebel.cli.os, "replace", recording_replace)
    assert run_cli(
        "exact", "--k", "2", "--limit", "50", "--cache-dir", str(cache),
        "-o", str(tmp_path / "nk.csv"),
    ) == 0
    assert replaced == [(str(cache), str(cache / "nk_l2.csv"))]
    assert os.listdir(cache) == ["nk_l2.csv"]
    assert (cache / "nk_l2.csv").read_text() == "k,l,N,status,limit\n2,2,43,exact,50\n"
    # a warm run computes nothing, so it leaves the cache file alone
    body = (cache / "nk_l2.csv").read_bytes()
    replaced.clear()
    assert run_cli(
        "exact", "--k", "2", "--limit", "50", "--cache-dir", str(cache),
        "-o", str(tmp_path / "nk.csv"),
    ) == 0
    assert replaced == []
    assert (cache / "nk_l2.csv").read_bytes() == body


def test_exact_limit_below_two_is_a_usage_error_with_a_cold_or_warm_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["exact", "--k", "2..5", "--cache-dir", str(cache)]
    for warm in (False, True):
        if warm:
            assert run_cli(*argv, "--limit", "100") == 0
        files = {f: f.read_bytes() for f in cache.rglob("*")}
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--limit", "1")
        assert exc.value.code == 2, warm
        assert capsys.readouterr().out == "", warm
        assert {f: f.read_bytes() for f in cache.rglob("*")} == files, warm
        assert bool(files) == warm


def test_exact_named_spot_values(tmp_path):
    out = tmp_path / "spot.csv"
    for k, n in ((142, 25), (306, 34)):
        assert run_cli(
            "exact", "--k", str(k), "--limit", "100", "--no-cache", "-o", str(out)
        ) == 0
        assert out.read_text().splitlines()[1] == f"{k},2,{n},exact"


def test_exact_json_mirror(tmp_path):
    out = tmp_path / "nk.json"
    assert run_cli(
        "exact", "--k", "6..7", "--limit", "300", "--no-cache",
        "--format", "json", "-o", str(out),
    ) == 0
    records = json.loads(out.read_text())
    assert records == [
        {"k": 6, "l": 2, "N": 19, "status": "exact"},
        {"k": 7, "l": 2, "N": 239, "status": "exact"},
    ]


def test_json_rows_are_streamed_as_one_dumped_list(tmp_path):
    from goebel.cli import write_rows

    header = ["p", "l", "m"]
    for rows in ([], [(13, None, 2)], [(13, 2, 2), (17, None, "a\nb"), (29, 4.5, None)]):
        out = tmp_path / "rows.json"
        write_rows(str(out), header, rows, "json")
        records = [dict(zip(header, row)) for row in rows]
        assert out.read_bytes() == (json.dumps(records, indent=2) + "\n").encode("ascii"), rows


def test_exact_threads_deterministic(tmp_path):
    """Output bytes depend on the arguments alone: not on the cache or the worker count."""
    args = ["exact", "--k", "2..12", "--limit", "300"]
    runs = {
        "no-cache-1": ["--no-cache", "--threads", "1"],
        "no-cache-2": ["--no-cache", "--threads", "2"],
        "cold-1": ["--cache-dir", str(tmp_path / "c1"), "--threads", "1"],
        "warm-1": ["--cache-dir", str(tmp_path / "c1"), "--threads", "1"],
        "cold-2": ["--cache-dir", str(tmp_path / "c2"), "--threads", "2"],
        "warm-2": ["--cache-dir", str(tmp_path / "c2"), "--threads", "2"],
    }
    # a cache that already holds part of the range, from a run at a larger limit
    assert run_cli(
        "exact", "--k", "5..8", "--limit", "600", "--cache-dir", str(tmp_path / "c3"),
        "-o", str(tmp_path / "seed.csv"),
    ) == 0
    runs["partly-warm-2"] = ["--cache-dir", str(tmp_path / "c3"), "--threads", "2"]
    outputs = {}
    for name, extra in runs.items():
        path = tmp_path / f"{name}.csv"
        assert run_cli(*args, *extra, "-o", str(path)) == 0
        outputs[name] = path.read_bytes()
    assert len(set(outputs.values())) == 1, outputs
    assert outputs["cold-1"].count(b",exact\n") == 11


def test_exact_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GOEBEL_CACHE", str(tmp_path / "envcache"))
    out = tmp_path / "nk.csv"
    assert run_cli("exact", "--k", "6", "--limit", "30", "-o", str(out)) == 0
    assert (tmp_path / "envcache" / "nk_l2.csv").exists()


def test_stats_records_and_means(tmp_path):
    data = tmp_path / "nk.csv"
    cache = tmp_path / "cache"
    assert run_cli(
        "exact", "--k", "2..30", "--limit", "1200", "--cache-dir", str(cache),
        "-o", str(data),
    ) == 0
    rec = tmp_path / "records.csv"
    assert run_cli("stats", "--dataset", str(data), "--records", "-o", str(rec)) == 0
    got = [tuple(map(int, line.split(","))) for line in rec.read_text().splitlines()[1:]]
    assert got == [r for r in NK_RECORDS if r[0] <= 30]

    means = tmp_path / "means.csv"
    assert run_cli("stats", "--dataset", str(data), "--mean-mod", "18", "-o", str(means)) == 0
    lines = means.read_text().splitlines()
    assert lines[0] == "class,count,mean"
    row6 = lines[1 + 6].split(",")
    assert row6 == ["6", "2", "19.000000"]  # k = 6, 24
    row0 = lines[1 + 0].split(",")
    assert row0 == ["0", "1", "43.000000"]  # only k = 18 in range

    # the cache file reads as the same dataset, its limit column aside
    from_cache = tmp_path / "means-from-cache.csv"
    assert run_cli(
        "stats", "--dataset", str(cache / "nk_l2.csv"), "--mean-mod", "18", "-o", str(from_cache)
    ) == 0
    assert from_cache.read_bytes() == means.read_bytes()

    share = tmp_path / "share.csv"
    assert run_cli("stats", "--dataset", str(data), "--prime-share", "-o", str(share)) == 0
    body = share.read_text().splitlines()
    assert body[0] == "prime_N,total,share"
    primes, total, _ = body[1].split(",")
    assert int(total) == 29
    assert 0 < int(primes) <= 29


def test_stats_prime_share_regression(tmp_path):
    from .goldens import NK_TABLE, NK_TABLE_PRIME_SHARE

    data = tmp_path / "table.csv"
    lines = ["k,l,N,status"] + [f"{k},2,{NK_TABLE[k]},exact" for k in sorted(NK_TABLE)]
    data.write_text("\n".join(lines) + "\n", encoding="ascii")
    out = tmp_path / "share.csv"
    assert run_cli("stats", "--dataset", str(data), "--prime-share", "-o", str(out)) == 0
    primes, total, share = NK_TABLE_PRIME_SHARE
    assert out.read_text().splitlines()[1] == f"{primes},{total},{share}"


def test_stats_empty_class_mean_absent(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("k,l,N,status\n4,2,97,exact\n", encoding="ascii")
    out = tmp_path / "m.csv"
    assert run_cli("stats", "--dataset", str(data), "--mean-mod", "3", "-o", str(out)) == 0
    assert out.read_text().splitlines()[1:] == ["0,0,", "1,1,97.000000", "2,0,"]


def test_stats_empty_dataset_is_an_error(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("", encoding="ascii")
    assert run_cli("stats", "--dataset", str(data), "--records") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "empty.csv" in err[0]


def test_stats_mean_mod_rejects_nonpositive_modulus(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("k,l,N,status\n4,2,97,exact\n", encoding="ascii")
    for d in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            run_cli("stats", "--dataset", str(data), "--mean-mod", d)
        assert exc.value.code == 2


def test_stats_mean_mod_above_the_package_bound_is_a_usage_error(tmp_path, capsys):
    # D rows are written, so D stops where every other range does, at 10^8;
    # the usage error comes before the dataset, which does not exist, is read
    with pytest.raises(SystemExit) as exc:
        run_cli("stats", "--dataset", str(tmp_path / "none.csv"), "--mean-mod", "100000001")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: goebel stats ")
    assert captured.err.endswith(
        "error: argument --mean-mod: expected an integer <= 100000000, got 100000001\n")


def test_out_of_memory_is_one_error_line(capsys):
    # classifying every l of a prime near 10^11 asks for one 800 GB list,
    # which is refused before any of it is allocated
    assert run_cli("jp", "--classify", "100000000003") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def _write_dataset(path, rows) -> None:
    lines = ["k,l,N,status"] + [
        f"{k},2,{'' if n is None else n},{'exceeded' if n is None else 'exact'}" for k, n in rows
    ]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def test_stats_mean_mod_writes_the_row_of_every_class(tmp_path):
    """The bytes of a (class, count, mean) row per class, from lists of d sums and counts."""
    data = tmp_path / "d.csv"
    rows = [(2, 3), (4, 97), (5, None), (9, 11), (11, 43), (12, 19), (30, 7), (31, None), (47, 5)]
    _write_dataset(data, rows)
    exact_rows = [(k, n) for k, n in rows if n is not None]
    for d in (1, 2, 3, 7, 18, 50):
        sums = [0] * d
        counts = [0] * d
        for k, n in exact_rows:
            sums[k % d] += n
            counts[k % d] += 1
        means = [f"{sums[a] / counts[a]:.6f}" if counts[a] else None for a in range(d)]
        want = [{"class": a, "count": counts[a], "mean": means[a]} for a in range(d)]
        csv_want = "class,count,mean\n" + "".join(
            f"{r['class']},{r['count']},{r['mean'] or ''}\n" for r in want
        )
        for fmt, expected in (("csv", csv_want), ("json", json.dumps(want, indent=2) + "\n")):
            out = tmp_path / f"means.{fmt}"
            assert run_cli("stats", "--dataset", str(data), "--mean-mod", str(d),
                           "--format", fmt, "-o", str(out)) == 0
            assert out.read_bytes() == expected.encode("ascii"), (d, fmt)


def test_stats_mean_mod_holds_the_classes_of_the_data_not_every_class(tmp_path):
    # lists of d sums, counts and rows took a one-row dataset at d = 10^6 to a
    # 133 MB peak, 117 MB above a run at d = 1; with sums for the classes of
    # the data alone the command peaks where a one-class run does
    data = tmp_path / "d.csv"
    _write_dataset(data, [(4, 97)])
    out = tmp_path / "means.csv"
    one_class_kb = command_peak_kb("stats", "--dataset", str(data), "--mean-mod", "1", "-o", str(out))
    d = 10 ** 6
    peak_kb = command_peak_kb("stats", "--dataset", str(data), "--mean-mod", str(d), "-o", str(out))
    assert peak_kb < one_class_kb + 4 * 1024
    with open(out, encoding="ascii") as fh:
        assert next(fh) == "class,count,mean\n"
        for a, line in enumerate(fh):
            assert line == (f"{a},1,97.000000\n" if a == 4 else f"{a},0,\n")
    assert a == d - 1


def test_stats_bad_dataset_row_is_an_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    for row in (b"x,2,4,exact", b"\xff\xfe,2,4,exact", b"2,2,1,exact", b"2,2,,exact", b"2,2,9,?"):
        data.write_bytes(b"k,l,N,status\n4,2,97,exact\n" + row + b"\n")
        assert run_cli("stats", "--dataset", str(data), "--records") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "bad.csv" in err[0] and "line 3" in err[0]


def test_stats_short_dataset_row_is_an_error(tmp_path, capsys):
    data = tmp_path / "torn.csv"
    data.write_bytes(b"k,l,N,status\n4,2,97,exact\n\n2,2\n")
    assert run_cli("stats", "--dataset", str(data), "--prime-share") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad dataset row {data}, line 4\n"


def test_sieve_tables_file_of_another_kind_is_an_error(tmp_path, capsys):
    tables = tmp_path / "nk.csv"
    for body in (
        b"k,l,N,status\n2,2,43,exact\n",
        b"3,2:\n\xff\xfe\x00\x01\n",
        b"5,2:7;99\n",  # classes above p - 2
        b"5,2:-1\n",
        b"5,2:3;1\n",  # classes not ascending
        b"5,2:1;1\n",
        b"5,2:1;;2\n",
        b"1,0:\n",  # p below 3
        b"5,5:\n",  # l above p - 1
        b"5,-1:\n",
        b"5,2\n",
        b"3,2:\n5,2:\n3,2:1\n",  # a repeated (p, l)
    ):
        tables.write_bytes(body)
        assert run_cli(
            "sieve", "--k-lo", "2", "--k-hi", "100", "--p-max", "19", "--tables", str(tables),
            "-o", str(tmp_path / "out.csv"),
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "nk.csv" in err[0]
        assert tables.read_bytes() == body


def test_sieve_tables_file_is_replaced_not_rewritten(tmp_path, monkeypatch):
    tables = tmp_path / "tables.txt"
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append((os.path.dirname(src), str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    assert run_cli(
        "sieve", "--k-lo", "2", "--k-hi", "100", "--p-max", "7", "--tables", str(tables),
        "-o", str(tmp_path / "out.csv"),
    ) == 0
    assert replaced == [(str(tmp_path), str(tables))]
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "tables.txt"]
    assert tables.read_text() == "3,2:\n5,2:\n7,2:\n"
    # a warm run builds no table, so it leaves the tables file alone
    body = tables.read_bytes()
    replaced.clear()
    assert run_cli(
        "sieve", "--k-lo", "2", "--k-hi", "200", "--p-max", "5", "--tables", str(tables),
        "-o", str(tmp_path / "out.csv"),
    ) == 0
    assert replaced == []
    assert tables.read_bytes() == body


def test_sieve_cli_with_tables_and_spot_check(tmp_path, capsys):
    out = tmp_path / "survivors.csv"
    tables = tmp_path / "tables.txt"
    assert run_cli(
        "sieve", "--k-lo", "2", "--k-hi", "400", "--p-max", "19", "--l", "2",
        "--tables", str(tables), "--spot-check", "5", "--seed", "0", "-o", str(out),
    ) == 0
    survivors = [int(x) for x in out.read_text().splitlines()[1:]]
    assert all(k % 18 not in (6, 14) for k in survivors)
    assert tables.exists()
    text = tables.read_text()
    assert "19,2:6;14\n" in text
    assert "3,2:\n" in text


# (option, name, argv): the commands share the state file or directory of
# each name, which the option passes; an exact run reads and writes the
# cache of its l, a sieve run the tables of its start value
_EXACT_RUNS = st.builds(
    lambda ks, l, limit, fmt: ("--cache-dir", "cache", (
        "exact", "--k", f"{min(ks)}..{max(ks)}", "--l", str(l), "--limit", str(limit),
        "--format", fmt)),
    st.tuples(st.integers(1, 75), st.integers(1, 75)),
    st.integers(0, 3),
    st.integers(2, 100),
    st.sampled_from(["csv", "json"]),
)
_SIEVE_RUNS = st.builds(
    lambda k_lo, width, p_max, l, spots, seed, fmt, tables: (
        "--tables", f"tables{tables}.txt", (
            "sieve", "--k-lo", str(k_lo), "--k-hi", str(k_lo + width), "--p-max", str(p_max),
            "--l", str(l), "--spot-check", str(spots), "--seed", str(seed), "--format", fmt)),
    st.integers(2, 3000),
    st.integers(0, 2000),
    st.integers(3, 60),
    st.integers(0, 3),
    st.integers(0, 4),
    st.integers(0, 3),
    st.sampled_from(["csv", "json"]),
    st.integers(0, 2),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_EXACT_RUNS, _SIEVE_RUNS), min_size=1, max_size=6))
def test_output_depends_on_the_arguments_alone(runs):
    """Commands that share one cache directory, or one of three tables files,
    give the output bytes, stderr and exit code of the same command run cold."""
    import contextlib
    import tempfile

    def run(argv, option, state):
        out = os.path.join(work, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_cli(*argv, option, state, "-o", out)
        with open(out, "rb") as fh:
            body = fh.read()
        os.remove(out)
        return body, err.getvalue(), rc

    with tempfile.TemporaryDirectory() as work:
        for i, (option, name, argv) in enumerate(runs):
            cold = os.path.join(work, f"cold{i}")
            os.mkdir(cold)
            warm = run(argv, option, os.path.join(work, name))
            assert warm == run(argv, option, os.path.join(cold, name)), (i, runs)


class CountingRaw(io.RawIOBase):
    """A raw byte stream that keeps what is written and counts the write calls."""

    def __init__(self, fail=False):
        self.data, self.writes, self.fail = bytearray(), 0, fail

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        if self.fail:
            raise OSError(28, "No space left on device")
        self.data += b
        return len(b)


def test_stdout_rows_go_out_in_blocks_and_write_through_is_restored(tmp_path, monkeypatch, capsys):
    argv = ["sieve", "--k-lo", "2", "--k-hi", "100001", "--p-max", "19"]
    short = ["sieve", "--k-lo", "2", "--k-hi", "400", "--p-max", "19"]
    assert run_cli(*argv, "-o", str(tmp_path / "want.csv")) == 0
    want = (tmp_path / "want.csv").read_bytes()
    for write_through in (True, False):
        raw = CountingRaw()
        stdout = io.TextIOWrapper(raw, encoding="ascii", write_through=write_through)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run_cli(*argv) == 0
        assert bytes(raw.data) == want
        assert raw.writes <= -(-len(want) // 8192) + 4, raw.writes
        assert stdout.write_through is write_through
    # a write that fails ends the command with exit 1, and the setting is
    # still restored: mid-stream, and on the last flush of a short output
    for args in (argv, short):
        raw = CountingRaw(fail=True)
        stdout = io.TextIOWrapper(raw, encoding="ascii", write_through=True)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run_cli(*args) == 1
        assert raw.writes == 1
        assert stdout.write_through is True
        assert capsys.readouterr().err.startswith("io error: ")
    # over a buffered writer rows already go out in blocks: the setting is
    # not touched, so a last flush that fails leaves it as it was
    raw = CountingRaw(fail=True)
    stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="ascii", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run_cli(*short) == 1
    assert raw.writes == 1
    assert stdout.write_through is True
    assert capsys.readouterr().err.startswith("io error: ")
    raw = CountingRaw()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="ascii", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run_cli(*argv) == 0
    assert bytes(raw.data) == want
    assert raw.writes <= -(-len(want) // 8192) + 4, raw.writes
    # a stdout without the setting is written as it is
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert run_cli(*argv) == 0
    assert sys.stdout.getvalue().encode() == want


def test_sieve_json_is_streamed_with_the_bytes_of_one_dump(tmp_path):
    import numpy as np

    from goebel.cli import write_outcome_json
    from goebel.sieve import _BLOCK, SieveOutcome, sieve_range, sieve_tables

    def dump(outcome):
        record = {"k_lo": outcome.k_lo, "k_hi": outcome.k_hi, "bound": outcome.bound,
                  "survivors": outcome.survivors}
        return (json.dumps(record, indent=2) + "\n").encode()

    out = tmp_path / "outcome.json"
    k_lo = 2 ** 64 + 3  # survivors past int64
    # none, one, a few, and more than one block of survivors
    for offsets in ([], [4], [2, 16, 2 ** 30], range(0, 2 * _BLOCK + 5, 2)):
        for bound in (0, 19):
            outcome = SieveOutcome(k_lo=k_lo, k_hi=k_lo + 2 ** 31, bound=bound,
                                   offsets=np.array(offsets, dtype=np.int32))
            write_outcome_json(str(out), outcome)
            assert out.read_bytes() == dump(outcome)
    assert run_cli(
        "sieve", "--k-lo", "2", "--k-hi", "400", "--p-max", "19", "--format", "json",
        "-o", str(out),
    ) == 0
    assert out.read_bytes() == dump(sieve_range(2, 400, 19, 2, sieve_tables(19, 2)))


def test_survivor_text_has_the_bytes_of_str_in_csv_and_json(tmp_path):
    """The numpy decimal lines of sieve's CSV and JSON against str() of each exact survivor."""
    import numpy as np

    from goebel.cli import write_outcome_json, write_rows
    from goebel.sieve import _BLOCK, SieveOutcome

    def check(k_lo, offsets):
        outcome = SieveOutcome(k_lo=k_lo, k_hi=k_lo + 10 ** 8 - 1, bound=19,
                               offsets=np.array(offsets, dtype=np.int32))
        survivors = [k_lo + i for i in offsets]
        out = tmp_path / "survivors"
        write_rows(str(out), ["k"], outcome, "csv")
        assert out.read_bytes() == "".join(f"{k}\n" for k in ["k", *survivors]).encode(), k_lo
        write_outcome_json(str(out), outcome)
        record = {"k_lo": k_lo, "k_hi": outcome.k_hi, "bound": 19, "survivors": survivors}
        assert out.read_bytes() == (json.dumps(record, indent=2) + "\n").encode(), k_lo

    # none, one, and more than one block of survivors, up to the largest offset
    many = [*range(0, 2 * _BLOCK + 5, 3), 10 ** 8 - 1]
    for k_lo in (2, 10 ** 10 - 10 ** 8 + 7, 2 ** 64 + 3):
        for offsets in ([], [5], many):
            check(k_lo, offsets)
    # every digit-count boundary from 9 -> 10 to 10^18 - 1 -> 10^18, at the
    # start of a block and inside one
    for e in range(1, 19):
        check(10 ** e - 3, range(6))
        check(max(2, 10 ** e - _BLOCK), range(_BLOCK + 3))
    # the low 10 digits carry into the high ones q, from q = 0 up; at
    # q = 999, and at q = 10^8 - 1 where k reaches 10^18, the carry adds a
    # high digit
    for q in (0, 1, 999, 10 ** 8 - 1, 10 ** 9 - 1, 2 ** 70):
        check(q * 10 ** 10 + 10 ** 10 - 2, range(5))
        check(q * 10 ** 10 + 10 ** 10 - 10 ** 8 + 1, [0, _BLOCK, 10 ** 8 - 2, 10 ** 8 - 1])


def test_sieve_bytes_do_not_depend_on_a_block_below_one_byte(tmp_path, monkeypatch):
    """_BLOCK under 8 bits still reads the bitmap a byte at a time."""
    from goebel import sieve

    def outputs():
        got = []
        for fmt in ("csv", "json"):
            out = tmp_path / f"survivors.{fmt}"
            assert run_cli("sieve", "--k-lo", "2", "--k-hi", "5000", "--p-max", "40",
                           "--format", fmt, "-o", str(out)) == 0
            got.append(out.read_bytes())
        return got

    want = outputs()
    for block in (1, 7, 8, 9):
        monkeypatch.setattr(sieve, "_BLOCK", block)
        assert outputs() == want, block


def _tuning_constants():
    """(module, name, least value) of every constant that trades speed or
    memory for the same output bytes; the least value is the one stated
    where the constant is defined."""
    from goebel import billiards, reduced, sieve

    return [
        (billiards, "WITNESS_BATCH_ROWS", 1), (billiards, "WITNESS_WINDOW_ROWS", 1),
        (billiards, "_FIRST_COLUMNS", 1), (reduced, "_EULER_STEPS", 0),
        (reduced, "JP_BATCH_BYTES", 1), (reduced, "_LOCKSTEP_MIN_PRIMES", 0),
        (reduced, "_GATHER_STEPS", 1), (sieve, "_LANES", 1), (sieve, "_RETIRE", 1),
        (sieve, "_BLOCK", 1), (sieve, "_ROW_BYTES", 1),
    ]


# every command that a tuning constant reaches, small enough to run in a
# fraction of a second with each constant at its least value; the sieve
# range crosses 10^12, where the low 10 digits of k carry
_TUNED_COMMANDS = [
    ["jp", "--p-max", "600"], ["jp", "--p-max", "600", "--format", "json"],
    ["jp", "--classify", "1009"], ["two-in-jp", "--p-max", "5000"],
    ["verify", "--p-max", "120"], ["verify", "--p-max", "120", "--format", "json"],
    ["grid", "--p", "61"],
    ["sieve", "--k-lo", str(10 ** 12 - 2000), "--k-hi", str(10 ** 12 + 2000), "--p-max", "300",
     "--format", "json"],
]


def _tuned_outputs() -> list:
    """(stdout, stderr, exit code) of each of _TUNED_COMMANDS, run in process."""
    import contextlib

    got = []
    for argv in _TUNED_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_cli(*argv)
        got.append((out.getvalue(), err.getvalue(), rc))
    return got


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_output_does_not_depend_on_the_tuning_constants(data):
    """All tuning constants at once at values drawn from their domains, from
    the least up to twice the default, give the bytes of the defaults."""
    constants = _tuning_constants()
    defaults = [getattr(module, name) for module, name, _ in constants]
    want = _tuned_outputs()
    drawn = [data.draw(st.integers(least, 2 * default), label=name)
             for (_, name, least), default in zip(constants, defaults)]
    try:
        for (module, name, _), value in zip(constants, drawn):
            setattr(module, name, value)
        assert _tuned_outputs() == want
    finally:
        for (module, name, _), value in zip(constants, defaults):
            setattr(module, name, value)


def test_spot_check_samples_lazily_as_from_the_list_of_sieved_k():
    import random
    import tracemalloc

    from goebel.sieve import sieve_range, sieve_tables

    tables = sieve_tables(40, 2)
    for k_lo, k_hi in ((2, 3000), (1001, 4000)):
        outcome = sieve_range(k_lo, k_hi, 40, 2, tables)
        alive = set(outcome.survivors)
        listed = [k for k in range(k_lo, k_hi + 1) if k not in alive]
        assert [outcome.nth_sieved(i) for i in range(len(listed))] == listed
        for seed in range(6):
            for n in (1, 5, 100):
                lazy = [
                    outcome.nth_sieved(i)
                    for i in random.Random(seed).sample(range(len(listed)), n)
                ]
                assert lazy == random.Random(seed).sample(listed, n)

    outcome = sieve_range(2, 10 ** 6 + 1, 40, 2, tables)
    tracemalloc.start()
    try:
        size = 10 ** 6 - len(outcome)
        sample = [outcome.nth_sieved(i) for i in random.Random(0).sample(range(size), 100)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(sample) & set(outcome.survivors)) == 0
    assert peak < 100_000  # a list of the ~10^6 sieved k takes about 8 MB for its pointers alone


def test_all_survivor_sieve_holds_a_few_bytes_per_survivor(tmp_path):
    # with l = 1 every k survives; a list of ints and a (k,) tuple per
    # survivor took this command to a 227 MB peak
    import subprocess
    from pathlib import Path

    out = tmp_path / "all.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = ["sieve", "--k-lo", "2", "--k-hi", "2000001", "--p-max", "19", "--l", "1"]
    # a child's ru_maxrss counts the memory of the process that forks it, so
    # a small process starts the command; wait4 reads that child's own peak,
    # which RUSAGE_CHILDREN would merge with those of earlier children
    starter = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:])\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", starter, sys.executable, "-m", "goebel", *argv, "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rc, maxrss_kb = map(int, proc.stdout.split())
    assert rc == 0, proc.stderr
    assert maxrss_kb < 80 * 1024
    assert out.read_text() == "k\n" + "".join(f"{k}\n" for k in range(2, 2000002))


def test_grid_cli(tmp_path):
    out = tmp_path / "grid.csv"
    assert run_cli("grid", "--p", "7", "-o", str(out)) == 0
    assert out.read_bytes() == b"p,k,l\n7,2,3\n"


def test_jp_cli_table2(tmp_path):
    out = tmp_path / "jp.csv"
    assert run_cli("jp", "--p-max", "349", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,l_L,l_R,J_size,ratio"
    assert len(lines) == 33
    for line in lines[1:]:
        p, l_L, l_R, size, ratio = line.split(",")
        count, want_lL, want_lR = JP_TABLE[int(p)]
        assert (int(l_L), int(l_R), int(size)) == (want_lL, want_lR, count)
        assert 0 < float(ratio) < 0.5


def test_jp_output_is_the_same_across_threads_batches_and_formats(tmp_path, monkeypatch):
    from goebel import compute_jp, reduced
    from goebel.modarith import qualifying_primes

    def jp(name, *extra):
        out = tmp_path / name
        assert run_cli("jp", "--p-min", "1000", "--p-max", "1400", "-o", str(out), *extra) == 0
        return out.read_bytes()

    body = jp("t1.csv", "--threads", "1")
    want = "".join(
        f"{s.p},{s.l_L},{s.l_R},{s.count},{s.count / s.p:.6f}\n"
        for s in map(compute_jp, qualifying_primes(1000, 1400))
    )
    assert body == ("p,l_L,l_R,J_size,ratio\n" + want).encode()
    assert jp("t2.csv", "--threads", "2") == body
    monkeypatch.setattr(reduced, "JP_BATCH_BYTES", 3000)
    assert jp("small.csv", "--threads", "2") == body
    records = json.loads(jp("t2.json", "--threads", "2", "--format", "json"))
    header, *lines = body.decode().splitlines()
    assert [list(r.values()) for r in records] == [
        [int(v) for v in line.split(",")[:4]] + [line.split(",")[4]] for line in lines
    ]
    assert all(list(r) == header.split(",") for r in records)


def test_jp_classify_diagnostic(tmp_path):
    out = tmp_path / "cls.csv"
    assert run_cli("jp", "--classify", "5", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l,classification"
    assert lines[1] == "0,left"
    assert lines[-1] == "4,right"


def test_jp_classify_builds_one_residue_table(tmp_path, monkeypatch, cold_qr_bits):
    from goebel.modarith import QrTable

    built = []
    real_init = QrTable.__init__

    def counting_init(self, p):
        built.append(p)
        real_init(self, p)

    monkeypatch.setattr(QrTable, "__init__", counting_init)
    out = tmp_path / "cls.csv"
    assert run_cli("jp", "--classify", "13", "-o", str(out)) == 0
    assert built == [13]
    assert out.read_text().splitlines()[1:] == [
        f"{l},{'right' if l % 2 or l >= 10 else 'middle' if l >= 4 else 'left'}"
        for l in range(13)
    ]


def test_jp_classify_streams_its_rows(tmp_path):
    # a list of P (l, value) tuples took this command to a 140 MB peak; it peaks near 47 MB
    for fmt in ("csv", "json"):
        out = tmp_path / f"cls.{fmt}"
        assert command_peak_kb("jp", "--classify", "1000003", "--format", fmt, "-o", str(out)) < 80 * 1024
    with open(tmp_path / "cls.csv", encoding="ascii") as fh:
        assert next(fh) == "l,classification\n"
        assert sum(1 for _ in fh) == 1000003
    with open(tmp_path / "cls.json", encoding="ascii") as fh:
        assert sum(line == "  {\n" for line in fh) == 1000003


def test_prime_bounds_above_the_table_limit_are_an_error(capsys, monkeypatch):
    import goebel.modarith

    def no_sieve(n):
        raise AssertionError(f"sieved to {n}")

    monkeypatch.setattr(goebel.modarith, "_sieve", no_sieve)
    for argv in (
        ("two-in-jp", "--p-max", "1000000000"),
        ("jp", "--p-max", "100000001"),
        ("verify", "--p-max", "1000000000"),
    ):
        assert run_cli(*argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv


def test_prime_bounds_below_13_give_the_header_alone(capsys):
    for command, header in (("two-in-jp", "p"), ("jp", "p,l_L,l_R,J_size,ratio"), ("verify", "p,l,m")):
        assert run_cli(command, "--p-max", "12") == 0, command
        assert capsys.readouterr() == (header + "\n", ""), command
        assert run_cli(command, "--p-max", "12", "--format", "json") == 0, command
        assert capsys.readouterr() == ("[]\n", ""), command


def test_composite_grid_prime_is_rejected_without_sieving(capsys, monkeypatch):
    import goebel.modarith

    def no_sieve(n):
        raise AssertionError(f"sieved to {n}")

    monkeypatch.setattr(goebel.modarith, "_sieve", no_sieve)
    assert run_cli("grid", "--p", "1000000000000001") == 1  # 7 * 142857142857143
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_grid_prime_above_2_21_is_rejected_before_the_primality_test(capsys, monkeypatch):
    import goebel.modarith

    def no_primality_test(n):
        raise AssertionError(f"tested {n} for primality")

    monkeypatch.setattr(goebel.modarith, "is_prime", no_primality_test)
    assert run_cli("grid", "--p", "1000000000000037") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the vectorized trace overflows int64")


def test_sieve_k_range_above_the_bound_is_an_error(tmp_path, capsys, monkeypatch):
    import goebel.sieve

    def no_tables(*args, **kwargs):
        raise AssertionError("built tables")

    monkeypatch.setattr(goebel.sieve, "sieve_tables", no_tables)
    tables = tmp_path / "tables.txt"
    argv = ["sieve", "--k-lo", "2", "--k-hi", "1000000000000", "--p-max", "3"]
    assert run_cli(*argv, "--tables", str(tables)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not tables.exists()


def test_subcommand_option_sets():
    # every accepted option is read by its command
    import argparse

    from goebel.cli import build_parser

    io = {"-h", "--help", "-o", "--output", "--format"}
    expected = {
        "exact": io | {"--k", "--l", "--limit", "--no-cache", "--threads", "--cache-dir"},
        "stats": io | {"--dataset", "--mean-mod", "--records", "--prime-share"},
        "sieve": io | {"--k-lo", "--k-hi", "--p-max", "--l", "--tables", "--spot-check",
                       "--threads", "--seed"},
        "grid": io | {"--p"},
        "jp": io | {"--p-max", "--p-min", "--classify", "--threads"},
        "two-in-jp": io | {"--p-max", "--threads"},
        "billiards": {"-h", "--help", "-o", "--output", "--p", "--l"},
        "verify": io | {"--p-max", "--p-min", "--threads"},
    }
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    accepted = {
        name: {opt for action in sp._actions for opt in action.option_strings}
        for name, sp in sub.choices.items()
    }
    assert accepted == expected


def test_jp_requires_mode():
    with pytest.raises(SystemExit) as exc:
        run_cli("jp")
    assert exc.value.code == 2


def test_two_in_jp_cli(tmp_path):
    out = tmp_path / "two.csv"
    assert run_cli("two-in-jp", "--p-max", "400", "-o", str(out)) == 0
    assert out.read_bytes() == b"p\n313\n"


def test_billiards_dump(tmp_path):
    out = tmp_path / "signs.txt"
    assert run_cli("billiards", "--p", "37", "--l", "12", "-o", str(out)) == 0
    line = out.read_text().strip()
    head = "++--++--++---++--+"
    assert line == f"37,12:{head}{head[::-1]}"
    # all-l dump starts with the trivial all-plus row
    assert run_cli("billiards", "--p", "13", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "13,0:++++++++++++"
    assert len(lines) == 6


def test_billiards_p_that_leaves_no_l_is_an_error(capsys):
    # range(0, p - 2, 2) is empty for these p, so no l value checks them
    for p in (2, 1, 0, -3):
        assert run_cli("billiards", "--p", str(p)) == 1, p
        captured = capsys.readouterr()
        assert captured.out == "", p
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), p


def _witness_bytes(rows, fmt: str) -> bytes:
    """The bytes csv.writer or json.dumps(indent=2) makes of the rows (p, l, m)."""
    import csv

    if fmt == "json":
        records = [{"p": p, "l": l, "m": m} for p, l, m in rows]
        return (json.dumps(records, indent=2) + "\n").encode("ascii")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("p", "l", "m"), *rows])
    return buf.getvalue().encode("ascii")


def test_verify_output_has_the_bytes_of_the_witness_list(tmp_path, monkeypatch):
    from goebel import billiards, verify_range
    from goebel.modarith import qualifying_primes

    cases = [((), verify_range(13, 300)), (("--p-min", "150"), verify_range(150, 300))]
    sizes = [(billiards.WITNESS_BATCH_ROWS, billiards.WITNESS_WINDOW_ROWS), (40, 120)]
    # batches of 40 rows, and windows of 3 such batches, cut through primes at both boundaries
    monkeypatch.setattr(billiards, "WITNESS_BATCH_ROWS", 40)
    batches = billiards._row_batches(qualifying_primes(13, 300))
    assert batches[0][-1][0] == batches[1][0][0] and batches[2][-1][0] == batches[3][0][0]
    for batch, window in sizes:
        monkeypatch.setattr(billiards, "WITNESS_BATCH_ROWS", batch)
        monkeypatch.setattr(billiards, "WITNESS_WINDOW_ROWS", window)
        for extra, rows in cases:
            for threads in ("1", "2"):
                for fmt in ("csv", "json"):
                    out = tmp_path / f"w.{fmt}"
                    assert run_cli("verify", "--p-max", "300", *extra, "--threads", threads,
                                   "--format", fmt, "-o", str(out)) == 0
                    assert out.read_bytes() == _witness_bytes(rows, fmt), (batch, extra, threads, fmt)
    assert len(billiards.WitnessRows(13, 300)) == len(cases[0][1])


# the witness kernel, while a test stands in for it; the stand-in below is
# pickled to the workers by name, and reads the kernel from here
_kernel = None


def _fails_on(jobs_that_fail, jobs):
    from goebel.errors import NoWitness

    if jobs == jobs_that_fail:
        raise NoWitness(f"no multiplicativity witness for (p={jobs[0][0]}, l={jobs[0][1]})")
    return _kernel(jobs)


def test_verify_failure_after_rows_are_out_is_one_error_line(tmp_path, monkeypatch, capsys):
    from functools import partial

    from goebel import billiards, verify_range
    from goebel.modarith import qualifying_primes

    monkeypatch.setattr(sys.modules[__name__], "_kernel", billiards._witness_batch)
    monkeypatch.setattr(billiards, "WITNESS_BATCH_ROWS", 40)
    batches = billiards._row_batches(qualifying_primes(13, 300))
    rows = verify_range(13, 300)
    monkeypatch.setattr(billiards, "_witness_batch", partial(_fails_on, batches[1]))
    want_err = f"error: no multiplicativity witness for (p={batches[1][0][0]}, l={batches[1][0][1]})\n"
    # with one batch per window the first batch's rows are out before the
    # second fails; with two, the first window fails whole, and at two
    # threads it fails in a worker process
    for window, written in ((40, rows[:40]), (80, [])):
        monkeypatch.setattr(billiards, "WITNESS_WINDOW_ROWS", window)
        for threads in ("1", "2"):
            argv = ("verify", "--p-max", "300", "--threads", threads)
            assert run_cli(*argv) == 1, (window, threads)
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (_witness_bytes(written, "csv").decode(), want_err)
            out = tmp_path / "w.csv"
            assert run_cli(*argv, "-o", str(out)) == 1, (window, threads)
            assert capsys.readouterr() == ("", want_err)
            assert out.read_bytes() == _witness_bytes(written, "csv")


def test_verify_streams_its_rows_in_flat_memory(tmp_path):
    # a Witness tuple per row and a list of them took this command to a 65 MB peak
    from goebel.modarith import qualifying_primes

    rows = sum((p - 3) // 2 for p in qualifying_primes(13, 5000))
    out = tmp_path / "w.csv"
    assert command_peak_kb("verify", "--p-max", "5000", "-o", str(out)) < 45 * 1024
    with open(out, encoding="ascii") as fh:
        assert next(fh) == "p,l,m\n"
        assert sum(1 for _ in fh) == rows
    out = tmp_path / "w.json"
    assert command_peak_kb("verify", "--p-max", "5000", "--format", "json", "-o", str(out)) < 45 * 1024
    with open(out, encoding="ascii") as fh:
        assert sum(line == "  {\n" for line in fh) == rows


def test_verify_cli(tmp_path):
    out = tmp_path / "witness.csv"
    assert run_cli("verify", "--p-max", "1000", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,l,m"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    ps = sorted({p for p, _, _ in rows})
    assert ps[:10] == [13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    assert ps[-1] == 997
    for p in (13, 97, 997):
        assert [l for q, l, _ in rows if q == p] == list(range(2, p - 2, 2))


def test_outputs_are_lf_ascii(tmp_path):
    out = tmp_path / "jp.csv"
    assert run_cli("jp", "--p-max", "50", "-o", str(out)) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    raw.decode("ascii")
