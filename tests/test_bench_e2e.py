"""The performance-record script: its output directory, the alternating
rounds of a parent/change pair and whether they resolve a gain, the one
side summary that a lone checkout and each side of a pair share, each
checkout's bytecode prefix, and the error for a directory that is no
checkout."""

import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                      "bench_e2e.py")


def _load():
    spec = importlib.util.spec_from_file_location("bench_e2e", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_out_directory_is_made_before_measuring(tmp_path, monkeypatch,
                                                        capsys):
    bench_e2e = _load()
    out = tmp_path / "fresh" / "nested"

    def record(repo, parent):
        assert out.is_dir()  # made before anything is measured
        assert parent is None
        return {"tag": "stub", "workloads": {}}

    monkeypatch.setattr(bench_e2e, "record", record)
    assert bench_e2e.main(["--out", str(out)]) == 0
    path = out / "BENCH_stub.json"
    assert json.loads(path.read_text()) == {"tag": "stub", "workloads": {}}
    assert capsys.readouterr().out.strip() == str(path)


def _result(wall, setup, rss):
    metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    return {"metrics": {k: {"value": v} for k, v in metrics.items()},
            "failed": 0, "correct": True}


def _env(*hashes):
    return {"payload_sha256": list(hashes), "round_s": [0.5], "python": "3"}


def _traced():
    """(env, result) of a traced run: per-layer seconds and counts."""
    metrics = {"trace.wall_s": 1.5, "hilbert.enumerate.s": 0.01,
               "hilbert.enumerate.calls": 5}
    return (_env("h0"), {"metrics": {k: {"value": v}
                                     for k, v in metrics.items()},
                         "failed": 0, "correct": True})


def _stub_repo(monkeypatch, bench_e2e, status=""):
    """Two workloads; a checkout's sha is its first letter; every HEAD is
    ``0123456789``, and ``git status`` prints ``status``."""
    monkeypatch.setattr(bench_e2e, "workloads", lambda repo: ["w1", "w2"])
    monkeypatch.setattr(bench_e2e, "source_sha256",
                        lambda repo: repo.strip("/")[0] * 64)
    monkeypatch.setattr(bench_e2e, "git", lambda repo, cmd, *args:
                        status if cmd == "status" else "0123456789")


def test_against_runs_alternating_pairs_and_counts_the_wins(monkeypatch):
    bench_e2e = _load()
    calls = []
    pairs = bench_e2e.ROUNDS

    def perfbench(repo, workload, trace, pycache):
        if trace:
            return _traced()
        calls.append((repo, workload))
        n = calls.count((repo, workload))  # this side's run of the workload
        if repo == "/parent":
            return _env("h0"), _result(1.0, 0.2, 40.0)
        # the change is faster except in its runs 3, 6 and 9, sets up as
        # fast (a tie is no win) and takes more memory; on w2 its last run
        # reports a second payload
        hashes = ["h0", "h1"] if (workload, n) == ("w2", pairs) else ["h0"]
        return (_env(*hashes),
                _result(1.1 if n % 3 == 0 else 0.9, 0.2, 41.0))

    monkeypatch.setattr(bench_e2e, "perfbench", perfbench)
    _stub_repo(monkeypatch, bench_e2e)
    bench = bench_e2e.record("/change", "/parent")

    assert pairs == 10 and len(calls) == 2 * 2 * pairs
    for w in ("w1", "w2"):
        order = [repo for repo, ww in calls if ww == w]
        for k in range(pairs):  # pair k + 1: the parent first when odd
            want = ["/parent", "/change"] if k % 2 == 0 \
                else ["/change", "/parent"]
            assert order[2 * k:2 * k + 2] == want, (w, k + 1)
    # the pairs go round the workloads in turn
    assert [w for _, w in calls[:4]] == ["w1", "w1", "w2", "w2"]

    assert bench["tag"] == "ab-" + "p" * 12 + "-" + "c" * 12
    rec = bench["workloads"]["w1"]
    assert rec["wins"] == {"wall_s": 7, "setup_s": 0, "peak_rss_mb": 0}
    # 7 wins of 10 resolve no gain, however far apart the medians
    assert rec["resolved"] == {"wall_s": False, "setup_s": False,
                               "peak_rss_mb": False}
    assert rec["parent"]["runs"]["wall_s"] == [1.0] * pairs
    assert rec["change"]["runs"]["wall_s"] \
        == [1.1 if n % 3 == 0 else 0.9 for n in range(1, pairs + 1)]
    assert rec["change"]["median"] == {"wall_s": 0.9, "setup_s": 0.2,
                                       "peak_rss_mb": 41.0}
    assert rec["change"]["quartiles"]["wall_s"] == [0.9, 0.9, 1.05]
    assert rec["parent"]["failed"] == rec["change"]["failed"] == 0
    # each side keeps the set of payload hashes its runs reported
    assert rec["parent"]["payload_sha256"] == ["h0"]
    assert rec["same_payload"] is True
    rec = bench["workloads"]["w2"]
    assert rec["change"]["payload_sha256"] == ["h0", "h1"]
    assert rec["same_payload"] is False


def test_a_gain_is_resolved_by_nine_tenths_of_wins_beyond_the_spread(
        monkeypatch, capsys):
    # the change runs 0.95 s in every pair; the parent runs 1.0 s in every
    # pair on w1, but alternates 1.0 s and 1.4 s on w2, where its quartiles
    # lie 0.4 s apart, more than the medians (1.2 s and 0.95 s) differ
    bench_e2e = _load()
    calls = []

    def perfbench(repo, workload, trace, pycache):
        if trace:
            return _traced()
        calls.append((repo, workload))
        n = calls.count((repo, workload))
        if repo == "/change":
            return _env("h0"), _result(0.95, 0.2, 40.0)
        slow = workload == "w2" and n % 2 == 0
        return _env("h0"), _result(1.4 if slow else 1.0, 0.2, 40.0)

    monkeypatch.setattr(bench_e2e, "perfbench", perfbench)
    _stub_repo(monkeypatch, bench_e2e)
    bench = bench_e2e.record("/change", "/parent")

    w1, w2 = (bench["workloads"][w] for w in ("w1", "w2"))
    assert w1["wins"]["wall_s"] == w2["wins"]["wall_s"] == bench_e2e.ROUNDS
    assert w1["resolved"] == {"wall_s": True, "setup_s": False,
                              "peak_rss_mb": False}  # ties are no wins
    assert w2["parent"]["quartiles"]["wall_s"] == [1.0, 1.2, 1.4]
    assert w2["resolved"]["wall_s"] is False
    err = capsys.readouterr().err.splitlines()
    assert err == ["w1: wall_s 1.000 -> 0.950, change won 10/10, "
                   "resolved: True, same payload: True",
                   "w2: wall_s 1.200 -> 0.950, change won 10/10, "
                   "resolved: False, same payload: True"]


def test_a_peak_rss_gain_resolves_only_above_the_floor(monkeypatch):
    # the change wins every pair on peak_rss_mb, by 0.1 MB on w1 and 2 MB on
    # w2; the parent's quartiles are 0 MB apart, so the floor decides
    bench_e2e = _load()

    def perfbench(repo, workload, trace, pycache):
        if trace:
            return _traced()
        rss = 40.0 if repo == "/parent" else 39.9 if workload == "w1" else 38.0
        return _env("h0"), _result(1.0, 0.2, rss)

    monkeypatch.setattr(bench_e2e, "perfbench", perfbench)
    _stub_repo(monkeypatch, bench_e2e)
    bench = bench_e2e.record("/change", "/parent")

    assert bench_e2e.RSS_FLOOR_MB == 0.5
    w1, w2 = (bench["workloads"][w] for w in ("w1", "w2"))
    assert w1["wins"]["peak_rss_mb"] == w2["wins"]["peak_rss_mb"] \
        == bench_e2e.ROUNDS
    assert w1["parent"]["quartiles"]["peak_rss_mb"] == [40.0, 40.0, 40.0]
    assert w1["resolved"]["peak_rss_mb"] is False
    assert w2["resolved"]["peak_rss_mb"] is True


def test_against_writes_the_pair_record(tmp_path, monkeypatch, capsys):
    bench_e2e = _load()
    seen = []

    def record(repo, parent):
        seen.append((repo, parent))
        return {"tag": "ab-stub", "workloads": {}}

    monkeypatch.setattr(bench_e2e, "record", record)
    assert bench_e2e.main(["--repo", str(tmp_path / "new"), "--out",
                           str(tmp_path), "--against",
                           str(tmp_path / "old")]) == 0
    assert seen == [(str(tmp_path / "new"), str(tmp_path / "old"))]
    path = tmp_path / "BENCH_ab-stub.json"
    assert capsys.readouterr().out.strip() == str(path)


def test_each_side_keeps_its_bytecode_in_its_own_fresh_prefix(monkeypatch):
    # a __pycache__ left in one checkout is not read: every perfbench run
    # of a side gets that side's PYTHONPYCACHEPREFIX, empty when it starts,
    # and may write to it
    bench_e2e = _load()
    prefixes = {}
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")

    def run(argv, cwd, env, **kwargs):
        assert "PYTHONDONTWRITEBYTECODE" not in env
        prefix = env["PYTHONPYCACHEPREFIX"]
        if cwd not in prefixes:
            assert os.path.isdir(prefix) and not os.listdir(prefix)
            assert not prefix.startswith(cwd)
        prefixes.setdefault(cwd, prefix)
        assert prefix == prefixes[cwd]
        with open(os.path.join(prefix, "written.pyc"), "w"):
            pass  # as the first run's compilation would
        lines = [json.dumps({"env": _env("h0")}),
                 json.dumps(_result(1.0, 0.2, 40.0))]

        class Done:
            stdout = "\n".join(lines) + "\n"
        return Done

    monkeypatch.setattr(bench_e2e.subprocess, "run", run)
    _stub_repo(monkeypatch, bench_e2e)
    bench = bench_e2e.record("/change", "/parent")

    assert set(prefixes) == {"/change", "/parent"}
    assert prefixes["/change"] != prefixes["/parent"]
    assert bench["config"]["pycache_prefix"] == "fresh per checkout, written"
    assert not any(os.path.exists(p) for p in prefixes.values())  # removed
    assert bench["workloads"]["w1"]["same_payload"] is True

    prefixes.clear()
    bench = bench_e2e.record("/repo")
    assert list(prefixes) == ["/repo"]
    assert bench["config"]["pycache_prefix"] == "fresh per checkout, written"


def _record(monkeypatch, bench_e2e, *checkouts, status=""):
    """The record of the stubbed checkouts, and the perfbench calls made:
    (repo, workload, trace) in order."""
    calls = []

    def perfbench(repo, workload, trace, pycache):
        calls.append((repo, workload, trace))
        return _traced() if trace else (_env("h0"), _result(1.0, 0.2, 40.0))

    monkeypatch.setattr(bench_e2e, "perfbench", perfbench)
    _stub_repo(monkeypatch, bench_e2e, status)
    return bench_e2e.record(*checkouts), calls


def test_a_lone_side_has_the_keys_of_each_side_of_a_pair(monkeypatch):
    bench_e2e = _load()
    lone, _ = _record(monkeypatch, bench_e2e, "/change")
    pair, _ = _record(monkeypatch, bench_e2e, "/change", "/parent")

    assert lone["tag"] == "0123456"  # a clean checkout: its short revision
    dirty, _ = _record(monkeypatch, bench_e2e, "/change", status=" M src/x")
    assert dirty["tag"] == "src-" + "c" * 12  # a tree that is no revision
    assert dirty["checkouts"]["change"]["dirty"] is True
    assert pair["tag"] == "ab-" + "p" * 12 + "-" + "c" * 12
    assert set(lone["workloads"]["w1"]) == {"change"}
    assert set(pair["workloads"]["w1"]) \
        == {"parent", "change", "wins", "resolved", "same_payload"}
    keys = set(lone["workloads"]["w1"]["change"])
    assert keys == {"runs", "median", "quartiles", "round_s", "failed",
                    "correct", "payload_sha256", "layer_s", "trace", "env"}
    for k in ("parent", "change"):
        assert set(pair["workloads"]["w1"][k]) == keys
    assert set(lone["checkouts"]) == {"change"}
    assert set(pair["checkouts"]) == {"parent", "change"}
    assert lone["config"] == pair["config"]

    rec = lone["workloads"]["w2"]["change"]
    assert rec["runs"]["wall_s"] == [1.0] * bench_e2e.ROUNDS
    assert rec["round_s"] == [[0.5]] * bench_e2e.ROUNDS
    # the traced run gives the per-layer numbers and the environment
    assert rec["layer_s"] == {"hilbert.enumerate.s": 0.01}
    assert rec["trace"] == {"trace.wall_s": 1.5,
                            "hilbert.enumerate.calls": 5}
    assert rec["env"] == {"python": "3"}
    assert rec["correct"] is True and rec["failed"] == 0


def test_each_checkout_gets_one_traced_run_per_workload_after_its_rounds(
        monkeypatch):
    bench_e2e = _load()
    rounds = bench_e2e.ROUNDS
    for checkouts in (("/change",), ("/change", "/parent")):
        _, calls = _record(monkeypatch, bench_e2e, *checkouts)
        untraced = 2 * len(checkouts) * rounds
        assert len(calls) == untraced + 2 * len(checkouts)
        assert all(trace == 0 for _, _, trace in calls[:untraced])
        assert sorted(calls[untraced:]) == sorted(
            (repo, w, 1) for repo in checkouts for w in ("w1", "w2"))
        for repo in checkouts:
            for w in ("w1", "w2"):
                assert calls.count((repo, w, 0)) == rounds


def test_a_directory_that_is_no_checkout_is_named_before_any_run(
        tmp_path, monkeypatch, capsys):
    bench_e2e = _load()
    copy = tmp_path / "copy"  # a plain directory, as a git archive leaves
    copy.mkdir()

    def perfbench(*args):
        raise AssertionError("perfbench ran")

    monkeypatch.setattr(bench_e2e, "perfbench", perfbench)
    for flag in ("--against", "--repo"):
        assert bench_e2e.main([flag, str(copy),
                               "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {copy} is not a git checkout\n"
    assert not list((tmp_path / "out").iterdir())
