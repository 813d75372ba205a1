"""The performance-record script: its output directory, and the
alternating parent/change pairs of ``--against``."""

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

    def record(repo):
        assert out.is_dir()  # made before anything is measured
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


def test_against_runs_alternating_pairs_and_counts_the_wins(monkeypatch):
    bench_e2e = _load()
    calls = []
    pairs = bench_e2e.PAIRS

    def perfbench(repo, workload, trace):
        assert trace == 0
        calls.append((repo, workload))
        n = calls.count((repo, workload))  # this side's run of the workload
        if repo == "/parent":
            return {"payload_sha256": ["h0"]}, _result(1.0, 0.2, 40.0)
        # the change is faster except in its runs 3, 6 and 9, sets up as
        # fast (a tie is no win) and takes more memory; on w2 its last run
        # reports a second payload
        hashes = ["h0", "h1"] if (workload, n) == ("w2", pairs) else ["h0"]
        return ({"payload_sha256": hashes},
                _result(1.1 if n % 3 == 0 else 0.9, 0.2, 41.0))

    monkeypatch.setattr(bench_e2e, "perfbench", perfbench)
    monkeypatch.setattr(bench_e2e, "workloads", lambda repo: ["w1", "w2"])
    monkeypatch.setattr(bench_e2e, "source_sha256",
                        lambda repo: repo.strip("/")[0] * 64)
    monkeypatch.setattr(bench_e2e, "git", lambda repo, *args: "rev")
    bench = bench_e2e.ab_record("/change", "/parent")

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


def test_against_writes_the_pair_record(tmp_path, monkeypatch, capsys):
    bench_e2e = _load()
    seen = []

    def ab_record(repo, base):
        seen.append((repo, base))
        return {"tag": "ab-stub", "workloads": {}}

    monkeypatch.setattr(bench_e2e, "ab_record", ab_record)
    assert bench_e2e.main(["--repo", str(tmp_path / "new"), "--out",
                           str(tmp_path), "--against",
                           str(tmp_path / "old")]) == 0
    assert seen == [(str(tmp_path / "new"), str(tmp_path / "old"))]
    path = tmp_path / "BENCH_ab-stub.json"
    assert capsys.readouterr().out.strip() == str(path)
