#!/usr/bin/env python3
"""Write the performance record of one checkout to ``BENCH_<rev>.json``.

    python3 benchmarks/bench_e2e.py [--repo DIR] [--out DIR]

For each workload of the checkout's ``BENCHMARK.json`` this runs
``perfbench/run.py`` of the checkout at ``--repo`` (default: the one holding
this script) ``RUNS`` times with ``--trace 0`` and once with ``--trace 1``,
at seed ``SEED`` and ``SECONDS`` seconds, and copies what its result lines
report.  End to end, ``wall_s``, ``setup_s`` and ``peak_rss_mb`` are the
medians of the untraced runs, ``iqr`` holds their interquartile spreads and
``runs`` every run's values, so a busy spell of the machine shows as spread
rather than as a shifted number.  The untraced runs go round the workloads
in turn.  The traced run gives the per-layer seconds and counts.  Nothing is
timed here.

``source_sha256`` hashes the files of ``src/`` that were measured.  A clean
checkout is recorded as ``BENCH_<short-rev>.json`` with its ``revision``.  A
tree whose ``src/`` or ``perfbench/`` differ from ``HEAD`` is no revision
yet: it is recorded as ``BENCH_src-<sha12>.json`` (the first 12 hex digits
of ``source_sha256``) with ``revision`` null, and the commit that later holds
that tree finds its record by the same hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
SECONDS = 8.0
RUNS = 5  # untraced perfbench runs per workload
E2E = ("wall_s", "setup_s", "peak_rss_mb")


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def source_sha256(repo):
    """sha256 over the relative path and bytes of every file under src/."""
    h = hashlib.sha256()
    src = os.path.join(repo, "src")
    for top, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(top, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def workloads(repo):
    with open(os.path.join(repo, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def perfbench(repo, workload, trace):
    """(env, result) from the last two lines perfbench prints."""
    out = subprocess.run(
        [sys.executable, os.path.join(repo, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=repo, check=True, capture_output=True, text=True).stdout
    env, result = (json.loads(line) for line in out.splitlines()[-2:])
    return env["env"], result


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def record(repo):
    head = git(repo, "rev-parse", "HEAD")
    dirty = bool(git(repo, "status", "--porcelain", "--", "src", "perfbench"))
    sha = source_sha256(repo)
    bench = {"revision": None if dirty else head, "head": head,
             "dirty": dirty, "tag": f"src-{sha[:12]}" if dirty else head[:7],
             "source_sha256": sha,
             "config": {"seed": SEED, "seconds": SECONDS, "runs": RUNS},
             "workloads": {}}
    names = workloads(repo)
    runs = {w: [] for w in names}
    for _ in range(RUNS):
        for w in names:
            runs[w].append(perfbench(repo, w, 0))
    for w in names:
        env, traced = perfbench(repo, w, 1)
        layers = values(traced)
        e2e = {k: [values(r)[k] for _, r in runs[w]] for k in E2E}
        quart = {k: statistics.quantiles(v, n=4, method="inclusive")
                 for k, v in e2e.items()}
        results = [r for _, r in runs[w]] + [traced]
        bench["workloads"][w] = {
            **{k: statistics.median(v) for k, v in e2e.items()},
            "iqr": {k: q3 - q1 for k, (q1, _, q3) in quart.items()},
            "runs": e2e,
            "round_s": [e["round_s"] for e, _ in runs[w]],
            "payload_sha256": sorted({h for e, _ in runs[w]
                                      for h in e["payload_sha256"]}),
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "layer_s": {k: v for k, v in layers.items() if k.endswith(".s")},
            "trace": {k: v for k, v in layers.items()
                      if not k.endswith(".s")},
            "env": {k: v for k, v in env.items()
                    if k not in ("round_s", "payload_sha256")}}
        print(f"{w}: wall_s {bench['workloads'][w]['wall_s']:.3f} "
              f"(iqr {bench['workloads'][w]['iqr']['wall_s']:.3f})",
              file=sys.stderr)
    return bench


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repo", default=os.path.dirname(HERE),
                   help="checkout to measure (default: this one)")
    p.add_argument("--out", default=HERE,
                   help="directory of the BENCH file (default: benchmarks/)")
    args = p.parse_args(argv)
    bench = record(os.path.abspath(args.repo))
    path = os.path.join(args.out, f"BENCH_{bench['tag']}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
