#!/usr/bin/env python3
"""Write the performance record of one checkout to ``BENCH_<rev>.json``.

    python3 benchmarks/bench_e2e.py [--repo DIR] [--out DIR] [--against DIR]

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

Every perfbench run of a checkout keeps its bytecode under one fresh,
empty ``PYTHONPYCACHEPREFIX`` directory of that checkout's own, made when
the record starts, and writes it there even if the caller set
``PYTHONDONTWRITEBYTECODE``.  So each side compiles once, in its first
run, as a fresh checkout does, and a ``__pycache__`` left in one
checkout's ``src/`` cannot spare that side the compiling.

``source_sha256`` hashes the files of ``src/`` that were measured.  A clean
checkout is recorded as ``BENCH_<short-rev>.json`` with its ``revision``.  A
tree whose ``src/`` or ``perfbench/`` differ from ``HEAD`` is no revision
yet: it is recorded as ``BENCH_src-<sha12>.json`` (the first 12 hex digits
of ``source_sha256``) with ``revision`` null, and the commit that later holds
that tree finds its record by the same hash.

With ``--against DIR`` the record compares two checkouts in one session:
for each workload, ``PAIRS`` pairs of untraced runs, one of DIR (the
parent) and one of ``--repo`` (the change), the parent first in the odd
pairs and second in the even ones, the pairs going round the workloads in
turn.  Each side keeps its runs, medians and quartiles and the set of
payload hashes its runs reported; ``wins`` counts the pairs in which the
change measured lower than the parent on each end-to-end metric, and
``same_payload`` says whether both sides reported the same hashes, so one
record shows both "same results" and "no regression".  It is written to
``BENCH_ab-<parent>-<change>.json`` (the first 12 hex digits of each
``source_sha256``).  Records from
different sessions of one machine differ by more than most changes do;
only pairs run side by side resolve a change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
SECONDS = 8.0
RUNS = 5  # untraced perfbench runs per workload
PAIRS = 10  # parent/change pairs per workload with --against
E2E = ("wall_s", "setup_s", "peak_rss_mb")
PYCACHE = "fresh per checkout, written"  # PYTHONPYCACHEPREFIX, in the config


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


def perfbench(repo, workload, trace, pycache):
    """(env, result) from the last two lines perfbench prints, with the
    bytecode of its processes written to and read from ``pycache``."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": pycache}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run(
        [sys.executable, os.path.join(repo, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=repo, check=True, capture_output=True, text=True,
        env=env).stdout
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
             "config": {"seed": SEED, "seconds": SECONDS, "runs": RUNS,
                        "pycache_prefix": PYCACHE},
             "workloads": {}}
    names = workloads(repo)
    runs = {w: [] for w in names}
    traced_runs = {}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        for _ in range(RUNS):
            for w in names:
                runs[w].append(perfbench(repo, w, 0, pycache))
        for w in names:
            traced_runs[w] = perfbench(repo, w, 1, pycache)
    for w in names:
        env, traced = traced_runs[w]
        layers = values(traced)
        e2e = side(runs[w])
        results = [r for _, r in runs[w]] + [traced]
        bench["workloads"][w] = {
            **e2e["median"],
            "iqr": {k: q3 - q1 for k, (q1, _, q3) in e2e["quartiles"].items()},
            "runs": e2e["runs"],
            "round_s": [e["round_s"] for e, _ in runs[w]],
            "payload_sha256": e2e["payload_sha256"],
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


def side(runs):
    """Runs, medians and quartiles of one side's end-to-end metrics, from
    its (env, result) pairs, and the payload hashes its runs reported."""
    results = [r for _, r in runs]
    e2e = {k: [values(r)[k] for r in results] for k in E2E}
    return {"runs": e2e,
            "median": {k: statistics.median(v) for k, v in e2e.items()},
            "quartiles": {k: statistics.quantiles(v, n=4, method="inclusive")
                          for k, v in e2e.items()},
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "payload_sha256": sorted({h for env, _ in runs
                                      for h in env["payload_sha256"]})}


def ab_record(repo, base):
    """``PAIRS`` alternating parent/change pairs per workload of ``repo``:
    the parent ``base`` runs first in the odd pairs (1, 3, ...)."""
    checkouts = {"parent": base, "change": repo}
    shas = {k: source_sha256(path) for k, path in checkouts.items()}
    names = workloads(repo)
    runs = {w: {"parent": [], "change": []} for w in names}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as tmp:
        pycache = {k: os.path.join(tmp, k) for k in checkouts}
        for path in pycache.values():
            os.mkdir(path)
        for pair in range(PAIRS):
            order = (("parent", "change") if pair % 2 == 0
                     else ("change", "parent"))
            for w in names:
                for key in order:
                    runs[w][key].append(perfbench(checkouts[key], w, 0,
                                                  pycache[key]))
    bench = {"tag": f"ab-{shas['parent'][:12]}-{shas['change'][:12]}",
             "source_sha256": shas,
             "head": {k: git(path, "rev-parse", "HEAD")
                      for k, path in checkouts.items()},
             "config": {"seed": SEED, "seconds": SECONDS, "pairs": PAIRS,
                        "first": "parent in odd pairs",
                        "pycache_prefix": PYCACHE},
             "workloads": {}}
    for w in names:
        parent, change = side(runs[w]["parent"]), side(runs[w]["change"])
        wins = {k: sum(c < p for p, c in zip(parent["runs"][k],
                                             change["runs"][k]))
                for k in E2E}
        same = parent["payload_sha256"] == change["payload_sha256"]
        bench["workloads"][w] = {"parent": parent, "change": change,
                                 "wins": wins, "same_payload": same}
        print(f"{w}: wall_s {parent['median']['wall_s']:.3f} -> "
              f"{change['median']['wall_s']:.3f}, change won "
              f"{wins['wall_s']}/{PAIRS}, same payload: {same}",
              file=sys.stderr)
    return bench


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repo", default=os.path.dirname(HERE),
                   help="checkout to measure (default: this one)")
    p.add_argument("--out", default=HERE,
                   help="directory of the BENCH file (default: benchmarks/)")
    p.add_argument("--against", default=None, metavar="DIR",
                   help="parent checkout: run it and --repo in alternating "
                        "pairs")
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)  # before minutes of runs, not after
    repo = os.path.abspath(args.repo)
    bench = (record(repo) if args.against is None
             else ab_record(repo, os.path.abspath(args.against)))
    path = os.path.join(args.out, f"BENCH_{bench['tag']}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
