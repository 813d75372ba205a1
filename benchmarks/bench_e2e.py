#!/usr/bin/env python3
"""Write the performance record of one checkout, or of a parent/change pair.

    python3 benchmarks/bench_e2e.py [--repo DIR] [--out DIR] [--against DIR]

The checkouts are ``--repo`` (the change; default: the one holding this
script) and, with ``--against DIR``, the parent DIR.  For each workload of
the change's ``BENCHMARK.json``, ``ROUNDS`` rounds run each checkout's own
``perfbench/run.py`` once with ``--trace 0``, at seed ``SEED`` and
``SECONDS`` seconds; the rounds go round the workloads in turn, and the
parent runs first in the odd rounds (1, 3, ...) and second in the even
ones.  After the rounds, each checkout runs every workload once more with
``--trace 1``.  Nothing is timed here: the record copies what perfbench's
result lines report.

Each checkout's side of a workload keeps every untraced run's ``wall_s``,
``setup_s`` and ``peak_rss_mb`` (``runs``), their medians and quartiles, the
round times, the failed cells and whether every run was correct, the set of
payload hashes its runs reported, and the traced run's per-layer seconds
(``layer_s``), its other per-layer numbers (``trace``) and its ``env``.  So
a busy spell of the machine shows as spread rather than as a shifted
number.  A pair record adds, per workload, ``wins`` (the rounds in which
the change measured lower than the parent, per end-to-end metric),
``resolved`` (per end-to-end metric, whether that is a gain: see
:func:`resolved`) and ``same_payload`` (whether both sides reported the
same hashes), so one record shows both "same results" and "no
regression".  Records from
different sessions of one machine differ by more than most changes do;
only pairs run side by side resolve a change.

Every perfbench run of a checkout keeps its bytecode under one fresh,
empty ``PYTHONPYCACHEPREFIX`` directory of that checkout's own, made when
the record starts, and writes it there even if the caller set
``PYTHONDONTWRITEBYTECODE``.  So each side compiles once, in its first
run, as a fresh checkout does, and a ``__pycache__`` left in one
checkout's ``src/`` cannot spare that side the compiling.

``source_sha256`` hashes the files of ``src/`` that were measured.  A lone
clean checkout is recorded as ``BENCH_<short-rev>.json``.  A tree whose
``src/`` or ``perfbench/`` differ from ``HEAD`` is no revision yet: it is
recorded as ``BENCH_src-<sha12>.json`` (the first 12 hex digits of
``source_sha256``), and the commit that later holds that tree finds its
record by the same hash.  A pair is recorded as
``BENCH_ab-<parent>-<change>.json``, with the first 12 hex digits of each
``source_sha256``.
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
ROUNDS = 10  # untraced perfbench runs of each checkout per workload
E2E = ("wall_s", "setup_s", "peak_rss_mb")
PYCACHE = "fresh per checkout, written"  # PYTHONPYCACHEPREFIX, in the config
# least median peak_rss_mb gain that resolves: over five A/A records the
# two sides' medians differed by up to 0.12 MB, and a pair whose change
# left a workload's path alone read 0.1 MB less in 10 of 10 rounds
RSS_FLOOR_MB = 0.5


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


def record(repo, parent=None):
    """The record of ``repo``, alone or against the checkout ``parent``."""
    checkouts = {"change": repo} if parent is None \
        else {"parent": parent, "change": repo}
    meta = {k: {"head": git(path, "rev-parse", "HEAD"),
                "dirty": bool(git(path, "status", "--porcelain", "--",
                                  "src", "perfbench")),
                "source_sha256": source_sha256(path)}
            for k, path in checkouts.items()}
    names = workloads(repo)
    runs = {k: {w: [] for w in names} for k in checkouts}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as tmp:
        pycache = {k: tempfile.mkdtemp(prefix=k, dir=tmp) for k in checkouts}
        for n in range(ROUNDS):
            order = list(checkouts)[::1 if n % 2 == 0 else -1]
            for w in names:
                for k in order:
                    runs[k][w].append(perfbench(checkouts[k], w, 0,
                                                pycache[k]))
        traced = {(k, w): perfbench(checkouts[k], w, 1, pycache[k])
                  for w in names for k in checkouts}
    sha12 = "-".join(m["source_sha256"][:12] for m in meta.values())
    tag = (f"ab-{sha12}" if parent is not None else f"src-{sha12}"
           if meta["change"]["dirty"] else meta["change"]["head"][:7])
    bench = {"tag": tag, "checkouts": meta,
             "config": {"seed": SEED, "seconds": SECONDS, "rounds": ROUNDS,
                        "first": "parent in odd rounds",
                        "pycache_prefix": PYCACHE},
             "workloads": {}}
    for w in names:
        sides = {k: side(runs[k][w], traced[k, w]) for k in checkouts}
        bench["workloads"][w] = sides
        line = " -> ".join(f"{s['median']['wall_s']:.3f}"
                           for s in sides.values())
        if parent is not None:
            p, c = sides["parent"], sides["change"]
            sides["wins"] = {k: sum(b < a for a, b in zip(p["runs"][k],
                                                          c["runs"][k]))
                             for k in E2E}
            sides["resolved"] = {k: resolved(p, c, sides["wins"][k], k)
                                 for k in E2E}
            sides["same_payload"] = p["payload_sha256"] == c["payload_sha256"]
            line += (f", change won {sides['wins']['wall_s']}/{ROUNDS}, "
                     f"resolved: {sides['resolved']['wall_s']}, "
                     f"same payload: {sides['same_payload']}")
        print(f"{w}: wall_s {line}", file=sys.stderr)
    return bench


def resolved(parent, change, wins, metric):
    """Whether the change's gain on ``metric`` is resolved: it won at least
    nine tenths of the pairs, ties counting for neither, and its median is
    below the parent's by more than the parent's quartile spread, and on
    ``peak_rss_mb`` by more than ``RSS_FLOOR_MB`` too."""
    q1, _, q3 = parent["quartiles"][metric]
    gain = parent["median"][metric] - change["median"][metric]
    floor = RSS_FLOOR_MB if metric == "peak_rss_mb" else 0.0
    return (10 * wins >= 9 * len(parent["runs"][metric])
            and gain > max(q3 - q1, floor))


def side(runs, traced):
    """One checkout's numbers for one workload, from the (env, result)
    pairs of its untraced runs and of its traced run."""
    results = [r for _, r in runs] + [traced[1]]
    e2e = {k: [values(r)[k] for _, r in runs] for k in E2E}
    env, layers = traced[0], values(traced[1])
    return {"runs": e2e,
            "median": {k: statistics.median(v) for k, v in e2e.items()},
            "quartiles": {k: statistics.quantiles(v, n=4, method="inclusive")
                          for k, v in e2e.items()},
            "round_s": [e["round_s"] for e, _ in runs],
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "payload_sha256": sorted({h for e, _ in runs + [traced]
                                      for h in e["payload_sha256"]}),
            "layer_s": {k: v for k, v in layers.items() if k.endswith(".s")},
            "trace": {k: v for k, v in layers.items()
                      if not k.endswith(".s")},
            "env": {k: v for k, v in env.items()
                    if k not in ("round_s", "payload_sha256")}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repo", default=os.path.dirname(HERE),
                   help="checkout to measure (default: this one)")
    p.add_argument("--out", default=HERE,
                   help="directory of the BENCH file (default: benchmarks/)")
    p.add_argument("--against", default=None, metavar="DIR",
                   help="parent checkout: run it and --repo in alternating "
                        "rounds")
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)  # before minutes of runs, not after
    parent = None if args.against is None else os.path.abspath(args.against)
    bench = record(os.path.abspath(args.repo), parent)
    path = os.path.join(args.out, f"BENCH_{bench['tag']}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
