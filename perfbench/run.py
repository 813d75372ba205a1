#!/usr/bin/env python3
"""Benchmark of the diraclab command line, run from the repository root:

    python3 perfbench/run.py --workload all-default --seed 1 --seconds 8 \\
        --trace 0

The program is run as its users run it: ``python -m diraclab`` in fresh
processes, one after another (a closed loop with one client).  A round is
the workload's list of invocations; rounds repeat until ``--seconds`` have
passed, and at least one always runs.  Every output is then checked against
the oracles in ``oracles.py``.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics.  With ``--trace 1`` it carries the per-layer metrics of one more
round, run in a single process under the tracer of ``tracer.py``.  The line
before it records the environment.  See NOTES.md for the workloads, the
metrics and the layers they should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference", "all-default.json")

#: The run ends within this many seconds; a child still running then is
#: killed and its cells count as failed.
BUDGET_S = 170.0
#: Set-up is sampled this many times before the rounds and again after
#: them, so that the median spans the run.
SETUP_SAMPLES = 2

RELATIONS = ("unit_left", "unit_right", "twist_beta", "twist_beta_star",
             "beta_normal")
GENERATORS = ("alpha", "alpha*", "beta", "beta*")
DEFAULT_Q = (0.3, 0.5, 0.7)


class Call(NamedTuple):
    """One CLI invocation of a round."""

    args: tuple                # the suite and its fixed flags
    suites: tuple | None       # None for `all`: checked against the reference
    n_max_twice: int
    qs: tuple
    plots: int                 # plot files it must write

    def argv(self, out_dir):
        if self.suites is None:  # the default configuration, as users type it
            return [*self.args, "--out", out_dir]
        extra = ["--nmax", str(self.n_max_twice)]
        for q in self.qs:
            extra += ["--q", repr(q)]
        return [*self.args, *extra, "--out", out_dir]

    @property
    def name(self):
        return " ".join(self.argv("D")[:-2])


class Done(NamedTuple):
    """A finished call: where it wrote, how long it took, how it ended."""

    call: Call
    out_dir: str
    seconds: float
    rss_mb: float
    status: int


# Each workload: (its q values, drawn from an rng; the calls of a round).
WORKLOADS = {
    # the ROADMAP's end-to-end run; touches every layer; seed ignored
    "all-default": (
        lambda rng: DEFAULT_Q,
        lambda qs: [Call(("all", "--plot"), None, 16, qs, 2 * len(qs))]),
    # assembly and norms at 2.3x the default dimension; no Gram-Schmidt and
    # no block norms.  q = 0.8 is past the crossover of two of the README's
    # closed forms (NOTES.md).  The q values are fixed: the power
    # iteration's cost jumps with q (the commutators take 5-8 s at most q
    # and 2 min at 0.6208), so q drawn from the seed made wall_s depend on
    # the seed more than on the program.  The seed is ignored.
    "operators-n24": (
        lambda rng: (0.5, 0.8),
        lambda qs: [Call(("relations",), ("relations",), 24, qs, 0),
                    Call(("commutators",), ("commutators",), 24, qs, 0)]),
    # Gram-Schmidt cyclicity alone; no pi_prime and no op_norm
    "cyclic-n16": (
        lambda rng: (round(rng.uniform(0.3, 0.8), 4),),
        lambda qs: [Call(("minimality",), ("minimality",), 16, qs, 0)]),
}


def expected_cells(call, reference):
    """Cell keys a call must report; ``reference`` maps the keys of `all`."""
    if call.suites is None:
        return list(reference)
    cells = []
    for q in call.qs:
        if "relations" in call.suites:
            cells += [("relations", f"{rep}:{name}", q)
                      for rep in ("hat", "prime") for name in RELATIONS]
        if "commutators" in call.suites:
            cells += [("commutators", f"{rep}:{g}", q)
                      for rep in ("hat", "prime") for g in GENERATORS]
        if "minimality" in call.suites:
            cells.append(("minimality", "hat", q))
    return cells


# ------------------------------------------------------------- processes

class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stdout_path, deadline):
    """Run one process to its end; returns (seconds, peak RSS MB, status).

    The time runs from just before the spawn to the reaping of the child;
    the peak RSS is the child's own, read from ``wait4``.  A child still
    running at the deadline is killed.
    """
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                             cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: p.kill())
        signal.alarm(max(1, int(deadline.left())))
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, p.returncode


def setup_samples(deadline):
    """Spawn-to-exit seconds of ``python -c 'import diraclab'``."""
    path = os.path.join(WORK, "setup.out")
    samples = []
    for _ in range(SETUP_SAMPLES):
        s, _, code = spawn([sys.executable, "-c", "import diraclab"], path,
                           deadline)
        if code != 0:
            raise SystemExit("perfbench: cannot import diraclab from src/")
        samples.append(s)
    return samples


def run_round(index, calls, deadline):
    """Run the calls of one round, one process each; returns [Done]."""
    done = []
    for k, call in enumerate(calls):
        out_dir = os.path.join(WORK, f"r{index}-{k}")
        seconds, rss, status = spawn(
            [sys.executable, "-m", "diraclab"] + call.argv(out_dir),
            out_dir + ".out", deadline)
        done.append(Done(call, out_dir, seconds, rss, status))
    return done


def run_traced(index, calls, deadline):
    """Run the calls of one round in a single traced process (traced.py).

    Returns [Done] with the seconds of each call measured inside that
    process, and the tracer's counts together with the spawn-to-reap
    seconds of the whole process.
    """
    out_dirs = [os.path.join(WORK, f"r{index}-{k}") for k in range(len(calls))]
    result = os.path.join(WORK, "trace.json")
    process_s, rss, status = spawn(
        [sys.executable, os.path.join(HERE, "traced.py"), result,
         json.dumps([c.argv(d) for c, d in zip(calls, out_dirs)])],
        result + ".out", deadline)
    try:
        with open(result) as fh:
            trace = json.load(fh)
    except (OSError, ValueError):  # killed or crashed: every cell fails
        trace = {"seconds": [0.0] * len(calls),
                 "status": [status or -1] * len(calls),
                 "self_s": {}, "calls": {}, "work": {}, "distinct": 0}
    trace["process_s"] = process_s
    done = [Done(*args, rss, code) for *args, code in
            zip(calls, out_dirs, trace["seconds"], trace["status"])]
    return done, trace


def measure(calls, seconds, deadline):
    """Rounds until ``seconds`` have passed, at least one.

    A round that would leave less than 30 s before the deadline is not
    started.  Returns the list of rounds, each a list of Done.
    """
    rounds = []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        rounds.append(run_round(len(rounds), calls, deadline))
        spent = time.monotonic() - t
        if (time.monotonic() - t0 >= seconds
                or spent > deadline.left() - 30.0):
            return rounds


def wall(rnd):
    return sum(d.seconds for d in rnd)


# ------------------------------------------------------------- checking

def check(rounds, checker):
    for rnd in rounds:
        for d in rnd:
            checker.check_invocation(
                d.call.name, expected_cells(d.call, checker.reference),
                d.status, d.out_dir, d.call.plots)
    for msg in checker.errors[:20]:
        print(f"perfbench: oracle: {msg}", file=sys.stderr)
    return checker


# ------------------------------------------------------------- environment

def openblas():
    """(configuration, threads) of the OpenBLAS that numpy loaded."""
    import ctypes

    import numpy  # noqa: F401  (loads the library)
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("scipy_openblas_", ""), ("openblas_", "")):
            try:
                conf = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            conf.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return conf().decode().strip(), int(threads())
    return None, None


def environment(workload, seed, qs, checker):
    import numpy
    import scipy

    from diraclab import _kernels
    config, threads = openblas()
    return {"workload": workload, "seed": seed, "q": list(qs),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": config,
            "blas_threads": threads, "nproc": os.cpu_count(),
            "jit": bool(_kernels.USE_JIT),
            "payload_sha256": sorted(set(checker.hashes.values()))}


# ------------------------------------------------------------- metrics

def end_to_end(rounds, setup_s):
    return {
        "wall_s": (statistics.median(wall(rnd) for rnd in rounds), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(d.rss_mb for rnd in rounds for d in rnd), "MB"),
    }


def per_layer(trace, untraced_wall, norm_err_max):
    from tracer import LAYERS

    self_s = {layer: trace["self_s"].get(layer, 0.0) for layer in LAYERS}
    calls = defaultdict(int, trace["calls"])
    work = defaultdict(float, trace["work"])
    traced_wall = sum(trace["seconds"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.s": (v, "s") for layer, v in self_s.items()}
    m.update({
        "trace.wall_s": (traced_wall, "s"),
        # one traced process against the untraced round's processes, so
        # that interpreter start-up is on both sides
        "trace.overhead_pct": (
            100.0 * (trace["process_s"] - untraced_wall) / untraced_wall,
            "%"),
        "trace.unattributed_s": (traced_wall - sum(self_s.values()), "s"),
        "hilbert.enumerate.calls": (calls["hilbert.enumerate_space"],
                                    "count"),
        "hilbert.enumerate.labels": (work["hilbert.enumerate.labels"],
                                     "count"),
        "rep_double.pi_prime.calls": (calls["rep_double.pi_prime"], "count"),
        "rep_double.pi_prime.distinct": (trace["distinct"], "count"),
        "rep_double.pi_prime.useful_ratio": (
            ratio(trace["distinct"], calls["rep_double.pi_prime"]), "ratio"),
        "rep_double.pi_prime.nnz": (work["rep_double.pi_prime.nnz"],
                                    "count"),
        "qnum.q_number.calls": (calls["qnum.q_number"], "count"),
        "linop.algebra.calls": (sum(calls[f"linop.SparseOp.{op}"] for op in
                                    ("compose", "add", "scale", "adjoint")),
                                "count"),
        "linop.apply.calls": (calls["linop.SparseOp.apply"], "count"),
        "linop.op_norm.calls": (calls["linop.op_norm"], "count"),
        "kernels.power_iteration.iterations": (
            work["kernels.power_iteration.iterations"], "count"),
        "linop.block_norm.calls": (calls["linop.block_norm"], "count"),
        "linop.block_norm.nnz": (work["linop.block_norm.nnz"], "count"),
        "linop.block_norm.dense_entries": (
            work["linop.block_norm.dense_entries"], "count"),
        "covariant.candidates": (work["covariant.candidates"], "count"),
        "covariant.accept_ratio": (
            ratio(work["covariant.reached"], work["covariant.candidates"]),
            "ratio"),
        "harness.emit.bytes": (work["harness.emit.bytes"], "bytes"),
        "norm_err_max": (norm_err_max, "ratio"),
    })
    return m


# ------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diraclab", "__init__.py")):
        print(f"perfbench: no diraclab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from oracles import Checker, NormReference

    deadline = Deadline(BUDGET_S)
    draw, make = WORKLOADS[args.workload]
    qs = draw(random.Random(args.seed))
    calls = make(qs)
    reference = None
    if any(c.suites is None for c in calls):
        with open(REFERENCE) as fh:
            reference = json.load(fh)

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        if args.trace:
            # untraced rounds for the overhead, then one traced round; the
            # exact norms give norm_err_max
            rounds = measure(calls, args.seconds, deadline)
            traced, trace = run_traced(len(rounds), calls, deadline)
            checker = check(rounds + [traced],
                            Checker(reference, NormReference()))
            untraced = statistics.median(wall(rnd) for rnd in rounds)
            metrics = per_layer(trace, untraced, checker.norm_err_max)
        else:
            setup = setup_samples(deadline)
            rounds = measure(calls, args.seconds, deadline)
            setup += setup_samples(deadline)
            checker = check(rounds, Checker(reference))
            metrics = end_to_end(rounds, statistics.median(setup))
        env = environment(args.workload, args.seed, qs, checker)
        env["round_s"] = [wall(rnd) for rnd in rounds]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
