"""Verification suites, report records, and JSON/CSV/plot persistence.

A run is a grid of cells (suite x q x label).  Each suite is declared
once, as one ``Suite`` record of ``SUITE_TABLE``: its cells function, its
CLI help line, its least n_max and whether it runs at each q or once per
run.  The cells function is a generator of one pass's cells, (label,
metrics, gate) with gate = (metric, comparison, value), and ``run`` makes
each cell one ``VerificationReport`` whose pass flag is a pure function of
its metrics and its gate, so determinism can be checked by hashing the
metric payload alone: wall times, library versions and timestamps live in
a separate meta section of the JSON document.  A cell may add a fourth
element, its plot data (file stem, levels, norms): the report carries it
outside the payload, and ``emit`` writes it, so a pass hands back its
reports alone.

The suites at one q make one pass and share one lookup, ``ops(kind)``:
the space and generators of kind "L2" (the hatted pair) or "Double" (pi'),
each built on first use, so once per q and never for a run that does not
ask for it, and ``ops("U")``, the q-independent check of U, whose U the kq
defects use, made once per process that asks for it.  A pass runs only if
it holds a requested suite.  The q passes, then the once-per-run pass
(q = None), are dealt out over ``workers`` = min(CPUs in
``os.sched_getaffinity``, number of q passes), at least 1, processes:
process k runs every workers-th pass from the k-th on, a forked child each
share but the last, which runs in the calling process.  So a run of one q,
on one CPU, or of once-per-run suites alone forks nothing.  A cell's wall
time is measured in the process that ran its pass, from the end of the
cell before it in that pass, so it covers the work done for it, shared
assembly included.

The hatted relation cells fail by design at any usable tolerance: that pair
of operators satisfies the defining relations only up to level-decaying
corrections (see rep_l2), and the suite reports the actual defect rather
than special-casing it.  The spinorial cells pass at machine precision.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__ as _pkg_version
from .covariant import cyclic_dimension
from .decomp import (KQ_GENERATORS, asymptotic_scan, check_dirac_intertwine,
                     control_decay, kq_decay)
from .hilbert import check_count, enumerate_space, interior
from .linop import commutator, on_columns, op_norm
from .qnum import label_text, validate_q
from .rep_double import dirac_D, pi_prime_generators
from .rep_l2 import (D1_PARAMS, D2_PARAMS, DiracParams, dirac_family,
                     hat_generators, relation_words, word_entries)

DEFAULT_Q = (0.3, 0.5, 0.7)
DEFAULT_N_MAX = 16  # twice-valued: n_max = 8

#: relations gate: each relation word's norm on the interior(2) columns.
RELATION_DEFECT_MAX = 1e-10
#: kq-decay gates: fitted exponent at least 1.8 ln(1/q); the control fit on
#: the representation itself must stay below 0.5 ln(1/q).
KQ_RATIO_MIN = 1.8
KQ_CONTROL_MAX = 0.5
ASYMPTOTIC_ENVELOPE_MAX = 10.0
COMMUTATOR_CHANGE_PCT_MAX = 5.0


class VerificationReport(NamedTuple):
    suite: str
    label: str           # generator / relation / kind within the suite
    q: float | None      # None for q-independent cells
    n_max: int           # twice-valued
    metrics: dict        # name -> real
    gate_metric: str     # which metric is gated
    gate_op: str         # "<=" or ">="
    gate_value: float
    passed: bool
    wall_time: float
    plot: tuple = ()     # (file stem, levels, norms), outside the payload


# ------------------------------------------------------------------- suites

class Suite(NamedTuple):
    """One suite's record.  ``cells(cfg, q, ops)`` yields the cells of one
    pass, each (label, metrics, gate) or, with its plot data, (label,
    metrics, gate, (file stem, levels, norms)), and ``help`` is its CLI
    line.  ``least_n_max`` is the least twice-valued n_max it runs at and
    why (0 for a suite that runs at any n_max).  A suite not ``per_q``
    runs once per run, in the pass of q = None."""
    cells: Callable
    help: str
    least_n_max: tuple = (0, "")
    per_q: bool = True


#: name -> Suite; the order of the functions below is the canonical order
SUITE_TABLE = {}


def _suite(name: str, *record, **fields):
    """Declare the decorated cells function the suite ``name``, with the
    rest of its ``Suite`` record: adding a suite takes one function."""
    def declare(cells):
        SUITE_TABLE[name] = Suite(cells, *record, **fields)
        return cells
    return declare


@_suite("relations", "defining-relation defects for both representations",
        (2, "measures defects on the interior of n_max - 1"))
def _suite_relations(cfg: RunConfig, q: float, ops):
    for rep, (space, gens) in [("hat", ops("L2")), ("prime", ops("Double"))]:
        for name, e in word_entries(relation_words(q), space, gens,
                                    len(interior(space, 2))):
            yield (f"{rep}:{name}", {"defect": op_norm(e)},
                   ("defect", "<=", RELATION_DEFECT_MAX))


@_suite("decompose", "exact unitary conjugation of the diagonal pair")
def _suite_decompose(cfg: RunConfig, q: float, ops):
    rep = ops("U")
    metrics = {"deviation": max(rep.unitary_defect, rep.conjugation_defect),
               "unitary_defect": rep.unitary_defect,
               "conjugation_defect": rep.conjugation_defect}
    yield "U", metrics, ("deviation", "<=", 0.0)


def _fit_metrics(rep) -> dict:
    return {"gamma_ratio": rep.gamma_ratio, "gamma_hat": rep.fit.gamma_hat,
            "fit_residual": rep.fit.residual, "censored": rep.fit.censored}


@_suite("kq-decay", "decay-rate fit of the representation defect",
        (8, "fits at least three levels n in [2, n_max - 1]"))
def _suite_kq(cfg: RunConfig, q: float, ops):
    hat, prime, U = ops("L2")[1], ops("Double")[1], ops("U").U
    for gen in KQ_GENERATORS:
        rep = kq_decay(gen, hat, prime, U, q)
        yield (f"defect:{gen}", _fit_metrics(rep),
               ("gamma_ratio", ">=", KQ_RATIO_MIN),
               (f"kq_{gen.replace('*', 'star')}", rep.levels,
                tuple(rep.norms.tolist())))
    yield ("control:alpha*", _fit_metrics(control_decay("alpha*", prime, q)),
           ("gamma_ratio", "<=", KQ_CONTROL_MAX))


@_suite("asymptotics", "leading-form residual envelope of the 2x2 matrices")
def _suite_asymptotics(cfg: RunConfig, q: float, ops):
    for kind in ("a+", "a-", "b+", "b-"):
        scan = asymptotic_scan(kind, q)
        metrics = {"envelope": scan.envelope,
                   "ratio_base": float(scan.ratios[0]),
                   "ratio_worst": float(np.max(scan.ratios))}
        yield kind, metrics, ("envelope", "<=", ASYMPTOTIC_ENVELOPE_MAX)


@_suite("commutators", "Dirac commutator norm plateau across truncations",
        (6, "compares n_max against the interior of n_max - 2"))
def _suite_commutators(cfg: RunConfig, q: float, ops):
    # each [D, g] on the interior: its norm at n_max - 2 and at n_max
    for rep, kind in (("hat", "L2"), ("prime", "Double")):
        space, gens = ops(kind)
        d = (dirac_family(D1_PARAMS, space) if rep == "hat"
             else dirac_D(space)).diag()
        i2, i6 = interior(space, 2), interior(space, 6)
        for g, T in gens.items():
            C = commutator(d, on_columns(T, i2))
            # columns at levels <= n_max - 3 map into levels <= n_max - 5/2,
            # so C on the i6 columns holds the entries of the commutator
            # built at n_max - 2 on its interior(2), in the same order
            lo, hi = op_norm(on_columns(C, i6)), op_norm(C)
            change = abs(hi - lo) / lo * 100.0 if lo > 0 else math.inf
            metrics = {"change_pct": change, "norm_small": lo,
                       "norm_large": hi}
            yield (f"{rep}:{g}", metrics,
                   ("change_pct", "<=", COMMUTATOR_CHANGE_PCT_MAX))


@_suite("minimality", "cyclicity of the ground vector under the generators",
        (1, "gates the depth-1 span at level 1/2"))
def _suite_minimality(cfg: RunConfig, q: float, ops):
    depth = cfg.n_max  # words of length 2 n_max reach the last level
    rep = cyclic_dimension(ops("L2")[1].values(), depth)
    monotone = all(a <= b for a, b in zip(rep.history, rep.history[1:]))
    # depth-1 dimension can never exceed 5 (level cap), so the
    # lower-bound gate is an equality in disguise
    metrics = {"depth1_dim": rep.history[1],
               "reached": rep.reached,
               "target": rep.target,
               "saturated": 1.0 if rep.saturated else 0.0,
               "monotone": 1.0 if monotone else 0.0,
               "discarded": rep.discarded,
               "missing_total": rep.target - rep.reached}
    yield "hat", metrics, ("depth1_dim", ">=", 5.0)


@_suite("family", per_q=False,
        help="diagonal structure and eigenvalue tables of the Dirac family")
def _suite_family(cfg: RunConfig, q: None, ops):
    table_n = min(8, cfg.n_max)  # n <= 4
    l2 = enumerate_space("L2", table_n)
    d1 = dirac_family(D1_PARAMS, l2).diag()
    d2 = dirac_family(D2_PARAMS, l2).diag()
    tn, tj = l2.tn, l2.tj
    top = tj == tn
    dev1 = float(np.abs(d1 - np.where(top, tn + 1.0, -tn)).max())
    dev2 = float(np.abs(d2 - np.where(top, tn + 1.0, -(tn + 1.0))).max())
    # the eigenvalue must be a function of (n, j) alone: compare each entry
    # with the first entry of its (n, j) class, the one at i = -n
    weight_dev = float(np.abs(d1 - d1[l2.ordinals(tn, -tn, tj)]).max())
    try:
        DiracParams(0, 1.0, 0.0, 2.0, 1.0).validate()
        rejects = 0.0
    except ValueError:
        rejects = 1.0
    metrics = {"d1_table_dev": dev1, "d2_table_dev": dev2,
               "weight_independence_dev": weight_dev,
               "rejects_bad_params": rejects,
               "family_defect": max(dev1, dev2, weight_dev, 1.0 - rejects)}
    yield "D1+D2", metrics, ("family_defect", "<=", 0.0)


SUITES = tuple(SUITE_TABLE)


@dataclass(frozen=True)
class RunConfig:
    q: tuple = DEFAULT_Q
    n_max: int = DEFAULT_N_MAX  # twice-valued
    suites: tuple = SUITES
    out_dir: str | None = None
    emit_plot: bool = False


def validate_config(cfg: RunConfig) -> RunConfig:
    """Normalize and check a RunConfig; each defect has a distinct message.
    Each q's rule is ``validate_q``'s and n_max's is ``check_count``'s."""
    qs = tuple(validate_q(v) for v in cfg.q)
    if not qs:
        raise ValueError("config: need at least one q value")
    if len(set(qs)) < len(qs):
        raise ValueError(f"config: q values must be distinct, got {qs}")
    n_max = check_count(cfg.n_max, "n_max")
    suites = tuple(cfg.suites)
    if not suites:
        raise ValueError("config: need at least one suite")
    for s in suites:
        if s not in SUITE_TABLE:
            raise ValueError(f"config: unknown suite {s!r} "
                             f"(expected a subset of {tuple(SUITE_TABLE)})")
    suites = tuple(s for s in SUITE_TABLE if s in suites)  # canonical order
    # the largest bound, so the message names the bound that suffices
    least, why, s = max((*SUITE_TABLE[s].least_n_max, s) for s in suites)
    if n_max < least:
        raise ValueError(f"config: the {s} suite {why} and needs n_max "
                         f">= {label_text(least)} (--nmax {least})")
    if cfg.emit_plot and cfg.out_dir is None:
        raise ValueError("config: plot emission needs an output directory")
    return RunConfig(qs, n_max, suites, cfg.out_dir, bool(cfg.emit_plot))


def _sort_key(r: VerificationReport):
    return (r.suite, r.label, -1.0 if r.q is None else r.q)


def _pass(cfg: RunConfig, q: float | None, intertwine):
    """The requested suites of one pass, with their own lookup ``ops``
    (ops("U") is intertwine()) and cell clock: the per-q suites at q, or
    for q = None the once-per-run pass.  Returns its reports, a cell's
    plot data on its report."""
    @functools.cache
    def ops(kind):
        if kind == "U":
            return intertwine()
        space = enumerate_space(kind, cfg.n_max)
        build = hat_generators if kind == "L2" else pi_prime_generators
        return space, build(space, q)

    reports = []
    tick = time.perf_counter()
    for s in (s for s in cfg.suites if SUITE_TABLE[s].per_q != (q is None)):
        for label, metrics, (name, op, value), *plot in \
                SUITE_TABLE[s].cells(cfg, q, ops):
            m = {k: float(v) for k, v in metrics.items()}
            now = time.perf_counter()
            passed = m[name] <= value if op == "<=" else m[name] >= value
            reports.append(VerificationReport(
                s, label, q, cfg.n_max, m, name, op, float(value), passed,
                now - tick, *plot))
            tick = now
    return reports


def _passes(cfg: RunConfig, qs: tuple, intertwine, workers: int):
    """The passes of qs, in ``workers`` processes.

    Process k runs the share ``qs[k::workers]``: a forked child each share
    but the last, which runs here.  A share stops at its first failed
    pass, and a child pickles its outcomes, q -> reports or exception,
    down a pipe, which is read to its end before the child is reaped.
    Returns the reports of every pass as one list, in the order of qs.
    If passes fail, the first of them in qs raises its exception here; a
    child that ends without a result raises ``RuntimeError`` at its
    share's first q.  No child outlives the call.
    """
    import pickle

    def attempt(share):
        out = {}
        try:
            for q in share:
                out[q] = _pass(cfg, q, intertwine)
        except Exception as e:  # raised below, in the order of qs
            out[q] = e
        return out

    shares = [qs[k::workers] for k in range(workers)]
    outcomes, children = {}, []
    try:
        for share in shares[:-1]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the run fails
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: send the outcomes, never return
                code = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(attempt(share), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((share, pid, os.fdopen(r, "rb")))
        outcomes.update(attempt(shares[-1]))
        while children:
            share, pid, fh = children[0]
            blob = fh.read()
            fh.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code == 0 and blob:
                outcomes.update(pickle.loads(blob))
                continue
            outcomes[share[0]] = RuntimeError(
                f"the pass at q={share[0]!r} ended without a result "
                f"(exit status {code})")
    finally:
        if children:  # an error or an interrupt: stop and reap the rest
            import signal
            for share, pid, fh in children:
                fh.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass  # reaped just before the interrupt
    for q in qs:  # a q with no outcome follows its share's failure in qs
        if isinstance(outcomes[q], Exception):
            raise outcomes[q]
    return [r for q in qs for r in outcomes[q]]


def run(cfg: RunConfig):
    """Execute the configured suites; emit files if an out dir is set.

    Returns the sorted reports.  Metric values are deterministic for a fixed
    config; the CLI exit status is the logical AND of the pass flags.  The
    passes of the q values, if a per-q suite is requested, and the
    once-per-run pass, if a once-per-run suite is, are shared out over up
    to one process per CPU (``_passes``); the payload is the same as in
    one process.
    """
    cfg = validate_config(cfg)
    intertwine = functools.cache(lambda: check_dirac_intertwine(cfg.n_max))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    # a pass runs only if it holds a suite (as _pass picks them)
    qs = tuple(q for q in (*cfg.q, None) if any(
        SUITE_TABLE[s].per_q != (q is None) for s in cfg.suites))
    workers = max(1, min(cpus, sum(q is not None for q in qs)))
    reports = sorted(_passes(cfg, qs, intertwine, workers), key=_sort_key)
    if cfg.out_dir is not None:
        emit(reports, cfg, workers)
    return reports


# ------------------------------------------------------------- persistence

def payload_dict(reports, cfg: RunConfig) -> dict:
    """The deterministic section of the JSON document (no wall times)."""
    return {
        "config": {
            "q": list(cfg.q),
            "n_max_twice": cfg.n_max,
            "suites": list(cfg.suites),
        },
        "reports": [
            {"suite": r.suite, "label": r.label, "q": r.q,
             "n_max_twice": r.n_max, "metrics": r.metrics,
             "gate": {"metric": r.gate_metric, "op": r.gate_op,
                      "value": r.gate_value},
             "passed": r.passed}
            for r in reports
        ],
    }


def payload_hash(reports, cfg: RunConfig) -> str:
    """sha256 over the canonical (sorted-keys, compact) payload JSON."""
    blob = json.dumps(payload_dict(reports, cfg), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


CSV_HEADER = "suite,label,q,nmax_twice,metric,value,threshold,passed,wall_time_s"


def csv_lines(reports) -> list:
    """One row per report: the gated metric against its threshold."""
    lines = [CSV_HEADER]
    for r in reports:
        qtxt = "" if r.q is None else repr(r.q)
        lines.append(",".join([
            r.suite, r.label, qtxt, str(r.n_max), r.gate_metric,
            repr(r.metrics[r.gate_metric]), repr(r.gate_value),
            str(r.passed).lower(), f"{r.wall_time:.6f}"]))
    return lines


def emit(reports, cfg: RunConfig, workers: int = 1) -> list:
    """Write report.json, report.csv and, if ``cfg.emit_plot`` is set,
    ``<stem>_q<q>.dat`` for each report that carries plot data.

    Returns the list of paths written; a path that cannot be written
    raises ``OSError``, as ``open`` does.  The JSON document separates the
    deterministic payload from the meta section (wall times, the number of
    processes that ran the passes at once, versions, timestamps, payload
    hash).
    """
    doc = {
        "payload": payload_dict(reports, cfg),
        "meta": {
            "payload_sha256": payload_hash(reports, cfg),
            "wall_times": {f"{r.suite}/{r.label}/q={r.q}": r.wall_time
                           for r in reports},
            "workers": workers,
            "versions": {"diraclab": _pkg_version,
                         "numpy": np.__version__},
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
    }
    files = {"report.json": json.dumps(doc, sort_keys=True, indent=1),
             "report.csv": "\n".join(csv_lines(reports))}
    for r in (r for r in reports if cfg.emit_plot and r.plot):
        stem, levels, norms = r.plot
        rows = [f"{tn / 2:g} {math.log(v):.17g}"
                for tn, v in zip(levels, norms) if v > 0.0]
        files[f"{stem}_q{r.q!r}.dat"] = "\n".join(rows)
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = []
    for name, text in files.items():
        paths.append(os.path.join(cfg.out_dir, name))
        with open(paths[-1], "w") as fh:
            fh.write(text + "\n")
    return paths
