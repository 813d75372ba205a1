"""Verification suites, report records, and JSON/CSV/plot persistence.

A run is a grid of cells (suite x q x label).  Each suite is a generator
of one q's cells, (label, metrics, gate) with gate = (metric, comparison,
value), and ``run`` makes each cell one ``VerificationReport`` whose pass
flag is a pure function of its metrics and its gate, so determinism can be
checked by hashing the metric payload alone: wall times, library versions
and timestamps live in a separate meta section of the JSON document.

The suites at one q share one lookup, ``ops(kind)``: the space and
generators of kind "L2" (the hatted pair) or "Double" (pi'), each built on
first use, so once per q and never for a run that does not ask for it, and
``ops("U")``, the q-independent check of U, whose U the kq defects use,
made once per run.  A cell's wall time runs from the end of the cell before
it, so it covers the work done for it, shared assembly included.

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
from typing import NamedTuple

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
                     hat_generators, pi_hat, relation_words)

SUITES = ("relations", "decompose", "kq-decay", "asymptotics",
          "commutators", "minimality", "family")

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

#: each suite's least n_max (twice-valued) and why; a suite absent here
#: runs at any n_max
MIN_N_MAX = {
    "relations": (2, "measures defects on the interior of n_max - 1"),
    "kq-decay": (8, "fits at least three levels n in [2, n_max - 1]"),
    "commutators": (6, "compares n_max against the interior of n_max - 2"),
    "minimality": (1, "gates the depth-1 span at level 1/2"),
}

_PLOT_GEN_NAME = {"alpha*": "alphastar", "beta": "beta"}


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
        if s not in SUITES:
            raise ValueError(f"config: unknown suite {s!r} "
                             f"(expected a subset of {SUITES})")
    suites = tuple(s for s in SUITES if s in suites)  # canonical order
    for s, (least, why) in MIN_N_MAX.items():
        if s in suites and n_max < least:
            raise ValueError(f"config: the {s} suite {why} and needs "
                             f"n_max >= {label_text(least)}")
    if cfg.emit_plot and cfg.out_dir is None:
        raise ValueError("config: plot emission needs an output directory")
    return RunConfig(qs, n_max, suites, cfg.out_dir, bool(cfg.emit_plot))


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


# ------------------------------------------------------------------- suites
# suite(cfg, q, ops, plots) yields the cells of one q; plots collects the kq
# plot data by (generator, q)

def _suite_relations(cfg: RunConfig, q: float, ops, plots: dict):
    words = relation_words(q)
    for rep, (space, gens) in [("hat", ops("L2")), ("prime", ops("Double"))]:
        inner, terms = interior(space, 2), {}
        for name, w in words.items():
            # keep only this word's products: relation_words puts the words
            # that share a product next to each other
            terms = {syms: terms[syms] for _, syms in w if syms in terms}
            defect = op_norm(pi_hat(w, space, q, ops=gens, right=inner,
                                    terms=terms))  # w on the inner columns
            yield (f"{rep}:{name}", {"defect": defect},
                   ("defect", "<=", RELATION_DEFECT_MAX))


def _suite_decompose(cfg: RunConfig, q: float, ops, plots: dict):
    rep = ops("U")
    metrics = {"deviation": max(rep.unitary_defect, rep.conjugation_defect),
               "unitary_defect": rep.unitary_defect,
               "conjugation_defect": rep.conjugation_defect}
    yield "U", metrics, ("deviation", "<=", 0.0)


def _fit_metrics(rep) -> dict:
    return {"gamma_ratio": rep.gamma_ratio, "gamma_hat": rep.fit.gamma_hat,
            "fit_residual": rep.fit.residual, "censored": rep.fit.censored}


def _suite_kq(cfg: RunConfig, q: float, ops, plots: dict):
    hat, prime, U = ops("L2")[1], ops("Double")[1], ops("U").U
    for gen in KQ_GENERATORS:
        rep = kq_decay(gen, hat, prime, U, q)
        plots[(gen, q)] = (rep.levels, rep.norms)
        yield (f"defect:{gen}", _fit_metrics(rep),
               ("gamma_ratio", ">=", KQ_RATIO_MIN))
    yield ("control:alpha*", _fit_metrics(control_decay("alpha*", prime, q)),
           ("gamma_ratio", "<=", KQ_CONTROL_MAX))


def _suite_asymptotics(cfg: RunConfig, q: float, ops, plots: dict):
    for kind in ("a+", "a-", "b+", "b-"):
        scan = asymptotic_scan(kind, q)
        metrics = {"envelope": scan.envelope,
                   "ratio_base": float(scan.ratios[0]),
                   "ratio_worst": float(np.max(scan.ratios))}
        yield kind, metrics, ("envelope", "<=", ASYMPTOTIC_ENVELOPE_MAX)


def _suite_commutators(cfg: RunConfig, q: float, ops, plots: dict):
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


def _suite_minimality(cfg: RunConfig, q: float, ops, plots: dict):
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


def _suite_family(cfg: RunConfig, q: None, ops, plots: dict):
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


_SUITE_FN = {"relations": _suite_relations, "decompose": _suite_decompose,
             "kq-decay": _suite_kq, "asymptotics": _suite_asymptotics,
             "commutators": _suite_commutators,
             "minimality": _suite_minimality, "family": _suite_family}


def _operators(n_max: int, q: float | None, intertwine):
    """One q's lookup: (space, generators) by kind, "L2" or "Double", each
    built on first use; ops("U") is intertwine(), the run's check of U."""
    @functools.cache
    def ops(kind):
        if kind == "U":
            return intertwine()
        space = enumerate_space(kind, n_max)
        build = hat_generators if kind == "L2" else pi_prime_generators
        return space, build(space, q)
    return ops


def _sort_key(r: VerificationReport):
    return (r.suite, r.label, -1.0 if r.q is None else r.q)


def run(cfg: RunConfig):
    """Execute the configured suites; emit files if an out dir is set.

    Returns the sorted reports.  Metric values are deterministic for a fixed
    config; the CLI exit status is the logical AND of the pass flags.
    """
    cfg = validate_config(cfg)
    reports = []
    plots: dict = {}
    intertwine = functools.cache(lambda: check_dirac_intertwine(cfg.n_max))
    tick = time.perf_counter()
    for q in (*cfg.q, None):
        ops = _operators(cfg.n_max, q, intertwine)
        # family does not depend on q: it runs once, in the q = None pass
        for s in (s for s in cfg.suites if (s == "family") == (q is None)):
            for label, metrics, (name, op, value) in \
                    _SUITE_FN[s](cfg, q, ops, plots):
                m = {k: float(v) for k, v in metrics.items()}
                now = time.perf_counter()
                passed = m[name] <= value if op == "<=" else m[name] >= value
                reports.append(VerificationReport(
                    s, label, q, cfg.n_max, m, name, op, float(value), passed,
                    now - tick))
                tick = now
    reports.sort(key=_sort_key)
    if cfg.out_dir is not None:
        emit(reports, cfg, plots)
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


def emit(reports, cfg: RunConfig, plots: dict | None = None) -> list:
    """Write report.json, report.csv and (optionally) kq plot data.

    Returns the list of paths written; a path that cannot be written
    raises ``OSError``, as ``open`` does.  The JSON document separates the
    deterministic payload from the meta section (wall times, versions,
    timestamps, payload hash).
    """
    doc = {
        "payload": payload_dict(reports, cfg),
        "meta": {
            "payload_sha256": payload_hash(reports, cfg),
            "wall_times": {f"{r.suite}/{r.label}/q={r.q}": r.wall_time
                           for r in reports},
            "versions": {"diraclab": _pkg_version,
                         "numpy": np.__version__},
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
    }
    files = {"report.json": json.dumps(doc, sort_keys=True, indent=1),
             "report.csv": "\n".join(csv_lines(reports))}
    if cfg.emit_plot and plots:
        for (gen, q), (levels, norms) in sorted(plots.items()):
            rows = [f"{tn / 2:g} {math.log(v):.17g}"
                    for tn, v in zip(levels, norms) if v > 0.0]
            files[f"kq_{_PLOT_GEN_NAME[gen]}_q{q!r}.dat"] = "\n".join(rows)
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = []
    for name, text in files.items():
        paths.append(os.path.join(cfg.out_dir, name))
        with open(paths[-1], "w") as fh:
            fh.write(text + "\n")
    return paths
