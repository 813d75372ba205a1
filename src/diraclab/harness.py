"""Verification suites, report records, and JSON/CSV/plot persistence.

A run is a grid of cells (suite x q x label).  Each cell produces one
``VerificationReport`` whose pass flag is a pure function of its metrics and
its single gate (metric, comparison, value), so determinism can be checked by
hashing the metric payload alone: wall times, library versions and timestamps
live in a separate meta section of the JSON document.

The hatted relation cells fail by design at any usable tolerance: that pair
of operators satisfies the defining relations only up to level-decaying
corrections (see rep_l2), and the suite reports the actual defect rather
than special-casing it.  The spinorial cells pass at machine precision.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__ as _pkg_version
from .covariant import cyclic_dimension
from .decomp import (asymptotic_scan, check_dirac_intertwine, control_decay,
                     kq_decay)
from .hilbert import enumerate_space
from .linop import interior_projector, op_norm
from .qnum import HalfInt, half
from .rep_double import dirac_D, pi_prime_generators
from .rep_l2 import (D1_PARAMS, D2_PARAMS, DiracParams, dirac_family,
                     hat_generators, pi_hat, relation_words)

SUITES = ("relations", "decompose", "kq-decay", "asymptotics",
          "commutators", "minimality", "family")

DEFAULT_Q = (0.3, 0.5, 0.7)
DEFAULT_N_MAX = HalfInt(16)  # n_max = 8
DEFAULT_TOLERANCES = {"relation": 1e-10, "adjoint": 1e-10,
                      "norm": 1e-10, "gram": 1e-8}

#: kq-decay gates: fitted exponent at least 1.8 ln(1/q); the control fit on
#: the representation itself must stay below 0.5 ln(1/q).
KQ_RATIO_MIN = 1.8
KQ_CONTROL_MAX = 0.5
ASYMPTOTIC_ENVELOPE_MAX = 10.0
COMMUTATOR_CHANGE_PCT_MAX = 5.0

_PLOT_GEN_NAME = {"alpha*": "alphastar", "beta": "beta"}


@dataclass(frozen=True)
class RunConfig:
    q: tuple = DEFAULT_Q
    n_max: HalfInt = DEFAULT_N_MAX
    tolerances: dict = field(default_factory=dict)
    suites: tuple = SUITES
    out_dir: str | None = None
    emit_plot: bool = False


def validate_config(cfg: RunConfig) -> RunConfig:
    """Normalize and check a RunConfig; each defect has a distinct message."""
    qs = tuple(float(v) for v in cfg.q)
    if not qs:
        raise ValueError("config: need at least one q value")
    for v in qs:
        if not 0.0 < v < 1.0:
            raise ValueError(f"config: q values must lie in (0, 1), got {v}")
    n_max = half(cfg.n_max)
    if n_max.twice < 0:
        raise ValueError(f"config: n_max must be >= 0, got {n_max}")
    tol = dict(DEFAULT_TOLERANCES)
    for k, v in dict(cfg.tolerances).items():
        if k not in DEFAULT_TOLERANCES:
            raise ValueError(f"config: unknown tolerance {k!r} "
                             f"(expected one of {sorted(DEFAULT_TOLERANCES)})")
        if not float(v) > 0.0:
            raise ValueError(f"config: tolerance {k!r} must be positive, "
                             f"got {v}")
        tol[k] = float(v)
    suites = tuple(cfg.suites)
    if not suites:
        raise ValueError("config: need at least one suite")
    for s in suites:
        if s not in SUITES:
            raise ValueError(f"config: unknown suite {s!r} "
                             f"(expected a subset of {SUITES})")
    suites = tuple(s for s in SUITES if s in suites)  # canonical order
    if "commutators" in suites and n_max.twice < 4:
        raise ValueError("config: the commutators suite compares n_max "
                         "against n_max - 2 and needs n_max >= 2")
    if "minimality" in suites and n_max.twice < 1:
        raise ValueError("config: the minimality suite needs n_max >= 1/2 "
                         "for its depth-1 oracle")
    if cfg.emit_plot and cfg.out_dir is None:
        raise ValueError("config: plot emission needs an output directory")
    return RunConfig(qs, n_max, tol, suites, cfg.out_dir, bool(cfg.emit_plot))


class VerificationReport(NamedTuple):
    suite: str
    label: str           # generator / relation / kind within the suite
    q: float | None      # None for q-independent cells
    n_max: HalfInt
    metrics: dict        # name -> real
    gate_metric: str     # which metric is gated
    gate_op: str         # "<=" or ">="
    gate_value: float
    passed: bool
    wall_time: float


def _gate(metrics: dict, name: str, op: str, value: float) -> bool:
    v = metrics[name]
    return v <= value if op == "<=" else v >= value


def _report(suite, label, q, n_max, metrics, name, op, value, t0):
    metrics = {k: float(v) for k, v in metrics.items()}
    return VerificationReport(suite, label, q, n_max, metrics, name, op,
                              float(value), _gate(metrics, name, op, value),
                              time.perf_counter() - t0)


# ------------------------------------------------------------------- suites

def _suite_relations(cfg: RunConfig, plots: dict):
    out = []
    for q in cfg.q:
        # shared assembly is charged to the first cell that needs it
        t0 = time.perf_counter()
        l2 = enumerate_space("L2", cfg.n_max)
        dbl = enumerate_space("Double", cfg.n_max)
        cells = (("hat", l2, hat_generators(l2, q)),
                 ("prime", dbl, pi_prime_generators(dbl, q)))
        for rep, space, ops in cells:
            P = interior_projector(space, 1)
            for name, w in relation_words(q).items():
                defect = op_norm(pi_hat(w, space, q, ops=ops) @ P)
                out.append(_report("relations", f"{rep}:{name}", q, cfg.n_max,
                                   {"defect": defect}, "defect", "<=",
                                   cfg.tolerances["relation"], t0))
                t0 = time.perf_counter()
    return out


def _suite_decompose(cfg: RunConfig, plots: dict):
    out = []
    for q in cfg.q:
        t0 = time.perf_counter()
        rep = check_dirac_intertwine(cfg.n_max)
        metrics = {"deviation": max(rep.unitary_defect,
                                    rep.conjugation_defect),
                   "unitary_defect": rep.unitary_defect,
                   "conjugation_defect": rep.conjugation_defect}
        out.append(_report("decompose", "U", q, cfg.n_max, metrics,
                           "deviation", "<=", 0.0, t0))
    return out


def _suite_kq(cfg: RunConfig, plots: dict):
    out = []
    for q in cfg.q:
        for gen in ("alpha*", "beta"):
            t0 = time.perf_counter()
            rep = kq_decay(gen, cfg.n_max, q)
            plots[(gen, q)] = (rep.levels, rep.norms)
            metrics = {"gamma_ratio": rep.gamma_ratio,
                       "gamma_hat": rep.fit.gamma_hat,
                       "fit_residual": rep.fit.residual,
                       "censored": rep.fit.censored}
            out.append(_report("kq-decay", f"defect:{gen}", q, cfg.n_max,
                               metrics, "gamma_ratio", ">=", KQ_RATIO_MIN,
                               t0))
        t0 = time.perf_counter()
        rep = control_decay("alpha*", cfg.n_max, q)
        metrics = {"gamma_ratio": rep.gamma_ratio,
                   "gamma_hat": rep.fit.gamma_hat,
                   "fit_residual": rep.fit.residual,
                   "censored": rep.fit.censored}
        out.append(_report("kq-decay", "control:alpha*", q, cfg.n_max,
                           metrics, "gamma_ratio", "<=", KQ_CONTROL_MAX, t0))
    return out


def _suite_asymptotics(cfg: RunConfig, plots: dict):
    out = []
    for q in cfg.q:
        for kind in ("a+", "a-", "b+", "b-"):
            t0 = time.perf_counter()
            scan = asymptotic_scan(kind, q)
            metrics = {"envelope": scan.envelope,
                       "ratio_base": float(scan.ratios[0]),
                       "ratio_worst": float(np.max(scan.ratios))}
            out.append(_report("asymptotics", kind, q, cfg.n_max, metrics,
                               "envelope", "<=", ASYMPTOTIC_ENVELOPE_MAX, t0))
    return out


def _commutator_norms(n_max: HalfInt, q: float) -> dict:
    l2 = enumerate_space("L2", n_max)
    dbl = enumerate_space("Double", n_max)
    d1 = dirac_family(D1_PARAMS, l2)
    D = dirac_D(dbl)
    pl = interior_projector(l2, 1)
    pd = interior_projector(dbl, 1)
    vals = {}
    for g, T in hat_generators(l2, q).items():
        vals[("hat", g)] = op_norm((d1 @ T - T @ d1) @ pl)
    for g, T in pi_prime_generators(dbl, q).items():
        vals[("prime", g)] = op_norm((D @ T - T @ D) @ pd)
    return vals


def _suite_commutators(cfg: RunConfig, plots: dict):
    out = []
    small_n = HalfInt(cfg.n_max.twice - 4)
    for q in cfg.q:
        # the norms of all eight cells are computed together and charged to
        # the first cell of this q
        t0 = time.perf_counter()
        small = _commutator_norms(small_n, q)
        large = _commutator_norms(cfg.n_max, q)
        for key in sorted(small):
            rep, g = key
            lo, hi = small[key], large[key]
            change = abs(hi - lo) / lo * 100.0 if lo > 0 else math.inf
            metrics = {"change_pct": change, "norm_small": lo,
                       "norm_large": hi}
            out.append(_report("commutators", f"{rep}:{g}", q, cfg.n_max,
                               metrics, "change_pct", "<=",
                               COMMUTATOR_CHANGE_PCT_MAX, t0))
            t0 = time.perf_counter()
    return out


def _suite_minimality(cfg: RunConfig, plots: dict):
    out = []
    depth = cfg.n_max.twice  # words of length 2 n_max reach the last level
    for q in cfg.q:
        t0 = time.perf_counter()
        l2 = enumerate_space("L2", cfg.n_max)
        gens = hat_generators(l2, q)
        rep = cyclic_dimension(gens.values(), 0, depth,
                               gram_tol=cfg.tolerances["gram"])
        monotone = all(a <= b for a, b in zip(rep.history, rep.history[1:]))
        # depth-1 dimension can never exceed 5 (level cap), so the
        # lower-bound gate is an equality in disguise
        metrics = {"depth1_dim": rep.history[1],
                   "reached": rep.reached,
                   "target": rep.target,
                   "saturated": 1.0 if rep.saturated else 0.0,
                   "monotone": 1.0 if monotone else 0.0,
                   "discarded": rep.discarded,
                   "missing_total": sum(m for _, m in rep.deficiency)}
        out.append(_report("minimality", "hat", q, cfg.n_max, metrics,
                           "depth1_dim", ">=", 5.0, t0))
    return out


def _suite_family(cfg: RunConfig, plots: dict):
    t0 = time.perf_counter()
    table_n = min(half(4), cfg.n_max)
    l2 = enumerate_space("L2", table_n)
    d1 = dirac_family(D1_PARAMS, l2).mat.diagonal()
    d2 = dirac_family(D2_PARAMS, l2).mat.diagonal()
    dev1 = dev2 = 0.0
    for k, lab in enumerate(l2.basis):
        tn, tj = lab.n.twice, lab.j.twice
        want1 = tn + 1.0 if tj == tn else -float(tn)
        want2 = tn + 1.0 if tj == tn else -(tn + 1.0)
        dev1 = max(dev1, abs(d1[k] - want1))
        dev2 = max(dev2, abs(d2[k] - want2))
    # the eigenvalue must be a function of (n, j) alone
    seen: dict = {}
    weight_dev = 0.0
    for k, lab in enumerate(l2.basis):
        key = (lab.n.twice, lab.j.twice)
        if key in seen:
            weight_dev = max(weight_dev, abs(d1[k] - seen[key]))
        else:
            seen[key] = d1[k]
    try:
        DiracParams(0, 1.0, 0.0, 2.0, 1.0).validate()
        rejects = 0.0
    except ValueError:
        rejects = 1.0
    metrics = {"d1_table_dev": dev1, "d2_table_dev": dev2,
               "weight_independence_dev": weight_dev,
               "rejects_bad_params": rejects,
               "family_defect": max(dev1, dev2, weight_dev, 1.0 - rejects)}
    return [_report("family", "D1+D2", None, cfg.n_max, metrics,
                    "family_defect", "<=", 0.0, t0)]


_SUITE_FN = {"relations": _suite_relations, "decompose": _suite_decompose,
             "kq-decay": _suite_kq, "asymptotics": _suite_asymptotics,
             "commutators": _suite_commutators,
             "minimality": _suite_minimality, "family": _suite_family}


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
    for s in cfg.suites:
        reports.extend(_SUITE_FN[s](cfg, plots))
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
            "n_max_twice": cfg.n_max.twice,
            "tolerances": dict(cfg.tolerances),
            "suites": list(cfg.suites),
        },
        "reports": [
            {"suite": r.suite, "label": r.label, "q": r.q,
             "n_max_twice": r.n_max.twice, "metrics": r.metrics,
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


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise RuntimeError(f"cannot write report file {path}: {e}") from e


def csv_lines(reports) -> list:
    """One row per report: the gated metric against its threshold."""
    lines = [CSV_HEADER]
    for r in reports:
        qtxt = "" if r.q is None else repr(r.q)
        lines.append(",".join([
            r.suite, r.label, qtxt, str(r.n_max.twice), r.gate_metric,
            repr(r.metrics[r.gate_metric]), repr(r.gate_value),
            str(r.passed).lower(), f"{r.wall_time:.6f}"]))
    return lines


def emit(reports, cfg: RunConfig, plots: dict | None = None) -> list:
    """Write report.json, report.csv and (optionally) kq plot data.

    Returns the list of paths written.  The JSON document separates the
    deterministic payload from the meta section (wall times, versions,
    timestamps, payload hash).
    """
    out = cfg.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise RuntimeError(f"cannot create output directory {out}: {e}") from e
    paths = []

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
    jpath = os.path.join(out, "report.json")
    _write_text(jpath, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    paths.append(jpath)

    cpath = os.path.join(out, "report.csv")
    _write_text(cpath, "\n".join(csv_lines(reports)) + "\n")
    paths.append(cpath)

    if cfg.emit_plot and plots:
        for (gen, q), (levels, norms) in sorted(plots.items()):
            rows = [f"{lev.value:g} {math.log(v):.17g}"
                    for lev, v in zip(levels, norms) if v > 0.0]
            ppath = os.path.join(out, f"kq_{_PLOT_GEN_NAME[gen]}_q{q:g}.dat")
            _write_text(ppath, "\n".join(rows) + "\n")
            paths.append(ppath)
    return paths
