"""Output oracles for the diraclab benchmark.

Every cell a run reports is checked here, outside the timed region:

* the exit status agrees with the pass flags, and each pass flag agrees
  with the cell's own metric and gate;
* ``report.json`` carries the canonical hash of its payload, and one command
  gives one hash in every round of a run;
* the default run (``diraclab all``) matches a committed reference payload:
  the same cells, the same pass flags, the same metrics within tolerance;
* the other runs satisfy invariants that hold for every q, listed in
  ``CELL_RULES``;
* given a :class:`NormReference`, every reported operator norm (relation
  defects, commutator norms) is within ``NORM_RTOL`` of an exact reference:
  the largest dense singular value over the connected components of the
  operator's sparsity graph.

The reference operators are rebuilt from the package's public functions in
the same way the harness builds them, so the norm check tests the norm
routine, and the invariants test the assembly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

#: Largest accepted relative error of a reported operator norm.  The power
#: iteration of this code base is off by 1.2e-7 at q = 0.7 (commutators of
#: beta and beta*); a norm perturbed by 1e-6 must be caught.
NORM_RTOL = 5e-7
#: Relative tolerance of a metric against the committed reference payload.
REF_RTOL = 5e-7
#: Absolute slack of that comparison: values at working-precision zero
#: (spinorial relation defects near 1e-16) may differ in every digit.
REF_ATOL = 1e-12
#: ``change_pct`` is 100 |hi - lo| / lo, so a relative error e in each norm
#: moves it by up to about 200 e percentage points.
REF_ATOL_METRIC = {"change_pct": 1e-4}
#: Spinorial relation defects are zero at working precision.
PRIME_DEFECT_MAX = 1e-10
#: Norms below this are zero at working precision; no relative error.
NORM_ZERO = 1e-12


# ------------------------------------------------------------ exact norms

def exact_norm(T) -> float:
    """Largest singular value of a SparseOp, exactly up to rounding.

    Rows and columns that share no nonzero entry, directly or through a
    chain of entries, form independent blocks; the norm is the largest
    dense 2-norm over those blocks.  Blocks of one shape are stacked and
    their norms taken in one batched call.
    """
    coo = T.mat.tocoo()
    if coo.nnz == 0:
        return 0.0
    m, n = coo.shape
    graph = sp.coo_matrix((np.ones(coo.nnz), (coo.row, m + coo.col)),
                          shape=(m + n, m + n))
    k, label = connected_components(graph, directed=False)

    def local(lab):
        # (position of each index within its block, block sizes)
        order = np.argsort(lab, kind="stable")
        size = np.bincount(lab, minlength=k)
        start = np.concatenate([[0], np.cumsum(size)[:-1]])
        pos = np.empty_like(order)
        pos[order] = np.arange(len(lab)) - start[lab[order]]
        return pos, size

    rpos, nrows = local(label[:m])
    cpos, ncols = local(label[m:])
    comp = label[coo.row]
    best = 0.0
    for nr, nc in set(zip(nrows[comp], ncols[comp])):
        members = np.flatnonzero((nrows == nr) & (ncols == nc))
        slot = np.full(k, -1)
        slot[members] = np.arange(len(members))
        sel = slot[comp] >= 0
        blocks = np.zeros((len(members), nr, nc))
        blocks[slot[comp[sel]], rpos[coo.row[sel]],
               cpos[coo.col[sel]]] = coo.data[sel]
        best = max(best, float(np.linalg.norm(blocks, 2, axis=(1, 2)).max()))
    return best


def reported_operators(n_max_twice: int, q: float) -> dict:
    """The operators whose norms the harness reports, keyed like the cells.

    Keys are (suite, label, metric); they mirror the relations and
    commutators suites of ``diraclab.harness``.
    """
    from diraclab import (D1_PARAMS, HalfInt, dirac_D, dirac_family,
                          enumerate_space, hat_generators, interior_projector,
                          pi_hat, pi_prime_generators, relation_words)

    ops = {}
    for nt, metric in ((n_max_twice, "norm_large"),
                       (n_max_twice - 4, "norm_small")):
        l2 = enumerate_space("L2", HalfInt(nt))
        dbl = enumerate_space("Double", HalfInt(nt))
        for rep, space, gens, D in (
                ("hat", l2, hat_generators(l2, q), dirac_family(D1_PARAMS, l2)),
                ("prime", dbl, pi_prime_generators(dbl, q), dirac_D(dbl))):
            P = interior_projector(space, 1)
            for g, T in gens.items():
                ops[("commutators", f"{rep}:{g}", metric)] = \
                    (D @ T - T @ D) @ P
            if nt != n_max_twice:
                continue
            for name, w in relation_words(q).items():
                ops[("relations", f"{rep}:{name}", "defect")] = \
                    pi_hat(w, space, q, ops=gens) @ P
    return ops


class NormReference:
    """Exact norms per (n_max, q), computed once per run."""

    def __init__(self):
        self._cache = {}

    def get(self, n_max_twice: int, q: float) -> dict:
        key = (n_max_twice, q)
        if key not in self._cache:
            ops = reported_operators(n_max_twice, q)
            self._cache[key] = {k: exact_norm(T) for k, T in ops.items()}
        return self._cache[key]


# ------------------------------------------------------------ cell rules

def _closed_forms(q):
    """README closed forms of the hatted relation defects."""
    return {"unit_right": q * q,
            "unit_left": q * q * (1 - q * q),
            "twist_beta": q ** 3 * math.sqrt(1 - q * q),
            "twist_beta_star": q ** 3 * math.sqrt(1 - q * q),
            "beta_normal": q ** 4 * (1 - q * q)}


#: The README closed forms of these two are lower bounds only: past
#: q of about 0.79 another block of the defect takes over (see NOTES.md).
CLOSED_FORM_LOWER_BOUND = ("unit_left", "beta_normal")


def check_relation_cell(cell) -> list:
    rep, name = cell["label"].split(":")
    d = cell["metrics"]["defect"]
    if rep == "prime":
        return [] if d <= PRIME_DEFECT_MAX else [f"defect {d!r} > "
                                                 f"{PRIME_DEFECT_MAX}"]
    want = _closed_forms(cell["q"])[name]
    if cell["passed"]:
        return ["hatted relation cell passed, expected the closed-form "
                "defect to fail it"]
    if name in CLOSED_FORM_LOWER_BOUND:
        ok = d >= want * (1 - NORM_RTOL)
    else:
        ok = abs(d - want) <= NORM_RTOL * want
    return [] if ok else [f"defect {d!r} against closed form {want!r}"]


def check_commutator_cell(cell) -> list:
    m = cell["metrics"]
    errs = [f"{k} = {m[k]!r} is not finite and positive"
            for k in ("norm_small", "norm_large")
            if not (math.isfinite(m[k]) and m[k] > 0.0)]
    if not errs:
        pct = abs(m["norm_large"] - m["norm_small"]) / m["norm_small"] * 100
        if not math.isclose(pct, m["change_pct"], rel_tol=1e-12,
                            abs_tol=1e-12):
            errs.append(f"change_pct {m['change_pct']!r} != {pct!r}")
    return errs


def check_minimality_cell(cell) -> list:
    m = cell["metrics"]
    want = {"depth1_dim": 5.0, "monotone": 1.0, "saturated": 1.0,
            "missing_total": 0.0}
    errs = [f"{k} = {m[k]!r}, expected {v!r}" for k, v in want.items()
            if m[k] != v]
    if m["reached"] != m["target"]:
        errs.append(f"reached {m['reached']!r} != target {m['target']!r}")
    return errs


CELL_RULES = {"relations": check_relation_cell,
              "commutators": check_commutator_cell,
              "minimality": check_minimality_cell}


def check_against_reference(cell, ref) -> list:
    errs = []
    if cell["passed"] != ref["passed"]:
        errs.append(f"passed {cell['passed']} != reference {ref['passed']}")
    if cell["gate"] != ref["gate"]:
        errs.append(f"gate {cell['gate']} != reference {ref['gate']}")
    if set(cell["metrics"]) != set(ref["metrics"]):
        errs.append(f"metric names {sorted(cell['metrics'])} != reference")
        return errs
    for k, want in ref["metrics"].items():
        got = cell["metrics"][k]
        atol = REF_ATOL_METRIC.get(k, REF_ATOL)
        if not abs(got - want) <= REF_RTOL * abs(want) + atol:
            errs.append(f"{k} = {got!r}, reference {want!r}")
    return errs


# ------------------------------------------------------------ reports

def gate_holds(cell) -> bool:
    g = cell["gate"]
    v = cell["metrics"][g["metric"]]
    return v <= g["value"] if g["op"] == "<=" else v >= g["value"]


def payload_sha256(payload) -> str:
    """The harness's canonical hash: sorted keys, compact separators."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_key(cell):
    return (cell["suite"], cell["label"], cell["q"])


class Checker:
    """Counts cells attempted and cells that break an oracle.

    With a ``reference`` payload, cells of ``diraclab all`` are compared
    with it; with ``norms``, every reported norm is compared with the exact
    one.
    """

    def __init__(self, reference=None, norms: NormReference | None = None):
        self.reference = ({cell_key(c): c for c in reference["reports"]}
                          if reference is not None else None)
        self.norms = norms
        self.attempted = 0
        self.failed = 0
        self.norm_err_max = 0.0
        self.hashes = {}
        self.errors = []

    def _fail(self, where, msgs, ncells=1):
        self.failed += ncells
        self.errors.extend(f"{where}: {m}" for m in msgs)

    def check_norms(self, cell, n_max_twice) -> list:
        suite = cell["suite"]
        if self.norms is None or suite not in ("relations", "commutators"):
            return []
        exact = self.norms.get(n_max_twice, cell["q"])
        errs = []
        for metric in ("defect", "norm_small", "norm_large"):
            if metric not in cell["metrics"]:
                continue
            got = cell["metrics"][metric]
            want = exact[(suite, cell["label"], metric)]
            if want <= NORM_ZERO:
                if got > PRIME_DEFECT_MAX:
                    errs.append(f"{metric} {got!r}, exact {want!r}")
                continue
            err = abs(got - want) / want
            self.norm_err_max = max(self.norm_err_max, err)
            if not err <= NORM_RTOL:
                errs.append(f"{metric} {got!r}, exact {want!r} "
                            f"(relative error {err:.3g})")
        return errs

    def check_invocation(self, where, expected, exit_code, out_dir,
                         plots=0):
        """Check one CLI invocation that should report ``expected`` cells.

        ``where`` names the command and its inputs: one name, one hash.
        ``expected`` is a list of cell keys and ``plots`` the number of plot
        files it should write.  A crash, a configuration error (exit 2) or
        an unreadable report fails every expected cell.
        """
        self.attempted += len(expected)
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                doc = json.load(fh)
            payload = doc["payload"]
            cells = payload["reports"]
            digest = doc["meta"]["payload_sha256"]
        except (OSError, ValueError, KeyError) as e:
            self._fail(where, [f"exit {exit_code}, no readable report: {e}"],
                       len(expected))
            return
        whole = []
        if exit_code not in (0, 1):
            whole.append(f"exit status {exit_code}")
        elif exit_code != (0 if all(c["passed"] for c in cells) else 1):
            whole.append(f"exit status {exit_code} disagrees with the "
                         "pass flags")
        if digest != payload_sha256(payload):
            whole.append("meta.payload_sha256 is not the payload's hash")
        if self.hashes.setdefault(where, digest) != digest:
            whole.append("payload hash differs between rounds")
        if sorted(map(cell_key, cells), key=repr) != \
                sorted(expected, key=repr):
            whole.append("reported cells differ from the expected cells")
        whole += check_side_files(out_dir, cells, plots)
        if whole:
            self._fail(where, whole, len(expected))
            return
        n_max_twice = payload["config"]["n_max_twice"]
        for cell in cells:
            errs = [] if gate_holds(cell) == cell["passed"] else \
                ["pass flag disagrees with the gate"]
            errs += self.check_norms(cell, n_max_twice)
            if self.reference is not None:
                errs += check_against_reference(
                    cell, self.reference[cell_key(cell)])
            elif cell["suite"] in CELL_RULES:
                errs += CELL_RULES[cell["suite"]](cell)
            if errs:
                self._fail(f"{where} [{cell['suite']} {cell['label']} "
                           f"q={cell['q']}]", errs)


def check_side_files(out_dir, cells, plots) -> list:
    """report.csv has one row per cell; plot files hold numeric rows."""
    errs = []
    try:
        with open(os.path.join(out_dir, "report.csv")) as fh:
            rows = fh.read().splitlines()
    except OSError as e:
        return [f"report.csv: {e}"]
    if len(rows) != len(cells) + 1 or not rows[0].startswith("suite,"):
        errs.append(f"report.csv has {len(rows)} lines for "
                    f"{len(cells)} cells")
    names = [n for n in sorted(os.listdir(out_dir))
             if n.startswith("kq_") and n.endswith(".dat")]
    if len(names) != plots:
        errs.append(f"{len(names)} plot files, expected {plots}")
    for name in names:
        with open(os.path.join(out_dir, name)) as fh:
            try:
                vals = [list(map(float, line.split()))
                        for line in fh.read().splitlines()]
            except ValueError:
                vals = []
        if not vals or any(len(v) != 2 for v in vals):
            errs.append(f"{name} is not rows of two numbers")
    return errs
