"""Self-tests of the benchmark's helpers.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import diraclab  # noqa: E402
from diraclab import HalfInt, RunConfig, SparseOp, enumerate_space  # noqa: E402
from diraclab import harness  # noqa: E402

import oracles  # noqa: E402
from run import Call, expected_cells  # noqa: E402
from tracer import SPECS, Tracer  # noqa: E402


def _run(tmp_path, suites, n_max_twice=8, q=0.4):
    out = str(tmp_path / "out")
    reports = harness.run(RunConfig(q=(q,), n_max=HalfInt(n_max_twice),
                                    suites=suites, out_dir=out))
    status = 0 if all(r.passed for r in reports) else 1
    return out, status


def _rewrite(out, edit):
    path = os.path.join(out, "report.json")
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc["payload"]["reports"])
    doc["meta"]["payload_sha256"] = oracles.payload_sha256(doc["payload"])
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _check(out, status, suites, q=0.4):
    checker = oracles.Checker(norms=oracles.NormReference())
    call = Call((suites[0],), suites, 8, (q,), 0)
    checker.check_invocation("x", expected_cells(call, None), status, out)
    return checker


@pytest.mark.parametrize("suite,label,metrics", [
    ("commutators", "prime:beta", ("norm_small", "norm_large")),
    ("relations", "hat:unit_right", ("defect",)),
])
def test_oracle_flags_norm_perturbed_by_1e6(tmp_path, suite, label, metrics):
    # at q = 0.4, n_max = 4 every norm is within 1e-8 of the exact one, so
    # the perturbation is the only error (at q = 0.6 the power iteration
    # alone is off by 1.6e-6 there, and the oracle fails those cells)
    suites = ("relations", "commutators")
    out, status = _run(tmp_path, suites)
    assert _check(out, status, suites).failed == 0

    def perturb(cells):
        for c in cells:
            if (c["suite"], c["label"]) == (suite, label):
                for m in metrics:  # change_pct stays consistent
                    c["metrics"][m] *= 1 + 1e-6
    _rewrite(out, perturb)
    checker = _check(out, status, suites)
    assert checker.failed == 1
    assert checker.norm_err_max == pytest.approx(1e-6, rel=0.01)


def test_reference_comparison_flags_perturbed_metric():
    cell = {"passed": True, "gate": {"metric": "x", "op": "<=", "value": 1},
            "metrics": {"norm_large": 2.0, "change_pct": 0.5}}
    same = json.loads(json.dumps(cell))
    assert oracles.check_against_reference(same, cell) == []
    same["metrics"]["norm_large"] *= 1 + 1e-6
    assert len(oracles.check_against_reference(same, cell)) == 1


def test_minimality_invariants(tmp_path):
    out, status = _run(tmp_path, ("minimality",), n_max_twice=4)
    assert _check(out, status, ("minimality",)).failed == 0
    _rewrite(out, lambda cells: cells[0]["metrics"].update(saturated=0.0))
    assert _check(out, status, ("minimality",)).failed == 1


def _bindings():
    """Every (module, name) bound to a traced function, with its object."""
    found = {}
    mods = [m for n, m in sys.modules.items()
            if n == "diraclab" or n.startswith("diraclab.")]
    for modname, path, _, _ in SPECS:
        owner = sys.modules[f"diraclab.{modname}"]
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        orig = owner.__dict__[attr]
        if outer:
            found[(owner, attr)] = orig
            continue
        for mod in mods:
            for name, value in vars(mod).items():
                if value is orig:
                    found[(mod, name)] = orig
    return found


def test_tracer_restores_every_patched_name(tmp_path):
    before = _bindings()
    # harness imports op_norm by name: that binding must be patched too
    assert (harness, "op_norm") in before
    tracer = Tracer()
    with tracer:
        assert harness.op_norm is not before[(harness, "op_norm")]
        assert len(tracer.patched) == len(before)
        _run(tmp_path, ("relations",), n_max_twice=4)
    assert tracer.patched == []
    for (owner, name), orig in before.items():
        assert owner.__dict__[name] is orig, f"{owner.__name__}.{name}"
    assert diraclab.op_norm is before[(sys.modules["diraclab.linop"],
                                       "op_norm")]
    assert tracer.calls["linop.op_norm"] == 10  # five relations, two reps
    assert tracer.calls["qnum.q_number"] > 0
    assert tracer.self_s["rep_double.pi_prime"] > 0.0


@pytest.mark.parametrize("q", [0.3, 0.8])
def test_exact_norm_matches_dense_svd(q):
    ops = oracles.reported_operators(8, q)
    assert len(ops) == 26
    for key, T in ops.items():
        want = np.linalg.norm(T.to_dense(), 2)
        assert oracles.exact_norm(T) == pytest.approx(want, rel=1e-12,
                                                      abs=1e-14), key


def test_exact_norm_on_unstructured_operator():
    space = enumerate_space("L2", HalfInt(4))
    rng = np.random.default_rng(0)
    rows, cols = rng.integers(0, space.dim, (2, 60))
    T = SparseOp.from_coo(space, space, rows, cols, rng.normal(size=60))
    assert oracles.exact_norm(T) == pytest.approx(
        np.linalg.norm(T.to_dense(), 2), rel=1e-12)
    assert oracles.exact_norm(SparseOp.zero(space)) == 0.0
