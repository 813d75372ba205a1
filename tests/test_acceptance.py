"""End-to-end acceptance: one test per published claim, at full desk scale.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Criterion 2 is expected to FAIL on the hatted half and is left
failing on purpose: the hatted operator pair satisfies the defining relations
only up to level-decaying corrections with closed-form worst defects (q^2 at
the unit relation), which no tolerance of 1e-10 can absorb.  The spinorial
representation passes every relation at machine precision, and the defect of
the hatted pair is exactly the compact-ideal membership certified by
criterion 4.  Everything else is green.
"""

import math
import time

import numpy as np
import pytest

from diraclab.covariant import cyclic_dimension
from diraclab.decomp import (
    asymptotic_scan,
    build_U,
    check_dirac_intertwine,
    control_decay,
    kq_decay,
)
from diraclab.harness import RunConfig, payload_hash, run, validate_config
from diraclab.hilbert import enumerate_space
from diraclab.linop import interior_projector, op_norm
from diraclab.rep_double import dirac_D, pi_prime_generators
from diraclab.rep_l2 import (
    D1_PARAMS,
    D2_PARAMS,
    DiracParams,
    dirac_family,
    hat_generators,
    pi_hat,
    relation_words,
)

Q_GRID = (0.3, 0.5, 0.7)
N8 = 16   # n_max = 8
N6 = 12   # n_max = 6


@pytest.fixture(scope="module")
def l2_8():
    return enumerate_space("L2", N8)


@pytest.fixture(scope="module")
def dbl_8():
    return enumerate_space("Double", N8)


@pytest.fixture(scope="module")
def hat_8(l2_8):
    return {q: hat_generators(l2_8, q) for q in Q_GRID}


@pytest.fixture(scope="module")
def prime_8(dbl_8):
    return {q: pi_prime_generators(dbl_8, q) for q in Q_GRID}


def test_criterion_1_exact_decomposition():
    # U (D1 (+) |D2|) U* = D with zero deviation at n_max in {2, 4, 8},
    # and U unitary exactly; the n_max = 8 check must finish inside 10 s
    for tw in (4, 8):
        rep = check_dirac_intertwine(tw)
        assert rep.unitary_defect == 0.0, tw
        assert rep.conjugation_defect == 0.0, tw
    t0 = time.perf_counter()
    rep = check_dirac_intertwine(N8)
    elapsed = time.perf_counter() - t0
    assert rep.unitary_defect == 0.0
    assert rep.conjugation_defect == 0.0
    assert rep.dim_sum == rep.dim_double == 2 * 1785
    assert elapsed < 10.0, f"decomposition at n_max=8 took {elapsed:.1f}s"


def test_criterion_2_relation_defects(l2_8, dbl_8, hat_8, prime_8):
    # all five defining relations, both representations, interior(2),
    # defect <= 1e-10, q in {0.3, 0.5, 0.7}, n_max = 8, under 2 minutes.
    # The spinorial half passes at machine precision.  The hatted half
    # cannot: its worst defects have q-only closed forms (q^2 for the unit
    # relation), so this criterion fails honestly on those cells.
    t0 = time.perf_counter()
    defects = {}
    for q in Q_GRID:
        for rep_name, space, ops in (("hat", l2_8, hat_8[q]),
                                     ("prime", dbl_8, prime_8[q])):
            P = interior_projector(space, 1)
            for rel, w in relation_words(q).items():
                d = op_norm(pi_hat(w, space, q, ops=ops) @ P)
                defects[(rep_name, rel, q)] = d
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"relation sweep took {elapsed:.1f}s"

    prime_worst = max(v for (r, _, _), v in defects.items() if r == "prime")
    assert prime_worst <= 1e-10

    hat_cells = sorted((f"{rel}@q={q}: {v:.6f}")
                       for (r, rel, q), v in defects.items()
                       if r == "hat" and v > 1e-10)
    assert not hat_cells, (
        "hatted pair violates the strict relation gate (structural, "
        "see module docstring): " + "; ".join(hat_cells))


def test_criterion_3_adjoint_consistency(dbl_8, prime_8):
    # ||pi'(a)* - pi'(a*)|| <= 1e-10 on interior(2) for both generator pairs
    for q in Q_GRID:
        ops = prime_8[q]
        P = interior_projector(dbl_8, 1)
        for g, gs in (("alpha", "alpha*"), ("beta", "beta*")):
            diff = (ops[g].adjoint() - ops[gs]) @ P
            assert op_norm(diff) <= 1e-10, (g, q)


def test_criterion_4_kq_decay(hat_8, prime_8):
    # fitted exponent of the defect block norms >= 1.8 ln(1/q) over levels
    # n in [2, 7] at n_max = 8, for both reduced generators; the same fit on
    # the representation itself stays below 0.5 ln(1/q)
    U = build_U(N8)
    for q in Q_GRID:
        for gen in ("alpha*", "beta"):
            out = kq_decay(gen, hat_8[q], prime_8[q], U, q)
            assert out.fit.levels[0] >= 4  # twice-levels: n in [2, 7]
            assert out.fit.levels[-1] <= 14
            assert out.gamma_ratio >= 1.8, (gen, q, out.gamma_ratio)
        ctl = control_decay("alpha*", prime_8[q], q)
        assert ctl.gamma_ratio < 0.5, (q, ctl.gamma_ratio)


def test_criterion_5_asymptotic_envelopes():
    # r_n / q^{2n} for n in [1, 6] never exceeds 10x its value at n = 1,
    # for each of the four displayed leading-order expansions
    for q in Q_GRID:
        for kind in ("a+", "a-", "b+", "b-"):
            scan = asymptotic_scan(kind, q)
            assert scan.levels[0] == 2
            assert scan.levels[-1] == 12
            assert scan.envelope <= 10.0, (kind, q, scan.envelope)


def test_criterion_6_commutator_stability(l2_8, dbl_8, hat_8, prime_8):
    # ||[D1, pi_hat(g)]|| and ||[D, pi'(g)]|| on interior(2) move by < 5%
    # between n_max = 6 and n_max = 8 for every generator
    l2_6 = enumerate_space("L2", N6)
    dbl_6 = enumerate_space("Double", N6)

    def norms(space, ops, dirac):
        P = interior_projector(space, 1)
        return {g: op_norm((dirac @ T - T @ dirac) @ P)
                for g, T in ops.items()}

    for q in Q_GRID:
        small = norms(l2_6, hat_generators(l2_6, q), dirac_family(D1_PARAMS, l2_6))
        large = norms(l2_8, hat_8[q], dirac_family(D1_PARAMS, l2_8))
        for g in small:
            change = abs(large[g] - small[g]) / small[g] * 100
            assert change < 5.0, ("hat", g, q, change)
        small = norms(dbl_6, pi_prime_generators(dbl_6, q), dirac_D(dbl_6))
        large = norms(dbl_8, prime_8[q], dirac_D(dbl_8))
        for g in small:
            change = abs(large[g] - small[g]) / small[g] * 100
            assert change < 5.0, ("prime", g, q, change)


def test_criterion_7_family_structure():
    sp = enumerate_space("L2", 8)  # n <= 4
    for params, low in ((D1_PARAMS, lambda n: -2 * n),
                        (D2_PARAMS, lambda n: -2 * n - 1)):
        D = dirac_family(params, sp)
        dense = D.to_dense()
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
        table = {}
        for k, (tn, tj) in enumerate(zip(sp.tn.tolist(), sp.tj.tolist())):
            n = tn / 2
            expect = 2 * n + 1 if tj == tn else low(n)
            assert dense[k, k] == expect, (params, tn, tj)
            assert table.setdefault((tn, tj), dense[k, k]) == dense[k, k]
    with pytest.raises(ValueError):
        DiracParams(0, 1.0, 0.0, 2.0, 1.0).validate()
    with pytest.raises(ValueError):
        DiracParams(1, -1.0, 0.0, 0.0, 1.0).validate()


def test_criterion_8_minimality(l2_8, hat_8):
    # depth-1 cyclic dimension is exactly 5 for every q; history monotone;
    # the depth 2*n_max sweep saturates, by the exact certificate
    for q in Q_GRID:
        gens = list(hat_8[q].values())
        rep = cyclic_dimension(gens, 1)
        assert rep.history[1] == 5, (q, rep.history)
    deep = cyclic_dimension(list(hat_8[0.5].values()), N8)
    assert deep.history == tuple(sorted(deep.history))
    assert deep.target == 1785
    print(f"\n[minimality diagnostics] reached={deep.reached} "
          f"target={deep.target} saturated={deep.saturated} "
          f"discarded={deep.discarded}")
    assert deep.reached == deep.target and deep.saturated is True


def test_criterion_9_deterministic_payloads():
    cfg = RunConfig(q=(0.3, 0.5), n_max=10,
                    suites=("decompose", "kq-decay", "asymptotics", "family"))
    h1 = payload_hash(run(cfg), validate_config(cfg))
    h2 = payload_hash(run(cfg), validate_config(cfg))
    assert h1 == h2
    assert len(h1) == 64 and int(h1, 16) >= 0
