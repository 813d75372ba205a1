import json
import math
import os
import signal
import sys
import time

import pytest

from diraclab import harness
from diraclab.cli import build_parser, main
from diraclab.harness import (
    CSV_HEADER,
    DEFAULT_N_MAX,
    MIN_N_MAX,
    RunConfig,
    SUITES,
    csv_lines,
    payload_dict,
    payload_hash,
    run,
    validate_config,
)


def _cfg(**kw):
    kw.setdefault("q", (0.5,))
    kw.setdefault("n_max", 8)
    return RunConfig(**kw)


def _cpus(monkeypatch, n):
    """Let the run see n CPUs: 1 keeps every pass in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_validate_config_distinct_errors():
    cases = [
        (dict(q=()), "at least one q"),
        (dict(q=(1.5,)), "must be in (0, 1)"),
        (dict(q=(0.5, 0.3, 0.5)), "must be distinct"),
        (dict(n_max=-2), "n_max must be an int >= 0"),
        (dict(n_max=16.5), "n_max must be an int >= 0"),
        (dict(n_max=2.0), "n_max must be an int >= 0"),
        # bool subclasses int, but True is no n_max = 1/2
        (dict(n_max=True), "n_max must be an int >= 0"),
        (dict(suites=()), "at least one suite"),
        (dict(suites=("nonesuch",)), "unknown suite"),
        (dict(suites=("relations",), n_max=1), "needs n_max >= 1"),
        (dict(suites=("kq-decay",), n_max=7), "needs n_max >= 4"),
        (dict(suites=("commutators",), n_max=5), "needs n_max >= 3"),
        (dict(suites=("minimality",), n_max=0), "needs n_max >= 1/2"),
        # the largest unmet bound is named, with its --nmax value
        (dict(suites=SUITES, n_max=0), "kq-decay"),
        (dict(suites=("relations", "kq-decay"), n_max=2), "(--nmax 8)"),
        (dict(emit_plot=True), "needs an output directory"),
    ]
    for kw, fragment in cases:
        with pytest.raises(ValueError) as exc:
            validate_config(_cfg(**kw))
        assert fragment in str(exc.value), kw


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_runs_at_its_least_n_max_and_no_lower(suite):
    least = MIN_N_MAX[suite][0] if suite in MIN_N_MAX else 0
    assert (suite in MIN_N_MAX) == (suite not in ("decompose", "asymptotics",
                                                  "family"))
    reports = run(_cfg(n_max=least, suites=(suite,)))
    assert reports
    assert all(math.isfinite(r.metrics[r.gate_metric]) for r in reports)
    if suite in MIN_N_MAX:
        with pytest.raises(ValueError, match=f"the {suite} suite "):
            validate_config(_cfg(n_max=least - 1, suites=(suite,)))


def test_validate_config_normalizes():
    cfg = validate_config(_cfg(q=[0.5, 0.3], suites=["family", "decompose"]))
    assert cfg.suites == ("decompose", "family")  # canonical order
    assert cfg.q == (0.5, 0.3)


def test_relations_suite_emits_exactly_ten_reports_per_q():
    reports = run(_cfg(suites=("relations",), q=(0.5,)))
    assert len(reports) == 10
    labels = sorted(r.label for r in reports)
    assert len(set(labels)) == 10
    assert sum(lab.startswith("hat:") for lab in labels) == 5
    assert sum(lab.startswith("prime:") for lab in labels) == 5
    # the spinorial half passes at machine precision; the hatted half
    # reports its structural defect honestly and fails the strict gate
    for r in reports:
        if r.label.startswith("prime:"):
            assert r.passed, r.label
            assert r.metrics["defect"] <= 1e-10
        else:
            assert not r.passed, r.label
            assert r.metrics["defect"] > 1e-3


def test_relation_cells_are_the_words_evaluated_alone():
    """Each relations cell, bit for bit, is the norm of its word built as
    the chained sum of operator products (tests/word_oracle.py) and cut to
    interior(2), with no product shared from another word."""
    from diraclab.hilbert import enumerate_space, interior
    from diraclab.linop import on_columns, op_norm
    from diraclab.rep_double import pi_prime_generators
    from diraclab.rep_l2 import hat_generators, relation_words
    from word_oracle import chained

    for n_max in (8, 16, 24):
        for q in (0.01, 0.3, 0.5, 0.8, 0.99):
            got = {r.label: r.metrics["defect"].hex() for r in
                   run(RunConfig(q=(q,), n_max=n_max, suites=("relations",)))}
            want = {}
            for rep, kind, build in (("hat", "L2", hat_generators),
                                     ("prime", "Double", pi_prime_generators)):
                space = enumerate_space(kind, n_max)
                gens = build(space, q)
                for name, w in relation_words(q).items():
                    want[f"{rep}:{name}"] = op_norm(on_columns(
                        chained(w, space, gens), interior(space, 2))).hex()
            assert got == want, (n_max, q)


def test_a_relations_pass_composes_no_operator(monkeypatch):
    # the words are read off the generators: a counter on SparseOp.compose,
    # which every operator product goes through, sees no call in a
    # relations pass, nor in pi_hat, their operator view
    from diraclab.hilbert import enumerate_space
    from diraclab.linop import SparseOp
    from diraclab.rep_l2 import pi_hat, relation_words

    calls, compose = [0], SparseOp.compose

    def counted(self, other):
        calls[0] += 1
        return compose(self, other)

    monkeypatch.setattr(SparseOp, "compose", counted)
    _cpus(monkeypatch, 1)  # every pass in this process
    reports = run(_cfg(suites=("relations",), q=(0.3, 0.5)))
    assert len(reports) == 20 and calls == [0]
    pi_hat(relation_words(0.5)["twist_beta"], enumerate_space("L2", 4), 0.5)
    assert calls == [0]


def test_decompose_suite_one_exact_cell_per_q():
    reports = run(_cfg(suites=("decompose",), q=(0.3, 0.5), n_max=4))
    assert len(reports) == 2
    for r in reports:
        assert r.label == "U"
        assert r.metrics["deviation"] == 0.0
        assert r.gate_op == "<=" and r.gate_value == 0.0
        assert r.passed


def test_family_suite_single_q_independent_cell():
    reports = run(_cfg(suites=("family",), q=(0.3, 0.5, 0.7), n_max=4))
    assert len(reports) == 1
    r = reports[0]
    assert r.q is None
    assert r.passed
    assert r.metrics["rejects_bad_params"] == 1.0
    assert r.metrics["family_defect"] == 0.0


def test_minimality_suite_metrics():
    reports = run(_cfg(suites=("minimality",), q=(0.5,), n_max=4))
    (r,) = reports
    assert r.metrics["depth1_dim"] == 5.0
    assert r.metrics["monotone"] == 1.0
    assert r.metrics["saturated"] == 1.0
    assert r.passed


def test_commutator_cell_times_cover_the_suite():
    # each cell computes its own norms, and the generators are built once
    # per q for all suites; their cost must land in the cells, not vanish
    # between them
    for suites, cells in ((("commutators",), 8), (SUITES, 28)):
        t0 = time.perf_counter()
        reports = run(_cfg(suites=suites, n_max=8))
        elapsed = time.perf_counter() - t0
        assert len(reports) == cells, suites
        assert sum(r.wall_time for r in reports) >= 0.5 * elapsed, suites


def _count_calls(monkeypatch, *targets):
    """Count the calls of each diraclab.<module>.<name> in targets, through
    every binding of the function in the loaded diraclab modules."""
    counts = {}
    for target in targets:
        modname, name = target.rsplit(".", 1)
        orig = getattr(sys.modules[f"diraclab.{modname}"], name)
        counts[target] = 0

        def counted(*args, _orig=orig, _target=target, **kwargs):
            counts[_target] += 1
            return _orig(*args, **kwargs)

        for mod in [m for k, m in sys.modules.items()
                    if k == "diraclab" or k.startswith("diraclab.")]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


@pytest.mark.parametrize("suites, calls", [
    (SUITES, (2, 1, 1, 1)),            # every suite shares one q's assembly
    (("minimality",), (0, 1, 0, 0)),   # pi' and U are built only on request
], ids=["all", "minimality"])
def test_generators_are_assembled_once_per_q(monkeypatch, suites, calls):
    # pi' assembles two generators and takes the other two as adjoints; U
    # does not depend on q, and the run builds it once per process, for its
    # check, and measures every kq defect with it.  The counts are kept in
    # this process, so every pass runs here
    _cpus(monkeypatch, 1)
    counts = _count_calls(monkeypatch, "rep_double.pi_prime",
                          "rep_l2.hat_generators",
                          "decomp.check_dirac_intertwine", "decomp.build_U")
    run(_cfg(suites=suites, q=(0.3, 0.5), n_max=8))
    pi_prime, hat, intertwine, build_U = calls
    assert counts == {"rep_double.pi_prime": 2 * pi_prime,
                      "rep_l2.hat_generators": 2 * hat,
                      "decomp.check_dirac_intertwine": intertwine,
                      "decomp.build_U": build_U}


@pytest.mark.parametrize("q", [0.3, 0.8])
def test_commutator_norms_match_operators_built_at_each_size(q):
    # the small norm comes from projecting the large commutator; it must
    # equal the norm of the commutator built at n_max - 2, cut to the
    # interior of that truncation
    from diraclab.hilbert import enumerate_space
    from diraclab.linop import interior_projector, op_norm
    from diraclab.rep_double import dirac_D, pi_prime_generators
    from diraclab.rep_l2 import D1_PARAMS, dirac_family, hat_generators

    def built(n_max):
        l2, dbl = (enumerate_space(k, n_max) for k in ("L2", "Double"))
        out = {}
        for rep, space, D, gens in (
                ("hat", l2, dirac_family(D1_PARAMS, l2),
                 hat_generators(l2, q)),
                ("prime", dbl, dirac_D(dbl), pi_prime_generators(dbl, q))):
            P = interior_projector(space, 1)
            out.update({(rep, g): op_norm((D @ T - T @ D) @ P)
                        for g, T in gens.items()})
        return out

    small, large = built(8), built(12)
    reports = run(RunConfig(q=(q,), n_max=12, suites=("commutators",)))
    assert {tuple(r.label.split(":")): (r.metrics["norm_small"],
                                        r.metrics["norm_large"])
            for r in reports} == {
        key: (small[key], large[key]) for key in large}


def test_each_cell_carries_its_own_measurement(monkeypatch):
    # a clock that reads the number of op_norm calls so far: a cell's wall
    # time is then the number of norms taken for it, two per commutators
    # cell and one per relations cell
    import types

    from diraclab import harness
    calls, op_norm = [0], harness.op_norm

    def counted(T):
        calls[0] += 1
        return op_norm(T)

    monkeypatch.setattr(harness, "op_norm", counted)
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(
        perf_counter=lambda: float(calls[0]), strftime=time.strftime))
    reports = run(RunConfig(q=(0.5,), n_max=8,
                            suites=("relations", "commutators")))
    times = {s: [r.wall_time for r in reports if r.suite == s]
             for s in ("relations", "commutators")}
    assert times == {"relations": [1.0] * 10, "commutators": [2.0] * 8}


def test_reports_are_sorted():
    reports = run(_cfg(suites=("family", "decompose"), q=(0.7, 0.3),
                       n_max=4))
    keys = [(r.suite, r.label, -1.0 if r.q is None else r.q) for r in reports]
    assert keys == sorted(keys)
    assert [r.suite for r in reports] == ["decompose", "decompose", "family"]
    assert reports[0].q == 0.3


def test_payload_hash_is_deterministic():
    cfg = _cfg(suites=("decompose", "family"), q=(0.5, 0.3), n_max=4)
    r1 = run(cfg)
    r2 = run(cfg)
    assert payload_dict(r1, validate_config(cfg)) == \
        payload_dict(r2, validate_config(cfg))
    assert payload_hash(r1, validate_config(cfg)) == \
        payload_hash(r2, validate_config(cfg))


def test_emitted_json_payload_identical_across_runs(tmp_path):
    docs = []
    for sub in ("one", "two"):
        cfg = _cfg(suites=("decompose",), q=(0.5,), n_max=4,
                   out_dir=str(tmp_path / sub))
        run(cfg)
        with open(tmp_path / sub / "report.json") as fh:
            docs.append(json.load(fh))
    a, b = docs
    assert set(a) == {"payload", "meta"}
    blob = lambda d: json.dumps(d, sort_keys=True)
    assert blob(a["payload"]) == blob(b["payload"])
    assert a["meta"]["payload_sha256"] == b["meta"]["payload_sha256"]
    assert "wall_times" in a["meta"] and "created" in a["meta"]
    assert "jit" not in a["meta"]


def test_csv_shape_and_determinism(tmp_path):
    cfg = _cfg(suites=("decompose", "family"), q=(0.5,), n_max=4,
               out_dir=str(tmp_path))
    reports = run(cfg)
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(reports) + 1
    for line, rep in zip(lines[1:], reports):
        cols = line.split(",")
        assert cols[0] == rep.suite
        assert cols[4] == rep.gate_metric
        assert float(cols[5]) == rep.metrics[rep.gate_metric]
        assert cols[7] == str(rep.passed).lower()
    # all columns but the wall time are reproducible
    again = csv_lines(run(cfg))
    assert [l.rsplit(",", 1)[0] for l in again] == \
        [l.rsplit(",", 1)[0] for l in lines]


def test_csv_empty_report_list():
    assert csv_lines([]) == [CSV_HEADER]


def test_kq_plot_files(tmp_path):
    cfg = _cfg(suites=("kq-decay",), q=(0.5,), n_max=10,
               out_dir=str(tmp_path), emit_plot=True)
    reports = run(cfg)
    assert len(reports) == 3  # two defect fits plus one control
    for name in ("kq_alphastar_q0.5.dat", "kq_beta_q0.5.dat"):
        path = tmp_path / name
        assert path.exists(), name
        rows = [line.split() for line in path.read_text().strip().splitlines()]
        assert len(rows) >= 3
        # every level up to n_max = 5 has a nonzero norm here, and its row
        # starts with n written as "0", "0.5", "1", ...
        assert [a for a, _ in rows] == [f"{tn / 2:g}" for tn in range(11)]
        levels = [float(a) for a, _ in rows]
        lnn = [float(b) for _, b in rows]
        assert levels == sorted(levels)
        # past the pre-asymptotic region the log-norms decrease
        tail = [v for l, v in zip(levels, lnn) if l >= 2]
        assert all(tail[k + 1] < tail[k] for k in range(len(tail) - 1))

    # q values equal to six significant digits get a file each, holding
    # the same norms as a run of that q alone
    qs = (0.1234567, 0.1234568)
    both = tmp_path / "both"
    run(_cfg(suites=("kq-decay",), q=qs, n_max=10,
             out_dir=str(both), emit_plot=True))
    assert len(list(both.glob("kq_*.dat"))) == 4
    texts = {}
    for q in qs:
        alone = tmp_path / repr(q)
        run(_cfg(suites=("kq-decay",), q=(q,), n_max=10,
                 out_dir=str(alone), emit_plot=True))
        for gen in ("alphastar", "beta"):
            name = f"kq_{gen}_q{q!r}.dat"
            texts[gen, q] = (alone / name).read_text()
            assert (both / name).read_text() == texts[gen, q], name
    for gen in ("alphastar", "beta"):
        assert texts[gen, qs[0]] != texts[gen, qs[1]]


@pytest.mark.parametrize("cpus, qs", [
    (2, (0.3, 0.5, 0.7)),
    (3, (0.3, 0.5, 0.7)),
    (2, (0.3, 0.4, 0.5, 0.6, 0.7)),
], ids=["2", "3", "2-5q"])
def test_forked_passes_give_the_one_process_payload(tmp_path, monkeypatch,
                                                    cpus, qs):
    # process k runs every cpus-th pass from the k-th on, the family pass
    # last: with 2 CPUs a child runs 0.3 and 0.7 (0.3, 0.5 and 0.7 of five
    # q) and this process the rest; with 3 each q runs in its own process
    docs, plots = {}, {}
    for n in (1, cpus):
        _cpus(monkeypatch, n)
        out = tmp_path / str(n)
        run(_cfg(q=qs, out_dir=str(out), emit_plot=True))
        docs[n] = json.loads((out / "report.json").read_text())
        plots[n] = {p.name: p.read_text() for p in out.glob("kq_*.dat")}
        _assert_no_child_left()
    assert docs[cpus]["payload"] == docs[1]["payload"]
    assert docs[cpus]["meta"]["payload_sha256"] == \
        docs[1]["meta"]["payload_sha256"]
    assert len(docs[1]["payload"]["reports"]) == 27 * len(qs) + 1
    assert plots[cpus] == plots[1] and len(plots[1]) == 2 * len(qs)
    assert (docs[1]["meta"]["workers"], docs[cpus]["meta"]["workers"]) == \
        (1, cpus)
    # one q keeps every pass in this process, whatever the CPUs
    run(_cfg(suites=("decompose",), q=(0.5,), n_max=4,
             out_dir=str(tmp_path / "one")))
    doc = json.loads((tmp_path / "one" / "report.json").read_text())
    assert doc["meta"]["workers"] == 1


@pytest.mark.parametrize("cpus, qs, forks", [
    (2, (0.3, 0.5, 0.7), 1),
    (3, (0.3, 0.5, 0.7), 2),
    (2, (0.5,), 0),
    (1, (0.3, 0.5, 0.7), 0),
])
def test_a_run_forks_one_child_per_share_but_the_last(monkeypatch, cpus, qs,
                                                      forks):
    # min(CPUs, number of q) shares, and this process runs the last
    real, calls = os.fork, []

    def counted():
        calls.append(None)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    _cpus(monkeypatch, cpus)
    run(_cfg(suites=("decompose",), q=qs, n_max=4))
    assert len(calls) == forks
    _assert_no_child_left()


def test_a_failed_child_pass_reaches_the_cli(monkeypatch, capsys):
    # q = 1e-100 overflows in a child; the last q runs in this process
    _cpus(monkeypatch, 2)
    assert main(["relations", "--nmax", "4", "--q", "1e-100",
                 "--q", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err
    _assert_no_child_left()


@pytest.mark.parametrize("qs, error, match", [
    ((1e-100, 1e-3), OverflowError, None),  # the child's, not ours
    ((1e-3, 1e-100), ValueError, "decay_fit"),  # and the other way round
])
def test_the_first_failed_q_raises(monkeypatch, qs, error, match):
    # at n_max 4 the relations overflow at q = 1e-100, and at q = 1e-3 they
    # pass but the kq fit finds too few levels above the floor
    _cpus(monkeypatch, 2)
    with pytest.raises(error, match=match):
        run(_cfg(suites=("relations", "kq-decay"), q=qs))
    _assert_no_child_left()


def test_a_killed_child_raises_runtime_error(monkeypatch):
    real = harness._pass

    def killed_at_0_3(cfg, q, intertwine):
        if q == 0.3:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cfg, q, intertwine)

    monkeypatch.setattr(harness, "_pass", killed_at_0_3)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"q=0\.3 .*exit status -9"):
        run(_cfg(suites=("decompose",), q=(0.3, 0.5), n_max=4))
    _assert_no_child_left()


def test_a_run_that_cannot_fork_exits_2_and_closes_its_pipe(monkeypatch,
                                                             capsys):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 2)
    fds = len(os.listdir("/proc/self/fd"))
    assert main(["decompose", "--nmax", "4", "--q", "0.3", "--q", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert len(os.listdir("/proc/self/fd")) == fds


def test_an_interrupt_stops_and_reaps_the_children(monkeypatch):
    # this process's pass is interrupted while the child's still runs
    def slow_or_interrupted(cfg, q, intertwine):
        if q == 0.5:
            raise KeyboardInterrupt
        time.sleep(60.0)

    monkeypatch.setattr(harness, "_pass", slow_or_interrupted)
    _cpus(monkeypatch, 2)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run(_cfg(suites=("decompose",), q=(0.3, 0.5), n_max=4))
    assert time.perf_counter() - t0 < 30.0
    _assert_no_child_left()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["decompose", "--nmax", "4", "--q", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "1/1 cells passed" in out

    assert main(["relations", "--nmax", "6", "--q", "0.5"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out and "5/10 cells passed" in out

    assert main(["decompose", "--nmax", "4", "--q", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err

    assert main(["kq-decay", "--nmax", "10", "--q", "0.5", "--plot"]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err


def test_cli_out_under_a_regular_file_is_an_io_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main(["decompose", "--nmax", "4", "--q", "0.5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count(str(out)) == 1


def test_cli_report_file_that_is_a_directory_is_an_io_error(tmp_path,
                                                            capsys):
    (tmp_path / "report.json").mkdir()
    assert main(["decompose", "--nmax", "4", "--q", "0.5",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / "report.json") in err


def test_cli_extreme_q_is_a_config_error(capsys):
    # [m] = (q^m - q^-m) / (q - 1/q) needs q^-m, beyond double range here
    assert main(["relations", "--nmax", "4", "--q", "1e-100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err


def test_cli_tolerance_flags(capsys):
    # every gate is a constant: no tolerance is an option
    for gone in ("--tol-relation", "--tol-adjoint", "--tol-norm",
                 "--tol-gram"):
        with pytest.raises(SystemExit) as exc:
            main(["relations", "--nmax", "4", gone, "1e-10"])
        assert exc.value.code == 2  # a parse error
    capsys.readouterr()
    # the hatted cells fail the fixed relation gate by design
    assert main(["relations", "--nmax", "4", "--q", "0.5"]) == 1
    out = capsys.readouterr().out
    assert out.count("(gate <= 1e-10)") == 10
    assert "5/10 cells passed" in out


def test_cli_minimality_at_extreme_q(capsys):
    # assembly keeps q^1 = 5e-324, so the certificate holds down to the
    # smallest double and up to the largest double below 1
    assert main(["minimality", "--nmax", "16", "--q", "5e-324",
                 "--q", "1e-100", "--q", "0.9999999999999999"]) == 0
    out = capsys.readouterr().out
    assert "3/3 cells passed" in out
    # q prints exactly, as in the plot file names: not rounded to q=1
    for q in ("5e-324", "1e-100", "0.9999999999999999"):
        assert f" q={q} " in out
    assert " q=1 " not in out


def test_cli_nmax_default_is_the_config_default():
    assert build_parser().parse_args(["family"]).nmax == DEFAULT_N_MAX == 16


def test_suites_tuple_matches_cli():
    assert SUITES == ("relations", "decompose", "kq-decay", "asymptotics",
                      "commutators", "minimality", "family")
