"""The command as its users run it: ``python -m diraclab`` in a process of
its own, which leaves through ``cli.console`` and ``os._exit``."""

import json
import os
import subprocess
import sys

import pytest

import diraclab
from diraclab.harness import RunConfig, payload_hash, run, validate_config

SRC = os.path.dirname(os.path.dirname(diraclab.__file__))


def _diraclab(*args, **kwargs):
    """``python -m diraclab args``, stdout and stderr as text on pipes
    unless kwargs say otherwise."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "diraclab", *args],
                          env=dict(os.environ, PYTHONPATH=SRC), text=True,
                          **kwargs)


def _cells(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return len(json.load(fh)["payload"]["reports"])


def test_a_failing_run_writes_its_whole_table_and_exits_1():
    # 30 cells at the three default q, the hatted half failing by design;
    # the table reaches the pipe whole, so stdout was flushed before _exit
    out = _diraclab("relations", "--nmax", "4")
    lines = out.stdout.splitlines()
    assert out.returncode == 1 and out.stderr == ""
    assert len(lines) == 31
    assert sum(line.startswith("[FAIL] relations   hat:")
               for line in lines) == 15
    assert lines[-1] == "15/30 cells passed"


def test_a_passing_run_exits_0():
    out = _diraclab("decompose", "--nmax", "4")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "3/3 cells passed"


def test_a_bad_config_exits_2_with_its_message():
    out = _diraclab("kq-decay", "--nmax", "1")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == ("error: config: the kq-decay suite fits at least "
                          "three levels n in [2, n_max - 1] and needs n_max "
                          ">= 4 (--nmax 8)\n")


def test_a_closed_pipe_ends_quietly(tmp_path):
    # the reader is gone before the first write, as with `| head -0`
    p = subprocess.Popen(
        [sys.executable, "-m", "diraclab", "relations", "--nmax", "4",
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait() == 1
    assert err == ""
    assert _cells(tmp_path) == 30  # written before the table


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_a_full_stdout_is_an_error_with_status_2(tmp_path):
    with open("/dev/full", "w") as full:
        out = _diraclab("relations", "--nmax", "4", "--out", str(tmp_path),
                        stdout=full)
    assert out.returncode == 2
    assert out.stderr.startswith("error: cannot write the table: ")
    assert "No space left on device" in out.stderr
    assert "Traceback" not in out.stderr
    assert _cells(tmp_path) == 30


def test_the_process_writes_the_in_process_payload(tmp_path):
    out = _diraclab("relations", "--nmax", "6", "--q", "0.5", "--q", "0.8",
                    "--out", str(tmp_path))
    assert out.returncode == 1
    with open(tmp_path / "report.json") as fh:
        got = json.load(fh)["meta"]["payload_sha256"]
    cfg = validate_config(RunConfig(q=(0.5, 0.8), n_max=6,
                                    suites=("relations",)))
    assert got == payload_hash(run(cfg), cfg)
