"""Command-line front end: one subcommand per verification suite plus `all`.

The truncation is passed as the package holds it, a doubled integer
(--nmax 16 means n_max = 8), so the command line stays exact.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import DEFAULT_N_MAX, DEFAULT_Q, SUITE_TABLE, RunConfig, run


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", action="append", type=float, metavar="Q",
                        help="modulus in (0, 1); repeatable "
                             f"(default: {' '.join(map(str, DEFAULT_Q))})")
    common.add_argument("--nmax", type=int, default=DEFAULT_N_MAX,
                        metavar="TWICE_N",
                        help="truncation as a doubled integer, n_max = "
                             "TWICE_N / 2 (default: %(default)s)")
    common.add_argument("--out", default=None, metavar="DIR",
                        help="write report.json and report.csv here")
    common.add_argument("--plot", action="store_true",
                        help="also write kq_<gen>_q<q>.dat plot data "
                             "(needs --out)")

    p = argparse.ArgumentParser(
        prog="diraclab",
        description="Numerical verification lab for equivariant Dirac "
                    "operators on quantum SU(2).")
    sub = p.add_subparsers(dest="suite", required=True, metavar="SUITE")
    for s, suite in SUITE_TABLE.items():
        sub.add_parser(s, parents=[common], help=suite.help)
    sub.add_parser("all", parents=[common],
                   help="every suite above, in canonical order")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        q=tuple(args.q) if args.q else DEFAULT_Q,
        n_max=args.nmax,
        suites=tuple(SUITE_TABLE) if args.suite == "all" else (args.suite,),
        out_dir=args.out,
        emit_plot=args.plot,
    )
    try:
        reports = run(cfg)
    except (ValueError, OSError) as e:  # a bad config, or --out unwritable
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:  # q^{-m} beyond double range at tiny q
        print("error: floating-point overflow at this q and n_max: "
              f"{e.args[-1]}", file=sys.stderr)  # the text, not its errno
        return 2
    for r in reports:
        mark = "PASS" if r.passed else "FAIL"
        qtxt = "q=*" if r.q is None else f"q={r.q!r}"
        print(f"[{mark}] {r.suite:11s} {r.label:22s} {qtxt:7s} "
              f"{r.gate_metric}={r.metrics[r.gate_metric]:.6g} "
              f"(gate {r.gate_op} {r.gate_value:g})")
    npass = sum(r.passed for r in reports)
    print(f"{npass}/{len(reports)} cells passed")
    return 0 if npass == len(reports) else 1


def console() -> None:
    """The ``diraclab`` command: ``main()``, a flush of stdout and stderr,
    then ``os._exit`` with main's status, which skips the interpreter's
    teardown (report.json and report.csv are closed by then).

    A reader that closed the table's pipe ends the command quietly with
    status 1, as in the Python docs' recipe for SIGPIPE; any other error
    writing stdout (a full disk) prints ``error: ...`` and exits 2, as an
    unwritable ``--out`` does.
    """
    try:
        try:
            code = main()
        except SystemExit as e:  # argparse: --help, or a bad argument
            code = e.code
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1  # the unflushed rest of the table is dropped at _exit
    except OSError as e:
        print(f"error: cannot write the table: {e}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console()
