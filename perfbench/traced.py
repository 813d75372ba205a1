"""Run diraclab CLI invocations in one process under the outside-in tracer.

    python3 perfbench/traced.py OUT.json '[["minimality", "--nmax", "16"]]'

The second argument is a JSON list of argument lists, run one after another
through ``diraclab.cli.main``.  OUT.json receives the seconds and exit
status of each invocation and the tracer's self times, calls and work
counts.  ``run.py --trace 1`` runs this as a child process, so that a traced
round can be stopped at the benchmark's deadline like any other.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(out_path, commands):
    import diraclab.cli  # the tracer patches modules that are loaded
    from tracer import Tracer

    seconds, status = [], []
    tracer = Tracer()
    with tracer:
        for argv in commands:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = diraclab.cli.main(argv)
                except SystemExit as e:  # argparse rejects the arguments
                    code = 0 if e.code is None else e.code
                except Exception as e:  # a crash fails the cells it owes
                    print(f"traced: {' '.join(argv)} raised {e!r}",
                          file=sys.stderr)
                    code = -1
            seconds.append(time.perf_counter() - t0)
            status.append(code)
    with open(out_path, "w") as fh:
        json.dump({"seconds": seconds, "status": status,
                   "self_s": tracer.self_s, "calls": tracer.calls,
                   "work": tracer.work, "distinct": len(tracer.distinct)},
                  fh)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    main(sys.argv[1], json.loads(sys.argv[2]))
