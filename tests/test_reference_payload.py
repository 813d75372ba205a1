"""The default run against the benchmark's committed reference payload.

Every cell of ``perfbench/reference/all-default.json`` must be reported by
``run(RunConfig())`` with the same pass flag and gate, and metrics within
the benchmark's own tolerances (``oracles.check_against_reference``).  Cells
the reference lacks are allowed, so a new suite or label does not trip it.
The test reads the files under ``perfbench/`` and writes nothing.
"""

import json
import os
import sys

from diraclab.harness import RunConfig, payload_dict, run

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import oracles  # noqa: E402


def test_default_run_matches_reference_payload():
    with open(os.path.join(PERFBENCH, "reference", "all-default.json")) as fh:
        reference = json.load(fh)["reports"]
    cfg = RunConfig()
    cells = {oracles.cell_key(c): c
             for c in payload_dict(run(cfg), cfg)["reports"]}
    errors = {}
    for ref in reference:
        key = oracles.cell_key(ref)
        cell = cells.get(key)
        errs = (["cell missing"] if cell is None
                else oracles.check_against_reference(cell, ref))
        if errs:
            errors[key] = errs
    assert reference and not errors, errors
