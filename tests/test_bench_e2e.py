"""The performance-record script's handling of its output directory."""

import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                      "bench_e2e.py")


def _load():
    spec = importlib.util.spec_from_file_location("bench_e2e", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_out_directory_is_made_before_measuring(tmp_path, monkeypatch,
                                                        capsys):
    bench_e2e = _load()
    out = tmp_path / "fresh" / "nested"

    def record(repo):
        assert out.is_dir()  # made before anything is measured
        return {"tag": "stub", "workloads": {}}

    monkeypatch.setattr(bench_e2e, "record", record)
    assert bench_e2e.main(["--out", str(out)]) == 0
    path = out / "BENCH_stub.json"
    assert json.loads(path.read_text()) == {"tag": "stub", "workloads": {}}
    assert capsys.readouterr().out.strip() == str(path)
