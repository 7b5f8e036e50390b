"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=3, trace=0, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.2", "--trace", str(trace),
                             "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _ = result_of(bench(workload))
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, lines = result_of(bench(workload, trace=1))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert result["metrics"]["trace.skipped_wrappers"]["value"] == 0
    assert result["metrics"]["cli.dispatch.self_s"]["value"] > 0


def test_fingerprint_repeats_for_a_seed_and_follows_it():
    first = result_of(bench("chain-fluid", seed=5))[1][-3]
    again = result_of(bench("chain-fluid", seed=5))[1][-3]
    other = result_of(bench("chain-fluid", seed=6))[1][-3]
    assert first.startswith("fingerprint ")
    assert first == again
    assert first != other


def test_declared_per_layer_metrics_match_the_tracer():
    names = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert names == ([(n, u) for n, u, _, _ in spans.SPECS]
                     + spans.TRACE_METRICS)


def test_missing_target_is_skipped_and_originals_restored():
    def f(x):
        return x + 1
    modules = {name: types.SimpleNamespace() for name, *_ in spans.TARGETS}
    modules["files"].read_config = f
    tracer = spans.Tracer()
    tracer.install(modules)
    assert "files.read_config" not in tracer.skipped
    assert len(tracer.skipped) == len(spans.TARGETS) - 1
    assert modules["files"].read_config is not f
    with tracer.command(phase="pass", unit=0, cfg="sq4"):
        assert modules["files"].read_config(1) == 2
    assert modules["files"].read_config(1) == 2      # outside a command
    tracer.uninstall()
    assert modules["files"].read_config is f
    assert [s[3] for s in tracer.spans] == ["files.read_config"]


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.02), "verifier.overlap_audit",
                         None)
    outer = tracer._wrap(lambda: (inner(), time.sleep(0.01)),
                         "verifier.contact_graph", None)
    with tracer.command(phase="pass", unit=0, cfg="sq4"):
        outer()
    totals = spans.unit_totals(tracer)[("pass", 0)]
    outer_self = totals[("verifier.contact_graph", "self", "sq4")]
    outer_dur = totals[("verifier.contact_graph", "dur", "sq4")]
    inner_dur = totals[("verifier.overlap_audit", "dur", "sq4")]
    assert outer_self == pytest.approx(outer_dur - inner_dur)
    assert 0.01 <= outer_self < inner_dur


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("certify", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_wrong_result_turns_correct_false(monkeypatch, capsys):
    import run
    metropolis = run._import_jampack()["metropolis"]
    real = metropolis.run_chain

    def accepts_one(*args, **kwargs):
        final, stats = real(*args, **kwargs)
        stats.accepted = 1
        return final, stats
    monkeypatch.setattr(metropolis, "run_chain", accepts_one)
    assert run.main(["--workload", "chain-frozen", "--seed", "3",
                     "--seconds", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0


def test_pair_checks_find_contacts_and_overlaps():
    import run
    r = 0.5
    touching = run.np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    assert run.contact_pairs(touching, r) == 1
    assert run.overlapping_pairs(touching, r) == 0
    close = run.np.array([[0.0, 0.0], [0.95, 0.0], [5.0, 5.0], [5.0, 5.5]])
    assert run.contact_pairs(close, r) == 0
    assert run.overlapping_pairs(close, r) == 2
