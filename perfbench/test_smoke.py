"""Smoke test of the benchmark: every workload, at tiny scale, passes
its output checks and emits every metric ``BENCHMARK.json`` names, with
its unit; and tracing survives layer functions that no longer exist.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["build-facebook-k5", "ags-yelp-k4", "naive-berkstan-k4"]
SEED = 7

sys.path.insert(0, str(HERE))
import spans  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    out = run(workload, trace=1)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    assert {n: m["unit"] for n, m in out["metrics"].items()} == units("per_layer")
    results = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-tiny-seed{SEED}-trace1.json").read_text()
    )
    # the untraced iterations of the same run give the end-to-end metrics
    assert {n: u for n, (_, u) in results["end_to_end"].items()} == units("end_to_end")
    assert results["absent"] == []
    assert {s["name"].split(".")[0] for s in results["spans"]} >= {"graphs", "buildup"}


def test_untraced_run():
    out = run("naive-berkstan-k4", trace=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {n: m["unit"] for n, m in out["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_tracer_skips_missing_functions(monkeypatch):
    fake = types.ModuleType("repro.benchfake")
    fake.f = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "repro.benchfake", fake)
    monkeypatch.setattr(spans, "TARGETS", [
        ("fake.f", "repro.benchfake", "f", False),
        ("fake.gone", "repro.benchfake", "gone", False),
        ("fake.nomodule", "repro.benchfake_missing", "g", False),
    ])
    tracer = spans.Tracer("run", spark_window=None)
    tracer.install()
    assert tracer.missing == ["repro.benchfake.gone", "repro.benchfake_missing.g"]
    assert fake.f(1) == 2 and tracer.spans == []
    tracer.active = True
    assert fake.f(1) == 2
    assert [(s.name, s.layer, s.parent, s.run_id) for s in tracer.spans] == [("fake.f", "fake", None, "run")]
