"""Tests of the benchmark itself, on shrunken workloads.

Run from the root of the repository: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "quadratic_tune": workloads.QuadraticTune(
        size=8, kappa=100.0, cli_steps=20, instances=2, steps=40, lrs=(("swan", 3e-2), ("adam", 3e-2))
    ),
    "swan_wide": workloads.SwanWide(
        m=16, n=64, target=0.3, plan=(("swan", 0.1, 10), ("adam", 0.2, 20), ("sgd", 0.019, 10))
    ),
    "mlp_minibatch": workloads.MlpMinibatch(
        instances=2, target=0.3, window=5, caps=(("swan", 300), ("adam", 600)), layer_dims=(4, 8, 2)
    ),
}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_derived_seeds_are_distinct():
    seeds = [
        workloads.derive_seed(seed, role, index)
        for seed in range(40)
        for role in ("problem", "init", "batch")
        for index in (0, 1, 2, 17, 4095, (1 << 20) - 1)
    ]
    # QuadraticProblem.seeded(s) also draws with s + 1, which must stay unused
    taken = seeds + [s + 1 for s in seeds]
    assert len(set(taken)) == len(taken)
    with pytest.raises(ValueError):
        workloads.derive_seed(-1, "problem")
    with pytest.raises(ValueError):
        workloads.derive_seed(0, "batch", 1 << 20)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_passes_are_bit_identical(name, tmp_path):
    workload = TINY[name]
    state = workload.setup(3)
    plain = workload.run_pass(state, tmp_path)
    spans = tracer.Tracer()
    with tracer.patched(spans, "swanopt", measure.TRACED, measure.WORK):
        traced = workload.run_pass(state, tmp_path)
    assert traced.outputs == plain.outputs
    assert spans.summary()["optimizers.swan_step"]["calls"] > 0
    # the wrappers are gone after the block
    assert workload.run_pass(state, tmp_path).outputs == plain.outputs
    # one call per step and weight block, and a second one for a tall block,
    # which swan_step hands to itself transposed
    per_step = [sum(2 if w.shape[0] > w.shape[1] else 1 for w in r.final) for r in traced.runs["swan"]]
    assert spans.summary()["optimizers.swan_step"]["calls"] == sum(
        r.steps * n for r, n in zip(traced.runs["swan"], per_step)
    )


@pytest.fixture
def no_reference(monkeypatch):
    """The shrunken workloads match no recorded reference."""
    monkeypatch.setattr(workloads, "load_reference", lambda name, seed: None)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_benchmark_json(name, trace, tmp_path, no_reference):
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    result = measure.measure(TINY[name], 0, 0.0, trace, tmp_path)
    listed = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_gate_flags_a_wrong_reference(tmp_path, monkeypatch):
    quad = TINY["quadratic_tune"]
    done = quad.run_pass(quad.setup(0), tmp_path)
    reference = quad.reference_values(done)
    assert quad.compare(reference, reference) == []
    wrong = json.loads(json.dumps(reference))
    wrong["optimizers"]["adam"]["final_loss"] *= 1.001
    assert quad.compare(reference, wrong)
    wrong = json.loads(json.dumps(reference))
    wrong["optimizers"]["newton"]["steps_to_threshold"] = 2
    assert quad.compare(reference, wrong)

    wide = TINY["swan_wide"]
    values = wide.reference_values(wide.run_pass(wide.setup(0), tmp_path))
    assert wide.compare(values, values) == []
    assert wide.compare(values, {"swan_loss_ratio": values["swan_loss_ratio"] * 1.01})

    # a mismatch is a failed operation of a run that still completes
    monkeypatch.setattr(
        workloads, "load_reference", lambda name, seed: {"swan_loss_ratio": 1e6}
    )
    result = measure.measure(wide, 0, 0.0, False, tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["swan_loss_ratio"]["value"] == values["swan_loss_ratio"]


def test_gate_flags_a_run_that_misses_its_target(tmp_path):
    wide = replace(TINY["swan_wide"], target=1e-30)
    done = wide.run_pass(wide.setup(0), tmp_path)
    assert set(done.failures) == {"swan[0]", "adam[0]"}


def test_self_time_excludes_child_spans():
    spans = tracer.Tracer()

    def inner():
        return sum(range(20000))

    inner = spans.wrap("inner", inner)
    outer = spans.wrap("outer", lambda: inner() + inner())
    outer()
    inner()
    stats = spans.summary()
    assert stats["inner"]["calls"] == 3 and stats["outer"]["calls"] == 1
    nested = stats["outer"]["total_s"] - stats["outer"]["self_s"]
    assert 0 < nested <= stats["inner"]["total_s"]
    assert spans.count_under("inner", "outer") == 2


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "swan_wide", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
