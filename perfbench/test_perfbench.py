"""Self-tests of the benchmark on tiny plans (about 15 s in all).

Run from the repository root:  python -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload plan, and run from the checkout root."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(
        workloads, "CENSUS_STEPS", (workloads.CensusStep(5, 34, 220, 23, long_run=True),)
    )
    monkeypatch.setattr(workloads, "ASCENT_ORDERS", (6, 7))
    # greedy_ascent rejects orders below 5: a case that fails at once
    monkeypatch.setattr(workloads, "ASCENT_PINNED", ((4, 1),))
    monkeypatch.setattr(workloads, "EXACT_ORDERS", range(5, 9))
    monkeypatch.setattr(sys, "path", [os.path.join(ROOT, "src")] + sys.path)
    # a traced run wraps library functions in place; put the originals back
    package = importlib.import_module("signedspectra")
    targets = [package, package.SignedGraph]
    targets += [importlib.import_module(f"signedspectra.{layer}") for layer in tracing.LAYERS]
    saved = [(target, dict(vars(target))) for target in targets]
    yield
    for target, before in saved:
        for key, value in before.items():
            if vars(target)[key] is not value:
                setattr(target, key, value)


def bench(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tiny, capsys, workload, trace):
    result = bench(capsys, workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the pinned ascent case raises in every pass, untraced and traced
    assert result["failed"] == (1 + trace) * (workload == "ascent")


def test_wrong_expected_count_is_a_failed_operation(tiny, capsys, monkeypatch):
    wrong = workloads.CensusStep(5, 34, 220, 24, long_run=False)
    monkeypatch.setattr(workloads, "CENSUS_STEPS", (wrong,))
    result = bench(capsys, "census", 0)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_run_outside_a_checkout_fails_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "exact", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
