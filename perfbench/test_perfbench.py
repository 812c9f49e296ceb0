"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import farms as farmlib
import run
import speed

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Printed by name on every workload, besides the metrics in BENCHMARK.json.
EXTRA = {0: ("ugv_late_s", "failed_frac", "setup_s_wall", "plan_s_p50_wall",
             "plans_per_s_wall", "host_speed"),
         1: ("solver.glns_s", "solver.restart_s", "solver.exact_s")}


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(farmlib.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", "4", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert printed >= {m["name"] for m in spec} | set(EXTRA[trace])
    fields = json.loads(next(line for line in lines
                             if line.startswith("fields "))[len("fields "):])
    assert len(fields["makespans"]) == len(
        farmlib.make_farms(workload, 4, tiny=True))
    assert len(fields["plans_sha256"]) == 64


def _planned():
    farm = farmlib.make_farms("exact-small", 1, tiny=True)[0]
    return farm, run.plan_farm(farm)


def test_gate_passes_a_correct_plan():
    farm, planned = _planned()
    assert run.gate(farm, planned) == []


def test_gate_trips_on_a_changed_leg_duration():
    farm, planned = _planned()
    legs = list(planned.plan.uav_legs)
    legs[0] = dataclasses.replace(legs[0], duration=legs[0].duration + 1.0)
    bad_plan = dataclasses.replace(planned.plan, uav_legs=tuple(legs))
    bad = dataclasses.replace(
        planned, plan=bad_plan,
        issues=run.planning.validate(bad_plan, farm.cells, farm.cfg))
    assert any("time-mismatch" in reason for reason in run.gate(farm, bad))


def test_gate_trips_on_a_changed_total_time():
    farm, planned = _planned()
    bad_plan = dataclasses.replace(planned.plan,
                                   total_time=planned.plan.total_time + 1e-6)
    bad = dataclasses.replace(planned, plan=bad_plan)
    assert any("total_time" in reason for reason in run.gate(farm, bad))


def test_corrupted_decode_fails_the_farm(monkeypatch):
    decode = run.planning.decode

    def corrupt(g, tour, cfg):
        p = decode(g, tour, cfg)
        leg = dataclasses.replace(p.uav_legs[-1],
                                  duration=p.uav_legs[-1].duration * 2)
        return dataclasses.replace(p, uav_legs=p.uav_legs[:-1] + (leg,))

    monkeypatch.setattr(run.planning, "decode", corrupt)
    loop = run.closed_loop(farmlib.make_farms("exact-small", 1, tiny=True),
                           0.0, None)
    assert loop.attempted == 1 and loop.failed == 1
    assert loop.plan_s == []


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("--workload", "exact-small", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_plan_time_scales_by_the_blocks_near_the_plan():
    probe = speed.SpeedProbe()
    # Blocks at half the reference time near the plan, slow ones far away.
    probe.samples = [(t / 10, speed.REF_BLOCK_S / 2) for t in range(10, 21)]
    probe.samples += [(t, speed.REF_BLOCK_S * 4) for t in (-5.0, 9.0)]
    assert probe.factor(1.4, 1.6) == pytest.approx(2.0)
    assert run.in_reference_s([(1.4, 0.2)], probe) == [pytest.approx(0.4)]
