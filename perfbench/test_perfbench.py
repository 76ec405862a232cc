"""Tests of the benchmark itself (``pytest perfbench -q``; tier-1 does not
collect this directory).  Everything runs at ``--scale 0.02`` sizes."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import blast_cold_hot, cli, harness, sim_scale, sut

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = "0.02"


def run(*args):
    proc = subprocess.run(
        [sys.executable, harness.RUN_PY, *args], capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


@pytest.fixture(scope="module")
def spec():
    return cli.load_spec()


def test_spec_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perfbench"] and spec["command"][-1] == "perfbench/run.py"
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert os.path.exists(os.path.join(harness.HERE, f"{w['name']}.py"))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_exactly_the_metrics_of_the_spec(spec, trace, kind):
    code, result = run(
        "--workload", "sim_scale", "--seed", "3", "--trace", trace, "--scale", SCALE
    )
    assert code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[kind]}
    assert {n: e["unit"] for n, e in result["metrics"].items()} == want
    assert all(isinstance(e["value"], float) for e in result["metrics"].values())
    if kind == "end_to_end":
        assert all(e["value"] > 0 for e in result["metrics"].values())


def test_virtual_results_are_bit_identical_across_runs(tmp_path):
    params = dict(sim_scale.plan(seed=5, seconds=20, scale=0.05), traced=False)
    keys = {
        "blast": ("cold_virtual_makespan_s", "hot_virtual_makespan_s"),
        "stream": ("stream_virtual_makespan_s", "latency_p50_ms", "latency_p90_ms"),
    }
    for phase, fields in keys.items():
        first, second = (
            harness.run_phase("sim_scale", phase, dict(params, root=str(tmp_path)))
            for _ in range(2)
        )
        assert first["failed"] == second["failed"] == 0
        for field in fields:
            assert first[field] == second[field], field  # exact, not approximate


def test_seeded_inputs_are_byte_identical(tmp_path):
    def digest(seed, where):
        path = blast_cold_hot.make_asset(seed, 8, str(tmp_path / where))
        with open(path, "rb") as f:
            return hashlib.md5(f.read()).hexdigest()

    assert digest(7, "a") == digest(7, "b") != digest(8, "c")
    assert blast_cold_hot.job_offsets(7, 3, 8) == blast_cold_hot.job_offsets(7, 3, 8)


def test_corrupted_digest_fails_the_run():
    args = ("--workload", "blast_cold_hot", "--seed", "2", "--scale", SCALE)
    code, result = run(*args)
    assert code == 0 and result["correct"] and result["failed"] == 0
    code, result = run(*args, "--corrupt")
    assert code != 0 and result["correct"] is False and result["failed"] >= 1


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(cli.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_every_symbol_in_sut_exists():
    assert sut.check_surface() == []
