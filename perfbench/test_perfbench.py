"""Tests of the benchmark itself: the output gate, the tracer and the run contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pblocks  # noqa: E402
from pblocks import chartab, corpus, harness  # noqa: E402
from pblocks.errors import BlockEngineError  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CorpusWorkload,
    ModularChar2Workload,
    OrdinaryTablesWorkload,
    gate,
    load_reference,
)

S6_TABLE = (("S6", lambda: corpus.symmetric_group(6)),)
A5_CHAR2 = (("A5", lambda: corpus.alternating_group(5)),)


def one_op(workload_name: str):
    """Return a workload restricted to one cheap operation."""
    if workload_name == "corpus":
        return CorpusWorkload(entries=(corpus.corpus_entry("S3"),), scenarios=(), fixtures=())
    if workload_name == "modular-char2":
        return ModularChar2Workload(A5_CHAR2)
    return OrdinaryTablesWorkload(S6_TABLE)


def failures(workload, seed: int = 0, reference=None) -> list:
    if reference is None:
        reference = load_reference()[workload.name]
    outcomes, _, _ = workload.run(workload.setup(), seed)
    return gate(outcomes, reference)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_operation_per_workload_passes_the_gate(name):
    assert failures(one_op(name)) == []


def test_tampered_digest_counts_as_failure():
    reference = dict(load_reference()["ordinary-tables"])
    reference["S6"] = "0" * 64
    assert failures(OrdinaryTablesWorkload(S6_TABLE), reference=reference) == ["S6"]


def test_raising_operation_counts_as_failure_and_others_still_run(monkeypatch):
    real = harness.analyze_group

    def flaky(group, p, seed=0, name="group"):
        if name == "PSL(2,7)":
            raise BlockEngineError("injected")
        return real(group, p, seed=seed, name=name)

    monkeypatch.setattr(harness, "analyze_group", flaky)
    workload = ModularChar2Workload(
        (("PSL(2,7)", corpus.projective_special_linear_2_7),) + A5_CHAR2)
    assert failures(workload) == ["PSL(2,7):2"]


def test_corpus_error_fails_every_operation_of_the_pass(monkeypatch):
    def boom(*args, **kwargs):
        raise BlockEngineError("injected")

    monkeypatch.setattr(harness, "analyze_group", boom)
    assert failures(one_op("corpus")) == ["S3:2", "S3:3"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_holds_for_two_seeds(name):
    workload = WORKLOADS[name]()
    reference = load_reference()[name]
    for seed in (1, 2):
        outcomes, _, _ = workload.run(workload.setup(), seed)
        assert sorted(o.op for o in outcomes) == sorted(reference)
        assert gate(outcomes, reference) == []


def test_tracer_spans_and_uninstall():
    original = chartab.character_table
    tracer = Tracer().install()
    try:
        assert chartab.character_table is not original
        workload = OrdinaryTablesWorkload(S6_TABLE)
        workload.run(workload.setup(), 0)
    finally:
        tracer.uninstall()
    assert chartab.character_table is original
    assert pblocks.character_table is original
    metrics = layer_metrics(tracer)
    assert metrics["chartab.table_calls"] == 1
    assert metrics["modrep.chop_calls"] == 0 and metrics["modrep.self_s"] == 0
    assert metrics["cyclotomic.cyc_ops"] > 0
    assert metrics["ffield.prime.mul_calls"] > 0
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(tracer.self_times()) == pytest.approx(roots)


def test_tracer_counts_modrep_work_per_operation():
    tracer = Tracer().install()
    try:
        workload = ModularChar2Workload(A5_CHAR2)
        outcomes, _, _ = workload.run(workload.setup(), 0)
    finally:
        tracer.uninstall()
    assert gate(outcomes, load_reference()["modular-char2"]) == []
    metrics = layer_metrics(tracer)
    assert metrics["modrep.chop_calls"] >= 1
    assert 0 < metrics["modrep.iso_match_ratio"] <= 1
    assert 0 <= metrics["modrep.tensor_new_ratio"] <= 1
    assert tracer.op_facts["A5:2"] == {"field_q": 16, "max_module_dim": 16}
    assert {span[4] for span in tracer.spans} == {"A5:2"}


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()
    assert list(run.WORKLOADS) == list(WORKLOADS)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ordinary-tables", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    spec = run.spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
