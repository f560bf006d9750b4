"""Tests of the benchmark itself: span arithmetic, tracing and a tiny run
of every workload.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

TINY = {
    "train": {"materials": 10},
    "infer": {"store": 8, "shard": 4, "oracle": 1},
    "similarity": {"volumes": (12.0,), "pool": 600},
}


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span(1, "root", 0.0, 10.0),
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(1, "b", 3.0, 6.0, parent=0),  # overlaps a: 3..4 counted once
        Span(1, "a.child", 2.0, 3.0, parent=1),
        Span(1, "late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert spans.self_times([Span(7, "x", 2.5, 4.0)]) == [1.5]


def test_neighbor_parse_share_counts_skipped_neighbours():
    tree = [
        Span(1, "cli.infer", 0.0, 1.0),
        Span(1, "evaluate.parse_answer_value", 0.1, 0.2, parent=0),
        Span(1, "evaluate.parse_answer_value", 0.3, 0.4, parent=0),
        Span(1, "evaluate.parse_answer_value", 0.5, 0.6, parent=0,
             failed=True),
        Span(2, "cli.infer", 2.0, 3.0),
        Span(2, "evaluate.parse_answer_value", 2.1, 2.2, parent=4,
             failed=True),
    ]
    out = spans.layer_metrics(tree, samples=2, rag_k=2)
    assert out["rag.neighbor_parse_share"] == (0.5, "share")
    assert out["rag.neighbor_decodes_skipped"] == (2, "count")
    assert out["evaluate.parse_answer_value.failures"] == (2, "count")
    assert out["cli.infer.calls"] == (2, "count")


def test_tracer_wraps_every_namespace_and_restores_it():
    from matterbridge import cli, evaluate, lm

    original = evaluate.generate_answer
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.generate_answer is evaluate.generate_answer
        assert evaluate.generate_answer is not original
        assert lm.lm_forward.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert cli.generate_answer is original
    assert evaluate.generate_answer is original


def test_benchmark_json_names_every_metric_the_code_emits():
    bench = benchmark_json()
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = spans.layer_metrics([], samples=0, rag_k=2)
    emitted = {k: unit for k, (_, unit) in emitted.items()}
    emitted.update({"trace.overhead_s": "s", "trace.overhead_share": "share"})
    assert per_layer == emitted
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0, trace=0,
                           work=str(tmp_path), sizes=TINY)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    expected.pop("setup_s")  # measured by run.py
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer(tmp_path):
    result = workloads.run("infer", seed=3, seconds=0, trace=1,
                           work=str(tmp_path), sizes=TINY)
    assert result["failed"] == 0, result["problems"]
    names = {m["name"] for m in benchmark_json()["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    # one cycle through the 9 tasks, with a write before every 3 reads
    assert metrics["cli.infer.calls"] == 9
    assert metrics["cli.embed.calls"] == 3
    assert metrics["rag.EmbeddingStore.save.calls"] == 3
    assert metrics["rag.store_rows"] == TINY["infer"]["store"]
    assert metrics["lm.symbols"] > 0


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
