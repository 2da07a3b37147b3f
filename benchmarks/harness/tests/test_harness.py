"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks/harness/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HARNESS))

import arith  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 60


def test_self_time_of_nested_spans():
    # a [0, 100] holds b [10, 40], which holds c [15, 25]; a also holds d [50, 90],
    # which shares b's name.
    name_ix = array("i", [0, 1, 2, 1])
    parent = array("i", [-1, 0, 1, 0])
    start = array("q", [0, 10, 15, 50])
    end = array("q", [100, 40, 25, 90])
    calls, self_ns = tracer.self_times(3, name_ix, parent, start, end)
    assert calls == [1, 2, 1]
    assert self_ns == [100 - 30 - 40, (30 - 10) + 40, 10]
    assert sum(self_ns) == 100


def _table_workload(tmp_path, monkeypatch, output: bytes):
    workload = workloads.CliWorkload("table", ["table", "3", "9", "--format", "csv"], "small", workloads._table_sample)
    workload.prepare(seed=5, workdir=tmp_path)
    reference = workloads.StreamCheck()
    reference.feed(output)
    monkeypatch.setitem(
        workloads.REFERENCE,
        "table",
        {"sha256": reference.digest.hexdigest(), "bytes": reference.bytes, "lines": reference.lines},
    )
    return workload


def _run_cli(tmp_path, argv, check, trace=False):
    side = tmp_path / "child"
    return run.spawn(run.child_cmd(side, trace, "cli", argv), side, check, time.monotonic() + DEADLINE_S)


def test_corrupted_output_byte_is_a_failed_operation(tmp_path, monkeypatch):
    argv = ["table", "3", "9", "--format", "csv"]
    clean = "\n".join(["p,q,q_inv,odd_rep_q,odd_rep_qinv,F,F_norm"] + [
        line for p in (3, 5, 7, 9) for line in arith.table_lines(p)
    ]).encode() + b"\n"
    workload = _table_workload(tmp_path, monkeypatch, clean)

    child = _run_cli(tmp_path, argv, workload.new_check())
    assert workload.judge(child.check, child.status) == (0, [])

    for position in (0, len(clean) // 2, len(clean) - 2):
        corrupted = bytearray(clean)
        corrupted[position] ^= 0x01
        check = workload.new_check()
        check.feed(bytes(corrupted[:position + 1]))
        check.feed(bytes(corrupted[position + 1:]))
        check.finish()
        failed, problems = workload.judge(check, 0)
        assert failed == 1 and problems


def test_nonzero_exit_is_a_failed_operation(tmp_path, monkeypatch):
    workload = _table_workload(tmp_path, monkeypatch, b"")
    child = _run_cli(tmp_path, ["table", "9", "3"], workload.new_check())
    assert child.status == 1
    failed, problems = workload.judge(child.check, child.status)
    assert failed == 1 and "exit status 1" in problems


def test_peak_rss_is_each_childs_own(tmp_path):
    def rss(code):
        side = tmp_path / "rss"
        child = run.spawn([sys.executable, "-c", code], side, workloads.StreamCheck(), time.monotonic() + DEADLINE_S)
        assert child.status == 0
        return child.rss_mb

    large = rss("block = bytearray(b'x') * (200 << 20)")
    small = rss("pass")
    assert large > 200
    assert small < 50


def test_wrong_query_answers_are_counted(tmp_path):
    workload = workloads.QueriesWorkload(count=2500)
    workload.prepare(seed=3, workdir=tmp_path)

    side = tmp_path / "child"
    child = run.spawn(
        run.child_cmd(side, False, "queries", workload.child_args()),
        side,
        workload.new_check(),
        time.monotonic() + DEADLINE_S,
    )
    assert workload.judge(child.check, child.status) == (0, [])
    assert len(array("q", (side / "latency.bin").read_bytes())) == 2500

    lines = child.check.kept
    lines[1] = " ".join(["-1"] * 3 + lines[1].split()[3:])
    assert workload.judge(child.check, 0)[0] == 3


def test_traced_child_wraps_every_binding_and_closes_the_sum(tmp_path):
    child = _run_cli(tmp_path, ["table", "3", "9", "--format", "csv"], workloads.StreamCheck(), trace=True)
    assert child.status == 0
    values = tracer.layer_metrics(child.side, child.wall_s)
    assert values["cli.main.calls"] == 1
    assert values["cli.table_rows.calls"] == 1
    # cli binds `units` by name: these calls only show if that binding was wrapped.
    assert values["modring.units.calls"] == 4
    assert values["sweeps.invariant_table.calls"] == 4
    assert values["sweeps.units_swept"] == sum(arith.totient(p) for p in (3, 5, 7, 9))
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total + values["trace.remainder_s"] == pytest.approx(child.wall_s)
    assert 0 < values["trace.remainder_s"] < child.wall_s


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/harness"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_metrics()
