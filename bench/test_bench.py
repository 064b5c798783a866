"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run every workload at ``--tiny`` size, and feed deliberately corrupted
results to the gates.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import biheyt  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lib import Lib  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    record = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed3-trace{trace}-tiny.json").read_text())
    prov = record["provenance"]
    for key in ("seed", "seconds", "python", "commit", "nproc", "limits"):
        assert key in prov
    assert record["fail_ratio"] == 0
    if trace:
        assert "tracing_overhead_s" in record["detail"]
        assert record["detail"]["replay_mismatches"] == 0


def plain_lib():
    return Lib(spans.NullTracer())


def complement(op):
    def corrupted(*args):
        out = op(*args)
        return biheyt.ClopenSubobject(
            out.poset, ((1 << out.poset.total_bits) - 1) ^ out.bits)
    return corrupted


@pytest.mark.parametrize("name", ["heyting_not", "coheyting_not",
                                  "heyting_implies", "coheyting_subtract"])
def test_complemented_algebra_result_fails_the_gate(name):
    wl = workloads.AlgebraMix(workloads.TINY)
    lib = plain_lib()
    state = wl.setup(lib, 5)
    assert wl.check(state, wl.round(state, lib, [])) == (wl.ops(state), 0)
    setattr(lib, name, complement(getattr(lib, name)))
    attempted, failed = wl.check(state, wl.round(state, lib, []))
    assert attempted == wl.ops(state)
    assert failed > 0


def test_regular_predicate_contradicting_tight_fails_the_gate():
    wl = workloads.AlgebraMix(workloads.TINY)
    lib = plain_lib()
    state = wl.setup(lib, 5)
    lib.is_heyting_regular = lambda s: False
    assert wl.check(state, wl.round(state, lib, []))[1] > 0


def test_changed_cli_output_fails_the_gate(tmp_path):
    wl = workloads.CliMix(workloads.TINY, tmp_path / "work")
    lib = plain_lib()
    state = wl.setup(lib, 7)
    records = wl.round(state, lib, [])
    assert wl.check(state, records) == (len(records), 0)
    cmd, rc, out = records[0]
    records[0] = (cmd, rc, out.replace("1", "0", 1) + " ")
    assert wl.check(state, records) == (len(records), 1)
    records[0] = (cmd, 1, out)
    assert wl.check(state, records) == (len(records), 1)


def test_failed_law_check_fails_the_gate(tmp_path):
    wl = workloads.LawsOracle(workloads.TINY, tmp_path / "work")
    lib = plain_lib()
    state = wl.setup(lib, 7)
    (cmd, rc, out), = wl.round(state, lib, [])
    assert wl.check(state, [(cmd, rc, out)]) == (1, 0)
    bad = out.replace('"passed":true', '"passed":false')
    assert wl.check(state, [(cmd, rc, bad)]) == (1, 1)


def test_reordered_enumeration_fails_the_gate():
    wl = workloads.EnumB4(workloads.TINY)
    lib = plain_lib()
    state = wl.setup(lib, 0)
    subs = wl.round(state, lib, [])
    assert wl.check(state, subs) == (len(subs), 0)
    swapped = (subs[1], subs[0]) + subs[2:]
    assert wl.check(state, swapped) == (len(subs), len(subs))
    assert wl.check(state, subs[:-1])[1] == len(subs)


def test_pace_scales_by_the_probe_time_and_leaves_probes_out():
    p = pace.Pace()
    p.starts, p.ends = [0.0, 0.010, 0.020], [0.001, 0.011, 0.021]
    # 8 ms before the second probe and 4 ms after it, at 1 ms a probe
    assert p.scaled(0.002, 0.015) == pytest.approx(
        0.012 * pace.REFERENCE_S / 0.001)
    slow = pace.Pace()
    slow.starts, slow.ends = p.starts, [0.002, 0.012, 0.022]
    assert slow.scaled(0.003, 0.015) == pytest.approx(
        0.010 * pace.REFERENCE_S / 0.002)
    with pytest.raises(ValueError):
        p.scaled(0.002, 0.025)


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli_mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
