"""The benchmark's own tests: ``python3 -m pytest perfbench``.

Deterministic inputs, the decomposed fast path against the facade, the
output format of ``run.py`` and the documentation of every workload
and metric.  Run from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import layers  # noqa: E402
import ooc_tiled  # noqa: E402
import paper_ttm  # noqa: E402
import small_calls  # noqa: E402
from run import WORKLOADS, verdict  # noqa: E402

SMALL_PAPER = (((12, 10, 8), "col"), ((6, 5, 4, 3), "row"))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


# -- deterministic generators --------------------------------------------------


def test_small_calls_inputs_follow_the_seed():
    a, b, c = (small_calls.Inputs(s) for s in (5, 5, 6))
    for (xa, ua, ma, _), (xb, ub, mb, _), (xc, _uc, _mc, _) in zip(
            a.calls, b.calls, c.calls):
        assert ma == mb
        assert np.array_equal(xa.data, xb.data)
        assert np.array_equal(ua, ub)
        assert xa.shape == xc.shape and not np.array_equal(xa.data, xc.data)
    assert all(np.array_equal(u, v) for (_m, u), (_n, v) in
               zip(a.chain, b.chain))


def test_small_calls_mix_covers_dtypes_layouts_and_out():
    inp = small_calls.Inputs(0)
    sigs = {(x.shape, m) for x, _u, m, _o in inp.calls}
    assert len(inp.calls) + 1 == 21 and len(sigs) == 20
    assert {x.dtype.name for x, *_ in inp.calls} == {"float32", "float64"}
    assert {x.layout.name for x, *_ in inp.calls} == {"ROW_MAJOR",
                                                      "COL_MAJOR"}
    assert {u.shape[0] for _x, u, _m, _o in inp.calls} == {4, 8, 12, 16}
    assert sum(o is not None for *_r, o in inp.calls) == 5


def test_paper_operands_follow_the_seed(monkeypatch):
    monkeypatch.setattr(paper_ttm, "TENSORS", SMALL_PAPER)
    for index in range(len(SMALL_PAPER)):
        a, b, c = (paper_ttm.Operands(s, index) for s in (3, 3, 4))
        assert a.x.layout.name == ("COL_MAJOR" if index == 0
                                   else "ROW_MAJOR")
        assert np.array_equal(a.x.data, b.x.data)
        assert not np.array_equal(a.x.data, c.x.data)
        assert all(np.array_equal(a.us[m], b.us[m]) for m in a.us)


def test_paper_tensors_exceed_four_llcs():
    for shape, _layout in paper_ttm.TENSORS:
        assert 8 * np.prod(shape) >= 4 * 105 * 2**20


def test_ooc_input_follows_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(ooc_tiled, "WORK_DIR", str(tmp_path))
    monkeypatch.setattr(ooc_tiled, "SHAPE", (20, 6, 5))
    a = np.array(ooc_tiled.write_input(2).data)
    b = np.array(ooc_tiled.write_input(2).data)
    c = np.array(ooc_tiled.write_input(3).data)
    assert a.shape == (20, 6, 5)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


# -- the decomposed fast path --------------------------------------------------


def test_decomposed_path_is_bit_identical_to_the_facade():
    from repro import InTensLi

    lib = InTensLi()
    inp = small_calls.Inputs(11)
    for x, u, mode, out in inp.calls:
        want = lib.ttm(x, u, mode).data.copy()
        rec = harness.Recorder()
        got = layers.decomposed_ttm(lib, x, u, mode, rec=rec)
        assert np.array_equal(got.data, want)
        names = [s[2] for s in rec.spans]
        assert names == list(layers.FAST_PATH)
        if out is not None:
            layers.decomposed_ttm(lib, x, u, mode, out=out)
            assert np.array_equal(out.data, want)


def test_gemm_reference_matches_the_mode0_product():
    x = np.asfortranarray(np.random.default_rng(0).random((6, 6, 6)))
    u = np.random.default_rng(1).random((3, 6))
    run = harness.gemm_reference(x, u)
    run()
    rhs = harness.gemm_view(x, 6, 36)
    assert rhs.base is not None  # a view, not a copy
    assert np.allclose(u @ rhs, np.matmul(u, rhs))


def test_recorder_derives_self_time():
    rec = harness.Recorder()
    with rec.span("outer", 1):
        with rec.span("inner", 1):
            pass
    outer, inner = rec.spans
    self_us = rec.self_times_us()
    assert self_us[0] == pytest.approx(
        (outer[5] - outer[4] - (inner[5] - inner[4])) * 1e-3)
    assert rec.per_tag_us("inner").keys() == {1}


def test_window_summary_takes_medians_over_windows():
    windows = [harness.Window(4, 4_000, [1_000] * 4),
               harness.Window(4, 8_000, [2_000] * 4),
               harness.Window(4, 40_000, [10_000] * 4)]
    s = harness.window_summary(windows)
    assert s["ops_per_s"] == pytest.approx(4 / 8e-6)
    assert s["latency_p50_us"] == pytest.approx(2.0)


def test_failed_ops_make_the_run_incorrect(monkeypatch):
    from repro import InTensLi
    from repro.util.errors import ReproError

    def refuse(self, *args, **kwargs):
        raise ReproError("refused")

    monkeypatch.setattr(InTensLi, "ttm_chain", refuse)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 3)
    outcome = small_calls.measure(0, 0.2)
    assert outcome.wrong == 0 and outcome.failed > 0
    correct, failed = verdict(outcome, drift=[])
    assert not correct and failed == outcome.failed


def test_failed_calls_are_left_out_of_the_window():
    from repro.util.errors import ReproError

    def refuse():
        raise ReproError("refused")

    window, failures, last = harness.timed_calls([lambda: 1, refuse], 3)
    assert failures == 3 and window.ops == 3
    assert len(window.latencies_ns) == 3 and last == [1, None]


def test_setup_is_measured_in_reference_seconds(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 3)
    sampler = harness.SetupSampler(harness.reference_task)
    ratio = sampler.setup_s() / harness.REF_SECONDS
    assert len(sampler.ratios) == 3 and 0.3 < ratio < 3.0
    assert sampler.raw_s() > 0


def test_count_ledger_flags_drift(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    counts = {"work.flops_per_pass": 10, "plans": {"a": "blas/deg1"}}
    assert harness.check_counts("w", 1, counts, "v") == []
    assert harness.check_counts("w", 1, counts, "v") == []
    drifted = dict(counts, plans={"a": "blas/deg2"})
    assert harness.check_counts("w", 1, drifted, "v") == ["plans"]
    assert harness.check_counts("w", 1, drifted, "v2") == []


# -- the output format ---------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_carries_every_named_metric_with_its_unit(trace):
    spec = _spec()
    rows = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    proc = _run(ROOT, "--workload", "small_calls", "--seed", "0",
                "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        row["name"]: row["unit"] for row in rows}
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "small_calls", "--seed", "0",
                "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- documentation -------------------------------------------------------------


def test_every_workload_and_metric_is_documented():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for workload in WORKLOADS:
        module = sys.modules[workload]
        assert "Why this workload exists" in module.__doc__
        assert f"`{workload}`" in readme
    for row in spec["end_to_end"] + spec["per_layer"]:
        name = row["name"]
        # Metric families share a row: `plan.frac_of_exhaustive_min`, `_median`.
        assert f"`{name}`" in readme or f"`_{name.rsplit('_', 1)[-1]}`" \
            in readme, name
