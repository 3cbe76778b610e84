"""The bound-call prologue: one bind per call signature, never stale.

A warm ``InTensLi.ttm`` is one dict lookup into ``BoundPlan``\\ s bound on
a signature's first call.  These tests pin the contract that makes that
safe: every event that may change the plan, the budget or the
instrumentation takes effect on the very next call; a warm call does no
planning, footprint or compile work; the cache holds no buffers and does
not grow; and the budget is read once per call.
"""

from __future__ import annotations

import gc
import os
import tracemalloc
import types

import numpy as np
import pytest

import repro.core.bind as bind_mod
import repro.core.codegen as codegen_mod
import repro.core.intensli as intensli_mod
import repro.core.tiling as tiling_mod
import repro.resilience.memory as memory_mod
from repro.autotune import AutotuneSession, PlanCache
from repro.core.chain import ChainStep
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.intensli import InTensLi
from repro.core.partition import Thresholds
from repro.core.serialize import save_plans
from repro.obs import tracing
from repro.perf.profiler import track_hot_path
from repro.resilience import FaultInjector, fault_injection
from repro.resilience.memory import MEM_LIMIT_ENV
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR, Layout
from repro.util.errors import (
    PlanError,
    PlanMismatchError,
    ResourceError,
    ShapeError,
)
from tests.helpers import ttm_oracle

SHAPE, MODE, J = (16, 16, 16, 16), 0, 8


def _operands(shape=SHAPE, mode=MODE, j=J, layout=ROW_MAJOR,
              dtype="float64", seed=0):
    rng = np.random.default_rng(seed)
    x = DenseTensor(rng.standard_normal(shape), layout, dtype=dtype)
    u = rng.standard_normal((j, shape[mode])).astype(dtype)
    return x, u


@pytest.fixture
def bound_plans(monkeypatch):
    """Every plan the facade binds, in order."""
    seen = []
    real = intensli_mod.bind

    def spy(plan, *args, **kwargs):
        seen.append(plan)
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(intensli_mod, "bind", spy)
    return seen


class _Calibration:
    """A duck-typed calibration record whose fitted PTH moves the thread
    split of a two-thread facade from the loop to the kernel."""

    pth_bytes = 1

    def thresholds_for(self, j, max_threads):
        return Thresholds(1000, 5000)

    def digest(self):
        return "pth-1"


# -- invalidation: every plan-changing event lands on the next call ----------


def test_attach_calibration_rebinds_next_call(bound_plans):
    lib = InTensLi(max_threads=2)
    x, u = _operands(mode=2)
    lib.ttm(x, u, 2)
    lib.ttm(x, u, 2)
    assert len(bound_plans) == 1 and bound_plans[0].loop_threads == 2
    lib.attach_calibration(_Calibration())
    y = lib.ttm(x, u, 2)
    assert len(bound_plans) == 2
    assert (bound_plans[1].loop_threads, bound_plans[1].kernel_threads) == (1, 2)
    np.testing.assert_allclose(y.data, ttm_oracle(x.data, u, 2),
                               rtol=1e-10, atol=1e-12)


def test_attach_plan_cache_rebinds_next_call(tmp_path, bound_plans):
    lib = InTensLi()
    x, u = _operands()
    lib.ttm(x, u, MODE)
    pinned = default_plan(SHAPE, MODE, J, ROW_MAJOR, kernel="blas", degree=1)
    cache = PlanCache(str(tmp_path / "plans.json"), fingerprint="fp")
    cache.put_plan(SHAPE, MODE, J, ROW_MAJOR, lib.max_threads, pinned)
    lib.attach_plan_cache(cache)
    lib.ttm(x, u, MODE)
    assert bound_plans[-1] is pinned


def test_tune_rebinds_next_call(bound_plans):
    lib = InTensLi()
    x, u = _operands((6, 5, 4), 1, 3)
    lib.ttm(x, u, 1)
    best = lib.tune(x, u, 1, min_seconds=1e-4)
    lib.ttm(x, u, 1)
    assert bound_plans[-1] is best


def test_load_plan_cache_rebinds_next_call(tmp_path, bound_plans):
    lib = InTensLi()
    x, u = _operands()
    lib.ttm(x, u, MODE)
    pinned = default_plan(SHAPE, MODE, J, ROW_MAJOR, kernel="blas", degree=1)
    assert pinned != bound_plans[-1]
    path = str(tmp_path / "plans.json")
    save_plans([pinned], path)
    lib.load_plan_cache(path)
    lib.ttm(x, u, MODE)
    assert bound_plans[-1] == pinned


def test_promotion_through_autotune_session_rebinds(tmp_path, bound_plans):
    lib = InTensLi()
    session = AutotuneSession(
        lib, cache=PlanCache(str(tmp_path / "plans.json"), fingerprint="fp")
    )
    x, u = _operands()
    lib.ttm(x, u, MODE)
    lib.ttm(x, u, MODE)
    assert len(bound_plans) == 1
    winner = default_plan(SHAPE, MODE, J, ROW_MAJOR, kernel="blas", degree=2)
    session.cache.promote(session.key_for(SHAPE, MODE, J), winner, 1e-6)
    y = lib.ttm(x, u, MODE)
    assert bound_plans[-1] is winner
    np.testing.assert_allclose(y.data, ttm_oracle(x.data, u, MODE),
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("executor", ["generated", "interpreted"])
def test_mem_limit_set_and_unset_apply_next_call(monkeypatch, executor):
    lib = InTensLi(executor=executor)
    x, u = _operands((8, 9, 10), 1, 4)
    lib.ttm(x, u, 1)
    monkeypatch.setenv(MEM_LIMIT_ENV, "1")
    with pytest.raises(ResourceError):
        lib.ttm(x, u, 1)
    monkeypatch.delenv(MEM_LIMIT_ENV)
    y = lib.ttm(x, u, 1)
    np.testing.assert_allclose(y.data, ttm_oracle(x.data, u, 1),
                               rtol=1e-10, atol=1e-12)


def test_armed_faults_apply_next_call():
    lib = InTensLi()
    x, u = _operands((8, 9, 10), 1, 4)
    lib.ttm(x, u, 1)
    with fault_injection() as faults:
        faults.arm("alloc-fail")
        with pytest.raises(ResourceError):
            lib.ttm(x, u, 1)
    with fault_injection() as faults, track_hot_path() as counters:
        faults.arm("kernel-raise", exc=RuntimeError("boom"), generated=True)
        y = lib.ttm(x, u, 1)
    assert faults.count("kernel-raise") == 1
    assert counters.kernel_fallbacks == 1
    np.testing.assert_allclose(y.data, ttm_oracle(x.data, u, 1),
                               rtol=1e-10, atol=1e-12)


def test_tracing_turned_on_still_emits_spans():
    lib = InTensLi()
    x, u = _operands((8, 9, 10), 1, 4)
    lib.ttm(x, u, 1)
    lib.ttm(x, u, 1)
    with tracing() as tracer:
        lib.ttm(x, u, 1)
    names = {span["name"] for span in tracer.snapshot()["spans"]}
    assert {"ttm", "plan", "cache-lookup", "execute"} <= names


# -- a warm call does no planning, footprint or compile work ------------------


def _count_calls(monkeypatch, counts, module, name):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("executor", ["generated", "interpreted"])
def test_warm_calls_skip_estimator_footprint_and_compile(monkeypatch,
                                                         executor):
    lib = InTensLi(executor=executor)
    calls = []
    for shape, mode, j, layout, dtype in (
        ((8, 8, 8), 1, 4, ROW_MAJOR, "float64"),
        ((12, 12, 12, 12), 2, 12, COL_MAJOR, "float64"),
        ((16, 16, 16), 0, 8, COL_MAJOR, "float32"),
    ):
        x, u = _operands(shape, mode, j, layout, dtype)
        out = DenseTensor.empty(
            shape[:mode] + (j,) + shape[mode + 1:], layout, dtype=dtype
        )
        calls.append(lambda x=x, u=u, mode=mode: lib.ttm(x, u, mode))
        calls.append(lambda x=x, u=u, mode=mode, out=out:
                     lib.ttm(x, u, mode, out=out))
    xc, _ = _operands((8, 9, 10), 0, 4)
    steps = [ChainStep(0, np.ones((4, 8))), ChainStep(2, np.ones((3, 10)))]
    calls.append(lambda: lib.ttm_chain(xc, steps))
    for call in calls:
        call()
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, counts, lib.estimator, "estimate")
    for module in (bind_mod, memory_mod, tiling_mod):
        _count_calls(monkeypatch, counts, module, "plan_footprint_bytes")
    for module in (bind_mod, intensli_mod, codegen_mod):
        _count_calls(monkeypatch, counts, module, "compile_plan")
    for _ in range(3):
        for call in calls:
            call()
    assert counts == {}


# -- memory: the cache holds no buffers and does not grow ---------------------

#: The benchmark's small-call mix: (shape, layout, dtype) per tensor,
#: every mode, J cycling 4/8/12/16, every fourth call writing into out=.
SMALL_TENSORS = (
    ((8, 8, 8), "row", "float64"),
    ((16, 16, 16), "col", "float32"),
    ((24, 24, 24), "row", "float32"),
    ((32, 32, 32), "col", "float64"),
    ((8, 8, 8, 8), "row", "float32"),
    ((12, 12, 12, 12), "col", "float64"),
)


def _small_calls(lib):
    rng = np.random.default_rng(5)
    calls = []
    for shape, layout, dtype in SMALL_TENSORS:
        lay = Layout.parse(layout)
        x = DenseTensor(rng.standard_normal(shape), lay, dtype=dtype)
        for mode in range(len(shape)):
            j = (4, 8, 12, 16)[len(calls) % 4]
            u = rng.standard_normal((j, shape[mode])).astype(dtype)
            out = None
            if len(calls) % 4 == 3:
                out = DenseTensor.empty(
                    shape[:mode] + (j,) + shape[mode + 1:], lay, dtype=dtype
                )
            calls.append(lambda x=x, u=u, mode=mode, out=out:
                         lib.ttm(x, u, mode, out=out))
    return calls


def test_warm_calls_do_not_grow_memory():
    lib = InTensLi()
    calls = _small_calls(lib)
    xc, _ = _operands((24, 24, 24), 0, 4, dtype="float32")
    steps = [(m, np.ones((j, 24), np.float32)) for m, j in ((0, 4), (1, 8))]
    calls.append(lambda: lib.ttm_chain(xc, steps))
    for call in calls:
        call()
    bound = len(lib._bound)
    tracemalloc.start()
    try:
        for call in calls:  # any first-traced-call caches settle here
            call()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000 // len(calls) + 1):
            for call in calls:
                call()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 4096, f"grew {after - before} bytes"
    assert len(lib._bound) == bound


def _reachable(root):
    """Objects reachable from *root*, not descending into modules,
    classes or functions' globals (shared program state, not the cache's)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (types.ModuleType, type)):
            continue
        if isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
            stack.append(obj.__dict__)
            continue
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("executor", ["generated", "interpreted"])
def test_bound_cache_reaches_no_buffer(executor):
    lib = InTensLi(executor=executor)
    for call in _small_calls(lib):
        call()
    xc, _ = _operands((8, 9, 10), 0, 4)
    lib.ttm_chain(xc, [(0, np.ones((4, 8))), (1, np.ones((2, 9)))])
    reached = _reachable(lib._bound)
    assert len(lib._bound) > len(SMALL_TENSORS)
    assert not [o for o in reached if isinstance(o, (np.ndarray, DenseTensor))]


# -- one budget read per call -------------------------------------------------


class _CountingEnviron(dict):
    """An environment that counts reads of one key."""

    def __init__(self, base, key):
        super().__init__(base)
        self.key = key
        self.reads = 0

    def _count(self, key):
        if key == self.key:
            self.reads += 1

    def get(self, key, default=None):
        self._count(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self._count(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._count(key)
        return super().__contains__(key)


@pytest.mark.parametrize("route", ["generated", "interpreted", "execute",
                                   "ttm_inplace", "out"])
def test_one_budget_read_per_call(monkeypatch, route):
    monkeypatch.setenv(MEM_LIMIT_ENV, str(1 << 40))
    lib = InTensLi(executor="interpreted" if route == "interpreted"
                   else "generated")
    x, u = _operands((8, 9, 10), 1, 4)
    plan = lib.plan(x.shape, 1, 4, x.layout)
    out = DenseTensor.empty(plan.out_shape, x.layout)
    call = {
        "generated": lambda: lib.ttm(x, u, 1),
        "interpreted": lambda: lib.ttm(x, u, 1),
        "execute": lambda: lib.execute(plan, x, u),
        "ttm_inplace": lambda: ttm_inplace(x, u, plan=plan),
        "out": lambda: lib.ttm(x, u, 1, out=out),
    }[route]
    call()  # cold: binds
    environ = _CountingEnviron(os.environ, MEM_LIMIT_ENV)
    monkeypatch.setattr(os, "environ", environ)
    call()
    assert environ.reads == 1


def test_budget_probed_once_per_call_under_faults(monkeypatch):
    # Armed faults engage the guard on every call: one probe per call.
    probes = []
    real = memory_mod._available

    def spy(faults, limit):
        probes.append(limit)
        return real(faults, limit)

    monkeypatch.setattr(memory_mod, "_available", spy)
    x, u = _operands((8, 9, 10), 1, 4)
    for run in (InTensLi().ttm, InTensLi(executor="interpreted").ttm,
                lambda x, u, mode: ttm_inplace(x, u, mode)):
        run(x, u, 1)
        with fault_injection(FaultInjector().arm("crash", site="never")):
            probes.clear()
            run(x, u, 1)
        assert len(probes) == 1


# -- one typed error for a plan/input mismatch -------------------------------


@pytest.mark.parametrize("route", ["generated", "interpreted", "inplace"])
@pytest.mark.parametrize("bad", ["x", "u", "out"])
def test_mismatch_raises_one_class_on_every_route(route, bad):
    x, u = _operands((8, 9, 10), 1, 4)
    plan = default_plan(x.shape, 1, 4, x.layout)
    out = None
    if bad == "x":
        x, _ = _operands((8, 9, 11), 1, 4)
    elif bad == "u":
        u = np.ones((4, 7))
    else:
        out = DenseTensor.empty((8, 5, 10), x.layout)
    if route == "inplace":
        run = lambda: ttm_inplace(x, u, plan=plan, out=out)
    else:
        lib = InTensLi(executor=route)
        run = lambda: lib.execute(plan, x, u, out=out)
    with pytest.raises(PlanMismatchError) as info:
        run()
    assert isinstance(info.value, ShapeError)
    assert isinstance(info.value, PlanError)
