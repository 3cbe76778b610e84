"""small_calls: 21 cached signatures in the dispatch-bound regime.

Why this workload exists: at 8^3..32^3 the prologue layers (plan lookup,
input checks, tiling check, memory guard, output allocation) do nearly
all the work -- an 8^3, J=4 call spends tens of microseconds around a
GEMM of a few.  A per-call fast path must move ``ops_per_s`` and
``latency_p50_us`` here; a kernel-only change should move nothing.

The mix: six tensors (order 3 and 4, 8^3..32^3, both layouts, float64
and float32), every mode of each with J cycling 4/8/12/16, every fourth
call writing into a caller-provided ``out=``, plus one 3-step
``ttm_chain``.  An op is one facade call.
"""

from __future__ import annotations

import math

import numpy as np

import layers
from harness import (
    P99_MIN_SAMPLES,
    Outcome,
    Recorder,
    SetupSampler,
    call_all,
    chain_gemm_reference,
    gemm_reference,
    matches,
    median,
    ns,
    paired_overhead,
    peak_rss_mb,
    reference,
    reset_peak_rss,
    timed_calls,
    window_summary,
)

#: (shape, layout, dtype) of each operand tensor.
TENSORS = (
    ((8, 8, 8), "row", "float64"),
    ((16, 16, 16), "col", "float32"),
    ((24, 24, 24), "row", "float32"),
    ((32, 32, 32), "col", "float64"),
    ((8, 8, 8, 8), "row", "float32"),
    ((12, 12, 12, 12), "col", "float64"),
)
J_CYCLE = (4, 8, 12, 16)
#: The chain: tensor index and its (mode, J) steps.
CHAIN_TENSOR = 2
CHAIN_STEPS = ((0, 4), (1, 8), (2, 4))
#: Target wall time of one op window.
WINDOW_S = 0.25


class Inputs:
    """Operands generated from the seed; shapes never depend on it."""

    def __init__(self, seed: int) -> None:
        from repro import DenseTensor, Layout

        rng = np.random.default_rng(seed)
        self.tensors = []
        for shape, layout, dtype in TENSORS:
            lay = Layout.parse(layout)
            data = rng.standard_normal(shape).astype(dtype)
            self.tensors.append(
                DenseTensor(np.asarray(data, order=lay.numpy_order), lay))
        # (x, u, mode, out) per call; out is preallocated or None.
        self.calls = []
        for x in self.tensors:
            for mode in range(x.order):
                k = len(self.calls)
                j = J_CYCLE[k % len(J_CYCLE)]
                u = rng.standard_normal((j, x.shape[mode])).astype(x.dtype)
                out = None
                if k % 4 == 3:
                    shape = x.shape[:mode] + (j,) + x.shape[mode + 1:]
                    out = DenseTensor.empty(shape, x.layout, dtype=x.dtype)
                self.calls.append((x, u, mode, out))
        xc = self.tensors[CHAIN_TENSOR]
        self.chain = [
            (mode, rng.standard_normal((j, xc.shape[mode])).astype(xc.dtype))
            for mode, j in CHAIN_STEPS
        ]

    @property
    def chain_x(self):
        return self.tensors[CHAIN_TENSOR]

    def expected(self) -> list[np.ndarray]:
        """Oracle output of every op, in op order."""
        want = [reference(x.data, u, mode) for x, u, mode, _ in self.calls]
        y = self.chain_x.data
        for mode, u in self.chain:
            y = reference(y, u, mode)
        return want + [y]

    def dtypes(self) -> list:
        return [x.dtype for x, *_ in self.calls] + [self.chain_x.dtype]


def make_ops(lib, inp: Inputs) -> list:
    """One zero-argument facade call per signature."""
    ops = []
    for x, u, mode, out in inp.calls:
        if out is None:
            ops.append(lambda x=x, u=u, mode=mode: lib.ttm(x, u, mode))
        else:
            ops.append(lambda x=x, u=u, mode=mode, out=out:
                       lib.ttm(x, u, mode, out=out))
    xc, steps = inp.chain_x, inp.chain
    ops.append(lambda: lib.ttm_chain(xc, steps))
    return ops


def make_blas(lib, inp: Inputs) -> list:
    """The bare GEMM thunk doing each op's kernel work."""
    thunks = [gemm_reference(x.data, u) for x, u, _m, _o in inp.calls]
    xc = inp.chain_x
    plan = lib.plan_chain(xc.shape, [(m, u.shape[0]) for m, u in inp.chain],
                          xc.layout, dtype=xc.dtype)
    thunks.append(chain_gemm_reference(xc.data, [u for _m, u in inp.chain],
                                       plan.order))
    return thunks


def _data(y):
    return y.data if hasattr(y, "data") else y


def counts(lib, inp: Inputs) -> dict:
    """Exact-repeat counts: flops per pass and the plan of each signature."""
    plans = [lib.plan(x.shape, m, u.shape[0], x.layout, dtype=x.dtype)
             for x, u, m, _ in inp.calls]
    xc = inp.chain_x
    chain = lib.plan_chain(xc.shape, [(m, u.shape[0]) for m, u in inp.chain],
                           xc.layout, dtype=xc.dtype)
    table = layers.plan_table(plans + list(chain.step_plans))
    table["chain.order"] = str(list(chain.order))
    return {
        "work.flops_per_pass": sum(p.total_flops for p in plans)
        + chain.total_flops,
        "work.signatures": len(plans) + 1,
        "plans": table,
    }


def _prepare(seed: int):
    from repro import InTensLi
    from repro.core.codegen import clear_cache

    inp = Inputs(seed)
    reset_peak_rss()

    def cold_setup():
        fresh = InTensLi()
        clear_cache()
        call_all(make_ops(fresh, inp))

    lib = InTensLi()
    ops = make_ops(lib, inp)
    setup = SetupSampler(cold_setup, rewarm=lambda: call_all(ops))
    expected = inp.expected()
    dtypes = inp.dtypes()
    out = Outcome()
    # Every signature checked once against the oracle.
    _window, failures, first = timed_calls(ops, 1)
    out.attempted += len(ops)
    out.failed += failures
    for k, y in enumerate(first):
        if y is not None and not matches(_data(y), expected[k], dtypes[k],
                                         chain=k == len(ops) - 1):
            out.wrong += 1
    out.counts = counts(lib, inp)
    return inp, lib, ops, expected, dtypes, out, setup


def _cycles(ops) -> int:
    """Cycles per window: about WINDOW_S, never under P99_MIN_SAMPLES ops."""
    cycle_s = median(timed_calls(ops, 3)[0].elapsed_ns * 1e-9 / 3
                     for _ in range(5))
    need = math.ceil(P99_MIN_SAMPLES / len(ops))
    return max(need, round(WINDOW_S / cycle_s))


def measure(seed: int, seconds: float) -> Outcome:
    inp, lib, ops, expected, dtypes, out, setup = _prepare(seed)
    blas = make_blas(lib, inp)
    cycles = _cycles(ops)
    windows, ratios = [], []
    deadline = ns() + int(seconds * 1e9)
    while ns() < deadline or len(windows) < 3:
        window, failures, last = timed_calls(ops, cycles)
        blas_window = timed_calls(blas, cycles)[0]
        windows.append(window)
        ratios.append(blas_window.elapsed_ns / window.elapsed_ns)
        out.attempted += window.ops + failures
        out.failed += failures
        k = len(windows) % len(ops)  # one timed output checked per window
        if last[k] is not None and not matches(
                _data(last[k]), expected[k], dtypes[k],
                chain=k == len(ops) - 1):
            out.wrong += 1
        setup.sample()
    summary = window_summary(windows)
    out.metrics.update(
        ops_per_s=summary["ops_per_s"],
        latency_p50_us=summary["latency_p50_us"],
        latency_p99_us=summary["latency_p99_us"],
        frac_of_blas=median(ratios),
        peak_rss_mb=peak_rss_mb(),
        setup_s=setup.setup_s(),
        setup_raw_s=setup.raw_s(),
    )
    out.notes.update(windows=summary["windows"],
                     samples_per_window=summary["samples_per_window"])
    return out


def trace(seed: int, seconds: float, rec: Recorder) -> Outcome:
    from repro.obs import tracing

    inp, lib, ops, expected, dtypes, out, _setup = _prepare(seed)
    cycles = _cycles(ops)
    # The recorder's own cost: the same windows with a span around each op.
    scratch = Recorder()
    spanned = [lambda op=op, k=k: scratch.timed("op", op, k)
               for k, op in enumerate(ops)]
    out.metrics["trace.overhead_frac"] = paired_overhead(
        ops, spanned, cycles, seconds / 3)
    out.metrics["obs.overhead_frac"] = paired_overhead(
        ops, ops, cycles, seconds / 3, wrap=tracing)
    sigs = [(x, u, mode) for x, u, mode, _ in inp.calls]
    for x, u, mode in sigs:
        out.attempted += 1
        if not np.array_equal(layers.decomposed_ttm(lib, x, u, mode).data,
                              lib.ttm(x, u, mode).data):
            out.wrong += 1
    out.metrics.update(layers.profile_signatures(lib, sigs, rec, reps=30))
    out.metrics.update(layers.frac_of_exhaustive(lib, sigs, 0.005, 5))
    served = layers.serve_probe(lib, sigs, 20, rec)
    out.counts.update({k: served.pop(k) for k in list(served)
                       if not k.endswith("_us")})
    out.metrics.update(served)
    xc = inp.chain_x
    steps = [(m, u.shape[0]) for m, u in inp.chain]
    for _ in range(200):
        rec.timed("chain.plan", lambda: lib.plan_chain(
            xc.shape, steps, xc.layout, dtype=xc.dtype))
    out.metrics["chain.plan_hit_us"] = rec.mix_us("chain.plan")
    return out
