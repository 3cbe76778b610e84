"""paper_ttm: order-3, -4 and -5 tensors, each over 4x the last-level cache.

Why this workload exists: at these sizes the kernel and the plan choice
do the work, as in the paper's figures 4, 10 and 12 -- e.g. 96^4 mode 3
row-major takes ~420 ms where a bare GEMM of the same work takes ~130
ms, while mode 0 is within 10% of it.  A kernel or planner change must
show here; a prologue change should move nothing.

Each tensor (432-462 MiB; the host LLC is 105 MiB) gets J=16 TTMs on
its first, middle and last modes plus one fused all-but-one-mode Tucker
projection through ``ttm_chain``.  Tensors are generated and measured
one at a time, so only one is resident.  An op is one facade call.
"""

from __future__ import annotations

import numpy as np

import layers
from harness import (
    Outcome,
    Recorder,
    SetupSampler,
    chain_gemm_reference,
    gemm_reference,
    gemm_scratch,
    matches,
    median,
    ns,
    paired_overhead,
    peak_rss_mb,
    reference,
    reset_peak_rss,
    time_once,
)

#: (shape, layout); layouts alternate so both are measured.
TENSORS = (
    ((384, 384, 384), "col"),
    ((88, 88, 88, 88), "row"),
    ((36, 36, 36, 36, 36), "col"),
)
J = 16
#: Rounds per tensor never fall below this, whatever --seconds says.
MIN_ROUNDS = 3


def ttm_modes(order: int) -> tuple[int, ...]:
    return (0, order // 2, order - 1)


def chain_modes(order: int) -> tuple[int, ...]:
    """The Tucker projection keeps mode 0 and projects every other mode."""
    return tuple(range(1, order))


class Operands:
    """One tensor and its factor matrices, generated from the seed."""

    def __init__(self, seed: int, index: int) -> None:
        from repro import DenseTensor, Layout

        shape, layout = TENSORS[index]
        rng = np.random.default_rng([seed, index])
        lay = Layout.parse(layout)
        if lay is Layout.ROW_MAJOR:
            data = rng.random(shape)
        else:  # generated transposed: F-contiguous with no copy
            data = rng.random(shape[::-1]).T
        self.x = DenseTensor(data, lay)
        order = len(shape)
        self.us = {m: rng.random((J, shape[m])) for m in ttm_modes(order)}
        # Tucker convention: (I_n, J) factors applied transposed.
        self.factors = [(m, rng.random((shape[m], J)))
                        for m in chain_modes(order)]

    def ops(self, lib) -> list:
        x = self.x
        ops = [lambda m=m, u=u: lib.ttm(x, u, m) for m, u in self.us.items()]
        ops.append(lambda: lib.ttm_chain(x, self.factors, transpose=True))
        return ops

    def blas(self, lib) -> list:
        x = self.x
        mats = [f.T for _m, f in self.factors]
        scratch = gemm_scratch(x.data, list(self.us.values()) + mats)
        thunks = [gemm_reference(x.data, u, scratch=scratch)
                  for u in self.us.values()]
        order = lib.plan_chain(x.shape, [(m, J) for m, _f in self.factors],
                               x.layout, dtype=x.dtype).order
        thunks.append(chain_gemm_reference(x.data, mats, order, scratch))
        return thunks

    def check(self, k: int, y) -> bool:
        """Whether op *k*'s output *y* agrees with the oracle.

        The oracle runs on two thin slabs of an uncontracted mode, which
        commute with the product, so checking costs megabytes rather than
        a second copy of the input.
        """
        x = self.x.data
        slabs = (slice(0, 2), slice(-2, None))
        if k < len(self.us):
            m, u = list(self.us.items())[k]
            axis = 0 if m != 0 else x.ndim - 1
            return all(
                matches(y.data[index], reference(x[index], u, m),
                        self.x.dtype)
                for index in ((slice(None),) * axis + (s,) for s in slabs))
        ok = True
        for s in slabs:  # the chain keeps mode 0, so slab along it
            want = x[s]
            for m, f in self.factors:
                want = reference(want, f.T, m)
            ok = ok and matches(y.data[s], want, self.x.dtype, chain=True)
        return ok


def all_plans(lib) -> list:
    """Every per-TTM and per-chain-step plan, planned without data."""
    plans = []
    for shape, layout in TENSORS:
        order = len(shape)
        plans += [lib.plan(shape, m, J, layout) for m in ttm_modes(order)]
        chain = lib.plan_chain(shape, [(m, J) for m in chain_modes(order)],
                               layout)
        plans += list(chain.step_plans)
    return plans


def cold_setup() -> None:
    """Fresh facade, empty codegen cache, every signature planned and
    compiled.  The kernels are not run: at this size one run is an op."""
    from repro import InTensLi
    from repro.core.codegen import clear_cache, compile_plan

    lib = InTensLi()
    clear_cache()
    for plan in all_plans(lib):
        compile_plan(plan)


def counts(lib) -> dict:
    flops = 0
    for shape, layout in TENSORS:
        order = len(shape)
        flops += sum(lib.plan(shape, m, J, layout).total_flops
                     for m in ttm_modes(order))
        flops += lib.plan_chain(shape, [(m, J) for m in chain_modes(order)],
                                layout).total_flops
    orders = {f"{shape}.chain.order": str(list(lib.plan_chain(
        shape, [(m, J) for m in chain_modes(len(shape))], layout).order))
        for shape, layout in TENSORS}
    return {
        "work.flops_per_pass": flops,
        "work.signatures": len(TENSORS) * 4,
        "plans": {**layers.plan_table(all_plans(lib)), **orders},
    }


def _start():
    from repro import InTensLi

    out = Outcome()
    lib = InTensLi()
    out.counts = counts(lib)
    return lib, out


def _first_pass(lib, operands: Operands, out: Outcome) -> None:
    """Run every op once (warm-up) and check each output.

    Each output is dropped before the next op runs, as in the timed
    rounds, so the peak holds one op's memory at a time.
    """
    from repro.util.errors import ReproError

    for k, op in enumerate(operands.ops(lib)):
        out.attempted += 1
        try:
            y = op()
        except ReproError:
            out.failed += 1
            continue
        out.wrong += not operands.check(k, y)
        del y


def _measure_tensor(lib, seed: int, index: int, seconds: float,
                    out: Outcome, setup: SetupSampler):
    """Paired op/GEMM timings for one tensor, then its peak RSS.

    A function of its own so the tensor and every view of it are freed
    on return, before the next one is generated.  An op that raises a
    typed error is counted as failed and its pair is dropped.
    """
    from repro.util.errors import ReproError

    operands = Operands(seed, index)
    reset_peak_rss()
    _first_pass(lib, operands, out)
    # The program's peak: its input plus every op's transients, before
    # the GEMM references touch their own product buffer.
    peak = peak_rss_mb()
    ops, blas = operands.ops(lib), operands.blas(lib)
    times = [[] for _ in ops]
    ref = [[] for _ in ops]
    rounds = 0
    deadline = ns() + int(seconds * 1e9)
    while ns() < deadline or rounds < MIN_ROUNDS:
        # Each op is paired with its bare GEMM, back to back.
        for k, op in enumerate(ops):
            out.attempted += 1
            try:
                op_s = time_once(op)
            except ReproError:
                out.failed += 1
                continue
            times[k].append(op_s)
            ref[k].append(time_once(blas[k]))
        setup.sample()
        rounds += 1
    lib.release_scratch()
    return times, ref, peak


def measure(seed: int, seconds: float) -> Outcome:
    lib, out = _start()
    setup = SetupSampler(cold_setup)
    op_s, blas_s, peak = [], [], 0.0
    for index in range(len(TENSORS)):
        times, ref, tensor_peak = _measure_tensor(
            lib, seed, index, seconds / len(TENSORS), out, setup)
        op_s += times
        blas_s += ref
        peak = max(peak, tensor_peak)
    # An op that never succeeded has no times; its failures are counted.
    op_s, blas_s = zip(*[(t, r) for t, r in zip(op_s, blas_s) if t])
    op_med = [median(t) for t in op_s]
    rounds = min(len(t) for t in op_s)
    out.metrics.update(
        ops_per_s=len(op_med) / sum(op_med),
        latency_p50_us=median(op_med) * 1e6,
        # A window is one pass (12 ops), so its p99 is its slowest op.
        latency_p99_us=median(
            float(np.percentile([t[r] for t in op_s], 99))
            for r in range(rounds)) * 1e6,
        frac_of_blas=sum(median(t) for t in blas_s) / sum(op_med),
        peak_rss_mb=peak,
        setup_s=setup.setup_s(),
        setup_raw_s=setup.raw_s(),
    )
    out.notes.update(rounds=rounds, ops_per_pass=len(op_s))
    return out


def _trace_tensor(lib, seed: int, index: int, rec: Recorder,
                  out: Outcome) -> tuple:
    """Per-layer timings on one tensor, freed on return like
    :func:`_measure_tensor`."""
    operands = Operands(seed, index)
    x = operands.x
    _first_pass(lib, operands, out)
    sigs = [(x, u, m) for m, u in operands.us.items()]
    for xs, u, m in sigs:
        out.attempted += 1
        if not np.array_equal(layers.decomposed_ttm(lib, xs, u, m).data,
                              lib.ttm(xs, u, m).data):
            out.wrong += 1
    profile = layers.profile_signatures(lib, sigs, rec, reps=2)
    steps = [(m, J) for m, _f in operands.factors]
    for _ in range(50):
        rec.timed("chain.plan", lambda: lib.plan_chain(
            x.shape, steps, x.layout, dtype=x.dtype), index)
    exhaustive = layers.frac_of_exhaustive(lib, sigs, 0.0, 1)
    # The recorder's own cost: passes with and without a span per op.
    scratch = Recorder()
    ops = operands.ops(lib)
    spanned = [lambda op=op: scratch.timed("op", op) for op in ops]
    overhead = paired_overhead(ops, spanned, 1, 0.0)
    lib.release_scratch()
    return profile, rec.per_tag_us("chain.plan")[index], exhaustive, overhead


def trace(seed: int, seconds: float, rec: Recorder) -> Outcome:
    lib, out = _start()
    profiles, plan_hits, exhaustive, overheads = [], [], [], []
    for index in range(len(TENSORS)):
        profile, hit, best, overhead = _trace_tensor(lib, seed, index, rec,
                                                     out)
        profiles.append(profile)
        plan_hits.append(hit)
        exhaustive.append(best)
        overheads.append(overhead)
    for name in profiles[0]:
        if name in ("kernel.gflops", "kernel.frac_of_roofline",
                    "kernel.flops_per_byte", "predict.ratio",
                    "baseline.copy_over_inplace"):
            out.metrics[name] = median(p[name] for p in profiles)
        elif name == "kernel.computed_mb":
            out.metrics[name] = sum(p[name] for p in profiles)
        else:
            out.metrics[name] = sum(p[name] for p in profiles) / len(profiles)
    out.metrics["chain.plan_hit_us"] = sum(plan_hits) / len(plan_hits)
    out.metrics["plan.frac_of_exhaustive_min"] = min(
        e["plan.frac_of_exhaustive_min"] for e in exhaustive)
    out.metrics["plan.frac_of_exhaustive_median"] = median(
        e["plan.frac_of_exhaustive_median"] for e in exhaustive)
    out.metrics["trace.overhead_frac"] = median(overheads)
    return out
