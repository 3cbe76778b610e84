"""Per-layer costs of one facade call, timed from outside the program.

:func:`decomposed_ttm` replays what ``InTensLi.ttm`` does on its fast
path, one public layer function at a time, so each layer can sit in its
own span.  :func:`profile_signatures` times those spans, the whole
facade call, a bare GEMM of the same kernel work, a cold plan and a cold
compile for every signature of a workload, and reduces them to the
per-layer metrics every workload reports.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from harness import Recorder, gemm_reference, median

#: The fast-path layers, in call order.
FAST_PATH = ("intensli.plan", "tiling.check", "memory.guard", "dense.alloc",
             "codegen.lookup", "kernel")


def _no_span(_name, _tag=0):
    return nullcontext()


def decomposed_ttm(lib, x, u, mode, out=None, rec: Recorder | None = None,
                   tag: int = 0):
    """``lib.ttm(x, u, mode, out=out)`` on the fast path, layer by layer.

    plan -> tiling check -> memory guard -> output allocation ->
    compiled-kernel lookup -> kernel.  Gives output bit-identical to the
    facade whenever the facade does not reroute through tiling.
    """
    from repro.core.codegen import compile_plan
    from repro.core.tiling import tiling_opportunity
    from repro.resilience.memory import guard_memory
    from repro.tensor.dense import DenseTensor

    span = rec.span if rec is not None else _no_span
    with span("intensli.plan", tag):
        plan = lib.plan(x.shape, mode, u.shape[0], x.layout,
                        dtype=x.data.dtype)
    with span("tiling.check", tag):
        budget = tiling_opportunity(plan, x_inmem=x.is_inmem,
                                    out_given=out is not None)
    if budget is not None:
        raise RuntimeError(f"{plan.describe()} would tile under {budget} B")
    with span("memory.guard", tag):
        plan = guard_memory(plan, allocate_out=out is None)
    if out is None:
        with span("dense.alloc", tag):
            out = DenseTensor.empty(plan.out_shape, plan.layout,
                                    dtype=plan.dtype)
    with span("codegen.lookup", tag):
        fn = compile_plan(plan)
    with span("kernel", tag):
        fn(x.data, u, out.data)
    return out


def roofline() -> tuple[float, float]:
    """This host's single-thread GEMM peak (GFLOP/s) and bandwidth (GB/s)."""
    from repro.perf.calibrate import measure_bandwidth, measure_peak

    return measure_peak(n=512).gflops, measure_bandwidth(size_words=4_000_000)


def profile_signatures(lib, sigs, rec: Recorder, reps: int,
                       copy_baseline: bool = True,
                       preallocated: bool = False) -> dict:
    """Per-layer metrics over *sigs*, a list of ``(x, u, mode)``.

    Every layer figure is the mean over signatures of that signature's
    median over *reps* repeats, so each signature weighs once in the mix.
    With *preallocated* every call writes into a caller-provided ``out``
    (as the tiled executor's per-tile calls do), so nothing is allocated.
    """
    from repro import InTensLi, ttm_copy
    from repro.core.codegen import clear_cache, compile_plan
    from repro.core.predict import predict_seconds
    from repro.tensor.dense import DenseTensor

    plans, flops, nbytes, blas, outs = [], [], [], [], []
    for x, u, mode in sigs:
        plan = lib.plan(x.shape, mode, u.shape[0], x.layout,
                        dtype=x.data.dtype)
        plans.append(plan)
        outs.append(DenseTensor.empty(plan.out_shape, plan.layout,
                                      dtype=plan.dtype)
                    if preallocated else None)
        flops.append(plan.total_flops)
        out_bytes = plan.itemsize * int(np.prod(plan.out_shape))
        nbytes.append(x.nbytes + u.nbytes + out_bytes)
        blas.append(gemm_reference(x.data, u))
    for _ in range(reps):
        for k, (x, u, mode) in enumerate(sigs):
            out = outs[k]
            rec.timed("intensli.ttm", lambda: lib.ttm(x, u, mode, out=out), k)
            with rec.span("decomposed", k):
                decomposed_ttm(lib, x, u, mode, out=out, rec=rec, tag=k)
            rec.timed("blas", blas[k], k)
            if copy_baseline:
                rec.timed("baseline.copy", lambda: ttm_copy(x, u, mode), k)
            fresh = InTensLi(profile=lib.profile, max_threads=lib.max_threads)
            rec.timed("estimator.estimate", lambda: fresh.plan(
                x.shape, mode, u.shape[0], x.layout, dtype=x.data.dtype), k)
    for _ in range(reps):
        for k, plan in enumerate(plans):
            clear_cache()
            rec.timed("codegen.compile", lambda: compile_plan(plan), k)
    for plan in plans:
        compile_plan(plan)

    per = {name: rec.per_tag_us(name) for name in
           FAST_PATH + ("intensli.ttm", "blas", "baseline.copy")}
    glue = [per["intensli.ttm"][k] - sum(per[n].get(k, 0.0)
                                         for n in FAST_PATH)
            for k in range(len(sigs))]
    kernel_s = [per["kernel"][k] * 1e-6 for k in range(len(sigs))]
    peak, bandwidth = roofline()
    intensity = sum(flops) / sum(nbytes)
    gflops = sum(flops) / sum(kernel_s) / 1e9
    metrics = {
        "intensli.plan_hit_us": rec.mix_us("intensli.plan"),
        "tiling.check_us": rec.mix_us("tiling.check"),
        "memory.guard_us": rec.mix_us("memory.guard"),
        "dense.alloc_us": rec.mix_us("dense.alloc"),
        "codegen.lookup_us": rec.mix_us("codegen.lookup"),
        "kernel.us": rec.mix_us("kernel"),
        "blas.us": rec.mix_us("blas"),
        "intensli.glue_us": sum(glue) / len(glue),
        "estimator.estimate_us": rec.mix_us("estimator.estimate"),
        "codegen.compile_us": rec.mix_us("codegen.compile"),
        "kernel.gflops": gflops,
        "kernel.flops_per_byte": intensity,
        "kernel.computed_mb": sum(nbytes) / 1e6,
        "kernel.frac_of_roofline": gflops / min(peak, bandwidth * intensity),
        "predict.ratio": median(
            predict_seconds(p, lib.profile) / s
            for p, s in zip(plans, kernel_s)
        ),
    }
    if copy_baseline:
        metrics["baseline.copy_over_inplace"] = (
            sum(per["baseline.copy"].values())
            / sum(per["intensli.ttm"].values())
        )
    return metrics


def serve_probe(lib, sigs, rounds: int, rec: Recorder) -> dict:
    """The serving layer's per-request costs on a workload's signatures.

    One closed-loop client sends *sigs* (``(x, u, mode)``) *rounds*
    times through a fresh ``TtmServer``; then the same calls go through
    *lib* alone (``serve.solo``).  Returns the ``serve.*`` metrics and
    the server's batching, shed and cache counts, which repeat exactly:
    one client never has two requests in flight, so nothing coalesces.
    """
    import asyncio

    from repro.serve import TtmServer

    async def serve():
        server = TtmServer()
        await server.start()
        try:
            served = []
            for _ in range(rounds):
                for k, (x, u, mode) in enumerate(sigs):
                    with rec.span("serve.request", k):
                        served.append(await server.submit(x, u, mode))
            return served, server.snapshot()
        finally:
            await server.stop()

    served, snapshot = asyncio.run(serve())
    for _ in range(rounds):
        for k, (x, u, mode) in enumerate(sigs):
            rec.timed("serve.solo", lambda: lib.ttm(x, u, mode), k)
    stats = snapshot["stats"]
    completed = max(stats["completed"], 1)
    return {
        "serve.queue_us": median(r.queue_s for r in served) * 1e6,
        "serve.exec_us": median(r.latency_s - r.queue_s
                                for r in served) * 1e6,
        "serve.solo_us": rec.mix_us("serve.solo"),
        "serve.batched_frac": stats["batched_requests"] / completed,
        "serve.batch_size_mean": completed / max(stats["batches"], 1),
        "autotune.cache_hit_rate": snapshot["plan_cache"]["hit_rate"],
        "serve.shed_frac": stats["shed"]["total"]
        / max(stats["submitted"], 1),
        "completed": stats["completed"],
        "batches": stats["batches"],
    }


def frac_of_exhaustive(lib, sigs, min_seconds: float,
                       min_repeats: int) -> dict:
    """Figure 12: best time over every legal plan / the chosen plan's time.

    Both sides are timed the same way, by ``ExhaustiveTuner``; a value
    of 1 means the heuristic picked the fastest plan.
    """
    from repro.core.tuner import ExhaustiveTuner

    tuner = ExhaustiveTuner(min_seconds=min_seconds, min_repeats=min_repeats)
    ratios = []
    for x, u, mode in sigs:
        chosen = lib.plan(x.shape, mode, u.shape[0], x.layout,
                          dtype=x.data.dtype)
        best = min(tuner.sweep(x, u, mode).seconds)
        ratios.append(best / tuner.time_plan(chosen, x, u))
    return {"plan.frac_of_exhaustive_min": min(ratios),
            "plan.frac_of_exhaustive_median": median(ratios)}


def plan_table(plans) -> dict[str, str]:
    """``signature -> chosen plan`` for the exact-repeat count ledger."""
    return {
        f"{p.shape}/m{p.mode}/J{p.j}/{p.layout.name}/{p.dtype}":
        f"{p.kernel}/deg{p.degree}/batch{list(p.batch_modes)}"
        f"/{p.strategy.value}"
        for p in plans
    }
