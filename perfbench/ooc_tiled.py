"""ooc_tiled: journaled tiled TTMs over a memmap input under a fixed budget.

Why this workload exists: the same planner, executor and kernel run tile
by tile, with durable landing (``<out>.partial`` + fsync + rename) and a
crash-recovery journal.  A change that taxes per-tile dispatch shows
here, and no other workload measures ``core.tiling``, memmap input or
``resilience.recovery``.

The input is a 192^3 float64 ``.npy`` memmap (56.6 MB), written in
chunks from the seed.  ``$REPRO_MEM_LIMIT`` (set by ``run.py`` for this
workload only) caps the budget at 256 KiB, under the 336 KiB kernel
working set, so every TTM is cut into tiles: 768 packed tiles on modes
0 and 1, 2 view tiles on mode 2.  A pass is one J=16 tiled TTM on the
first, middle and last modes, each through
``ttm_tiled(out_path=..., journal_path=...)`` with this facade's planner
and generated executor; each landing is checked with ``verify_journal``.
An op is one tiled TTM.  Its ``frac_of_blas`` compares it with the same
tiles' GEMMs run bare (:meth:`Job.tile_gemms`).
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import numpy as np

import layers
from harness import (
    OUT_DIR,
    Outcome,
    Recorder,
    SetupSampler,
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

SHAPE = (192, 192, 192)
J = 16
MODES = (0, 1, 2)
WORK_DIR = os.path.join(OUT_DIR, "ooc")
#: Slabs of the input written per generation step.
CHUNK = 16
MIN_PASSES = 5


def _path(name: str) -> str:
    return os.path.join(WORK_DIR, name)


def write_input(seed: int):
    """Write the input memmap in chunks; returns it opened read-only."""
    from repro import open_memmap_tensor

    os.makedirs(WORK_DIR, exist_ok=True)
    path = _path("x.npy")
    rng = np.random.default_rng(seed)
    x = np.lib.format.open_memmap(path, "w+", np.float64, SHAPE)
    for lo in range(0, SHAPE[0], CHUNK):
        hi = min(lo + CHUNK, SHAPE[0])
        x[lo:hi] = rng.random((hi - lo,) + SHAPE[1:])
    x.flush()
    del x
    return open_memmap_tensor(path, "r")


class Job:
    """The facade hooks and paths of one tiled TTM."""

    def __init__(self, lib, x, u, mode: int) -> None:
        self.lib, self.x, self.u, self.mode = lib, x, u, mode
        self.out_path = _path(f"y{mode}.npy")
        self.journal_path = _path(f"y{mode}.journal")

    def planner(self, shape, mode, j, layout, dtype=None):
        return self.lib.plan(shape, mode, j, layout, dtype=dtype)

    def executor(self, tile_plan, x_tile, u, y_tile):
        return self.lib.execute(tile_plan, x_tile, u, out=y_tile)

    def clean(self) -> None:
        """Remove the previous landing so the next run starts fresh."""
        for path in (self.out_path, self.out_path + ".partial",
                     self.journal_path, self.journal_path + ".u.npy"):
            if os.path.exists(path):
                os.remove(path)

    def run(self, journal: bool = True):
        from repro import ttm_tiled

        return ttm_tiled(
            self.x, self.u, self.mode, out_path=self.out_path,
            journal_path=self.journal_path if journal else None,
            planner=self.planner, executor=self.executor)

    def tiling(self):
        from repro.core.tiling import TilingPlanner

        base = self.lib.plan(SHAPE, self.mode, J, self.x.layout)
        return TilingPlanner(self.planner).plan(base)

    def tile_gemms(self, scratch: np.ndarray):
        """A thunk running, bare, the GEMM of every tile this TTM runs.

        A packed tile is a staged copy small enough to stay in cache, so
        each distinct packed tile shape gets one staged copy of a real
        tile and its GEMM runs once per tile of that shape.  View tiles
        contract the input's own bytes, as the tiled executor does.
        """
        tiling = self.tiling()
        counts: dict = {}
        for spec in tiling.tiles():
            counts.setdefault(spec.tile_shape, [spec, 0])[1] += 1
        thunks = []
        for shape, (spec, n) in counts.items():
            if tiling.packed:
                tile = np.ascontiguousarray(self.x.data[spec.in_slices])
                thunks.append((gemm_reference(tile, self.u), n))
            else:
                thunks.append((gemm_reference(
                    self.x.data, self.u, int(np.prod(shape)), scratch), n))

        def run():
            for thunk, n in thunks:
                for _ in range(n):
                    thunk()

        return run

    def check(self, y) -> bool:
        """Oracle on two thin slabs of an uncontracted mode."""
        axis = 0 if self.mode != 0 else len(SHAPE) - 1
        for s in (slice(0, 2), slice(-2, None)):
            index = (slice(None),) * axis + (s,)
            if not matches(y.data[index],
                           reference(self.x.data[index], self.u, self.mode),
                           "float64"):
                return False
        return True


def _jobs(lib, x, seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    return [Job(lib, x, rng.random((J, SHAPE[m])), m) for m in MODES]


def cold_setup(x) -> None:
    """Fresh facade, empty codegen cache, every tiling and tile plan
    planned and compiled.  Tiles are not run: one run is an op."""
    from repro import InTensLi
    from repro.core.codegen import clear_cache, compile_plan

    lib = InTensLi()
    clear_cache()
    for job in _jobs(lib, x, 0):
        tiling = job.tiling()
        for shape in {t.tile_shape for t in tiling.tiles()}:
            compile_plan(lib.plan(shape, job.mode, J, x.layout))


def counts(jobs) -> dict:
    tilings = [job.tiling() for job in jobs]
    return {
        "tiling.tiles": sum(t.n_tiles for t in tilings),
        "tiling.pack_mb": sum(
            sum(8 * int(np.prod(s.tile_shape)) for s in t.tiles())
            for t in tilings if t.packed) / 1e6,
        "tiling.parts": [list(t.parts) for t in tilings],
        "work.flops_per_pass": sum(2 * J * int(np.prod(SHAPE)) for _ in jobs),
        "work.signatures": len(jobs),
        "plans": layers.plan_table([
            job.planner(t.tile_shape, job.mode, J, job.x.layout)
            for job, tiling in zip(jobs, tilings)
            for t in list(tiling.tiles())[:1]]),
    }


def _landing(job: Job, out: Outcome, journal: bool = True,
             span=nullcontext):
    """Clean, run one tiled TTM inside ``span()`` (timed), verify.

    Returns ``(seconds, output)``, or None when the run raised a typed
    error (counted as failed).
    """
    from repro.resilience.recovery import verify_journal
    from repro.util.errors import ReproError

    job.clean()
    out.attempted += 1
    t0 = ns()
    try:
        with span():
            y = job.run(journal)
    except ReproError:
        out.failed += 1
        return None
    seconds = (ns() - t0) * 1e-9
    if journal and not verify_journal(job.journal_path).ok:
        out.wrong += 1
    return seconds, y


def _start(seed: int):
    from repro import InTensLi

    x = write_input(seed)
    reset_peak_rss()
    out = Outcome()
    lib = InTensLi()
    jobs = _jobs(lib, x, seed)
    out.counts = counts(jobs)
    for job in jobs:  # warm-up pass, every landing checked
        landed = _landing(job, out)
        if landed is not None and not job.check(landed[1]):
            out.wrong += 1
    return lib, x, jobs, out


def measure(seed: int, seconds: float) -> Outcome:
    lib, x, jobs, out = _start(seed)
    setup = SetupSampler(lambda: cold_setup(x))
    scratch = gemm_scratch(x.data, [job.u for job in jobs])
    blas = [job.tile_gemms(scratch) for job in jobs]
    passes, ratios = [], []
    rounds = 0
    deadline = ns() + int(seconds * 1e9)
    while ns() < deadline or rounds < MIN_PASSES:
        times = []
        for k, job in enumerate(jobs):
            landed = _landing(job, out)
            if landed is not None:
                times.append(landed[0])
                if rounds % len(jobs) == k and not job.check(landed[1]):
                    out.wrong += 1
        if len(times) == len(jobs):  # a failed landing drops the pass
            ref = sum(time_once(b) for b in blas)
            passes.append(times)
            ratios.append(ref / sum(times))
        setup.sample()
        rounds += 1
    out.metrics.update(
        ops_per_s=median(len(p) / sum(p) for p in passes),
        latency_p50_us=median(median(p) for p in passes) * 1e6,
        # A window is one pass (3 ops), so its p99 is its slowest op.
        latency_p99_us=median(float(np.percentile(p, 99))
                              for p in passes) * 1e6,
        frac_of_blas=median(ratios),
        peak_rss_mb=peak_rss_mb(),
        setup_s=setup.setup_s(),
        setup_raw_s=setup.raw_s(),
    )
    out.notes.update(passes=len(passes), ops_per_pass=len(jobs))
    return out


def trace(seed: int, seconds: float, rec: Recorder) -> Outcome:
    from repro import DenseTensor
    from repro.resilience.memory import pinned_budget
    from repro.resilience.recovery import verify_journal

    lib, x, jobs, out = _start(seed)
    reps = 5
    inmem = DenseTensor(np.array(x.data), x.layout)
    for k, job in enumerate(jobs):
        for _ in range(reps):
            rec.timed("tiling.plan", job.tiling, k)
            # Journaled last, so its journal is there to verify.
            for journal, name in ((False, "tiled.plain"),
                                  (True, "tiled.journaled")):
                _landing(job, out, journal,
                         span=lambda name=name, k=k: rec.span(name, k))
            rec.timed("recovery.verify",
                      lambda: verify_journal(job.journal_path), k)
            with pinned_budget(1 << 40):
                rec.timed("untiled.inmem",
                          lambda: lib.ttm(inmem, job.u, job.mode), k)
    journaled = rec.per_tag_us("tiled.journaled")
    plain = rec.per_tag_us("tiled.plain")
    untiled = rec.per_tag_us("untiled.inmem")
    out.metrics["tiling.plan_us"] = rec.mix_us("tiling.plan")
    out.metrics["tiling.tax"] = sum(plain.values()) / sum(
        untiled.values()) - 1.0
    out.metrics["recovery.journal_overhead_frac"] = sum(
        journaled.values()) / sum(plain.values()) - 1.0
    out.metrics["recovery.verify_ms"] = rec.mix_us("recovery.verify") * 1e-3
    buf = np.empty(SHAPE)
    out.metrics["memmap.input_gbs"] = x.nbytes / median(
        time_once(lambda: np.copyto(buf, x.data)) for _ in range(reps)) / 1e9
    # Per-layer costs of one tile's facade call, on an in-memory tile.
    sigs = []
    for job in jobs:
        first = next(iter(job.tiling().tiles()))
        tile = DenseTensor(np.array(x.data[first.in_slices]), x.layout)
        sigs.append((tile, job.u, job.mode))
    for tile, u, mode in sigs:
        out.attempted += 1
        shape = tile.shape[:mode] + (J,) + tile.shape[mode + 1:]
        y, y2 = (DenseTensor.empty(shape, tile.layout) for _ in range(2))
        lib.ttm(tile, u, mode, out=y)
        layers.decomposed_ttm(lib, tile, u, mode, out=y2)
        if not np.array_equal(y.data, y2.data):
            out.wrong += 1
    out.metrics.update(layers.profile_signatures(
        lib, sigs, rec, reps=20, copy_baseline=False, preallocated=True))
    # The recorder's own cost: passes with and without a span per landing.
    scratch = Recorder()
    landings = [lambda job=job: _landing(job, out) for job in jobs]
    spanned = [lambda land=land: scratch.timed("op", land)
               for land in landings]
    out.metrics["trace.overhead_frac"] = paired_overhead(
        landings, spanned, 1, seconds / 5)
    return out
