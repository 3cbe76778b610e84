"""The INTENSLI facade: benchmark management, plan caching, execution.

``InTensLi`` ties the whole framework together the way figure 7 draws it:

* it owns (or builds) the **MM benchmark** — measured on this host, or a
  deterministic synthetic profile for a platform preset;
* for each new input signature it runs the **parameter estimator** and
  caches the resulting plan;
* it executes plans either through the generic interpreter
  (:func:`repro.core.inttm.ttm_inplace`) or through **generated code**
  (:mod:`repro.core.codegen`).

The top-level :func:`repro.ttm` wraps a module-wide default instance.
"""

from __future__ import annotations

import logging
import os
from typing import Sequence

import numpy as np

from repro.analysis.roofline import CORE_I7_4770K, RooflinePlatform
from repro.core.chain import (
    ChainPlan,
    ChainStep,
    ScratchPool,
    execute_chain,
    plan_chain,
)
from repro.core.bind import BoundPlan, bind, match_u_dtype
from repro.core.codegen import compile_plan
from repro.core.estimator import ParameterEstimator
from repro.core.inttm import run_interpreted
from repro.core.plan import TtmPlan
from repro.core.threads import DEFAULT_PTH_BYTES
from repro.core.tiling import (
    TilingPlanner,
    execute_tiled,
    ttm_stream as _ttm_stream,
)
from repro.gemm.bench import (
    GemmProfile,
    default_shape_grid,
    measure_profile,
    synthetic_profile,
)
from repro.obs.tracer import active_tracer
from repro.resilience.fallback import recoverable
from repro.resilience.faults import active_faults, record_degradation
from repro.resilience.memory import (
    MEM_LIMIT_ENV,
    exceeded_budget,
    refuse_or_replan,
)
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.dtypes import DEFAULT_DTYPE, canonical_dtype
from repro.util.errors import ResourceError, ShapeError
from repro.util.validation import check_finite_result, check_positive_int

log = logging.getLogger("repro.core")


class InTensLi:
    """Input-adaptive, in-place TTM with plan caching.

    Parameters
    ----------
    profile:
        A pre-built GEMM benchmark.  When None, one is created according
        to *benchmark*: ``"synthetic"`` (default; the roofline model of
        *platform* — fast and deterministic) or ``"measure"`` (time real
        kernels on this host; slower, once per process).
    platform:
        Roofline preset used for synthetic profiles.
    max_threads:
        The thread budget for ``P_L``/``P_C``.
    executor:
        ``"generated"`` (default: compile specialized code per plan) or
        ``"interpreted"`` (the generic Algorithm-2 interpreter).
    """

    def __init__(
        self,
        profile: GemmProfile | None = None,
        platform: RooflinePlatform = CORE_I7_4770K,
        max_threads: int = 1,
        benchmark: str = "synthetic",
        benchmark_j: Sequence[int] = (16,),
        pth_bytes: int = DEFAULT_PTH_BYTES,
        kappa: float = 0.8,
        executor: str = "generated",
    ) -> None:
        check_positive_int(max_threads, "max_threads")
        if executor not in ("generated", "interpreted"):
            raise ShapeError(
                f"executor must be 'generated' or 'interpreted', got {executor!r}"
            )
        if profile is None:
            grid = default_shape_grid(m_values=tuple(benchmark_j))
            threads = (1, max_threads) if max_threads > 1 else (1,)
            if benchmark == "synthetic":
                profile = synthetic_profile(grid, platform, threads=threads)
            elif benchmark == "calibrate":
                # Measure this host's roofline once (a GEMM + a STREAM
                # triad), then evaluate the model — far cheaper than the
                # full shape benchmark, host-accurate unlike a preset.
                from repro.perf.calibrate import host_platform

                platform = host_platform()
                profile = synthetic_profile(grid, platform, threads=threads)
            elif benchmark == "measure":
                profile = measure_profile(grid, threads=threads)
            else:
                raise ShapeError(
                    f"benchmark must be 'synthetic', 'calibrate', or "
                    f"'measure', got {benchmark!r}"
                )
        self.profile = profile
        self.platform = platform
        self.max_threads = max_threads
        self.executor = executor
        self.estimator = ParameterEstimator(
            profile=profile,
            max_threads=max_threads,
            pth_bytes=pth_bytes,
            kappa=kappa,
        )
        self._plan_cache: dict[tuple, TtmPlan] = {}
        self._persistent_cache = None
        self._chain_cache: dict[tuple, ChainPlan] = {}
        self._chain_pool = ScratchPool()
        # Call signature -> BoundPlan (repro.core.bind).  Keys hold only
        # shapes, layouts, dtypes, modes and plans; cleared whenever the
        # plan a signature resolves to may change.
        self._bound: dict[tuple, BoundPlan] = {}

    # -- planning -------------------------------------------------------------

    def attach_calibration(self, record, refresh_profile: bool = True) -> None:
        """Adopt a live-machine calibration for all future planning.

        *record* is duck-typed — anything with ``thresholds_for(j,
        max_threads)`` and ``digest()``, in practice a
        :class:`repro.perf.dse.CalibrationRecord` (this facade cannot
        import it directly without inverting the layering); ``None``
        detaches and returns to profile/paper thresholds.  The record's
        fitted PTH replaces the estimator's when present, and with
        *refresh_profile* a fitted roofline (peak + bandwidth) rebuilds
        the synthetic profile so the model-refinement stage predicts
        with calibrated rates too.  Per-process plan caches are cleared
        — stale decisions made under the old thresholds must not
        outlive them (the persistent cache keeps its entries: those are
        *measured* promotions, which calibration refines toward, not
        against).
        """
        self.estimator.calibration = record
        if record is not None:
            pth = getattr(record, "pth_bytes", None)
            if pth:
                self.estimator.pth_bytes = int(pth)
            if refresh_profile:
                platform = None
                platform_of = getattr(record, "platform", None)
                if callable(platform_of):
                    platform = platform_of()
                if platform is not None:
                    grid = sorted({(p.m, p.k, p.n) for p in self.profile.points})
                    threads = self.profile.thread_counts()
                    self.platform = platform
                    self.profile = synthetic_profile(
                        grid, platform, threads=threads
                    )
                    self.estimator.profile = self.profile
                    self.estimator.invalidate_thresholds()
        self._plan_cache.clear()
        self._chain_cache.clear()
        self._bound.clear()

    def attach_plan_cache(self, cache) -> None:
        """Route plan lookups through a persistent cache.

        *cache* is duck-typed — anything with ``get_plan(shape, mode, j,
        layout, threads)`` and ``put_plan(..., plan, source)``; in
        practice a :class:`repro.autotune.PlanCache` (this facade cannot
        import it directly without inverting the layering).  While
        attached, the cache replaces the private per-process dict as the
        single source of truth, so decisions survive the process and are
        shared with any :class:`repro.autotune.AutotuneSession` wrapping
        this instance.
        """
        self._persistent_cache = cache
        self._bound.clear()

    def plan(
        self,
        shape: Sequence[int],
        mode: int,
        j: int,
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
    ) -> TtmPlan:
        """The (cached) plan for an input signature (geometry + dtype)."""
        layout = Layout.parse(layout)
        dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
        shape_t = tuple(int(s) for s in shape)
        tracer = active_tracer()
        if not tracer.enabled:
            return self._plan_impl(shape_t, mode, j, layout, dt)
        with tracer.span(
            "plan",
            shape=list(shape_t),
            mode=mode,
            j=j,
            layout=layout.name,
            dtype=dt.name,
            threads=self.max_threads,
        ) as span:
            plan = self._plan_impl(shape_t, mode, j, layout, dt)
            span.set(
                strategy=plan.strategy.value,
                degree=plan.degree,
                batch_modes=list(plan.batch_modes),
                loop_threads=plan.loop_threads,
                kernel_threads=plan.kernel_threads,
                kernel=plan.kernel,
            )
        return plan

    def _plan_impl(
        self,
        shape_t: tuple[int, ...],
        mode: int,
        j: int,
        layout: Layout,
        dt: np.dtype,
    ) -> TtmPlan:
        tracer = active_tracer()
        if self._persistent_cache is not None:
            if tracer.enabled:
                with tracer.span("cache-lookup", persistent=True) as span:
                    plan = self._persistent_cache.get_plan(
                        shape_t, mode, j, layout, self.max_threads,
                        dtype=dt.name,
                    )
                    span.set(hit=plan is not None)
            else:
                plan = self._persistent_cache.get_plan(
                    shape_t, mode, j, layout, self.max_threads, dtype=dt.name
                )
            if plan is None:
                plan = self.estimator.estimate(
                    shape_t, mode, j, layout, dtype=dt
                )
                self._persistent_cache.put_plan(
                    shape_t, mode, j, layout, self.max_threads, plan,
                    source="estimator", dtype=dt.name,
                )
            return plan
        key = (shape_t, mode, j, layout, dt.name)
        if tracer.enabled:
            with tracer.span("cache-lookup", persistent=False) as span:
                plan = self._plan_cache.get(key)
                span.set(hit=plan is not None)
        else:
            plan = self._plan_cache.get(key)
        if plan is None:
            plan = self.estimator.estimate(shape_t, mode, j, layout, dtype=dt)
            self._plan_cache[key] = plan
        return plan

    @property
    def cached_plans(self) -> int:
        return len(self._plan_cache)

    @property
    def cached_chain_plans(self) -> int:
        return len(self._chain_cache)

    @property
    def machine_balance(self) -> float:
        """Flops per byte at this platform's roofline ridge point.

        The chain planner weighs a candidate order's intermediate bytes
        against its flops at exactly this ratio, so an order that saves
        traffic wins whenever the chain is bandwidth-bound on this
        machine.
        """
        bandwidth = max(self.platform.bandwidth_gbs, 1e-9)
        return max(self.platform.peak_gflops / bandwidth, 1e-9)

    def plan_chain(
        self,
        shape: Sequence[int],
        steps: Sequence[tuple[int, int]],
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
        order: "str | Sequence[int]" = "auto",
    ) -> ChainPlan:
        """The (cached) whole-chain plan for a chain signature.

        *steps* is the ``(mode, J)`` sequence.  The chain plan is cached
        under a chain-qualified key — the full step signature, not any
        single product — while each per-step :class:`TtmPlan` flows
        through :meth:`plan` and therefore through the persistent
        autotune cache under its own per-step signature, so chains that
        share steps share tuned decisions.
        """
        layout = Layout.parse(layout)
        dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
        shape_t = tuple(int(s) for s in shape)
        sig = tuple((int(m), int(j)) for m, j in steps)
        order_key = order if isinstance(order, str) else tuple(order)
        key = (shape_t, sig, layout, dt, self.max_threads, order_key)
        tracer = active_tracer()
        if not tracer.enabled:
            return self._plan_chain_impl(key, shape_t, sig, layout, dt, order)
        with tracer.span(
            "chain-plan",
            shape=list(shape_t),
            steps=[[m, j] for m, j in sig],
            layout=layout.name,
            dtype=dt.name,
            threads=self.max_threads,
        ) as span:
            cached = key in self._chain_cache
            plan = self._plan_chain_impl(key, shape_t, sig, layout, dt, order)
            span.set(
                cache_hit=cached,
                order=list(plan.order),
                flops=plan.total_flops,
                peak_intermediate_bytes=plan.peak_intermediate_bytes,
                scratch_slots=len(plan.scratch_elements),
            )
        return plan

    def _plan_chain_impl(
        self,
        key: tuple,
        shape_t: tuple[int, ...],
        sig: tuple[tuple[int, int], ...],
        layout: Layout,
        dt: np.dtype,
        order: "str | Sequence[int]",
    ) -> ChainPlan:
        plan = self._chain_cache.get(key)
        if plan is None:
            def step_planner(shape, mode, j, lay, dtype=None):
                return self.plan(shape, mode, j, lay, dtype=dtype)

            plan = plan_chain(
                shape_t, sig, layout, dtype=dt, order=order,
                planner=step_planner,
                flops_per_byte=self.machine_balance,
            )
            self._chain_cache[key] = plan
        return plan

    def ttm_chain(
        self,
        x: DenseTensor,
        steps,
        out: DenseTensor | None = None,
        order: "str | Sequence[int]" = "auto",
        transpose: bool = False,
    ) -> DenseTensor:
        """Execute a multi-TTM chain fused: plan once, reuse every buffer.

        *steps* are ``(mode, matrix)`` pairs or :class:`ChainStep`
        objects; with ``transpose=True`` every matrix is ``(I_n, J)``
        and applied transposed (the Tucker projection's convention),
        served by transpose views — no copies.  Intermediates ping-pong
        through this instance's scratch pool (reused across calls, so
        HOOI sweeps converge to zero allocations); the final product is
        written into *out* when given.  Each step runs through
        :meth:`execute`, i.e. the facade's configured executor.
        """
        if not isinstance(x, DenseTensor):
            x = DenseTensor(np.asarray(x))
        steps_t = []
        for s in steps:
            if isinstance(s, ChainStep):
                mode, matrix = s.mode, s.matrix
            else:
                mode, matrix = int(s[0]), s[1]
            matrix = match_u_dtype(matrix, x.data.dtype)
            if matrix.ndim != 2:
                raise ShapeError(
                    f"chain step at mode {mode} must be 2-D, got "
                    f"{matrix.ndim}-D"
                )
            if transpose:
                matrix = matrix.T  # view; BLAS-legal
            steps_t.append(ChainStep(mode, matrix))
        plan = self.plan_chain(
            x.shape,
            [(s.mode, s.j) for s in steps_t],
            x.layout,
            dtype=x.data.dtype,
            order=order,
        )

        def run_step(step_plan, x_cur, u, target):
            return self.execute(step_plan, x_cur, u, out=target)

        return execute_chain(
            x, steps_t, plan, out=out, pool=self._chain_pool,
            execute=run_step,
        )

    def release_scratch(self) -> int:
        """Drop the chain scratch buffers; returns the bytes freed."""
        return self._chain_pool.release()

    def __call__(self, x, u, mode, **kwargs):
        """Alias of :meth:`ttm` so an instance is itself a TTM backend."""
        return self.ttm(x, u, mode, **kwargs)

    def tune(
        self,
        x: DenseTensor,
        u: np.ndarray,
        mode: int,
        kernels: Sequence[str] = ("blas",),
        min_seconds: float = 0.02,
    ) -> TtmPlan:
        """Exhaustively tune this input on real data and pin the winner.

        Runs the figure-12 sweep (:class:`~repro.core.tuner
        .ExhaustiveTuner`) over every legal configuration, stores the
        measured best in the plan cache (overriding the estimator for
        this signature from now on), and returns it.  Use for hot
        signatures where the one-off sweep cost is worth paying; the
        pinned result survives ``save_plan_cache``.
        """
        from repro.core.tuner import ExhaustiveTuner

        if not isinstance(x, DenseTensor):
            x = DenseTensor(np.asarray(x))
        u = match_u_dtype(u, x.data.dtype)
        if u.ndim != 2:
            raise ShapeError(f"U must be 2-D (J x I_n), got {u.ndim}-D")
        tuner = ExhaustiveTuner(
            min_seconds=min_seconds,
            executor=self.executor,
        )
        result = tuner.sweep(
            x, u, mode, max_threads=self.max_threads, kernels=kernels
        )
        best = result.best_plan
        self._plan_cache[best.cache_key()] = best
        self._bound.clear()
        if self._persistent_cache is not None:
            self._persistent_cache.put_plan(
                best.shape, best.mode, best.j, best.layout,
                self.max_threads, best, source="tuned", dtype=best.dtype,
            )
        return best

    def save_plan_cache(self, path: str) -> int:
        """Persist every cached plan as JSON; returns the count saved."""
        from repro.core.serialize import save_plans

        plans = list(self._plan_cache.values())
        save_plans(plans, path)
        return len(plans)

    def load_plan_cache(self, path: str) -> int:
        """Pre-populate the plan cache from JSON; returns the count loaded.

        Loaded plans take precedence over estimation for their inputs —
        the offline-autotuning deployment mode.
        """
        from repro.core.serialize import load_plans

        plans = load_plans(path)
        for plan in plans:
            self._plan_cache[plan.cache_key()] = plan
        self._bound.clear()
        return len(plans)

    # -- execution ------------------------------------------------------------

    def ttm(
        self,
        x: DenseTensor,
        u: np.ndarray,
        mode: int,
        out: DenseTensor | None = None,
        transpose_u: bool = False,
        check_finite: bool = False,
        allow_replan: bool = False,
    ) -> DenseTensor:
        """Compute ``Y = X x_mode U`` with the input-adaptive plan.

        ``transpose_u=True`` computes ``X x_mode U^T`` for *u* of shape
        ``(I_n, J)`` via a transpose view (Tensor Toolbox 't' flag).
        ``check_finite=True`` validates the result for NaN/Inf after
        execution and raises :class:`~repro.util.errors.NumericError`
        naming the kernel when any appear.  ``allow_replan=True`` lets
        the memory pre-flight guard swap in a lower-degree plan (smaller
        kernel working set) instead of raising
        :class:`~repro.util.errors.ResourceError` under memory pressure.

        A repeated signature is a bound call: one dict lookup finds the
        plan, footprint and compiled kernel bound on its first call
        (:mod:`repro.core.bind`), and only the per-call configuration —
        tracer, armed faults, the memory budget — is read again.
        """
        if not isinstance(x, DenseTensor):
            x = DenseTensor(np.asarray(x))
        data = x.data
        if type(u) is not np.ndarray or u.dtype != data.dtype:
            u = match_u_dtype(u, data.dtype)
        if u.ndim != 2:
            raise ShapeError(f"U must be 2-D, got {u.ndim}-D")
        if transpose_u:
            u = u.T
        tracer = active_tracer()
        if tracer.enabled:
            with tracer.span(
                "ttm",
                shape=list(x.shape),
                mode=mode,
                j=int(u.shape[0]),
                layout=x.layout.name,
                dtype=data.dtype.name,
                executor=self.executor,
            ):
                plan = self.plan(
                    x.shape, mode, u.shape[0], x.layout, dtype=data.dtype
                )
                return self.execute(
                    plan, x, u, out=out,
                    check_finite=check_finite, allow_replan=allow_replan,
                )
        key = (data.shape, x.layout, data.dtype, mode, u.shape, out is None)
        bound = self._bound.get(key)
        if self._persistent_cache is not None:
            # The attached cache stays the source of truth (and keeps its
            # hit counts): a promotion there replaces the plan object.
            plan = self._plan_impl(
                data.shape, mode, u.shape[0], x.layout, data.dtype
            )
            if bound is None or bound.plan is not plan:
                bound = self._bound[key] = self._bind(plan, x, u, out)
        elif bound is None:
            plan = self.plan(
                data.shape, mode, u.shape[0], x.layout, dtype=data.dtype
            )
            bound = self._bound[key] = self._bind(plan, x, u, out)
        return self._run(bound, x, u, out, check_finite, allow_replan)

    def execute(
        self,
        plan: TtmPlan,
        x: DenseTensor,
        u: np.ndarray,
        out: DenseTensor | None = None,
        check_finite: bool = False,
        allow_replan: bool = False,
    ) -> DenseTensor:
        """Run a specific plan (bypassing estimation) on real data.

        When the plan's footprint exceeds the memory budget — the normal
        case for memmap-backed tensors under ``$REPRO_MEM_LIMIT`` — the
        call transparently reroutes through the tiling planner
        (:mod:`repro.core.tiling`) and executes tile by tile; callers
        see the same output tensor either way.
        """
        if not isinstance(x, DenseTensor):
            raise TypeError(
                f"x must be a DenseTensor, got {type(x).__name__}; wrap "
                "ndarrays so the storage layout is explicit"
            )
        if type(u) is not np.ndarray:
            u = np.asarray(u)
        data = x.data
        key = (plan, data.shape, x.layout, data.dtype, u.shape, u.dtype,
               out is None)
        bound = self._bound.get(key)
        if bound is None:
            bound = self._bound[key] = self._bind(plan, x, u, out)
        return self._run(bound, x, u, out, check_finite, allow_replan)

    def _bind(self, plan: TtmPlan, x: DenseTensor, u, out) -> BoundPlan:
        return bind(plan, x, u, out, compiled=self.executor == "generated")

    def _run(
        self,
        bound: BoundPlan,
        x: DenseTensor,
        u: np.ndarray,
        out: DenseTensor | None,
        check_finite: bool,
        allow_replan: bool,
    ) -> DenseTensor:
        """Execute a bound call: budget, output, kernel, in that order."""
        plan = bound.plan
        u = bound.operand(u)
        faults = active_faults()
        # The call's one read of the memory configuration; the tiling
        # decision and the guard both judge against this budget.
        budget, engaged = exceeded_budget(
            bound.need, faults, os.environ.get(MEM_LIMIT_ENV),
            out_of_core=not x.is_inmem,
        )
        if budget is not None:
            tiled = self._execute_tiled(plan, x, u, out, budget, check_finite)
            if tiled is not None:
                return tiled
            if engaged:
                # A replan keeps the signature, so the bound checks hold.
                plan = refuse_or_replan(
                    plan, bound.need, budget,
                    allocate_out=out is None, allow_replan=allow_replan,
                )
        y = bound.output(out)
        fn = bound.fn
        if fn is None:
            run_interpreted(plan, x, u, y)
        else:
            if plan is not bound.plan:
                fn = compile_plan(plan)
            try:
                if faults is not None:
                    # Generated code may compile down to a raw np.matmul
                    # with no gemm-layer checkpoint inside, so the
                    # injection point for the whole compiled kernel sits
                    # at its dispatch.
                    faults.check("kernel-raise", kernel=plan.kernel,
                                 generated=True)
                tracer = active_tracer()
                if tracer.enabled:
                    with tracer.span(
                        "execute",
                        executor="generated",
                        kernel=plan.kernel,
                        degree=plan.degree,
                        batch_modes=list(plan.batch_modes),
                        dtype=plan.dtype,
                        flops=plan.total_flops,
                    ):
                        fn(x.data, u, y.data)
                else:
                    fn(x.data, u, y.data)
            except BaseException as exc:
                # Generated code dispatches kernels directly (no fallback
                # chain inside the compiled kernel), so a recoverable
                # kernel failure degrades one level up: rerun through the
                # interpreter, whose KernelChain retries tier by tier.
                # Overwrite mode rewrites every element, so a partial
                # write from the failed run cannot survive.
                if not recoverable(exc):
                    raise
                log.warning(
                    "generated executor failed (%s: %s); degrading to the "
                    "interpreted executor", type(exc).__name__, exc,
                )
                record_degradation(
                    "kernel_fallbacks",
                    degraded=True,
                    degraded_from="generated",
                    degraded_to="interpreted",
                    degraded_error=type(exc).__name__,
                )
                run_interpreted(plan, x, u, y)
        if check_finite:
            check_finite_result(y.data, kernel=plan.kernel, context="ttm")
        return y

    def _execute_tiled(
        self,
        plan: TtmPlan,
        x: DenseTensor,
        u: np.ndarray,
        out: DenseTensor | None,
        budget: int,
        check_finite: bool,
    ) -> DenseTensor | None:
        """Reroute a call whose plan exceeds *budget* through tiling.

        Returns None when tiling cannot help (no splittable mode, budget
        below any kernel working set) — the guard then still gets to
        replan or refuse, preserving the pre-tiling contract.
        """

        def planner(shape, mode, j, layout, dtype=None):
            return self.plan(shape, mode, j, layout, dtype=dtype)

        try:
            tiling = TilingPlanner(planner).plan(
                plan, budget=budget, out_preallocated=out is not None
            )
        except ResourceError:
            return None
        if not tiling.tiled:
            return None

        def run_tile(tile_plan, x_tile, u_arr, y_tile):
            return self.execute(tile_plan, x_tile, u_arr, out=y_tile)

        return execute_tiled(
            x, u, tiling, out=out, planner=planner, executor=run_tile,
            check_finite=check_finite,
        )

    def ttm_stream(
        self,
        slices,
        u,
        mode: int,
        axis: int = 0,
        layout: Layout | str = Layout.ROW_MAJOR,
    ):
        """TTM over incrementally produced slices (see
        :func:`repro.core.tiling.ttm_stream`), planned by this facade.

        Chunk plans flow through :meth:`plan` and therefore through the
        estimator and any attached persistent cache — a stream of
        equal-shaped chunks plans exactly once.
        """

        def planner(shape, mode_, j, lay, dtype=None):
            return self.plan(shape, mode_, j, lay, dtype=dtype)

        return _ttm_stream(
            slices, u, mode, axis=axis, layout=layout, planner=planner
        )


_DEFAULT: InTensLi | None = None


def default_intensli() -> InTensLi:
    """The lazily constructed module-wide instance behind :func:`repro.ttm`."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = InTensLi()
    return _DEFAULT


def ttm(
    x: DenseTensor,
    u: np.ndarray,
    mode: int,
    out: DenseTensor | None = None,
    check_finite: bool = False,
    allow_replan: bool = False,
) -> DenseTensor:
    """Input-adaptive in-place TTM using the default :class:`InTensLi`."""
    return default_intensli().ttm(
        x, u, mode, out=out,
        check_finite=check_finite, allow_replan=allow_replan,
    )
