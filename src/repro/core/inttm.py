"""The in-place TTM executor: Algorithm 2, interpreted from a plan.

``ttm_inplace`` walks the loop-mode iteration space and runs the planned
GEMM kernel on copy-free *views* of the input and output tensors, writing
straight through the output tensor's storage.

The executor has two code shapes, chosen by the plan:

* **Batched** (``plan.batch_modes`` non-empty): the innermost run of
  loop modes is fused into the batch dimension of a rank-3 strided view
  (:class:`repro.tensor.views.BatchViewFactory`), and one batched GEMM
  (:func:`repro.gemm.batched.gemm_batched`) replaces that whole run of
  per-index dispatches.  Only the *outer* residue of ``M_L`` remains an
  interpreted loop, which cuts interpreter crossings by the batch factor
  — the GETT-style move of mapping the loop nest onto batched matrix
  multiply primitives instead of interpreted outer loops.
* **Per-iteration** (``batch_modes`` empty): the original Algorithm 2
  loop, one GEMM per loop index, kept as the fallback for plans whose
  strides do not permit stacking and for explicitly unbatched plans.

Both paths hoist every loop-invariant out of the body: view geometry is
precomputed once per call (the factories), the kernel callable is
resolved once (no per-iteration registry lookups), and ``U^T`` for the
backward strategy is derived once.

Operands are validated by the prologue every executor shares
(:func:`repro.core.bind.bind`); :func:`run_interpreted` is the loop
itself, which the facade's interpreted executor calls on operands it
has already bound.

Total extra memory: one J x I_n transpose of U for the backward strategy
(a view, not a copy) and nothing else.  This is what "in-place" means in
the paper: the conventional implementation's tensor-sized matricization
buffers simply do not exist.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro.core.bind import bind
from repro.core.plan import Strategy, TtmPlan
from repro.obs.tracer import active_tracer
from repro.parallel.parfor import parfor
from repro.perf.profiler import active_hot_counters
from repro.resilience.fallback import (
    KernelChain,
    build_batched_tiers,
    build_gemm_tiers,
)
from repro.resilience.faults import active_faults
from repro.resilience.memory import (
    MEM_LIMIT_ENV,
    exceeded_budget,
    refuse_or_replan,
)
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.tensor.views import BatchViewFactory, MatrixViewFactory
from repro.util.dtypes import DEFAULT_DTYPE, canonical_dtype
from repro.util.errors import PlanError, ShapeError
from repro.util.validation import (
    check_finite_result,
    check_mode,
    check_positive_int,
)


def default_plan(
    shape,
    mode: int,
    j: int,
    layout,
    loop_threads: int = 1,
    kernel_threads: int = 1,
    kernel: str = "auto",
    degree: int | None = None,
    batched: bool = True,
    dtype=None,
) -> TtmPlan:
    """A maximal-merge plan (all available contiguous modes in ``M_C``).

    This is the un-tuned but always-correct choice; the estimator
    (:mod:`repro.core.estimator`) refines the degree and thread split.
    With ``batched=True`` (the default) the maximal stackable run of loop
    modes is marked for batched execution; ``batched=False`` pins the
    classic per-iteration loop.
    """
    shape_t = tuple(int(s) for s in shape)
    order = len(shape_t)
    mode = check_mode(mode, order)
    check_positive_int(j, "j")
    layout = Layout.parse(layout)
    dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
    from repro.core.partition import (
        available_modes_for_strategy,
        choose_batch_modes,
        component_modes_for_strategy,
        strategy_for,
    )

    strategy = strategy_for(order, mode, layout)
    available = available_modes_for_strategy(order, mode, strategy)
    if degree is None:
        degree = len(available)
    comp = component_modes_for_strategy(order, mode, strategy, degree)
    loops = tuple(m for m in range(order) if m != mode and m not in comp)
    batch = (
        choose_batch_modes(shape_t, layout, mode, j, loops) if batched else ()
    )
    return TtmPlan(
        shape=shape_t,
        mode=mode,
        j=j,
        layout=layout,
        strategy=strategy,
        component_modes=comp,
        loop_modes=loops,
        loop_threads=loop_threads,
        kernel_threads=kernel_threads,
        kernel=kernel,
        batch_modes=batch,
        dtype=dt.name,
    )


def _kernel_runner(plan: TtmPlan, accumulate: bool = False) -> KernelChain:
    """A degrading dispatcher for the inner GEMM per the plan's kernel.

    The tier list is resolved from the registry *once* here; loop bodies
    call the chain directly without any per-iteration registry lookups.
    When the planned kernel raises a recoverable error the chain retries
    the multiply one tier down (``blas -> blocked -> reference``) and
    stays degraded for the rest of this call — see
    :mod:`repro.resilience.fallback`.
    """
    return KernelChain(build_gemm_tiers(plan), accumulate=accumulate)


def _batched_runner(plan: TtmPlan, accumulate: bool = False) -> KernelChain:
    """Like :func:`_kernel_runner`, but dispatching whole batches."""
    return KernelChain(build_batched_tiers(plan), accumulate=accumulate)


def _execute_batched(x, u, ut, y, plan: TtmPlan, accumulate: bool) -> None:
    """The batched engine: one batched GEMM per *outer* loop index."""
    comp = plan.component_modes
    mode_t = plan.mode
    batch = plan.batch_modes
    outer = plan.outer_loop_modes
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    counters = active_hot_counters()
    tracer = active_tracer()
    run_batched = _batched_runner(plan, accumulate=accumulate)

    # Degree 0 batches fibers as (B, I_n, 1) single-column matrices.
    rows_x = (mode_t,)
    with tracer.span("view-build", engine="batched", batch_modes=list(batch)):
        if forward:
            x_views = BatchViewFactory(x, batch, rows_x, comp, outer)
            y_views = BatchViewFactory(y, batch, rows_x, comp, outer)
        else:
            x_views = BatchViewFactory(x, batch, comp, rows_x, outer)
            y_views = BatchViewFactory(y, batch, comp, rows_x, outer)

    def dispatch(x3, y3):
        # Algorithm 2's kernel, lifted to rank 3 over the batch run:
        # forward Y3[b] = U @ X3[b]; backward Y3[b] = X3[b] @ U^T.
        if forward:
            run_batched(u, x3, y3)
        else:
            run_batched(x3, ut, y3)
        if counters is not None:
            counters.count_batched(x3.shape[0])

    if tracer.enabled:
        # Parent kernel spans to the span current *here*, so bodies run
        # by parfor worker threads stay attached to this dispatch.
        dispatch_parent = tracer.current_span()
        m_k, k_k, n_k = plan.kernel_shape
        plain_dispatch = dispatch

        def dispatch(x3, y3):
            with tracer.span(
                "gemm-kernel",
                # Worker threads have an empty span stack: fall back to
                # the span that was current at dispatch-construction time
                # so their kernels stay attached to this call's tree.
                parent=tracer.current_span() or dispatch_parent,
                batch=int(x3.shape[0]),
                m=m_k,
                k=k_k,
                n=n_k,
                kernel=plan.kernel,
                dtype=plan.dtype,
            ):
                plain_dispatch(x3, y3)

    b_extent = x_views.batch_extent
    if plan.loop_threads > 1 and not outer and b_extent > 1:
        # No outer loop to parallelize: split the batch itself across the
        # P_L workers (each chunk is still one batched dispatch).
        x3 = x_views.view(())
        y3 = y_views.view(())
        n_chunks = min(plan.loop_threads, b_extent)
        chunk = math.ceil(b_extent / n_chunks)

        def chunk_body(index):
            lo = index[0] * chunk
            hi = min(lo + chunk, b_extent)
            dispatch(x3[lo:hi], y3[lo:hi])

        parfor((n_chunks,), chunk_body, threads=plan.loop_threads)
        return

    if counters is None:

        def body(index):
            dispatch(x_views.view(index), y_views.view(index))

    else:

        def body(index):
            start = time.perf_counter()
            x3 = x_views.view(index)
            y3 = y_views.view(index)
            counters.add_view_time(time.perf_counter() - start)
            dispatch(x3, y3)

    parfor(plan.outer_loop_extents, body, threads=plan.loop_threads)


def _execute_looped(x, u, ut, y, plan: TtmPlan, accumulate: bool) -> None:
    """The per-iteration fallback: one GEMM dispatch per loop index."""
    comp = plan.component_modes
    mode_t = plan.mode
    loops = plan.loop_modes
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    counters = active_hot_counters()
    tracer = active_tracer()
    run_kernel = _kernel_runner(plan, accumulate=accumulate)

    # Degree 0 falls into the forward shape with an empty column run:
    # each kernel is a GEMV-shaped GEMM on an (I_n, 1) fiber view.
    rows = (mode_t,)
    with tracer.span("view-build", engine="looped", loop_modes=list(loops)):
        if forward:
            x_views = MatrixViewFactory(x, rows, comp, loops)
            y_views = MatrixViewFactory(y, rows, comp, loops)
        else:
            x_views = MatrixViewFactory(x, comp, rows, loops)
            y_views = MatrixViewFactory(y, comp, rows, loops)

    if tracer.enabled:
        dispatch_parent = tracer.current_span()
        m_k, k_k, n_k = plan.kernel_shape

        def body(index):
            x_sub = x_views.view(index)
            y_sub = y_views.view(index)
            with tracer.span(
                "gemm-kernel",
                parent=tracer.current_span() or dispatch_parent,
                m=m_k,
                k=k_k,
                n=n_k,
                kernel=plan.kernel,
                dtype=plan.dtype,
            ):
                if forward:
                    run_kernel(u, x_sub, y_sub)
                else:
                    run_kernel(x_sub, ut, y_sub)
            if counters is not None:
                counters.count_gemm()

    elif counters is None:

        def body(index):
            x_sub = x_views.view(index)
            y_sub = y_views.view(index)
            if forward:
                run_kernel(u, x_sub, y_sub)
            else:
                run_kernel(x_sub, ut, y_sub)

    else:

        def body(index):
            start = time.perf_counter()
            x_sub = x_views.view(index)
            y_sub = y_views.view(index)
            counters.add_view_time(time.perf_counter() - start)
            if forward:
                run_kernel(u, x_sub, y_sub)
            else:
                run_kernel(x_sub, ut, y_sub)
            counters.count_gemm()

    parfor(plan.loop_extents, body, threads=plan.loop_threads)


def ttm_inplace(
    x: DenseTensor,
    u: np.ndarray,
    mode: int | None = None,
    plan: TtmPlan | None = None,
    out: DenseTensor | None = None,
    transpose_u: bool = False,
    accumulate: bool = False,
    check_finite: bool = False,
    allow_replan: bool = False,
) -> DenseTensor:
    """Compute ``Y = X x_mode U`` in place of a preallocated output.

    Either *plan* or *mode* must be given; with only *mode*, the maximal
    default plan is used.  With ``transpose_u=True`` the product is
    ``X x_mode U^T`` for *u* of shape ``(I_n, J)`` — the Tensor Toolbox's
    ``ttm(X, A, n, 't')`` convention, served by a transpose *view* (no
    copy), which is what Tucker's factor projections want.  With
    ``accumulate=True`` (requires *out*) the product is *added* into the
    output — GEMM's beta=1, useful for summing partial contractions.
    With ``check_finite=True`` the result is validated for NaN/Inf after
    execution (:class:`~repro.util.errors.NumericError` on failure).
    ``allow_replan=True`` lets the memory pre-flight guard substitute a
    lower-degree plan instead of raising
    :class:`~repro.util.errors.ResourceError` under memory pressure.
    Returns the output tensor (newly allocated when *out* is None).
    """
    if accumulate and out is None:
        raise PlanError("accumulate=True requires a preallocated out")
    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    if transpose_u:
        u_arr = np.asarray(u)
        if u_arr.ndim != 2:
            raise ShapeError(f"U must be 2-D (I_n x J), got {u_arr.ndim}-D")
        u = u_arr.T  # a view; BLAS-legal (unit stride in one dimension)
    if plan is None:
        if mode is None:
            raise PlanError("ttm_inplace needs a plan or a mode")
        u_arr = np.asarray(u)
        if u_arr.ndim != 2:
            raise ShapeError(f"U must be 2-D (J x I_n), got {u_arr.ndim}-D")
        plan = default_plan(
            x.shape, mode, u_arr.shape[0], x.layout, dtype=x.data.dtype.name
        )
    bound = bind(plan, x, u, out, compiled=False)
    u = bound.operand(u)
    # Pre-flight: size the allocation before making it, so memory
    # pressure surfaces as a typed error (or a lower-degree replan)
    # instead of an OOM kill mid-write.  A replan keeps the signature,
    # so the bound output checks still hold for it.
    budget, _ = exceeded_budget(
        bound.need, active_faults(), os.environ.get(MEM_LIMIT_ENV)
    )
    if budget is not None:
        plan = refuse_or_replan(
            plan, bound.need, budget,
            allocate_out=out is None, allow_replan=allow_replan,
        )
    y = bound.output(out)
    run_interpreted(plan, x, u, y, accumulate)
    if check_finite:
        check_finite_result(y.data, kernel=plan.kernel, context="ttm")
    return y


def run_interpreted(
    plan: TtmPlan,
    x: DenseTensor,
    u: np.ndarray,
    y: DenseTensor,
    accumulate: bool = False,
) -> None:
    """Algorithm 2 on already-validated operands, writing through *y*."""
    ut = u.T  # view; used by the backward kernel form
    run = _execute_batched if plan.batch_modes else _execute_looped
    tracer = active_tracer()
    if not tracer.enabled:
        run(x, u, ut, y, plan, accumulate)
        return
    with tracer.span(
        "execute",
        executor="interpreted",
        shape=list(plan.shape),
        mode=plan.mode,
        j=plan.j,
        layout=plan.layout.name,
        degree=plan.degree,
        batch_modes=list(plan.batch_modes),
        kernel=plan.kernel,
        dtype=plan.dtype,
        flops=plan.total_flops,
    ):
        run(x, u, ut, y, plan, accumulate)
