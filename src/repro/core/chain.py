"""Multi-TTM chains: planning and fused execution of Tucker projections.

The paper's motivating workload (§2) is the HOOI chain
``Y = X x_1 A^(1)T ... x_N A^(N)T`` (skipping one mode), i.e. a
*sequence* of mode-n products where each product changes the tensor's
shape and therefore the cost of every later product.  The execution
order is free — mode-n products along distinct modes commute — and the
cost spread between orders grows with the reduction ratios ``I_n / J_n``.

This module plans the chain **as a unit**, the GETT/TBLIS view of a
contraction sequence (contraction without transposition, native-
dimension blocking):

* :func:`greedy_order` / :func:`optimal_order` choose the step order —
  greedy by reduction rate (provably flop-optimal for independent
  per-step multipliers), or exactly by a subset dynamic program whose
  cost model also prices the *intermediate bytes* each order
  materializes, not just its flops (:func:`chain_cost`);
* :class:`ChainPlan` pre-builds every per-step :class:`TtmPlan` once,
  against the evolving shapes of the chosen order, so no step re-plans
  from a cold start;
* :func:`execute_chain` runs the chain through a **ping-pong scratch
  pool** (:class:`ScratchPool`): two reusable buffers are threaded
  through ``ttm_inplace(..., out=)``, so an N-step chain performs at
  most two intermediate allocations instead of N, and the final product
  lands directly in a caller-supplied ``out`` when given.

:func:`ttm_chain` remains the single entry point: with an explicit
*backend* callable it executes step-at-a-time as before (the honest
path for baseline backends that cannot write into preallocated
outputs); with a :class:`ChainPlan` (or none of either) it runs fused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.plan import TtmPlan
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.dtypes import canonical_dtype, is_supported_dtype
from repro.util.errors import DtypeError, PlanError, ShapeError

#: Largest chain the exact order optimizer accepts.  The subset DP is
#: O(2^N * N); beyond this the greedy order is the supported path.
MAX_OPTIMAL_STEPS = 8

#: Default flops-per-byte machine balance used to weigh compute against
#: intermediate traffic when ordering a chain (a roofline ridge point;
#: overridden with the estimator's calibrated value when available).
DEFAULT_FLOPS_PER_BYTE = 16.0


@dataclass(frozen=True)
class ChainStep:
    """One mode-n product in a chain: contract *mode* with *matrix* (J x I_n)."""

    mode: int
    matrix: np.ndarray

    @property
    def j(self) -> int:
        return self.matrix.shape[0]


def _check_chain(shape: Sequence[int], steps: Sequence[ChainStep]) -> None:
    seen = set()
    for step in steps:
        if step.mode in seen:
            raise ShapeError(
                f"mode {step.mode} appears twice in the chain; fold repeated "
                "products into one matrix first"
            )
        seen.add(step.mode)
        if not 0 <= step.mode < len(shape):
            raise ShapeError(
                f"mode {step.mode} out of range for order {len(shape)}"
            )
        if step.matrix.ndim != 2 or step.matrix.shape[1] != shape[step.mode]:
            raise ShapeError(
                f"chain step at mode {step.mode} has matrix shape "
                f"{step.matrix.shape}, expected (J, {shape[step.mode]})"
            )


def _coerce_steps(
    steps: Sequence["ChainStep | tuple[int, np.ndarray]"],
    dtype: np.dtype,
) -> list[ChainStep]:
    """Normalize *steps* to :class:`ChainStep`, preserving the chain dtype.

    Same policy as the executor prologue (:func:`repro.core.bind.bind`):
    a matrix already in the chain dtype passes through untouched; a
    *different* supported float dtype is rejected (silently changing a
    float32 chain to float64 is the upcast-and-copy bug this library
    exists to avoid); non-float input (ints, bools, Python lists) is
    materialized in the chain dtype — J x I_n matrices, negligible next
    to X.
    """
    out: list[ChainStep] = []
    for s in steps:
        if isinstance(s, ChainStep):
            mode, matrix = s.mode, np.asarray(s.matrix)
        else:
            mode, matrix = int(s[0]), np.asarray(s[1])
        if matrix.dtype != dtype:
            if matrix.dtype.kind == "f" and is_supported_dtype(matrix.dtype):
                raise DtypeError(
                    f"chain step at mode {mode} has dtype "
                    f"{matrix.dtype.name} but the tensor is {dtype.name}; "
                    "cast the matrix explicitly — mixing float widths "
                    "would silently change the result's precision"
                )
            matrix = np.asarray(matrix, dtype=dtype)
        if isinstance(s, ChainStep) and matrix is s.matrix:
            out.append(s)
        else:
            out.append(ChainStep(mode, matrix))
    return out


# -- cost models ---------------------------------------------------------------


def _chain_sizes(
    shape: Sequence[int], steps: Sequence[ChainStep]
) -> dict[int, int]:
    """Element count of the intermediate after each *subset* of steps.

    The running size depends only on *which* steps were applied, never
    on their order, so it is memoized per bitmask: ``sizes[mask]`` is
    the intermediate's element count after applying exactly the steps
    whose bits are set.  Both the flop and byte cost models below (and
    the exact order DP) read from this one table instead of re-deriving
    intermediate shapes per permutation.
    """
    n = len(steps)
    base = [int(s) for s in shape]
    sizes = {0: math.prod(base)}
    for mask in range(1, 1 << n):
        low = mask & -mask
        idx = low.bit_length() - 1
        prev = sizes[mask ^ low]
        step = steps[idx]
        old = base[step.mode]
        if old:
            sizes[mask] = prev // old * step.j
        else:
            extents = list(base)
            for k in range(n):
                if mask >> k & 1:
                    extents[steps[k].mode] = steps[k].j
            sizes[mask] = math.prod(extents)
    return sizes


def chain_flops(shape: Sequence[int], steps: Sequence[ChainStep],
                order: Sequence[int] | None = None) -> int:
    """Total flops of executing *steps* in the given order (indices into
    *steps*; default: as given).

    Each product costs ``2 * J_n * prod(current shape)`` and replaces
    ``I_n`` by ``J_n`` in the running shape.  The running element count
    is maintained multiplicatively (one divide/multiply per step)
    instead of re-deriving the intermediate shape at every step.
    """
    _check_chain(shape, steps)
    current = [int(s) for s in shape]
    if order is None:
        order = range(len(steps))
    total = 0
    size = math.prod(current)
    for idx in order:
        step = steps[idx]
        total += 2 * step.j * size
        old = current[step.mode]
        current[step.mode] = step.j
        size = size // old * step.j if old else math.prod(current)
    return total


def chain_intermediate_bytes(
    shape: Sequence[int],
    steps: Sequence[ChainStep],
    order: Sequence[int] | None = None,
    itemsize: int = 8,
) -> tuple[int, int]:
    """(total, peak) bytes of the intermediates an order materializes.

    *total* sums the output tensor of every step (the write traffic the
    chain generates beyond reading X itself); *peak* is the largest
    single intermediate — the quantity that sizes the scratch pool.
    """
    _check_chain(shape, steps)
    current = [int(s) for s in shape]
    if order is None:
        order = range(len(steps))
    size = math.prod(current)
    total = 0
    peak = 0
    for idx in order:
        step = steps[idx]
        old = current[step.mode]
        current[step.mode] = step.j
        size = size // old * step.j if old else math.prod(current)
        total += size * itemsize
        peak = max(peak, size * itemsize)
    return total, peak


def chain_cost(
    shape: Sequence[int],
    steps: Sequence[ChainStep],
    order: Sequence[int] | None = None,
    itemsize: int = 8,
    flops_per_byte: float = DEFAULT_FLOPS_PER_BYTE,
) -> float:
    """Memory-and-intensity-aware cost of an order, in byte-equivalents.

    Each step is charged its data movement — reading the current
    intermediate plus writing the next — and its flops converted at the
    machine-balance ratio *flops_per_byte*.  Minimizing this favors the
    flop-minimal order when the chain is compute-bound and the
    smallest-intermediates order when it is bandwidth-bound, which is
    what the fused executor's wall clock actually tracks.
    """
    _check_chain(shape, steps)
    current = [int(s) for s in shape]
    if order is None:
        order = range(len(steps))
    size = math.prod(current)
    cost = 0.0
    for idx in order:
        step = steps[idx]
        before = size
        old = current[step.mode]
        current[step.mode] = step.j
        size = size // old * step.j if old else math.prod(current)
        cost += (before + size) * itemsize
        cost += 2.0 * step.j * before / flops_per_byte
    return cost


def greedy_order(shape: Sequence[int], steps: Sequence[ChainStep]) -> tuple[int, ...]:
    """The minimum-flop execution order, by the exchange criterion.

    For two adjacent steps a, b over current size S the costs are
    ``2 J_a S + 2 J_b S J_a/I_a`` vs the swapped form, and a-first wins
    exactly when ``1/J_a - 1/I_a > 1/J_b - 1/I_b``.  The criterion is a
    per-step constant, so sorting by it (descending) is globally optimal
    — an exchange-argument scheduling result, validated against the
    brute-force :func:`optimal_order` in tests.  Ties broken by mode
    index for determinism.
    """
    _check_chain(shape, steps)

    def criterion(idx: int) -> float:
        step = steps[idx]
        return 1.0 / step.j - 1.0 / shape[step.mode]

    return tuple(
        sorted(range(len(steps)), key=lambda i: (-criterion(i), steps[i].mode))
    )


def optimal_order(
    shape: Sequence[int],
    steps: Sequence[ChainStep],
    cost: str = "flops",
    itemsize: int = 8,
    flops_per_byte: float = DEFAULT_FLOPS_PER_BYTE,
) -> tuple[int, ...]:
    """The exactly minimal execution order, by subset dynamic program.

    *cost* selects the objective: ``"flops"`` (the classic count) or
    ``"roofline"`` (:func:`chain_cost`'s byte-equivalents, pricing
    intermediate traffic against compute).  The DP memoizes intermediate
    sizes per applied-step subset (:func:`_chain_sizes`) and runs in
    O(2^N * N) instead of the old O(N!) permutation scan; chains longer
    than :data:`MAX_OPTIMAL_STEPS` raise :class:`ValueError` explicitly
    instead of silently burning exponential time — use the greedy order
    there.
    """
    _check_chain(shape, steps)
    n = len(steps)
    if n == 0:
        return ()
    if n > MAX_OPTIMAL_STEPS:
        raise ValueError(
            f"optimal_order is exponential in the chain length and is "
            f"capped at {MAX_OPTIMAL_STEPS} steps; got {n} — use "
            f"greedy_order for long chains"
        )
    if cost not in ("flops", "roofline"):
        raise ValueError(f"cost must be 'flops' or 'roofline', got {cost!r}")
    sizes = _chain_sizes(shape, steps)

    def step_cost(idx: int, mask_before: int) -> float:
        before = sizes[mask_before]
        flops = 2.0 * steps[idx].j * before
        if cost == "flops":
            return flops
        after = sizes[mask_before | (1 << idx)]
        return (before + after) * itemsize + flops / flops_per_byte

    full = (1 << n) - 1
    best: dict[int, float] = {0: 0.0}
    choice: dict[int, int] = {}
    for mask in range(1, full + 1):
        best_cost = None
        best_last = -1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            idx = low.bit_length() - 1
            prev_mask = mask ^ low
            candidate = best[prev_mask] + step_cost(idx, prev_mask)
            # Ties prefer the largest index as the *last* step, which
            # unrolls to mode-ascending execution — the same convention
            # greedy_order's tie-break uses, and measurably the better
            # side of the tie in row-major storage (early steps keep the
            # unit-stride merge large).
            if best_cost is None or candidate < best_cost or (
                candidate == best_cost and idx > best_last
            ):
                best_cost, best_last = candidate, idx
        best[mask] = best_cost
        choice[mask] = best_last
    order: list[int] = []
    mask = full
    while mask:
        idx = choice[mask]
        order.append(idx)
        mask ^= 1 << idx
    return tuple(reversed(order))


# -- the chain plan ------------------------------------------------------------


@dataclass(frozen=True)
class ChainPlan:
    """A fully planned TTM chain: order, per-step plans, buffer schedule.

    *order* indexes into the caller's step sequence; ``step_plans[k]``
    is the :class:`TtmPlan` for the k-th *executed* product (i.e. for
    step ``order[k]``), built against the intermediate shape at that
    point.  The plan also fixes the scratch schedule: every intermediate
    (all but the final product) lands in one of two ping-pong slots, so
    the executor's allocation count is a property of the plan, not of
    the data.
    """

    shape: tuple[int, ...]
    layout: Layout
    dtype: str
    order: tuple[int, ...]
    step_plans: tuple[TtmPlan, ...]

    def __post_init__(self) -> None:
        if len(self.order) != len(self.step_plans):
            raise PlanError(
                f"chain order has {len(self.order)} entries but "
                f"{len(self.step_plans)} step plans"
            )
        if sorted(self.order) != list(range(len(self.order))):
            raise PlanError(
                f"chain order {self.order!r} is not a permutation"
            )
        current = self.shape
        for k, plan in enumerate(self.step_plans):
            if plan.shape != current:
                raise PlanError(
                    f"chain step {k} plans shape {plan.shape} but the "
                    f"running intermediate is {current}; step plans must "
                    "chain through the evolving shapes"
                )
            if plan.layout is not self.layout or plan.dtype != self.dtype:
                raise PlanError(
                    f"chain step {k} plan is {plan.layout.name}/{plan.dtype}, "
                    f"chain is {self.layout.name}/{self.dtype}"
                )
            current = plan.out_shape

    # -- derived geometry ---------------------------------------------------

    @property
    def n_steps(self) -> int:
        return len(self.step_plans)

    @property
    def out_shape(self) -> tuple[int, ...]:
        """Shape of the final product."""
        if not self.step_plans:
            return self.shape
        return self.step_plans[-1].out_shape

    @property
    def intermediate_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Output shape of every step, in execution order."""
        return tuple(plan.out_shape for plan in self.step_plans)

    @property
    def total_flops(self) -> int:
        return sum(plan.total_flops for plan in self.step_plans)

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def peak_intermediate_bytes(self) -> int:
        """The largest single intermediate the chain materializes."""
        if not self.step_plans:
            return 0
        return max(
            math.prod(s) * self.itemsize for s in self.intermediate_shapes
        )

    @property
    def scratch_elements(self) -> tuple[int, ...]:
        """Element capacity of each ping-pong slot the executor needs.

        Steps ``0, 2, 4, ...`` write slot 0 and steps ``1, 3, ...`` write
        slot 1 — except the final step, which writes the caller's output.
        Empty when the chain has a single step (nothing intermediate).
        """
        slots = [0, 0]
        for k, plan in enumerate(self.step_plans[:-1]):
            size = math.prod(plan.out_shape)
            slot = k % 2
            slots[slot] = max(slots[slot], size)
        return tuple(s for s in slots if s > 0)

    @property
    def scratch_bytes(self) -> int:
        """Total bytes of the (at most two) reusable scratch buffers."""
        return sum(self.scratch_elements) * self.itemsize

    def describe(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        out = "x".join(str(s) for s in self.out_shape)
        order = ",".join(str(i) for i in self.order) or "-"
        return (
            f"ChainPlan[{dims} -> {out} steps={self.n_steps} "
            f"order=({order}) {self.layout.name} dtype={self.dtype} "
            f"scratch={len(self.scratch_elements)}x"
            f"({'/'.join(str(e) for e in self.scratch_elements) or '0'}) "
            f"flops={self.total_flops}]"
        )

    def cache_key(self) -> tuple:
        """The chain-qualified signature this plan answers.

        The whole chain is the unit of planning, so the key carries the
        full (mode, J) sequence — two chains sharing a prefix still plan
        (and cache) independently, while their individual step plans
        share the per-step :class:`repro.autotune.PlanCache` entries.
        """
        signature = tuple(
            (plan.mode, plan.j)
            for plan in (self.step_plans[i] for i in _inverse(self.order))
        )
        return (self.shape, signature, self.layout, self.dtype)


def _inverse(order: Sequence[int]) -> list[int]:
    inv = [0] * len(order)
    for pos, idx in enumerate(order):
        inv[idx] = pos
    return inv


def plan_chain(
    shape: Sequence[int],
    steps: Sequence["ChainStep | tuple[int, int]"],
    layout: Layout | str = Layout.ROW_MAJOR,
    dtype=None,
    order: "str | Sequence[int]" = "auto",
    planner: Callable[..., TtmPlan] | None = None,
    itemsize: int | None = None,
    flops_per_byte: float = DEFAULT_FLOPS_PER_BYTE,
) -> ChainPlan:
    """Plan a whole chain: choose the order, pre-build every step plan.

    *steps* may be :class:`ChainStep` objects or plain ``(mode, J)``
    signature pairs — planning needs only the geometry.  *order* is
    ``"auto"`` (default: the exact subset DP under the roofline cost for
    chains up to :data:`MAX_OPTIMAL_STEPS`, greedy beyond), ``"greedy"``,
    ``"optimal"`` (exact, flops objective), ``"given"``, or an explicit
    permutation.  *planner* builds each per-step plan — signature
    ``planner(shape, mode, j, layout, dtype=...)`` — and defaults to
    :func:`repro.core.inttm.default_plan`; :class:`repro.core.intensli
    .InTensLi` passes its estimator-plus-cache planner here so chain
    steps hit the persistent autotune store.
    """
    from repro.core.inttm import default_plan

    shape_t = tuple(int(s) for s in shape)
    layout = Layout.parse(layout)
    sig: list[tuple[int, int]] = []
    for s in steps:
        if isinstance(s, ChainStep):
            sig.append((s.mode, s.j))
        else:
            mode, second = s
            j = second.shape[0] if hasattr(second, "shape") else int(second)
            sig.append((int(mode), int(j)))
    probe = [
        ChainStep(mode, np.broadcast_to(0.0, (j, shape_t[mode])))
        for mode, j in sig
    ]
    _check_chain(shape_t, probe)
    if dtype is None:
        dt = np.dtype("float64")
    else:
        dt = np.dtype(dtype)
    size = dt.itemsize if itemsize is None else itemsize

    if isinstance(order, str):
        if order == "auto":
            if len(sig) <= MAX_OPTIMAL_STEPS:
                schedule = optimal_order(
                    shape_t, probe, cost="roofline", itemsize=size,
                    flops_per_byte=flops_per_byte,
                )
            else:
                schedule = greedy_order(shape_t, probe)
        elif order == "greedy":
            schedule = greedy_order(shape_t, probe)
        elif order == "optimal":
            schedule = optimal_order(shape_t, probe)
        elif order == "given":
            schedule = tuple(range(len(sig)))
        else:
            raise ShapeError(
                f"order must be 'auto', 'greedy', 'optimal', 'given', or "
                f"a permutation, got {order!r}"
            )
    else:
        schedule = tuple(int(i) for i in order)
        if sorted(schedule) != list(range(len(sig))):
            raise ShapeError(
                f"order {schedule!r} is not a permutation of the chain"
            )

    if planner is None:
        planner = default_plan
    current = shape_t
    step_plans: list[TtmPlan] = []
    for idx in schedule:
        mode, j = sig[idx]
        plan = planner(current, mode, j, layout, dtype=dt.name)
        step_plans.append(plan)
        current = plan.out_shape
    return ChainPlan(
        shape=shape_t,
        layout=layout,
        dtype=dt.name,
        order=schedule,
        step_plans=tuple(step_plans),
    )


# -- the scratch pool ----------------------------------------------------------


class ScratchPool:
    """Reusable ping-pong buffers for chain intermediates.

    One flat backing array per (slot, layout, dtype); a request returns
    a :class:`DenseTensor` *view* of its prefix reshaped to the step's
    output shape — copy-free in both storage orders, since any prefix of
    a flat buffer reshapes contiguously.  Buffers grow monotonically and
    are reused across steps *and* across chains (HOOI's sweeps request
    the same shapes every iteration), so a long-lived pool converges to
    zero allocations.  ``allocations``/``reuses`` make buffer behavior
    observable: the allocation-count test and the ``chain-exec`` trace
    span read them directly.
    """

    def __init__(self) -> None:
        self._slots: dict[tuple, np.ndarray] = {}
        self.allocations = 0
        self.reuses = 0

    def request(
        self, slot: int, shape: tuple[int, ...], layout: Layout, dtype
    ) -> DenseTensor:
        """A tensor of *shape* backed by the slot's reusable buffer."""
        dt = canonical_dtype(dtype)
        key = (slot, layout, dt)
        n = math.prod(shape)
        buf = self._slots.get(key)
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype=dt)
            self._slots[key] = buf
            self.allocations += 1
        else:
            self.reuses += 1
        # Any prefix of a flat buffer reshapes contiguously in either order.
        view = buf[:n].reshape(shape, order=layout.numpy_order)
        return DenseTensor._wrap(view, layout)

    def reserve(self, plan: ChainPlan) -> None:
        """Pre-size the slots a plan needs (at most two allocations)."""
        for slot, elements in enumerate(plan.scratch_elements):
            key = (slot, plan.layout, canonical_dtype(plan.dtype))
            buf = self._slots.get(key)
            if buf is None or buf.size < elements:
                self._slots[key] = np.empty(elements, dtype=plan.dtype)
                self.allocations += 1

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._slots.values())

    def release(self) -> int:
        """Drop every buffer; returns the bytes freed."""
        freed = self.nbytes
        self._slots.clear()
        return freed


# -- fused execution -----------------------------------------------------------


def execute_chain(
    x: DenseTensor,
    steps: Sequence[ChainStep],
    plan: ChainPlan,
    out: DenseTensor | None = None,
    pool: ScratchPool | None = None,
    execute: Callable[..., DenseTensor] | None = None,
) -> DenseTensor:
    """Run a planned chain through the ping-pong scratch pool.

    *steps* is the caller's original sequence (the plan's ``order``
    indexes into it); *execute* runs one planned product — signature
    ``execute(plan, x, u, out) -> DenseTensor`` — and defaults to the
    interpreted :func:`repro.core.inttm.ttm_inplace`.  Intermediates
    alternate between the pool's two slots; the final product is written
    into *out* when given, else into a freshly allocated tensor (the
    return value — never scratch).
    """
    from repro.core.inttm import ttm_inplace
    from repro.obs.tracer import active_tracer

    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    if len(steps) != plan.n_steps:
        raise PlanError(
            f"chain plan has {plan.n_steps} steps, got {len(steps)} matrices"
        )
    if x.shape != plan.shape or x.layout is not plan.layout:
        raise PlanError(
            f"chain plan was built for {plan.shape}/{plan.layout.name}, "
            f"got {x.shape}/{x.layout.name}"
        )
    if out is not None:
        if not isinstance(out, DenseTensor):
            raise TypeError(
                f"out must be a DenseTensor, got {type(out).__name__}"
            )
        if out.shape != plan.out_shape or out.layout is not plan.layout:
            raise PlanError(
                f"out has shape {out.shape}/{out.layout.name}, chain "
                f"produces {plan.out_shape}/{plan.layout.name}"
            )
        if out.data.dtype != np.dtype(plan.dtype):
            raise DtypeError(
                f"out has dtype {out.data.dtype.name}, chain produces "
                f"{plan.dtype}"
            )
    if plan.n_steps == 0:
        if out is not None:
            np.copyto(out.data, x.data)
            return out
        return x
    if execute is None:
        def execute(step_plan, x_cur, u, target):
            return ttm_inplace(x_cur, u, plan=step_plan, out=target)
    if pool is None:
        pool = ScratchPool()

    tracer = active_tracer()
    allocations_before = pool.allocations
    reuses_before = pool.reuses

    def run() -> DenseTensor:
        current = x
        result = current
        for k, idx in enumerate(plan.order):
            step_plan = plan.step_plans[k]
            step = steps[idx]
            last = k == plan.n_steps - 1
            if last:
                target = out
                if target is None:
                    target = DenseTensor.empty(
                        step_plan.out_shape, plan.layout, dtype=plan.dtype
                    )
                reused = False
            else:
                before = pool.reuses
                target = pool.request(
                    k % 2, step_plan.out_shape, plan.layout, plan.dtype
                )
                reused = pool.reuses > before
            if tracer.enabled:
                with tracer.span(
                    "chain-step",
                    step=k,
                    source_index=idx,
                    mode=step_plan.mode,
                    j=step_plan.j,
                    slot=None if last else k % 2,
                    buffer_reused=reused,
                    out_shape=list(step_plan.out_shape),
                ):
                    result = execute(step_plan, current, step.matrix, target)
            else:
                result = execute(step_plan, current, step.matrix, target)
            current = result
        return result

    if not tracer.enabled:
        return run()
    with tracer.span(
        "chain-exec",
        steps=plan.n_steps,
        order=list(plan.order),
        dtype=plan.dtype,
        flops=plan.total_flops,
        scratch_slots=len(plan.scratch_elements),
        caller_out=out is not None,
    ) as span:
        result = run()
        span.set(
            scratch_allocations=pool.allocations - allocations_before,
            scratch_reuses=pool.reuses - reuses_before,
        )
    return result


def ttm_chain(
    x: DenseTensor,
    steps: Sequence["ChainStep | tuple[int, np.ndarray]"],
    backend: Callable[[DenseTensor, np.ndarray, int], DenseTensor] | None = None,
    order: "str | Sequence[int]" = "greedy",
    plan: ChainPlan | None = None,
    out: DenseTensor | None = None,
    pool: ScratchPool | None = None,
) -> DenseTensor:
    """Execute a chain of mode-n products.

    *steps* may be ``ChainStep`` objects or plain ``(mode, matrix)``
    pairs; matrices must match the tensor's dtype (mixed supported float
    widths raise :class:`~repro.util.errors.DtypeError`; non-float input
    is materialized in the tensor's dtype).  *order* is ``"greedy"``
    (default), ``"auto"`` (roofline-aware exact order), ``"given"``,
    ``"optimal"``, or an explicit index sequence.

    Execution takes one of two paths:

    * **fused** (default): the chain is planned as a unit — a
      :class:`ChainPlan` built here, or passed via *plan* — and executed
      through the ping-pong scratch pool, writing the final product into
      *out* when given;
    * **step-at-a-time**: when an explicit *backend* callable is given
      (``backend(x, u, mode) -> DenseTensor``), each product runs through
      it in the chosen order, allocating per step.  This is the honest
      path for baseline backends and remains exactly the pre-fusion
      behavior.
    """
    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    steps_t = _coerce_steps(steps, x.data.dtype)
    _check_chain(x.shape, steps_t)

    if backend is not None:
        if plan is not None:
            raise PlanError(
                "pass either a step-at-a-time backend or a fused ChainPlan, "
                "not both"
            )
        if out is not None:
            raise PlanError(
                "out= requires the fused executor; step-at-a-time backends "
                "allocate their own outputs"
            )
        if isinstance(order, str):
            if order == "greedy":
                schedule: Sequence[int] = greedy_order(x.shape, steps_t)
            elif order == "auto":
                schedule = (
                    optimal_order(x.shape, steps_t, cost="roofline",
                                  itemsize=x.data.dtype.itemsize)
                    if len(steps_t) <= MAX_OPTIMAL_STEPS
                    else greedy_order(x.shape, steps_t)
                )
            elif order == "optimal":
                schedule = optimal_order(x.shape, steps_t)
            elif order == "given":
                schedule = range(len(steps_t))
            else:
                raise ShapeError(
                    f"order must be 'auto', 'greedy', 'optimal', 'given', "
                    f"or a permutation, got {order!r}"
                )
        else:
            schedule = [int(i) for i in order]
            if sorted(schedule) != list(range(len(steps_t))):
                raise ShapeError(
                    f"order {schedule!r} is not a permutation of the chain"
                )
        y = x
        for idx in schedule:
            step = steps_t[idx]
            y = backend(y, step.matrix, step.mode)
        return y

    if plan is None:
        plan = plan_chain(
            x.shape, steps_t, x.layout, dtype=x.data.dtype, order=order
        )
    return execute_chain(x, steps_t, plan, out=out, pool=pool)
