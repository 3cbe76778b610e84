"""Memory-pressure pre-flight guard: size the TTM before touching memory.

A TTM that dies in ``DenseTensor.empty`` or inside a kernel's packing
buffer leaves the caller with a ``MemoryError`` from the middle of the
hot path — and, if the output was preallocated, possibly a partially
written tensor.  The plan already knows every working set (the estimator
prices them to choose ``M_C``), so the executor can know *before the
first allocation* whether the call fits:

* the output tensor (when the caller did not preallocate it), plus
* one kernel working set per thread that can have a multiply in flight
  (operand views are free; kernel temporaries — packing buffers, BLAS
  workspace, accumulate scratch — are bounded by the kernel size).

When the footprint exceeds the memory the guard sees available it raises
a typed :class:`~repro.util.errors.ResourceError` up front — or, with
``allow_replan=True``, degrades to a lower-degree plan whose smaller
``M_C`` working set fits, counting a ``memory_replans`` degradation.

Availability comes from ``$REPRO_MEM_LIMIT`` (an explicit byte budget —
containers, tests), else ``MemAvailable`` in ``/proc/meminfo``, else the
guard stands down (None).  Small calls skip the probe entirely: below
:data:`PREFLIGHT_MIN_BYTES` a failure is implausible and the hot path
should not pay a file read per TTM.

Budget read policy
------------------

The budget is **re-read at every call** by default: flipping
``$REPRO_MEM_LIMIT`` (or memory freeing up in ``/proc/meminfo``) takes
effect on the very next guard probe, tiling decision, or materialization
check.  Code that must make *several* related decisions against one
coherent number — the serving engine admitting then executing a
coalesced batch, or the tiling executor pre-flighting every tile before
writing the first byte of output — wraps the region in
:func:`pinned_budget`, which snapshots the budget once (thread-locally,
so concurrent serving workers don't see each other's pins) and serves
that snapshot to every ``available_bytes()`` call inside the region.
Armed ``alloc-fail`` faults still override a pin: determinism of the
fault harness beats snapshot coherence.

Within one call the budget is read **once**: :func:`exceeded_budget`
takes the call's single read of ``$REPRO_MEM_LIMIT`` and armed faults,
and both the tiling decision and the guard's verdict
(:func:`refuse_or_replan`) consume its answer, so they can never see
two different limits.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import threading

from repro.resilience.faults import active_faults, record_degradation
from repro.util.errors import ResourceError

log = logging.getLogger("repro.resilience")

_pin_state = threading.local()

#: Environment variable capping the bytes the guard believes available.
MEM_LIMIT_ENV = "REPRO_MEM_LIMIT"

#: Footprints below this skip the availability probe (no env cap, no
#: faults armed): probing /proc per tiny TTM would cost more than the
#: allocation it guards.
PREFLIGHT_MIN_BYTES = 64 << 20

#: Sentinel distinguishing "no pin installed" from a pinned None
#: (budget explicitly snapshotted as unknowable).
_UNPINNED = object()


@contextlib.contextmanager
def pinned_budget(budget: int | None = None):
    """Snapshot the memory budget for the duration of a region.

    Inside the ``with`` block every :func:`available_bytes` call on
    *this thread* returns the same number: the value probed on entry, or
    an explicit *budget* when given.  This is the documented escape from
    the default re-read-per-call policy for multi-step decisions that
    must agree with each other (serving batch admission + execution,
    tile pre-flight + execution).  Pins are thread-local and re-entrant
    (the innermost pin wins); armed ``alloc-fail`` faults still override.

    Yields the pinned value so callers can log or assert against it.
    """
    previous = getattr(_pin_state, "budget", _UNPINNED)
    if budget is None:
        # Probe once *before* installing the pin so nesting without an
        # explicit budget re-probes the outer pin, not the environment.
        budget = available_bytes()
    _pin_state.budget = budget
    try:
        yield budget
    finally:
        if previous is _UNPINNED:
            del _pin_state.budget
        else:
            _pin_state.budget = previous


def available_bytes() -> int | None:
    """Bytes the guard may plan against, or None when unknowable.

    An armed ``alloc-fail`` injection forces 0 — the deterministic way
    to exercise the pressure paths without actually exhausting a test
    machine.
    """
    return _available(active_faults(), os.environ.get(MEM_LIMIT_ENV))


def _available(faults, limit: str | None) -> int | None:
    """:func:`available_bytes` given an already-read configuration."""
    if faults is not None and faults.check("alloc-fail"):
        return 0
    pinned = getattr(_pin_state, "budget", _UNPINNED)
    if pinned is not _UNPINNED:
        return pinned
    if limit:
        try:
            return max(0, int(limit))
        except ValueError:
            log.warning("ignoring non-integer %s=%r", MEM_LIMIT_ENV, limit)
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def exceeded_budget(
    need: int, faults, limit: str | None, *, out_of_core: bool = False
) -> tuple[int | None, bool]:
    """One call's memory verdict from one read of its configuration.

    *faults* and *limit* are the call's single read of
    :func:`~repro.resilience.faults.active_faults` and
    ``$REPRO_MEM_LIMIT``.  Returns ``(budget, engaged)``: *budget* is
    the available byte count *need* exceeds, or None when the call fits
    or the budget is unknowable; *engaged* says whether the guard
    applies at all (an env cap, armed faults, or a footprint of at least
    :data:`PREFLIGHT_MIN_BYTES`).  Small in-memory calls with neither
    skip the probe entirely; *out_of_core* operands always probe — the
    tiling decision needs the budget even where the guard stands down.
    """
    engaged = (
        faults is not None or limit is not None or need >= PREFLIGHT_MIN_BYTES
    )
    if not (engaged or out_of_core):
        return None, False
    avail = _available(faults, limit)
    if avail is None or need <= avail:
        return None, engaged
    return avail, engaged


def plan_footprint_bytes(plan, *, allocate_out: bool = True) -> int:
    """The bytes a plan's execution allocates, from geometry alone.

    Output storage (when the executor allocates it) plus one kernel
    working set per thread that can hold a multiply in flight.  Operand
    *views* cost nothing — that is the point of the in-place algorithm —
    so this is the complete allocation story, not an estimate of RSS.
    """
    out_bytes = 0
    if allocate_out:
        out_bytes = plan.itemsize * math.prod(plan.out_shape)
    in_flight = max(plan.loop_threads, plan.kernel_threads)
    return out_bytes + plan.kernel_working_set_bytes * in_flight


def guard_memory(plan, *, allocate_out: bool = True, allow_replan: bool = False):
    """Admit, degrade, or refuse a plan against available memory.

    Returns the plan to execute: the original when it fits (or when
    availability is unknowable), a lower-degree replacement when
    ``allow_replan`` and one fits, otherwise raises
    :class:`ResourceError` before anything was allocated.
    """
    need = plan_footprint_bytes(plan, allocate_out=allocate_out)
    avail, _ = exceeded_budget(
        need, active_faults(), os.environ.get(MEM_LIMIT_ENV)
    )
    if avail is None:
        return plan
    return refuse_or_replan(
        plan, need, avail, allocate_out=allocate_out, allow_replan=allow_replan
    )


def refuse_or_replan(
    plan, need: int, avail: int, *, allocate_out: bool, allow_replan: bool
):
    """The guard's verdict on a plan whose *need* exceeds *avail* bytes:
    a lower-degree replacement that fits (with ``allow_replan``), else
    :class:`ResourceError`."""
    if allow_replan:
        replacement = _lower_degree_plan(plan, avail, allocate_out)
        if replacement is not None:
            log.warning(
                "memory pressure: plan needs ~%d bytes, %d available; "
                "degrading degree %d -> %d",
                need, avail, plan.degree, replacement.degree,
            )
            record_degradation(
                "memory_replans",
                memory_replan=True,
                replan_from_degree=plan.degree,
                replan_to_degree=replacement.degree,
            )
            return replacement
    raise ResourceError(
        f"TTM for shape {plan.shape} mode {plan.mode} J={plan.j} needs "
        f"~{need} bytes ({'output + ' if allocate_out else ''}kernel "
        f"working sets) but only {avail} appear available; free memory, "
        f"raise ${MEM_LIMIT_ENV}, or pass allow_replan=True to accept a "
        "lower-degree plan"
    )


def _lower_degree_plan(plan, avail: int, allocate_out: bool):
    """The highest-degree plan below *plan* whose footprint fits, if any.

    Rebuilt through :func:`repro.core.inttm.default_plan` (imported
    lazily — this module sits below the core layer) with the kernel
    reopened to ``auto``: a shorter component run can change stride
    legality, and ``auto`` re-routes per operand.
    """
    from repro.core.inttm import default_plan

    for degree in range(plan.degree - 1, -1, -1):
        candidate = default_plan(
            plan.shape,
            plan.mode,
            plan.j,
            plan.layout,
            loop_threads=plan.loop_threads,
            kernel_threads=plan.kernel_threads,
            kernel="auto",
            degree=degree,
            batched=bool(plan.batch_modes),
            dtype=plan.dtype,
        )
        if plan_footprint_bytes(candidate, allocate_out=allocate_out) <= avail:
            return candidate
    return None
