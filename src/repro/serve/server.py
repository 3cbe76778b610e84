"""The asyncio TTM serving engine: admit, coalesce, execute, degrade.

:class:`TtmServer` is the front-end the ROADMAP's "heavy traffic" north
star asks for.  One dispatcher coroutine drains an internal queue in
micro-batches (a bounded *batch window*), groups compatible requests
into ``gemm_batched`` fleets, and runs each group on a small thread
pool; NumPy kernels release the GIL, so groups genuinely overlap.

The degradation ladder, in order of preference (DESIGN.md §12):

1. **Coalesced fleet** — one batched dispatch for the whole group.
2. **Guarded per-request execution** — when the fleet's staging buffers
   do not fit the memory the PR-5 guard sees available, or any fleet
   error occurs, the group re-runs request by request through
   ``InTensLi.execute(..., allow_replan=True)``, where the memory guard
   may further degrade each call to a lower-degree plan.
3. **Load shedding** — admission control refuses work at the door, and
   queued requests whose deadline lapses before dispatch (or whose
   batch trips the serving watchdog) resolve with a typed
   :class:`~repro.util.errors.OverloadError` instead of waiting
   forever.  A shed request never returns a wrong tensor.

Planning is shared: one :class:`repro.autotune.PlanCache` serves every
tenant, with per-tenant hit/miss accounting and entry quotas, so one
tenant's warm signatures speed up every other tenant that sends the
same shapes while no tenant can monopolize the cache.

Memory-budget policy: plans are cached per signature but memory
*verdicts* are not — each group execution snapshots the budget once via
:func:`repro.resilience.memory.pinned_budget` and makes every decision
for that group (staging admission, per-request guard probes) against
that one number.  Flipping ``$REPRO_MEM_LIMIT`` therefore takes effect
at the next group boundary, never mid-group.
"""

from __future__ import annotations

import asyncio
import logging
import os
import tempfile
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.autotune.cache import PlanCache, PlanKey
from repro.autotune.store import PlanStore
from repro.core.bind import match_u_dtype
from repro.core.intensli import InTensLi
from repro.obs.tracer import ROOT, active_tracer
from repro.resilience.memory import pinned_budget
from repro.serve.admission import AdmissionController
from repro.serve.batcher import (
    FleetSignature,
    coalesce,
    execute_fleet,
    fleet_staging_bytes,
)
from repro.serve.request import RequestResult, TtmRequest
from repro.tensor.dense import DenseTensor
from repro.util.errors import OverloadError, ReproError, ShapeError
from repro.util.validation import check_mode

log = logging.getLogger("repro.serve")

_STOP = object()


@dataclass
class ServeConfig:
    """Tunable serving policy (all knobs have safe defaults).

    ``max_batch``/``batch_window_s`` bound the micro-batching: the
    dispatcher collects at most *max_batch* requests or waits at most
    *batch_window_s* after the first arrival, whichever comes first.
    ``coalesce=False`` disables fleet formation entirely (the
    per-request baseline the serving benchmark compares against).
    ``watchdog_s`` bounds how long the dispatcher waits on one group's
    execution before shedding its requests; None disables the watchdog.
    """

    max_inflight: int = 256
    tenant_inflight: int | None = None
    max_batch: int = 64
    batch_window_s: float = 0.002
    workers: int = 2
    coalesce: bool = True
    default_deadline_s: float | None = None
    watchdog_s: float | None = None
    tenant_cache_quota: int | None = None
    allow_replan: bool = True
    max_threads: int = 1
    executor: str = "generated"


@dataclass
class ServerStats:
    """Lifetime serving tallies (thread-safe; mirrored into reports)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed_admission: int = 0
    shed_tenant_quota: int = 0
    shed_deadline: int = 0
    shed_watchdog: int = 0
    batches: int = 0
    batched_requests: int = 0
    unbatched_requests: int = 0
    max_batch: int = 0
    batch_fallbacks: int = 0
    completed_flops: int = 0
    busy_s: float = 0.0
    per_tenant: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def shed_total(self) -> int:
        return (
            self.shed_admission
            + self.shed_tenant_quota
            + self.shed_deadline
            + self.shed_watchdog
        )

    def _tenant(self, tenant: str) -> dict:
        return self.per_tenant.setdefault(
            tenant, {"completed": 0, "shed": 0, "failed": 0}
        )

    def count_shed(self, reason: str, tenant: str) -> None:
        field_name = {
            "admission": "shed_admission",
            "tenant-quota": "shed_tenant_quota",
            "deadline": "shed_deadline",
            "watchdog": "shed_watchdog",
        }[reason]
        with self._lock:
            setattr(self, field_name, getattr(self, field_name) + 1)
            self._tenant(tenant)["shed"] += 1

    def count_completed(self, tenant: str, flops: int) -> None:
        with self._lock:
            self.completed += 1
            self.completed_flops += flops
            self._tenant(tenant)["completed"] += 1

    def count_failed(self, tenant: str) -> None:
        with self._lock:
            self.failed += 1
            self._tenant(tenant)["failed"] += 1

    def count_group(self, size: int, batched: bool) -> None:
        with self._lock:
            self.batches += 1
            if batched:
                self.batched_requests += size
                if size > self.max_batch:
                    self.max_batch = size
            else:
                self.unbatched_requests += size

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "shed": {
                    "total": self.shed_total,
                    "admission": self.shed_admission,
                    "tenant-quota": self.shed_tenant_quota,
                    "deadline": self.shed_deadline,
                    "watchdog": self.shed_watchdog,
                },
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "unbatched_requests": self.unbatched_requests,
                "max_batch": self.max_batch,
                "batch_fallbacks": self.batch_fallbacks,
                "completed_flops": self.completed_flops,
                "busy_s": self.busy_s,
                "per_tenant": {
                    tenant: dict(row)
                    for tenant, row in sorted(self.per_tenant.items())
                },
            }


def _private_plan_cache(quota: int | None) -> PlanCache:
    """A process-private, non-persisting plan cache for one server.

    The store path is fresh and never written (``autosave=False``), so
    serving accumulates tenant-shared plans in memory without touching
    the user's on-disk autotune cache; pass an explicit
    :class:`PlanCache` to the server to share the persistent store.
    """
    path = os.path.join(
        tempfile.gettempdir(), f"repro-serve-{uuid.uuid4().hex}.json"
    )
    return PlanCache(
        store=PlanStore(path), autosave=False, tenant_quota=quota
    )


class TtmServer:
    """Concurrent multi-tenant TTM serving on top of :class:`InTensLi`.

    Parameters
    ----------
    lib:
        The planning/execution facade requests run through; a private
        single-thread instance by default.
    config:
        Serving policy; see :class:`ServeConfig`.
    plan_cache:
        The tenant-shared :class:`~repro.autotune.PlanCache`.  Defaults
        to a process-private, non-persisting cache (per-tenant quotas
        from ``config.tenant_cache_quota``).
    """

    def __init__(
        self,
        lib: InTensLi | None = None,
        config: ServeConfig | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self._lib = lib or InTensLi(
            max_threads=self.config.max_threads,
            executor=self.config.executor,
        )
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else _private_plan_cache(self.config.tenant_cache_quota)
        )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            tenant_inflight=self.config.tenant_inflight,
        )
        self.stats = ServerStats()
        self._queue: asyncio.Queue | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._group_tasks: set[asyncio.Task] = set()
        self._next_id = 0
        self._running = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatcher; must run inside the serving event loop."""
        if self._running:
            raise OverloadError("server already started", reason="lifecycle")
        self._queue = asyncio.Queue()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._running = True

    async def stop(self) -> None:
        """Drain in-flight work, then shut the dispatcher and pool down."""
        if not self._running:
            return
        self._running = False
        assert self._queue is not None
        await self._queue.put(_STOP)
        if self._dispatcher is not None:
            await self._dispatcher
        if self._group_tasks:
            await asyncio.gather(*self._group_tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._queue = None
        self._pool = None
        self._dispatcher = None

    # -- submission -----------------------------------------------------------

    async def submit(
        self,
        x,
        u,
        mode: int,
        *,
        tenant: str = "default",
        deadline_s: float | None = None,
        transpose_u: bool = False,
    ) -> RequestResult:
        """Serve one TTM request; resolves when the product is computed.

        Raises :class:`OverloadError` when the request is shed
        (admission, tenant quota, deadline, watchdog) and the usual
        typed validation errors for malformed operands.  *deadline_s*
        is a relative latency budget in seconds (None: the config
        default, which may also be None for no deadline).
        """
        if not self._running or self._queue is None:
            raise OverloadError("server is not running", reason="lifecycle")
        if not isinstance(x, DenseTensor):
            x = DenseTensor(np.asarray(x))
        u = match_u_dtype(u, x.data.dtype)
        if u.ndim != 2:
            raise ShapeError(f"U must be 2-D, got {u.ndim}-D")
        if transpose_u:
            u = u.T
        mode = check_mode(mode, x.order)
        if u.shape[1] != x.shape[mode]:
            raise ShapeError(
                f"U columns {u.shape[1]} != tensor extent {x.shape[mode]} "
                f"at mode {mode}"
            )
        budget = (
            deadline_s
            if deadline_s is not None
            else self.config.default_deadline_s
        )
        try:
            self.admission.admit(tenant)
        except OverloadError as exc:
            self.stats.count_shed(exc.reason, tenant)
            raise
        now = time.perf_counter()
        self._next_id += 1
        request = TtmRequest(
            tenant=tenant,
            x=x,
            u=u,
            mode=mode,
            request_id=self._next_id,
            arrival_s=now,
            deadline_s=None if budget is None else now + budget,
            future=asyncio.get_running_loop().create_future(),
        )
        with self.stats._lock:
            self.stats.submitted += 1
        try:
            await self._queue.put(request)
            return await request.future
        finally:
            self.admission.release(tenant)

    # -- dispatch -------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is _STOP:
                break
            batch = [first]
            stopping = self._drain_into(batch)
            if (
                not stopping
                and len(batch) < self.config.max_batch
                and self.config.batch_window_s > 0
            ):
                await asyncio.sleep(self.config.batch_window_s)
                stopping = self._drain_into(batch)
            for sig, group in coalesce(batch):
                task = asyncio.create_task(self._run_group(sig, group))
                self._group_tasks.add(task)
                task.add_done_callback(self._group_tasks.discard)

    def _drain_into(self, batch: list) -> bool:
        """Move queued requests into *batch* (no await); True on _STOP."""
        assert self._queue is not None
        while len(batch) < self.config.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is _STOP:
                return True
            batch.append(item)
        return False

    async def _run_group(self, sig: FleetSignature, group: list) -> None:
        now = time.perf_counter()
        live: list[TtmRequest] = []
        for request in group:
            if request.expired(now):
                self._shed(request, "deadline")
            else:
                live.append(request)
        if not live:
            return
        plan = self._plan_for(sig, live)
        loop = asyncio.get_running_loop()
        work = loop.run_in_executor(
            self._pool, self._execute_group, sig, live, plan, now
        )
        try:
            if self.config.watchdog_s is not None:
                results = await asyncio.wait_for(
                    work, timeout=self.config.watchdog_s
                )
            else:
                results = await work
        except asyncio.TimeoutError:
            # The worker thread cannot be killed, but its waiters can be
            # released: every request in the group sheds now, and the
            # eventual result (if any) is discarded.
            log.warning(
                "serving watchdog (%.3gs) tripped on batch %s x%d; "
                "shedding its requests",
                self.config.watchdog_s,
                sig.describe(),
                len(live),
            )
            for request in live:
                self._shed(request, "watchdog")
            return
        end = time.perf_counter()
        batched = len(live) > 1 and self.config.coalesce
        for request, outcome in zip(live, results):
            if isinstance(outcome, OverloadError):
                # Worker-side deadline shed: the request expired while
                # queued behind slow work in the thread pool.
                self.stats.count_shed(outcome.reason, request.tenant)
                if not request.future.done():
                    request.future.set_exception(outcome)
                continue
            if isinstance(outcome, BaseException):
                self.stats.count_failed(request.tenant)
                if not request.future.done():
                    request.future.set_exception(outcome)
                continue
            result = RequestResult(
                request_id=request.request_id,
                tenant=request.tenant,
                y=outcome,
                latency_s=end - request.arrival_s,
                queue_s=now - request.arrival_s,
                batch_size=len(live),
                batched=batched,
                flops=request.flops,
            )
            self.stats.count_completed(request.tenant, request.flops)
            if not request.future.done():
                request.future.set_result(result)

    def _shed(self, request: TtmRequest, reason: str) -> None:
        self.stats.count_shed(reason, request.tenant)
        if not request.future.done():
            request.future.set_exception(
                OverloadError(
                    f"request {request.request_id} shed ({reason})",
                    reason=reason,
                    tenant=request.tenant,
                )
            )

    # -- planning -------------------------------------------------------------

    def _plan_for(self, sig: FleetSignature, requests: list):
        """The shared plan for a signature, counted per requesting tenant.

        Each request in the group performs its own (cheap) cache lookup
        so per-tenant hit rates stay exact; the first miss pays the
        estimator once and publishes the plan for every later tenant.
        """
        key = PlanKey.make(
            sig.shape,
            sig.mode,
            sig.j,
            sig.layout,
            self._lib.max_threads,
            sig.dtype,
        )
        plan = None
        misses: list[str] = []
        for request in requests:
            entry = self.plan_cache.get(key, tenant=request.tenant)
            if entry is not None:
                plan = entry.plan
            else:
                misses.append(request.tenant)
        if plan is None:
            plan = self._lib.estimator.estimate(
                sig.shape,
                sig.mode,
                sig.j,
                sig.layout,
                dtype=np.dtype(sig.dtype),
            )
        for tenant in misses:
            self.plan_cache.put(key, plan, source="estimator", tenant=tenant)
        return plan

    # -- execution (worker threads) -------------------------------------------

    def _execute_group(self, sig, requests, plan, dispatched_s):
        start = time.perf_counter()
        tracer = active_tracer()
        try:
            if not tracer.enabled:
                return self._execute_group_impl(sig, requests, plan)
            with tracer.span(
                "serve-batch",
                parent=ROOT,
                batch=len(requests),
                signature=sig.describe(),
                tenants=sorted({r.tenant for r in requests}),
            ) as span:
                results = self._execute_group_impl(sig, requests, plan)
                span.set(
                    failed=sum(
                        1 for r in results if isinstance(r, BaseException)
                    )
                )
                for request in requests:
                    # Zero-duration leaves carrying each request's
                    # telemetry, so one batch renders as a tree with one
                    # node per tenant request.
                    with tracer.span(
                        "request",
                        tenant=request.tenant,
                        request_id=request.request_id,
                        queue_s=dispatched_s - request.arrival_s,
                    ):
                        pass
                return results
        finally:
            with self.stats._lock:
                self.stats.busy_s += time.perf_counter() - start

    def _execute_group_impl(self, sig, requests, plan):
        """Fleet dispatch with the degradation ladder; one outcome each."""
        # Deadlines are re-checked here, on the worker thread: a request
        # passes the dispatch-time check, but the pool itself can back
        # up behind slow batches, and work that has already missed its
        # budget must be dropped, not computed.
        now = time.perf_counter()
        expired = [r for r in requests if r.expired(now)]
        if expired:
            outcomes = {
                id(r): OverloadError(
                    f"request {r.request_id} shed (deadline)",
                    reason="deadline",
                    tenant=r.tenant,
                )
                for r in expired
            }
            live = [r for r in requests if id(r) not in outcomes]
            if live:
                for r, out in zip(live, self._execute_group_impl(sig, live, plan)):
                    outcomes[id(r)] = out
            return [outcomes[id(r)] for r in requests]
        # One budget snapshot per group: the staging-admission verdict
        # and every guard probe inside the per-request fallbacks read the
        # same number (thread-local, so concurrent workers don't share
        # pins).  The default call-time re-read policy resumes when the
        # group finishes — see the policy note in
        # ``repro.resilience.memory``.
        with pinned_budget() as budget:
            batched = len(requests) > 1 and self.config.coalesce
            if batched:
                staging = fleet_staging_bytes(sig, len(requests))
                if budget is not None and staging > budget:
                    log.warning(
                        "fleet staging for %s x%d needs %d bytes, %d "
                        "available; degrading to guarded per-request "
                        "execution",
                        sig.describe(),
                        len(requests),
                        staging,
                        budget,
                    )
                    with self.stats._lock:
                        self.stats.batch_fallbacks += 1
                    batched = False
            if batched:
                try:
                    results = execute_fleet(sig, requests)
                    self.stats.count_group(len(requests), batched=True)
                    return results
                except ReproError as exc:
                    # Any typed fleet failure degrades the whole group to
                    # the per-request path, which has its own fallback
                    # chains.
                    log.warning(
                        "fleet dispatch failed (%s: %s); degrading to "
                        "per-request execution",
                        type(exc).__name__,
                        exc,
                    )
                    with self.stats._lock:
                        self.stats.batch_fallbacks += 1
            self.stats.count_group(len(requests), batched=False)
            outcomes = []
            for request in requests:
                try:
                    outcomes.append(
                        self._lib.execute(
                            plan,
                            request.x,
                            request.u,
                            allow_replan=self.config.allow_replan,
                        )
                    )
                except ReproError as exc:
                    outcomes.append(exc)
            return outcomes

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything observable about this server, JSON-safe."""
        return {
            "stats": self.stats.as_dict(),
            "admission": self.admission.snapshot(),
            "plan_cache": {
                "entries": len(self.plan_cache),
                "stats": self.plan_cache.stats.as_dict(),
                "hit_rate": self.plan_cache.stats.hit_rate,
                "per_tenant": {
                    tenant: self.plan_cache.tenant_stats(tenant).as_dict()
                    for tenant in self.plan_cache.tenants()
                },
            },
        }
