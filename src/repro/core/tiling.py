"""Estimator-driven tiling: TTM for tensors larger than the memory budget.

The memory pre-flight guard (:mod:`repro.resilience.memory`) was, until
this module, a *bouncer*: a call whose footprint exceeded the budget was
refused (or degraded to a lower-degree plan, which shrinks only the
kernel working set, not the output).  Tiling turns it into a *planner*.
When a TTM's working set exceeds the budget — the normal state of
affairs for memmap-backed tensors, whose whole point is not fitting in
RAM — the :class:`TilingPlanner` partitions the non-contracted modes
into block ranges (the same balanced blocks the distributed simulation
uses, via :func:`repro.distributed.grid.tile_grid`) and the executor
runs the existing plan/kernel machinery tile by tile:

* Mode-``n`` TTM is **embarrassingly tileable** over every mode except
  ``n``: ``Y[b] = X[b] x_n U`` for any block ``b`` of the non-contracted
  index space, so tiles are independent and the union of their outputs
  is exactly ``Y``.  No partial sums, no numerical difference from the
  one-shot product.
* The planner prefers splitting the **outermost storage mode** (axis 0
  for row-major, axis N-1 for column-major): those tiles are contiguous
  *views* of both X and Y, so tiling costs zero staging copies — the
  paper's in-place discipline extended across the budget boundary.  Only
  when the outermost mode alone cannot shrink the footprint enough (or
  is the contracted mode) does it split inner modes, which makes tiles
  strided; those are *packed* through a bounded
  :class:`~repro.core.chain.ScratchPool` (GETT-style: copy a tile into a
  contiguous buffer sized to the budget, multiply, scatter the result).
* Each tile gets its own :class:`~repro.core.plan.TtmPlan` from the
  configured planner (the estimator adapts to the tile's geometry, not
  the full tensor's), cached per distinct tile shape — interior and
  boundary tiles reuse two plans total.

Failure atomicity: every per-tile decision — plan construction, scratch
sizing, the ``alloc-fail`` fault checkpoint — is pre-flighted for *all*
tiles before the first output byte is written, so an execution that
cannot complete leaves the output untouched rather than half-written.
Disk outputs extend this across *process* death: an ``out_path`` result
is staged in ``<out_path>.partial`` and atomically published only when
complete, and ``journal_path=`` adds checksummed per-tile commit records
so a killed job resumes from its last committed tile
(:mod:`repro.resilience.recovery`).

:func:`ttm_stream` is the orthogonal API for tensors that do not exist
yet: it consumes slices produced incrementally along one axis and emits
partial results (``axis != mode``) or accumulates partial contractions
(``axis == mode``, GEMM's k-split with ``beta=1``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.bind import match_u_dtype
from repro.core.chain import ScratchPool
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.plan import TtmPlan
from repro.distributed.grid import tile_grid
from repro.obs.tracer import active_tracer
from repro.perf.profiler import active_hot_counters
from repro.resilience.faults import active_faults
from repro.resilience.memory import (
    MEM_LIMIT_ENV,
    available_bytes,
    exceeded_budget,
    pinned_budget,
    plan_footprint_bytes,
)
from repro.resilience.recovery import (
    Journal,
    atomic_save_array,
    committed_units,
    digest_payload,
    file_checksum,
    fingerprint_array,
    fingerprint_tensor,
    is_done,
    memmap_path,
    open_or_resume,
    partial_path,
    publish_file,
    region_checksum,
)
from repro.tensor.dense import DenseTensor, open_memmap_tensor
from repro.tensor.layout import Layout
from repro.util.errors import (
    DtypeError,
    RecoveryError,
    ResourceError,
    ShapeError,
)

#: ``planner(shape, mode, j, layout, dtype=...) -> TtmPlan`` — the seam
#: through which tiling reuses whatever planning the caller has (the
#: estimator via :meth:`repro.core.intensli.InTensLi.plan`, or the
#: maximal default below).
Planner = Callable[..., TtmPlan]


def _default_planner(shape, mode, j, layout, dtype=None) -> TtmPlan:
    return default_plan(shape, mode, j, layout, dtype=dtype)


def _tile_count(extent: int, parts: int) -> int:
    return 1 if extent == 0 else min(parts, extent)


def _max_block(extent: int, parts: int) -> int:
    if extent == 0:
        return 0
    return -(-extent // _tile_count(extent, parts))


@dataclass(frozen=True)
class TileSpec:
    """One tile of a tiled TTM: where it reads and where it writes."""

    index: int
    ranges: tuple[tuple[int, int], ...]
    mode: int
    j: int

    @property
    def tile_shape(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.ranges)

    @property
    def out_tile_shape(self) -> tuple[int, ...]:
        shape = list(self.tile_shape)
        shape[self.mode] = self.j
        return tuple(shape)

    @property
    def in_slices(self) -> tuple[slice, ...]:
        return tuple(slice(lo, hi) for lo, hi in self.ranges)

    @property
    def out_slices(self) -> tuple[slice, ...]:
        return tuple(
            slice(0, self.j) if m == self.mode else slice(lo, hi)
            for m, (lo, hi) in enumerate(self.ranges)
        )

    @property
    def size(self) -> int:
        return math.prod(self.tile_shape)


@dataclass(frozen=True)
class TilingPlan:
    """How (and whether) one TTM input is cut into budget-sized tiles.

    ``parts[m]`` is the number of blocks mode *m* is cut into
    (``parts[mode] == 1`` always — the contracted mode is never split).
    ``packed`` records whether tiles need staging copies (inner-mode
    splits) or run as pure views (outermost-mode splits only).
    """

    shape: tuple[int, ...]
    mode: int
    j: int
    layout: Layout
    dtype: str
    parts: tuple[int, ...]
    budget: int | None
    base_footprint_bytes: int
    tile_footprint_bytes: int
    packed: bool
    reason: str

    @property
    def tiled(self) -> bool:
        return any(p > 1 for p in self.parts)

    @property
    def n_tiles(self) -> int:
        return math.prod(
            _tile_count(e, p) for e, p in zip(self.shape, self.parts)
        )

    @property
    def max_tile_shape(self) -> tuple[int, ...]:
        return tuple(_max_block(e, p) for e, p in zip(self.shape, self.parts))

    @property
    def out_shape(self) -> tuple[int, ...]:
        return (
            self.shape[: self.mode] + (self.j,) + self.shape[self.mode + 1 :]
        )

    def tiles(self) -> Iterator[TileSpec]:
        """Every tile in odometer order; their union partitions the input."""
        for index, ranges in enumerate(tile_grid(self.shape, self.parts)):
            yield TileSpec(index=index, ranges=ranges, mode=self.mode, j=self.j)

    @classmethod
    def from_dict(cls, info: dict) -> "TilingPlan":
        """Rebuild a tiling decision from its :meth:`to_dict` form.

        The recovery journal (:mod:`repro.resilience.recovery`) records
        the decision in its header so a resumed job executes the *same*
        geometry that wrote the committed tiles — replanning on resume
        could legally choose different tiles (a different live-memory
        probe) and orphan every committed record.
        """
        return cls(
            shape=tuple(int(s) for s in info["shape"]),
            mode=int(info["mode"]),
            j=int(info["j"]),
            layout=Layout.parse(info["layout"]),
            dtype=str(info["dtype"]),
            parts=tuple(int(p) for p in info["parts"]),
            budget=None if info.get("budget") is None else int(info["budget"]),
            base_footprint_bytes=int(info.get("base_footprint_bytes", 0)),
            tile_footprint_bytes=int(info.get("tile_footprint_bytes", 0)),
            packed=bool(info.get("packed", False)),
            reason=str(info.get("reason", "restored")),
        )

    def to_dict(self) -> dict:
        """JSON-safe form (golden fixtures, the ``tile explain`` CLI)."""
        return {
            "shape": list(self.shape),
            "mode": self.mode,
            "j": self.j,
            "layout": self.layout.name,
            "dtype": self.dtype,
            "parts": list(self.parts),
            "budget": self.budget,
            "base_footprint_bytes": self.base_footprint_bytes,
            "tile_footprint_bytes": self.tile_footprint_bytes,
            "n_tiles": self.n_tiles,
            "max_tile_shape": list(self.max_tile_shape),
            "packed": self.packed,
            "reason": self.reason,
        }

    def describe(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        cuts = "x".join(str(p) for p in self.parts)
        return (
            f"TilingPlan[{dims} mode={self.mode} J={self.j} parts={cuts} "
            f"tiles={self.n_tiles} {'packed' if self.packed else 'views'} "
            f"tile~{self.tile_footprint_bytes}B budget={self.budget} "
            f"({self.reason})]"
        )


class TilingPlanner:
    """Decide tile geometry so the per-tile footprint fits the budget.

    The planner splits greedily, outermost-storage-mode first: it doubles
    the cut count of the preferred axis until either the footprint fits
    or the axis is fully split, then moves inward.  The footprint of a
    candidate cut is priced with a *real* plan for the maximal tile shape
    (the configured planner — estimator or default — adapts degree,
    batching, and kernel to the tile), so the decision and the execution
    can never disagree about what a tile costs.
    """

    def __init__(self, planner: Planner | None = None) -> None:
        self._planner = planner or _default_planner

    def plan(
        self,
        base_plan: TtmPlan,
        budget: int | None = None,
        out_preallocated: bool = False,
    ) -> TilingPlan:
        """A :class:`TilingPlan` for *base_plan* under *budget* bytes.

        *budget* defaults to a fresh :func:`available_bytes` probe.  When
        the un-tiled footprint already fits (or the budget is unknowable)
        the result is the trivial single-tile plan; when even one-element
        tiles cannot fit, :class:`ResourceError` — the budget is smaller
        than any kernel working set, and tiling cannot help.
        """
        tracer = active_tracer()
        if not tracer.enabled:
            return self._plan_impl(base_plan, budget, out_preallocated)
        with tracer.span(
            "tile-plan",
            shape=list(base_plan.shape),
            mode=base_plan.mode,
            j=base_plan.j,
            layout=base_plan.layout.name,
            dtype=base_plan.dtype,
        ) as span:
            tiling = self._plan_impl(base_plan, budget, out_preallocated)
            span.set(
                parts=list(tiling.parts),
                n_tiles=tiling.n_tiles,
                max_tile_shape=list(tiling.max_tile_shape),
                packed=tiling.packed,
                budget=tiling.budget,
                tile_footprint_bytes=tiling.tile_footprint_bytes,
                reason=tiling.reason,
            )
        return tiling

    def _plan_impl(
        self, base_plan: TtmPlan, budget: int | None, out_preallocated: bool
    ) -> TilingPlan:
        shape = base_plan.shape
        order = len(shape)
        need = plan_footprint_bytes(
            base_plan, allocate_out=not out_preallocated
        )
        if budget is None:
            budget = available_bytes()
        parts = [1] * order

        def finished(reason: str, foot: int, packed: bool) -> TilingPlan:
            return TilingPlan(
                shape=shape,
                mode=base_plan.mode,
                j=base_plan.j,
                layout=base_plan.layout,
                dtype=base_plan.dtype,
                parts=tuple(parts),
                budget=budget,
                base_footprint_bytes=need,
                tile_footprint_bytes=foot,
                packed=packed,
                reason=reason,
            )

        if budget is None or need <= budget or 0 in shape:
            return finished("fits-in-budget", need, False)

        # Split preference: outermost storage mode first (contiguous
        # view tiles, zero staging), inward from there; never the
        # contracted mode.
        if base_plan.layout is Layout.ROW_MAJOR:
            axes = [a for a in range(order) if a != base_plan.mode]
        else:
            axes = [a for a in reversed(range(order)) if a != base_plan.mode]

        while True:
            foot, packed = self._tile_footprint(base_plan, parts)
            if foot <= budget:
                if not any(p > 1 for p in parts):
                    # Transients already fit; the overage was entirely
                    # the output allocation, which tiling cannot shrink —
                    # the executor routes it out of core (or refuses).
                    return finished("output-dominates", foot, packed)
                return finished("tiled-to-budget", foot, packed)
            advanced = False
            for axis in axes:
                if parts[axis] < shape[axis]:
                    parts[axis] = min(shape[axis], parts[axis] * 2)
                    advanced = True
                    break
            if not advanced:
                raise ResourceError(
                    f"TTM for shape {shape} mode {base_plan.mode} "
                    f"J={base_plan.j} cannot be tiled into a {budget}-byte "
                    f"budget: even one-element tiles need ~{foot} bytes "
                    f"(kernel working set + staging); raise ${MEM_LIMIT_ENV}"
                )

    def _tile_footprint(
        self, base_plan: TtmPlan, parts: Sequence[int]
    ) -> tuple[int, bool]:
        """Bytes one tile of the current cut allocates, and whether it packs."""
        shape = base_plan.shape
        tshape = tuple(
            _max_block(e, p) for e, p in zip(shape, parts)
        )
        tile_plan = self._planner(
            tshape, base_plan.mode, base_plan.j, base_plan.layout,
            dtype=base_plan.dtype,
        )
        foot = plan_footprint_bytes(tile_plan, allocate_out=False)
        packed = not view_tileable(
            parts, shape, base_plan.mode, base_plan.layout
        )
        if packed:
            itemsize = base_plan.itemsize
            x_tile = itemsize * math.prod(tshape)
            y_tile = itemsize * base_plan.j * math.prod(
                e for m, e in enumerate(tshape) if m != base_plan.mode
            )
            foot += x_tile + y_tile
        return foot, packed


def view_tileable(
    parts: Sequence[int], shape: Sequence[int], mode: int, layout: Layout
) -> bool:
    """True when this cut's tiles are contiguous views of X *and* Y.

    A slice along only the outermost storage mode (axis 0 row-major,
    axis N-1 column-major) of a contiguous array is itself contiguous,
    and the output — which differs from the input only at *mode* — is
    sliced the same way, so both sides stay views.  Any inner-mode split
    (or a split when the outermost mode is the contracted one) makes the
    tiles strided and forces packing.
    """
    outer = 0 if layout is Layout.ROW_MAJOR else len(shape) - 1
    split = {a for a, p in enumerate(parts) if p > 1}
    return split <= {outer} and (not split or outer != mode)


def tiling_opportunity(
    plan: TtmPlan, x_inmem: bool = True, out_given: bool = False
) -> int | None:
    """The budget this call would exceed, or None on the fast path.

    The same single-read verdict the executor prologue takes
    (:func:`~repro.resilience.memory.exceeded_budget`): small in-memory
    calls with no env cap and no armed faults skip the probe entirely.
    Out-of-core operands always probe — that is what the flag is for.
    """
    budget, _ = exceeded_budget(
        plan_footprint_bytes(plan, allocate_out=not out_given),
        active_faults(),
        os.environ.get(MEM_LIMIT_ENV),
        out_of_core=not x_inmem,
    )
    return budget


def execute_tiled(
    x: DenseTensor,
    u: np.ndarray,
    tiling: TilingPlan,
    out: DenseTensor | None = None,
    out_path=None,
    planner: Planner | None = None,
    executor: Callable[..., DenseTensor] | None = None,
    check_finite: bool = False,
    journal_path=None,
) -> DenseTensor:
    """Run a TTM tile by tile per *tiling*, bounded by its budget.

    *executor* runs one tile: ``executor(tile_plan, x_tile, u, y_tile)``
    with ``y_tile`` preallocated (defaults to the interpreted
    :func:`~repro.core.inttm.ttm_inplace`; the facade passes its
    configured executor).  The output is, in order of preference, the
    caller's *out*, a fresh memmap at *out_path*, or an in-RAM
    allocation — refused with :class:`ResourceError` when the full
    output alone exceeds the budget and no disk destination was given.

    The budget is **pinned** (:func:`repro.resilience.memory
    .pinned_budget`) for the whole run so per-tile guard probes agree
    with the tiling decision, and every tile is pre-flighted — plans
    built, scratch sized, ``alloc-fail`` checkpoints visited — before
    the first write, so failures leave *out* untouched.

    An *out_path* result lands **complete-or-untouched**: tiles write to
    ``<out_path>.partial``, which is fsync'd and atomically renamed into
    place only after every tile (journal or not) — a file at *out_path*
    is never a torn result.  *journal_path* additionally makes the run
    **resumable across process death** (:mod:`repro.resilience
    .recovery`): each completed tile appends a checksummed commit record,
    and a rerun with the same journal re-verifies committed tiles
    against the landed bytes, skips the ones that match, and recomputes
    the rest.  A journal for a different job (decision digest or input
    fingerprints differ) raises
    :class:`~repro.util.errors.RecoveryError`.
    """
    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}"
        )
    if x.shape != tiling.shape or x.layout is not tiling.layout:
        raise ShapeError(
            f"tiling is for {tiling.shape}/{tiling.layout.name}, tensor is "
            f"{x.shape}/{x.layout.name}"
        )
    np_dtype = np.dtype(tiling.dtype)
    if x.data.dtype != np_dtype:
        raise DtypeError(
            f"tiling is for dtype {tiling.dtype}, tensor is "
            f"{x.data.dtype.name}"
        )
    u = np.asarray(u)
    if u.ndim != 2 or u.shape != (tiling.j, tiling.shape[tiling.mode]):
        raise ShapeError(
            f"U shape {u.shape} != (J={tiling.j}, "
            f"I_n={tiling.shape[tiling.mode]})"
        )
    if planner is None:
        planner = _default_planner
    if executor is None:
        def executor(tile_plan, x_tile, u_arr, y_tile):
            return ttm_inplace(x_tile, u_arr, plan=tile_plan, out=y_tile)

    layout = tiling.layout
    want_flag = "C_CONTIGUOUS" if layout is Layout.ROW_MAJOR else "F_CONTIGUOUS"
    final_path = None if out is not None or out_path is None else str(out_path)
    journal = None
    committed: dict[int, dict] = {}
    if journal_path is not None:
        header = {
            "kind": "ttm-tiled",
            "digest": digest_payload(tiling.to_dict()),
            "decision": tiling.to_dict(),
            "inputs": {"x": fingerprint_tensor(x),
                       "u": fingerprint_array(u)},
            "out_path": final_path,
            "x_path": memmap_path(x),
        }
        u_sidecar = None
        if header["x_path"] is not None and final_path is not None:
            # Both operands reloadable from disk: record a U sidecar so
            # `python -m repro recover resume` can finish the job from
            # the manifest alone, with no caller process.
            u_sidecar = f"{journal_path}.u.npy"
            header["u_path"] = u_sidecar
        journal, records = open_or_resume(journal_path, header)
        committed = committed_units(records, "tile")
        if u_sidecar is not None and not os.path.exists(u_sidecar):
            atomic_save_array(u_sidecar, u)
        if is_done(records) and final_path is not None \
                and os.path.exists(final_path):
            journal.close()
            return open_memmap_tensor(final_path, "r+")
    try:
        out = _execute_tiled_body(
            x, u, tiling, out, final_path, planner, executor,
            np_dtype, layout, want_flag, journal, committed,
        )
        if check_finite:
            from repro.util.validation import check_finite_result

            check_finite_result(out.data, kernel="tiled", context="ttm")
    except BaseException:
        # Leave the journal flushed-but-unfinished: the run is resumable
        # from exactly the committed tiles.
        if journal is not None:
            journal.close()
        raise
    if journal is not None:
        journal.close({"type": "done", "tiles": tiling.n_tiles})
    if final_path is not None:
        publish_file(partial_path(final_path), final_path)
    return out


def _execute_tiled_body(
    x, u, tiling, out, final_path, planner, executor,
    np_dtype, layout, want_flag, journal, committed,
) -> DenseTensor:
    with pinned_budget(tiling.budget) as budget:
        if out is None:
            out_bytes = np_dtype.itemsize * math.prod(tiling.out_shape)
            if final_path is not None:
                part = partial_path(final_path)
                if committed and os.path.exists(part):
                    # A resumed run reopens the partial in place so the
                    # committed tiles it holds can be verified and kept.
                    try:
                        candidate = open_memmap_tensor(part, "r+")
                    except Exception:
                        candidate = None
                    if (candidate is not None
                            and candidate.shape == tiling.out_shape
                            and candidate.layout is layout
                            and candidate.data.dtype == np_dtype):
                        out = candidate
                if out is None:
                    committed.clear()  # stale/missing partial: keep nothing
                    out = open_memmap_tensor(
                        part, "w+", shape=tiling.out_shape,
                        dtype=tiling.dtype, layout=layout,
                    )
            elif budget is not None and out_bytes > budget:
                raise ResourceError(
                    f"tiled TTM output needs {out_bytes} bytes in RAM but "
                    f"the budget is {budget}; pass a memmap-backed out= or "
                    "an out_path= to write the result out of core"
                )
            else:
                out = DenseTensor.empty(
                    tiling.out_shape, layout, dtype=tiling.dtype
                )
        else:
            if out.shape != tiling.out_shape or out.layout is not layout:
                raise ShapeError(
                    f"out is {out.shape}/{out.layout.name}, tiling needs "
                    f"{tiling.out_shape}/{layout.name}"
                )
            if out.data.dtype != np_dtype:
                raise DtypeError(
                    f"out has dtype {out.data.dtype.name}, tiling needs "
                    f"{tiling.dtype}"
                )

        faults = active_faults()
        specs = [spec for spec in tiling.tiles() if spec.size > 0]
        # Pre-flight every tile before writing anything: plan it, size
        # its scratch, and visit the alloc-fail checkpoint, so a failure
        # at tile k surfaces before tile 0 has written a byte.
        tile_plans: dict[tuple[int, ...], TtmPlan] = {}
        for spec in specs:
            tile_plan = tile_plans.get(spec.tile_shape)
            if tile_plan is None:
                tile_plan = planner(
                    spec.tile_shape, tiling.mode, tiling.j, layout,
                    dtype=tiling.dtype,
                )
                tile_plans[spec.tile_shape] = tile_plan
            if faults is not None:
                scratch = np_dtype.itemsize * (
                    spec.size + math.prod(spec.out_tile_shape)
                )
                faults.check(
                    "alloc-fail", site="tile-scratch", tile=spec.index,
                    bytes=scratch,
                )

        tracer = active_tracer()
        skip: set[int] = set()
        if committed:
            # Never trust a commit record: re-checksum what actually
            # landed, skip matches, recompute the rest (torn pages from
            # the crash, bit rot, a truncated partial).
            vspan = (
                tracer.span(
                    "recover-resume", kind="ttm-tiled",
                    committed=len(committed), tiles=len(specs),
                )
                if tracer.enabled
                else None
            )
            try:
                if vspan is not None:
                    vspan.__enter__()
                reverified = 0
                for spec in specs:
                    record = committed.get(spec.index)
                    if record is None:
                        continue
                    reverified += 1
                    crc = region_checksum(out.data[spec.out_slices])
                    if crc == record.get("crc"):
                        skip.add(spec.index)
                if vspan is not None:
                    vspan.set(verified=len(skip),
                              recomputed=reverified - len(skip))
            finally:
                if vspan is not None:
                    vspan.__exit__(None, None, None)
            counters = active_hot_counters()
            if counters is not None:
                counters.count_recovery(resumed=len(skip),
                                        reverified=reverified)

        pool = ScratchPool()
        pack_bytes = 0
        for spec in specs:
            if spec.index in skip:
                continue
            tile_plan = tile_plans[spec.tile_shape]
            x_sub = x.data[spec.in_slices]
            y_sub = out.data[spec.out_slices]
            view_ok = x_sub.flags[want_flag] and y_sub.flags[want_flag]
            span = (
                tracer.span(
                    "tile-exec",
                    tile=spec.index,
                    ranges=[list(r) for r in spec.ranges],
                    tile_shape=list(spec.tile_shape),
                    packed=not view_ok,
                )
                if tracer.enabled
                else None
            )
            try:
                if span is not None:
                    span.__enter__()
                if view_ok:
                    x_tile = DenseTensor._wrap(x_sub, layout)
                    y_tile = DenseTensor._wrap(y_sub, layout)
                    executor(tile_plan, x_tile, u, y_tile)
                    landed = y_sub
                else:
                    before = pool.nbytes
                    x_tile = pool.request(
                        0, spec.tile_shape, layout, np_dtype
                    )
                    y_tile = pool.request(
                        1, spec.out_tile_shape, layout, np_dtype
                    )
                    if faults is not None:
                        faults.observe(
                            "alloc", site="tile-scratch", tile=spec.index,
                            bytes=pool.nbytes - before,
                            pool_nbytes=pool.nbytes,
                            kernel_ws=plan_footprint_bytes(
                                tile_plan, allocate_out=False
                            ),
                        )
                    np.copyto(x_tile.data, x_sub)
                    executor(tile_plan, x_tile, u, y_tile)
                    np.copyto(y_sub, y_tile.data)
                    landed = y_tile.data
                    pack_bytes += x_tile.nbytes + y_tile.nbytes
                if journal is not None:
                    crc = region_checksum(landed)
                    if faults is not None:
                        # Output bytes written, commit record not yet
                        # journaled: the widest crash window a resumed
                        # run must recompute across.
                        faults.check("crash", site="tile-commit",
                                     tile=spec.index)
                    journal.append(
                        {"type": "tile", "index": spec.index, "crc": crc}
                    )
            finally:
                if span is not None:
                    span.__exit__(None, None, None)

        counters = active_hot_counters()
        if counters is not None:
            counters.count_tiled(len(specs) - len(skip), pack_bytes)
        out.flush()
    return out


def ttm_tiled(
    x: DenseTensor,
    u: np.ndarray,
    mode: int,
    budget: int | None = None,
    out: DenseTensor | None = None,
    out_path=None,
    planner: Planner | None = None,
    executor: Callable[..., DenseTensor] | None = None,
    check_finite: bool = False,
    journal_path=None,
) -> DenseTensor:
    """One-call tiled TTM: plan the tiles, then execute them.

    The convenience entry for out-of-core workloads: give it a
    memmap-backed *x*, a *budget* (defaulting to the live
    :func:`available_bytes` probe), and an *out_path*, and the product
    lands on disk without the working set ever exceeding the budget.
    Fits-in-budget inputs degenerate to a single full-tensor "tile" —
    the exact un-tiled execution, no overhead beyond the probe.

    With *journal_path* the run is crash-resumable (see
    :func:`execute_tiled`).  On resume the tiling decision is **adopted
    from the journal**, not replanned: the default budget is a live
    memory probe that legally varies run to run, and a different
    geometry would orphan every committed tile.
    """
    if not isinstance(x, DenseTensor):
        x = DenseTensor(np.asarray(x))
    u = match_u_dtype(u, x.data.dtype)
    if planner is None:
        planner = _default_planner
    tiling = None
    if journal_path is not None and os.path.exists(str(journal_path)):
        try:
            header, _ = Journal.read(journal_path)
        except RecoveryError:
            header = None  # garbage journal; plan fresh, executor rewrites
        if header is not None and header.get("kind") == "ttm-tiled":
            candidate = TilingPlan.from_dict(header["decision"])
            if (candidate.shape == x.shape
                    and candidate.mode == int(mode)
                    and candidate.j == int(u.shape[0])
                    and candidate.layout is x.layout
                    and candidate.dtype == x.data.dtype.name):
                tiling = candidate
    if tiling is None:
        base_plan = planner(
            x.shape, mode, int(np.asarray(u).shape[0]), x.layout,
            dtype=x.data.dtype.name,
        )
        tiling = TilingPlanner(planner).plan(
            base_plan, budget=budget, out_preallocated=out is not None
        )
    return execute_tiled(
        x, u, tiling, out=out, out_path=out_path, planner=planner,
        executor=executor, check_finite=check_finite,
        journal_path=journal_path,
    )


def explain_tiling(
    shape: Sequence[int],
    mode: int,
    j: int,
    layout: Layout | str = Layout.ROW_MAJOR,
    dtype=None,
    budget: int | None = None,
    planner: Planner | None = None,
) -> dict:
    """The tiling decision for an input signature, as a JSON-safe dict.

    Backs ``python -m repro tile explain``; raises the same
    :class:`ResourceError` real execution would when the budget is
    un-tileable, so the CLI reports the refusal instead of a geometry.
    """
    layout = Layout.parse(layout)
    if planner is None:
        planner = _default_planner
    dt = np.dtype("float64" if dtype is None else dtype)
    base_plan = planner(tuple(int(s) for s in shape), mode, j, layout,
                        dtype=dt.name)
    tiling = TilingPlanner(planner).plan(base_plan, budget=budget)
    info = tiling.to_dict()
    info["base_plan"] = base_plan.describe()
    info["view_tileable"] = not tiling.packed
    return info


# -- streaming ----------------------------------------------------------------


@dataclass(frozen=True)
class StreamChunk:
    """One emitted partial result: output rows ``lo:hi`` along the axis."""

    lo: int
    hi: int
    data: DenseTensor


def ttm_stream(
    slices: Iterable,
    u: np.ndarray,
    mode: int,
    axis: int = 0,
    layout: Layout | str = Layout.ROW_MAJOR,
    planner: Planner | None = None,
    journal_path=None,
) -> Iterator[StreamChunk]:
    """TTM over tensor slices produced incrementally along *axis*.

    Each element of *slices* is a full-extent sub-tensor cut along
    *axis* (a DenseTensor or ndarray; chunk extents may vary).  Two
    regimes, decided by where the stream axis sits relative to the
    contracted mode:

    ``axis != mode``
        The product distributes over the stream axis:
        ``Y[.., lo:hi, ..] = chunk x_mode U``.  One :class:`StreamChunk`
        is yielded per input chunk, as soon as it is computed — the
        streaming-consumer case (results can be written out or reduced
        immediately; memory never holds more than one chunk).

    ``axis == mode``
        Chunks split the *contracted* index, so each contributes a
        partial sum: ``Y += chunk x_mode U[:, lo:hi]`` (a k-split GEMM
        accumulation, exact in float — addition order matches the
        blocked kernel's).  One final chunk carrying the complete result
        is yielded after the stream ends.

    The generator is lazy: nothing is consumed until iterated.  For the
    assembled tensor in one call use :func:`ttm_stream_collect`.

    *journal_path* gives the stream a **resumable cursor**
    (:mod:`repro.resilience.recovery`): each chunk appends a commit
    record once it is safely the consumer's — after the consumer pulls
    the *next* item (``axis != mode``), or after the accumulator sidecar
    ``<journal_path>.accum.npy`` is durably published (``axis ==
    mode``).  Re-invoking with the same journal and an equivalent stream
    skips the committed prefix: already-consumed chunks are *not*
    re-yielded, and accumulation restarts from the verified sidecar (or
    from scratch when the sidecar fails its checksum).  Skipped chunks
    are still validated against the journal's recorded extents —
    a diverging stream raises :class:`~repro.util.errors.RecoveryError`
    rather than splicing two different streams.
    """
    layout = Layout.parse(layout)
    if planner is None:
        planner = _default_planner
    u = np.asarray(u)
    if u.ndim != 2:
        raise ShapeError(f"U must be 2-D (J x I_n), got {u.ndim}-D")
    j = int(u.shape[0])
    counters = active_hot_counters()
    faults = active_faults()

    lo = 0
    accum: DenseTensor | None = None
    rest_shape: tuple[int, ...] | None = None
    saw_chunk = False
    journal = None
    committed: dict[int, dict] = {}
    accum_path = None
    resume_upto = 0
    if journal_path is not None:
        decision = {"mode": int(mode), "axis": int(axis), "j": j,
                    "layout": layout.name}
        header = {
            "kind": "ttm-stream",
            "digest": digest_payload(decision),
            "decision": decision,
            "inputs": {"u": fingerprint_array(u)},
        }
        if axis == mode:
            accum_path = f"{journal_path}.accum.npy"
            header["state_path"] = accum_path
        journal, records = open_or_resume(journal_path, header)
        committed = committed_units(records, "chunk", key="chunk")
        while resume_upto in committed:  # contiguous committed prefix
            resume_upto += 1
        if axis == mode and resume_upto:
            # The cursor is only as good as the accumulator it points
            # into: verify the sidecar against its last commit record,
            # else restart the accumulation from chunk 0.
            if (os.path.exists(accum_path)
                    and file_checksum(accum_path)
                    == committed[resume_upto - 1].get("crc")):
                accum = DenseTensor(np.load(accum_path), layout)
            else:
                resume_upto = 0
        if resume_upto and counters is not None:
            counters.count_recovery(
                resumed=resume_upto,
                reverified=1 if axis == mode else 0,
            )
    n_chunks = 0
    try:
        for i, chunk in enumerate(slices):
            if isinstance(chunk, DenseTensor):
                x_chunk = chunk
            else:
                x_chunk = DenseTensor(np.asarray(chunk), layout)
            if not 0 <= axis < x_chunk.order:
                raise ShapeError(
                    f"stream axis {axis} out of range for "
                    f"order-{x_chunk.order} chunks"
                )
            if not 0 <= mode < x_chunk.order:
                raise ShapeError(
                    f"mode {mode} out of range for order-{x_chunk.order} "
                    "chunks"
                )
            other = tuple(
                e for a, e in enumerate(x_chunk.shape) if a != axis
            )
            if rest_shape is None:
                rest_shape = other
            elif other != rest_shape:
                raise ShapeError(
                    f"stream chunk has non-axis extents {other}, previous "
                    f"chunks had {rest_shape}"
                )
            saw_chunk = True
            u_arr = match_u_dtype(u, x_chunk.data.dtype)
            hi = lo + x_chunk.shape[axis]
            n_chunks = i + 1
            if i < resume_upto:
                record = committed[i]
                if record.get("lo") != lo or record.get("hi") != hi:
                    raise RecoveryError(
                        f"journal {journal_path} committed chunk {i} as "
                        f"rows [{record.get('lo')}, {record.get('hi')}), "
                        f"this stream produced [{lo}, {hi}); the streams "
                        "differ — delete the journal to start over"
                    )
                lo = hi
                continue
            if counters is not None:
                counters.count_stream_chunk()
            if axis != mode:
                if u_arr.shape[1] != x_chunk.shape[mode]:
                    raise ShapeError(
                        f"U shape {u_arr.shape} != (J={j}, "
                        f"I_n={x_chunk.shape[mode]})"
                    )
                plan = planner(
                    x_chunk.shape, mode, j, x_chunk.layout,
                    dtype=x_chunk.data.dtype.name,
                )
                y = ttm_inplace(x_chunk, u_arr, plan=plan)
                yield StreamChunk(lo, hi, y)
                if journal is not None:
                    # Reaching here means the consumer pulled the next
                    # item: the chunk is durably theirs, commit it.
                    crc = region_checksum(y.data)
                    if faults is not None:
                        faults.check("crash", site="chunk-commit", chunk=i)
                    journal.append(
                        {"type": "chunk", "chunk": i, "lo": lo, "hi": hi,
                         "crc": crc}
                    )
            else:
                if hi > u_arr.shape[1]:
                    raise ShapeError(
                        f"stream chunks cover {hi} contracted indices, U "
                        f"has only I_n={u_arr.shape[1]} columns"
                    )
                if accum is None:
                    out_shape = (
                        x_chunk.shape[:mode] + (j,)
                        + x_chunk.shape[mode + 1 :]
                    )
                    accum = DenseTensor.zeros(
                        out_shape, x_chunk.layout, dtype=x_chunk.data.dtype
                    )
                # U's column block for this chunk's contracted indices —
                # a strided view, which every kernel tier accepts.
                plan = planner(
                    x_chunk.shape, mode, j, x_chunk.layout,
                    dtype=x_chunk.data.dtype.name,
                )
                ttm_inplace(
                    x_chunk, u_arr[:, lo:hi], plan=plan, out=accum,
                    accumulate=True,
                )
                if journal is not None:
                    # Crash-check *before* the sidecar publish: a kill
                    # here loses exactly this chunk, so resume lands on
                    # cursor i instead of restarting the accumulation.
                    if faults is not None:
                        faults.check("crash", site="chunk-commit", chunk=i)
                    crc = atomic_save_array(accum_path, accum.data)
                    journal.append(
                        {"type": "chunk", "chunk": i, "lo": lo, "hi": hi,
                         "crc": crc}
                    )
            lo = hi
        if not saw_chunk:
            raise ShapeError("ttm_stream received an empty stream of slices")
        if axis == mode:
            if lo != u.shape[1]:
                raise ShapeError(
                    f"stream covered {lo} contracted indices of "
                    f"I_n={u.shape[1]}; partial result withheld (it would "
                    "be silently wrong)"
                )
            if journal is not None:
                journal.close({"type": "done", "chunks": n_chunks})
            yield StreamChunk(0, int(u.shape[0]), accum)
        elif journal is not None:
            journal.close({"type": "done", "chunks": n_chunks})
    finally:
        # An abandoned or failed stream leaves the journal flushed but
        # unfinished — resumable; close() after close(done) is a no-op.
        if journal is not None:
            journal.close()


def ttm_stream_collect(
    slices: Iterable,
    u: np.ndarray,
    mode: int,
    axis: int = 0,
    layout: Layout | str = Layout.ROW_MAJOR,
    planner: Planner | None = None,
) -> DenseTensor:
    """Consume :func:`ttm_stream` and assemble the full product."""
    layout = Layout.parse(layout)
    chunks = list(
        ttm_stream(slices, u, mode, axis=axis, layout=layout, planner=planner)
    )
    if axis == mode:
        return chunks[-1].data
    joined = np.concatenate([c.data.data for c in chunks], axis=axis)
    return DenseTensor(joined, chunks[0].data.layout)
