"""Measurement machinery shared by every workload.

Nothing here knows about TTM: timed windows and their statistics, the
benchmark's own span recorder, peak-RSS probes, the bare-GEMM reference,
the oracle comparison and the exact-repeat count ledger.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

#: Where runs leave spans and count ledgers (relative to the checkout).
OUT_DIR = ".perfbench_out"

#: Samples a window must hold before its p99 has ten samples beyond it.
P99_MIN_SAMPLES = 1000

#: Fewest in-process cold set-ups behind ``setup_s`` (the median is
#: reported).
SETUP_REPEATS = 25

ns = time.perf_counter_ns


def median(values) -> float:
    return float(statistics.median(values))


# -- windows -----------------------------------------------------------------


class Window:
    """One timed window: op count, wall time and per-op latencies (ns)."""

    __slots__ = ("ops", "elapsed_ns", "latencies_ns")

    def __init__(self, ops: int, elapsed_ns: int, latencies_ns) -> None:
        self.ops = ops
        self.elapsed_ns = elapsed_ns
        self.latencies_ns = np.asarray(latencies_ns, dtype=np.int64)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.elapsed_ns * 1e-9)

    def percentile_us(self, q: float) -> float:
        return float(np.percentile(self.latencies_ns, q)) * 1e-3


def window_summary(windows: list[Window]) -> dict:
    """Medians over windows: throughput, p50 and the windowed p99.

    Each statistic is computed per window first and the median taken
    across windows, so one descheduled window moves it by one rank
    instead of skewing a pooled figure.
    """
    return {
        "ops_per_s": median(w.ops_per_s for w in windows),
        "latency_p50_us": median(w.percentile_us(50) for w in windows),
        "latency_p99_us": median(w.percentile_us(99) for w in windows),
        "windows": len(windows),
        "samples_per_window": min(len(w.latencies_ns) for w in windows),
    }


def timed_calls(ops, cycles: int):
    """Run *ops* (zero-argument callables) *cycles* times round-robin.

    Returns ``(Window, failures, last_outputs)``.  A call that raises a
    typed library error is counted in *failures* and left out of the
    window's op count and latencies, so failing fast never reads as
    speed.  The outputs of the final cycle are kept so the caller can
    check a sample of timed results.
    """
    from repro.util.errors import ReproError

    n = len(ops)
    lat = np.empty(cycles * n, dtype=np.int64)
    failures = 0
    last = [None] * n
    i = 0
    start = ns()
    for cycle in range(cycles):
        keep = cycle == cycles - 1
        for k, op in enumerate(ops):
            t0 = ns()
            try:
                y = op()
            except ReproError:
                failures += 1
                continue
            lat[i] = ns() - t0
            i += 1
            if keep:
                last[k] = y
    return Window(i, ns() - start, lat[:i]), failures, last


def call_all(ops) -> None:
    """Call every op once, untimed.  A typed library error is left for
    the timed windows, which count it."""
    from repro.util.errors import ReproError

    for op in ops:
        try:
            op()
        except ReproError:
            pass


def paired_overhead(plain_ops, other_ops, cycles: int, seconds: float,
                    wrap=nullcontext) -> float:
    """Median slowdown of *other_ops* (run inside ``wrap()``) vs *plain_ops*.

    Windows alternate, so both sides see the same machine state; the
    median of the per-pair ratios is reported, minus one.
    """
    ratios = []
    deadline = ns() + int(seconds * 1e9)
    while ns() < deadline or len(ratios) < 3:
        plain = timed_calls(plain_ops, cycles)[0].elapsed_ns
        with wrap():
            other = timed_calls(other_ops, cycles)[0].elapsed_ns
        ratios.append(other / plain)
    return median(ratios) - 1.0


def time_once(fn) -> float:
    """Seconds one call of *fn* takes (its result is consumed in-region)."""
    t0 = ns()
    fn()
    return (ns() - t0) * 1e-9


# -- the bare-GEMM reference -------------------------------------------------


def gemm_view(data: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A ``(rows, cols)`` view of the first ``rows*cols`` elements of *data*.

    Keeps the buffer's own storage order, so the view is contiguous and
    BLAS-legal without a copy.  It lets a bare ``np.matmul`` do exactly a
    TTM step's kernel work, ``(J x I_n) @ (I_n x cols)``, on the
    operand's own bytes.
    """
    order = "F" if data.flags.f_contiguous and not data.flags.c_contiguous \
        else "C"
    flat = data.reshape(-1, order=order)[: rows * cols]
    return flat.reshape(rows, cols, order=order)


def gemm_reference(data: np.ndarray, u: np.ndarray, size: int | None = None,
                   scratch: np.ndarray | None = None):
    """A thunk running the bare GEMM equal in work to ``data x_n u``.

    ``u`` is ``(J, I_n)``; the GEMM contracts it with ``I_n`` rows of the
    operand's buffer spanning *size* elements (all of them by default).
    Its product lands in a prefix of *scratch* (a flat buffer the
    references of one workload share; a private one by default), so the
    thunk allocates nothing.
    """
    j, i_n = u.shape
    cols = (data.size if size is None else size) // i_n
    rhs = gemm_view(data, i_n, cols)
    if scratch is None:
        scratch = np.empty(j * cols, dtype=np.result_type(u, data))
    out = scratch[: j * cols].reshape(j, cols)
    return lambda: np.matmul(u, rhs, out=out)


def chain_gemm_reference(data: np.ndarray, mats, order,
                         scratch: np.ndarray | None = None):
    """Bare GEMMs equal in work to a TTM chain run in *order*.

    *mats* are the chain's ``(J, I_n)`` matrices in step order; each step
    contracts the current (shrinking) element count, so the references
    reuse prefixes of the input's buffer at the intermediates' sizes.
    """
    thunks = []
    size = data.size
    for k in order:
        j, i_n = mats[k].shape
        thunks.append(gemm_reference(data, mats[k], size, scratch))
        size = size // i_n * j

    def run():
        for thunk in thunks:
            thunk()

    return run


def gemm_scratch(data: np.ndarray, mats) -> np.ndarray:
    """One flat product buffer big enough for any reference over *data*."""
    need = max(u.shape[0] * (data.size // u.shape[1]) for u in mats)
    return np.empty(need, dtype=data.dtype)


# -- correctness -------------------------------------------------------------


def matches(actual, expected, dtype, chain: bool = False) -> bool:
    """True when *actual* agrees with the oracle at the dtype tolerance.

    A chain's rounding error grows with the magnitude its steps build
    up, so for chains the absolute tolerance is scaled by the result's
    largest magnitude, as the library's own chain oracle tests do.
    """
    from repro.testing import DTYPE_TOLERANCES

    rtol, atol = DTYPE_TOLERANCES[np.dtype(dtype).name]
    if chain:
        atol *= max(1.0, float(np.abs(expected).max()))
    actual = np.asarray(actual)
    return actual.shape == np.shape(expected) and bool(
        np.allclose(actual.astype(np.float64), expected, rtol=rtol, atol=atol)
    )


def reference(x: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """The equation-(1) oracle, accumulated in float64."""
    from repro.testing import ttm_reference

    return ttm_reference(
        np.asarray(x, dtype=np.float64), np.asarray(u, dtype=np.float64), mode
    )


# -- memory ------------------------------------------------------------------


def _status_kb(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    return 0.0


def peak_rss_mb() -> float:
    """The process's resident high-water mark, MiB."""
    return _status_kb("VmHWM") / 1024.0


def reset_peak_rss() -> bool:
    """Reset the high-water mark to the current RSS (Linux ``clear_refs``).

    Called after input generation so ``peak_rss_mb`` measures the
    program, not the benchmark's own set-up.  Returns False when the
    kernel refuses, in which case the mark still includes generation.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


# -- spans -------------------------------------------------------------------


class Recorder:
    """The benchmark's span recorder: layer calls timed from outside.

    Spans are ``(id, parent, name, tag, start_ns, end_ns)`` tuples kept
    in memory and written out once, at the end of the run.  *tag* names
    the input signature a span worked on, so a layer's cost can be taken
    per signature and then averaged over the workload's mix.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: int = 0):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, name, tag, 0, 0))
        self._stack.append(sid)
        t0 = ns()
        try:
            yield
        finally:
            t1 = ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, tag, t0, t1)

    def timed(self, name: str, fn, tag: int = 0):
        """Run *fn* inside a span; returns its result."""
        with self.span(name, tag):
            return fn()

    def self_times_us(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        child_ns = [0] * len(self.spans)
        for _sid, parent, _name, _tag, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        return [(t1 - t0 - child_ns[sid]) * 1e-3
                for sid, _p, _n, _g, t0, t1 in self.spans]

    def per_tag_us(self, name: str, self_time: bool = False) -> dict:
        """``tag -> median microseconds`` of the spans called *name*."""
        selfs = self.self_times_us() if self_time else None
        samples: dict[int, list[float]] = {}
        for sid, _p, n, tag, t0, t1 in self.spans:
            if n == name:
                value = selfs[sid] if self_time else (t1 - t0) * 1e-3
                samples.setdefault(tag, []).append(value)
        return {tag: median(v) for tag, v in samples.items()}

    def mix_us(self, name: str, self_time: bool = False) -> float:
        """Mean over signatures of each signature's median span time."""
        per_tag = self.per_tag_us(name, self_time)
        return sum(per_tag.values()) / len(per_tag) if per_tag else 0.0

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, tag, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "tag": tag,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


# -- exact-repeat counts ------------------------------------------------------


def source_digest(src: str) -> str:
    """CRC-32 of the program's sources, so each version keeps its own
    ledger and a deliberate plan change starts a fresh one."""
    crc = 0
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(root, name), "rb") as fh:
                crc = zlib.crc32(fh.read(), crc)
    return f"{crc:08x}"


def check_counts(workload: str, seed: int, counts: dict,
                 version: str) -> list[str]:
    """Compare *counts* with an earlier run of the same workload and seed.

    The first run of a seed (per program *version*) writes the ledger;
    every later run must reproduce it exactly.  Returns the keys that
    differ.
    """
    path = os.path.join(OUT_DIR,
                        f"counts-{workload}-seed{seed}-{version}.json")
    payload = json.loads(json.dumps(counts, sort_keys=True))
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        return sorted(k for k in set(before) | set(payload)
                      if before.get(k) != payload.get(k))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return []


# -- one run's outcome -------------------------------------------------------


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    *failed* counts typed errors and shed requests, *wrong* counts
    outputs that disagree with the oracle (or journals that fail
    verification); both count against ``failed_frac``.
    """

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    counts: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


#: Loop rounds of :func:`reference_task`.
REF_ROUNDS = 1000
#: The reference task's median time on the 2-core VM the benchmark was
#: built on.  ``setup_s`` is a set-up's time in units of the reference
#: task, times this: seconds as that host reads them at a steady speed.
REF_SECONDS = 0.005

_REF_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    s = 0\n    for k in range({i % 5 + 2}):\n"
    f"        s += a * k - b\n    return s\n"
    for i in range(40))


def reference_task() -> int:
    """Fixed work shaped like a cold set-up, independent of the program.

    It compiles Python source, calls small Python functions and
    dispatches small NumPy calls, which is what planning, code
    generation and a first pass over small signatures spend their time
    on.  Timed beside a set-up, it tracks the host's speed at that
    moment.
    """
    scope: dict = {}
    exec(compile(_REF_SOURCE, "<perfbench-reference>", "exec"), scope)
    fns = [scope[f"f{i}"] for i in range(40)]
    a = np.full((8, 8), 0.1)
    b = np.empty((8, 8))
    acc = 0
    for i in range(REF_ROUNDS):
        acc += fns[i % 40](i, 1)
        np.matmul(a, a, out=b)
    return acc


class SetupSampler:
    """Cold set-ups timed between measurement windows, each against the
    reference task.

    A shared 2-core VM's speed wanders by up to 2x over tens of
    seconds, and a set-up is Python work that slows with it.  Each
    set-up is timed
    between two runs of :func:`reference_task`, and the sample is the
    set-up's time over the mean of the two: the set-up's cost in units
    of the host's speed at that moment.  Samples spread across the whole
    run, one after each window, and their median is reported.
    """

    def __init__(self, fn=None, rewarm=None) -> None:
        self.fn = fn
        self.rewarm = rewarm
        self.ratios: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time one cold set-up between two reference runs; then,
        untimed, *rewarm* whatever the set-up's cache clearing made cold
        for the measurement."""
        before = time_once(reference_task)
        self.seconds.append(time_once(self.fn))
        after = time_once(reference_task)
        self.ratios.append(self.seconds[-1] / (0.5 * (before + after)))
        if self.rewarm is not None:
            self.rewarm()

    def setup_s(self) -> float:
        """The median set-up in reference seconds, topping up to
        :data:`SETUP_REPEATS` samples."""
        while len(self.ratios) < SETUP_REPEATS:
            self.sample()
        return median(self.ratios) * REF_SECONDS

    def raw_s(self) -> float:
        """The median set-up in this run's own wall seconds (not gated)."""
        return median(self.seconds)
