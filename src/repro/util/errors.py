"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base class.  Subclasses also
derive from the matching builtin (``ValueError``/``TypeError``) so that
generic call sites keep working.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError, ValueError):
    """An array or tensor has an incompatible shape for the operation."""


class StrideError(ReproError, ValueError):
    """A stride configuration is invalid or unsupported by a kernel."""


class LayoutError(ReproError, ValueError):
    """A tensor layout (row-/column-major) is invalid for the operation."""


class PlanError(ReproError, ValueError):
    """A TTM execution plan is malformed or inconsistent with its input."""


class PlanMismatchError(ShapeError, PlanError):
    """A call's operands do not fit the plan it is executed with.

    Raised by the executor prologue (:func:`repro.core.bind.bind`) for
    every shape or layout mismatch between ``x``, ``U`` or ``out`` and
    the plan, whichever executor runs it.  It subclasses both
    :class:`ShapeError` and :class:`PlanError`, the two classes the
    facade and the interpreter raised for the same mistake before they
    shared one prologue, so callers catching either keep working.
    """


class DtypeError(ReproError, TypeError):
    """An element type is unsupported or inconsistent across operands.

    Raised instead of silently upcasting: a hidden ``astype`` on a tensor
    operand allocates a full copy, which is exactly the cost the in-place
    algorithm exists to avoid.
    """


class BenchmarkError(ReproError, RuntimeError):
    """A benchmark profile is missing data required by the estimator."""


class CacheError(ReproError, RuntimeError):
    """A persistent plan-cache store cannot be used as-is.

    Subclasses distinguish corruption, schema-version mismatches and
    foreign machine fingerprints; all are recoverable — the cache logs,
    counts an invalidation and rebuilds from the estimator path.
    """


class ResourceError(ReproError, MemoryError):
    """A TTM would exceed the memory the pre-flight guard sees available.

    Raised *before* any allocation, from the plan's own size arithmetic,
    so a too-large call fails cleanly instead of dying mid-flight with a
    partially written output.  ``ttm_inplace(..., allow_replan=True)``
    degrades to a lower-degree plan instead when one fits.
    """


class KernelExecutionError(ReproError, RuntimeError):
    """Every tier of the GEMM kernel fallback chain failed.

    The executor degrades ``blas -> blocked -> reference`` with one retry
    per tier; this error means even the reference kernel raised.  The
    original exception is chained as ``__cause__``.
    """


class DeadlineError(ReproError, TimeoutError):
    """A supervised parallel region exceeded its watchdog deadline.

    Raised by :func:`repro.parallel.parfor` instead of blocking forever
    on a stuck worker; the suspect pool is evicted so the next call gets
    a fresh worker team.
    """


class NumericError(ReproError, ArithmeticError):
    """A kernel produced non-finite values (NaN/Inf) in the result.

    Only raised when the caller opts in (``check_finite=True``); the
    message names the kernel that produced the values.
    """


class OverloadError(ReproError, RuntimeError):
    """A serving request was shed instead of executed.

    Raised by :class:`repro.serve.TtmServer` when admission control
    refuses a request (server or tenant at capacity), when a queued
    request's deadline expires before dispatch, or when the serving
    watchdog gives up on a stuck batch.  ``reason`` distinguishes the
    three (``"admission"``, ``"tenant-quota"``, ``"deadline"``,
    ``"watchdog"``) so load reports can attribute every shed.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "overload",
        tenant: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant


class RecoveryError(ReproError, RuntimeError):
    """A journaled job cannot be resumed or verified.

    Raised by :mod:`repro.resilience.recovery` when a journal's header
    does not match the job being resumed (different inputs, tiling
    decision, or schema version), when a journal is structurally
    unusable (no header), or when a checkpoint sidecar the journal
    points at is missing.  Checksum *mismatches* on landed data are not
    errors — they trigger recomputation (resume) or a failing verify
    report — because surviving torn writes is the module's job.
    """


class StoreCorruptError(CacheError, PlanError):
    """A cache file is unreadable: truncated, invalid JSON, wrong types."""


class SchemaMismatchError(CacheError, PlanError):
    """A cache file was written under a different serialization schema."""


class FingerprintMismatchError(CacheError, PlanError):
    """A cache file was autotuned on a different machine."""
