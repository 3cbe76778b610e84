"""Resilient execution: fallbacks, supervision, pre-flight guards.

The planner (paper §4.3.1) is adaptive at *plan* time; this package
makes the executor adaptive at *failure* time, with one contract (see
DESIGN.md §10): a TTM either returns the oracle-correct result — via a
degraded path when the planned one fails — or raises a typed
:class:`~repro.util.errors.ReproError` subclass.  Never a hang, never a
bare ``RuntimeError``, never a partially written output; every
degradation increments a :class:`~repro.perf.profiler.HotCounters`
counter and annotates the open trace span.

Pieces:

* :mod:`repro.resilience.fallback` — the GEMM kernel fallback chain
  (``blas -> blocked -> reference``) the executors dispatch through;
* :mod:`repro.resilience.memory` — the memory-pressure pre-flight guard
  (:func:`guard_memory`) sizing a call from its plan before allocating;
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (:class:`FaultInjector`) that lets tests *prove* each
  degradation path instead of trusting it;
* :mod:`repro.resilience.recovery` — journaled checkpoint/restart for
  out-of-core jobs (checksummed commit records, complete-or-untouched
  output landing, resume/verify), surviving what the in-process layer
  cannot: the death of the process itself;
* the supervised ``parfor`` (watchdog deadline, pool replacement,
  serial degradation) lives with the pools in
  :mod:`repro.parallel.parfor`.
"""

from repro.resilience.fallback import (
    FALLBACK_CHAIN,
    KernelChain,
    build_batched_tiers,
    build_gemm_tiers,
    fallback_tiers,
    recoverable,
)
from repro.resilience.faults import (
    INJECTION_POINTS,
    FaultInjector,
    FaultRule,
    InjectedFault,
    active_faults,
    fault_injection,
    record_degradation,
)
from repro.resilience.memory import (
    MEM_LIMIT_ENV,
    available_bytes,
    exceeded_budget,
    guard_memory,
    pinned_budget,
    plan_footprint_bytes,
    refuse_or_replan,
)
from repro.resilience.recovery import (
    JOURNAL_SCHEMA,
    Journal,
    VerifyReport,
    atomic_save_array,
    describe_journal,
    file_checksum,
    fingerprint_array,
    fingerprint_tensor,
    open_or_resume,
    partial_path,
    publish_file,
    region_checksum,
    resume_job,
    verify_journal,
)

__all__ = [
    "FALLBACK_CHAIN",
    "INJECTION_POINTS",
    "JOURNAL_SCHEMA",
    "MEM_LIMIT_ENV",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "Journal",
    "KernelChain",
    "VerifyReport",
    "active_faults",
    "atomic_save_array",
    "available_bytes",
    "build_batched_tiers",
    "build_gemm_tiers",
    "describe_journal",
    "exceeded_budget",
    "fallback_tiers",
    "fault_injection",
    "file_checksum",
    "fingerprint_array",
    "fingerprint_tensor",
    "guard_memory",
    "open_or_resume",
    "partial_path",
    "pinned_budget",
    "plan_footprint_bytes",
    "publish_file",
    "recoverable",
    "record_degradation",
    "refuse_or_replan",
    "region_checksum",
    "resume_job",
    "verify_journal",
]
