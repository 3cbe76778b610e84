"""Element-type policy: which dtypes the TTM stack executes faithfully.

The paper's working-set analysis (§4.3.1) is stated in *bytes*, not
elements, so the element size is a first-class tuning input: a float32
kernel touches half the memory of the float64 kernel with the same
geometry, which shifts the MSTH/MLTH window and therefore the chosen
degree.  This module pins down the supported set and the normalization
rule every layer (tensor wrapper, plan, estimator, kernels, plan cache)
shares, so "what dtype is this computation" has exactly one answer
end-to-end — never a silent upcast.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import DtypeError

#: Element types the plan/kernel stack executes natively.  float64 is the
#: paper's setting; float32 is the inference-style workload (half the
#: memory traffic); float16 is storage-only in BLAS terms and routes to
#: the blocked kernel (see :func:`repro.gemm.interface.resolve_kernel`).
SUPPORTED_DTYPES: tuple[str, ...] = ("float16", "float32", "float64")

#: The library-wide default (the paper's convention).
DEFAULT_DTYPE = np.dtype(np.float64)


#: The common spellings of every supported dtype — native dtype
#: instances, names and scalar types — mapped to their dtype, so the usual
#: arguments skip ``np.dtype`` construction and the slow ``dtype.name``.
_COMMON_DTYPES: dict = {}
for _name in SUPPORTED_DTYPES:
    _dt = np.dtype(_name)
    _COMMON_DTYPES.update({_dt: _dt, _name: _dt, _dt.type: _dt})
del _name, _dt


def canonical_dtype(dtype) -> np.dtype:
    """Normalize *dtype* to a supported :class:`numpy.dtype`.

    Accepts anything ``np.dtype`` accepts (names, type objects, dtype
    instances); raises :class:`DtypeError` for element types outside
    :data:`SUPPORTED_DTYPES` instead of guessing a coercion.
    """
    try:
        common = _COMMON_DTYPES.get(dtype)
    except TypeError:  # unhashable: np.dtype below explains the refusal
        common = None
    if common is not None:
        return common
    try:
        dt = np.dtype(dtype)
    except TypeError as exc:
        raise DtypeError(f"not a dtype: {dtype!r}") from exc
    if dt.name not in SUPPORTED_DTYPES:
        raise DtypeError(
            f"dtype {dt.name!r} is not supported; choose from "
            f"{SUPPORTED_DTYPES}"
        )
    return dt


def result_dtype(*operands) -> np.dtype:
    """The dtype a kernel should allocate its output in.

    NumPy type promotion over the operands, floored at float64 for
    non-float inputs (ints, bools) so the kernels keep their historical
    behaviour of computing in floating point — but a float32 @ float32
    multiply stays float32 instead of being silently widened.
    """
    dt = np.result_type(*operands)
    if dt.kind != "f" or dt.name not in SUPPORTED_DTYPES:
        return DEFAULT_DTYPE
    return dt


def is_supported_dtype(dtype) -> bool:
    """True when *dtype* normalizes to a member of :data:`SUPPORTED_DTYPES`."""
    try:
        canonical_dtype(dtype)
    except DtypeError:
        return False
    return True
