"""The executor prologue: bind a plan to one call signature, once.

Every route to a planned TTM — the facade's ``ttm`` and ``execute``, the
steps of a fused chain, the tiles of a tiled run and the interpreter's
own entry (:func:`repro.core.inttm.ttm_inplace`) — validates its operands
through :func:`bind`.  It checks ``x``, ``U`` and ``out`` against the
plan and records everything a call needs that depends only on its
signature (shape, layout, dtype, mode, ``U`` shape and dtype, ``out``
given or not): the plan, its memory footprint, the output's shape,
layout, order and strides, whether ``U`` needs a cast, and, for the
generated executor, the compiled kernel.

A :class:`BoundPlan` holds no array, view or tensor — only the plan, a
few tuples and the compiled function — so a per-signature cache of them
(``InTensLi``'s) costs a few hundred bytes per signature and never keeps
a caller's buffers alive.  What may change between two calls of one
signature is *not* bound: the memory budget, armed faults and the tracer
are read on every call.
"""

from __future__ import annotations

import numpy as np

from repro.core.codegen import compile_plan
from repro.core.plan import TtmPlan
from repro.resilience.memory import plan_footprint_bytes
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import element_strides
from repro.util.dtypes import is_supported_dtype
from repro.util.errors import DtypeError, PlanMismatchError


class BoundPlan:
    """One plan bound to one call signature (see the module docstring)."""

    __slots__ = (
        "plan", "need", "fn", "out_shape", "layout", "dtype", "order",
        "out_strides", "cast_u",
    )

    def __init__(self, plan: TtmPlan, *, allocate_out: bool, compiled: bool,
                 cast_u: bool = False) -> None:
        self.plan = plan
        self.need = plan_footprint_bytes(plan, allocate_out=allocate_out)
        self.fn = compile_plan(plan) if compiled else None
        self.out_shape = plan.out_shape
        self.layout = plan.layout
        self.dtype = plan.np_dtype
        self.order = plan.layout.numpy_order
        self.out_strides = element_strides(plan.out_shape, plan.layout)
        self.cast_u = cast_u

    def operand(self, u: np.ndarray) -> np.ndarray:
        """*u* in the plan's dtype (non-float ``U`` is materialized)."""
        return np.asarray(u, dtype=self.dtype) if self.cast_u else u

    def output(self, out: DenseTensor | None) -> DenseTensor:
        """*out*, checked against the plan, or a fresh output tensor."""
        if out is None:
            return DenseTensor._wrap(
                np.empty(self.out_shape, self.dtype, self.order),
                self.layout,
                self.out_strides,
            )
        if not isinstance(out, DenseTensor):
            raise TypeError(
                f"out must be a DenseTensor, got {type(out).__name__}"
            )
        if out.shape != self.out_shape or out.layout is not self.layout:
            raise PlanMismatchError(
                f"out has shape {out.shape} / {out.layout.name}, plan needs "
                f"{self.out_shape} / {self.layout.name}"
            )
        if out.data.dtype != self.dtype:
            raise DtypeError(
                f"out has dtype {out.data.dtype.name}, plan needs "
                f"{self.plan.dtype}; writing through a mismatched out would "
                "silently round every element"
            )
        return out


def match_u_dtype(u, dtype: np.dtype) -> np.ndarray:
    """*u* as an array of *dtype*, never by a silent change of precision.

    A matching dtype passes through untouched (no copy); a *different*
    supported float dtype raises :class:`~repro.util.errors.DtypeError`;
    non-float input (ints, bools, Python lists) is materialized in
    *dtype* — a J x I_n matrix, negligible next to X.
    """
    u = np.asarray(u)
    if u.dtype == dtype:
        return u
    if u.dtype.kind == "f" and is_supported_dtype(u.dtype):
        raise DtypeError(
            f"U has dtype {u.dtype.name} but x is {dtype.name}; cast U "
            "explicitly — mixing float widths would silently change the "
            "result's precision"
        )
    return np.asarray(u, dtype=dtype)


def bind(plan: TtmPlan, x: DenseTensor, u, out: DenseTensor | None, *,
         compiled: bool = True) -> BoundPlan:
    """Validate one call's operands against *plan* and bind its signature.

    ``out`` is checked per call by :meth:`BoundPlan.output`, after the
    memory pre-flight, since only whether it is given is part of the
    signature.  Raises :class:`TypeError` for a non-tensor ``x`` or ``out``,
    :class:`~repro.util.errors.DtypeError` for mixed float widths (never
    a silent cast of a tensor operand), and
    :class:`~repro.util.errors.PlanMismatchError` for any shape or
    layout mismatch.  With *compiled* the plan's generated kernel is
    compiled (or fetched from the codegen cache) and bound too.
    """
    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    if x.data.dtype != plan.np_dtype:
        raise DtypeError(
            f"plan was built for dtype {plan.dtype}, but x is "
            f"{x.data.dtype.name}; re-plan for the tensor's dtype"
        )
    u = np.asarray(u)
    cast_u = u.dtype != plan.np_dtype
    if cast_u:
        u = match_u_dtype(u, plan.np_dtype)
    if u.ndim != 2:
        raise PlanMismatchError(f"U must be 2-D (J x I_n), got {u.ndim}-D")
    if x.shape != plan.shape or x.layout is not plan.layout:
        raise PlanMismatchError(
            f"plan was built for shape {plan.shape} / {plan.layout.name}, "
            f"got {x.shape} / {x.layout.name}"
        )
    if u.shape != (plan.j, plan.i_n):
        raise PlanMismatchError(
            f"U shape {u.shape} does not match (J={plan.j}, I_n={plan.i_n})"
        )
    return BoundPlan(plan, allocate_out=out is None, compiled=compiled,
                     cast_u=cast_u)
