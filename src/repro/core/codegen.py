"""Code generation: emit a specialized Python TTM for one plan (§4.3.2).

The paper generates C++/OpenMP; this reproduction generates Python with
the same structure — a loop nest over the loop modes around an inner
kernel call on copy-free *views* — then compiles it with
``compile()``/``exec``.  The value mirrors the paper's: all plan logic is
resolved at generation time, leaving straight-line code whose extents,
strides and index expressions are literals; the source is inspectable
(``generate_source``) and the compiled callables are cached per plan.

Where the paper's compiler runs the nest in machine code, Python would
run it in the interpreter, so every single-threaded BLAS plan hands the
*whole* nest to NumPy instead: one ``np.matmul`` over an N-D reshaped,
transposed or strided view whose leading axes are the loop modes.  The
generated function then has no Python loop at all, and NumPy's C batch
loop issues the same 2-D BLAS call per slice the literal nest would —
the results are bit-identical.  Threaded plans keep a ``parfor`` over
the outer loop modes; non-BLAS kernels, and ``batched=False`` plans
whose loops do not collapse into a reshape, keep the literal nest.

The generated reshapes are guaranteed to be views: component modes are a
contiguous run of a contiguous tensor (Lemma 4.1), whose strides still
nest after the loop-mode axes are indexed away, and NumPy merges nesting
axes without copying.  A defensive check at first call verifies this.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.plan import Strategy, TtmPlan
from repro.gemm.blocked import gemm_blocked
from repro.gemm.interface import blas_dtype_legal, gemm
from repro.gemm.threaded import gemm_threaded
from repro.parallel.parfor import parfor
from repro.tensor.layout import Layout, element_strides

_CACHE: dict[TtmPlan, object] = {}


def _index_expr(plan: TtmPlan, loop_vars: dict[int, str]) -> str:
    """The subscript selecting one kernel's sub-tensor, e.g. ``i0, :, i1, :``."""
    parts = []
    for axis in range(plan.order):
        if axis in loop_vars:
            parts.append(loop_vars[axis])
        else:
            parts.append(":")
    return ", ".join(parts)


def _inline_blas(plan: TtmPlan) -> bool:
    """True when the inner kernel is a plain ``np.matmul``: the BLAS
    kernel, or ``auto`` on BLAS-legal views (where it routes to BLAS)."""
    if plan.kernel == "auto":
        if not plan.views_blas_legal:
            return False
    elif plan.kernel != "blas":
        return False
    return blas_dtype_legal(plan.np_dtype)


def _kernel_call(plan: TtmPlan) -> str:
    if plan.kernel_threads > 1:
        inner = "auto" if plan.kernel == "threaded" else plan.kernel
        return (
            f"gemm_threaded({{a}}, {{b}}, out={{c}}, "
            f"threads={plan.kernel_threads}, kernel={inner!r})"
        )
    if _inline_blas(plan):
        # Fast path: call BLAS directly, skipping dispatch overhead.
        return "np.matmul({a}, {b}, out={c})"
    if plan.kernel in ("blas", "blocked"):
        # Element types BLAS does not expose (float16) take the blocked
        # kernel — the same capability fallback resolve_kernel applies.
        return "gemm_blocked({a}, {b}, out={c})"
    return f"gemm({{a}}, {{b}}, out={{c}}, kernel={plan.kernel!r})"


def _batched_form(plan: TtmPlan) -> str | None:
    """A single batched-GEMM body when the whole loop nest collapses.

    When the loop modes are exactly the modes *between* the storage start
    and the mode/component block — ``{0..n-1}`` for row-major forward,
    ``{n+1..N-1}`` for column-major backward — the generated loop nest is
    equivalent to one rank-3 batched matmul over contiguous views.  NumPy
    executes the batch loop in C (one BLAS call per slice), which is the
    closest Python analogue of the paper's compiled OpenMP loop nest, so
    this is the preferred single-threaded code shape.
    """
    if plan.loop_threads > 1 or plan.kernel_threads > 1:
        return None
    if not _inline_blas(plan) or plan.degree == 0:
        return None
    i_n, p, j = plan.i_n, plan.component_extent, plan.j
    loops = plan.loop_modes
    batch = 1
    for m in loops:
        batch *= plan.shape[m]
    forward = plan.strategy is Strategy.FORWARD
    row_major = plan.layout is Layout.ROW_MAJOR
    if forward and row_major and loops == tuple(range(plan.mode)):
        # x viewed as (L, I_n, P) C-order; y as (L, J, P).
        return (
            f"    x3 = x.reshape(({batch}, {i_n}, {p}))\n"
            f"    y3 = y.reshape(({batch}, {j}, {p}))\n"
            f"    np.matmul(u, x3, out=y3)\n"
        )
    if (
        not forward
        and not row_major
        and loops == tuple(range(plan.order - 1, plan.mode, -1))
    ):
        # x viewed as (P, I_n, L) F-order; batch over the trailing axis.
        return (
            f"    ut = u.T\n"
            f"    x3 = x.reshape(({p}, {i_n}, {batch}), order='F')"
            f".transpose(2, 0, 1)\n"
            f"    y3 = y.reshape(({p}, {j}, {batch}), order='F')"
            f".transpose(2, 0, 1)\n"
            f"    np.matmul(x3, ut, out=y3)\n"
        )
    if (
        not forward
        and row_major
        and plan.mode == plan.order - 1
        and sorted(loops) == list(range(plan.degree, plan.mode))
    ):
        # Backward on the last row-major mode: blocks are [comp][loops][mode]
        # in storage order; batch over the (middle) loop block.
        return (
            f"    ut = u.T\n"
            f"    x3 = x.reshape(({p}, {batch}, {i_n}))"
            f".transpose(1, 0, 2)\n"
            f"    y3 = y.reshape(({p}, {batch}, {j}))"
            f".transpose(1, 0, 2)\n"
            f"    np.matmul(x3, ut, out=y3)\n"
        )
    if (
        forward
        and not row_major
        and plan.mode == 0
        and sorted(loops) == list(range(1, plan.order - plan.degree))
    ):
        # Forward on the first column-major mode: blocks are
        # [mode][loops][comp] in index order; batch over the loop block.
        return (
            f"    x3 = x.reshape(({i_n}, {batch}, {p}), order='F')"
            f".transpose(1, 0, 2)\n"
            f"    y3 = y.reshape(({j}, {batch}, {p}), order='F')"
            f".transpose(1, 0, 2)\n"
            f"    np.matmul(u, x3, out=y3)\n"
        )
    return None


def _batch_view_exprs(plan: TtmPlan) -> tuple[str, str]:
    """Literal ``_as_strided`` expressions for the batched operand views.

    Each view has one axis per outer loop mode, then the merged batch
    run, then the kernel's two matrix axes, so a single ``np.matmul``
    iterates the whole loop nest in C.  All extents and byte strides are
    literals resolved at generation time.
    """
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    outer = plan.outer_loop_modes
    batch = plan.batch_modes
    comp = plan.component_modes
    itemsize = plan.itemsize

    def run_stride(strides, shape, run):
        # Merged-run element stride: the smallest stride of its non-size-1
        # modes (nesting already validated by the plan); 1 for empty runs.
        effective = [m for m in run if shape[m] != 1]
        return min(strides[m] for m in effective) if effective else 1

    def view(name, shape, row_extent):
        strides = element_strides(shape, plan.layout)
        extents = [shape[m] for m in outer] + [plan.batch_extent]
        steps = [strides[m] for m in outer]
        steps.append(run_stride(strides, shape, batch))
        rows = (row_extent, strides[plan.mode])
        cols = (plan.component_extent, run_stride(strides, shape, comp))
        for extent, step in (rows, cols) if forward else (cols, rows):
            extents.append(extent)
            steps.append(step)
        byte_steps = tuple(step * itemsize for step in steps)
        # The view starts at the first element either way; a column-major
        # tensor lends its bytes through its C-ordered transpose, the
        # buffer form every NumPy accepts.
        if plan.layout is Layout.COL_MAJOR:
            name += ".T"
        return f"_as_strided({name}, {tuple(extents)}, {byte_steps})"

    return view("x", plan.shape, plan.i_n), view("y", plan.out_shape, plan.j)


def _generic_batched_source(plan: TtmPlan) -> list[str] | None:
    """Body lines for the batch-modes execution shape, or None.

    Applies whenever the plan marks a batchable run and the inner kernel
    is the BLAS fast path.  Single-threaded, the whole loop nest is one
    literal ``np.matmul`` over N-D strided views (no Python loop at
    all); with ``P_L > 1`` a ``parfor`` splits the outer loop modes, or
    the batch run when there are none.  Unlike :func:`_batched_form`'s
    full-collapse reshapes, this handles partial collapses — the same
    geometry the interpreter's batched engine walks.
    """
    if not plan.batch_modes:
        return None
    if plan.kernel_threads > 1 or not _inline_blas(plan):
        return None
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    x_view, y_view = _batch_view_exprs(plan)
    call = "np.matmul(u, {x}, out={y})" if forward else (
        "np.matmul({x}, ut, out={y})"
    )
    indent = "    "
    lines: list[str] = []
    if not forward:
        lines.append(f"{indent}ut = u.T")
    lines.append(f"{indent}x3 = {x_view}")
    lines.append(f"{indent}y3 = {y_view}")
    threads = plan.loop_threads
    if threads > 1 and plan.outer_loop_modes:
        lines.append(f"{indent}def body(_index):")
        lines.append(
            f"{indent}    " + call.format(x="x3[_index]", y="y3[_index]")
        )
        lines.append(
            f"{indent}parfor({plan.outer_loop_extents!r}, body, "
            f"threads={threads})"
        )
    elif threads > 1 and plan.batch_extent > 1:
        # No outer nest to split: chunk the batch run over P_L workers.
        n_chunks = min(threads, plan.batch_extent)
        chunk = math.ceil(plan.batch_extent / n_chunks)
        lines.append(f"{indent}def body(_index):")
        lines.append(f"{indent}    lo = _index[0] * {chunk}")
        lines.append(f"{indent}    hi = min(lo + {chunk}, {plan.batch_extent})")
        lines.append(
            f"{indent}    " + call.format(x="x3[lo:hi]", y="y3[lo:hi]")
        )
        lines.append(f"{indent}parfor(({n_chunks},), body, threads={threads})")
    else:
        lines.append(indent + call.format(x="x3", y="y3"))
    return lines


def generate_source(plan: TtmPlan, function_name: str = "inttm") -> str:
    """Python source of the specialized TTM for *plan*.

    The emitted function has signature ``(x, u, y)`` over raw ndarrays
    (``x``/``y`` in the plan's layout) and returns ``y``.
    """
    loop_vars = {m: f"i{m}" for m in plan.loop_modes}
    sub_expr = _index_expr(plan, loop_vars)
    i_n, p, j = plan.i_n, plan.component_extent, plan.j
    forward = plan.strategy is Strategy.FORWARD
    f_order = plan.layout is Layout.COL_MAJOR
    order_kw = ", order='F'" if f_order else ""

    if plan.degree == 0:
        x_shape, y_shape = (i_n, 1), (j, 1)
    elif forward:
        x_shape, y_shape = (i_n, p), (j, p)
    else:
        x_shape, y_shape = (p, i_n), (p, j)

    lines = [
        f"def {function_name}(x, u, y):",
        f'    """{plan.describe()}"""',
    ]
    indent = "    "
    batched = _batched_form(plan)
    if batched is not None:
        return (
            "\n".join(lines) + "\n" + batched + f"{indent}return y\n"
        )
    generic = _generic_batched_source(plan)
    if generic is not None:
        return "\n".join(lines + generic + [f"{indent}return y"]) + "\n"
    if not forward and plan.degree > 0:
        lines.append(f"{indent}ut = u.T")

    body_lines = [
        f"x_sub = x[{sub_expr}].reshape({x_shape}{order_kw})",
        f"y_sub = y[{sub_expr}].reshape({y_shape}{order_kw})",
    ]
    if plan.degree == 0 or forward:
        call = _kernel_call(plan).format(a="u", b="x_sub", c="y_sub")
    else:
        call = _kernel_call(plan).format(a="x_sub", b="ut", c="y_sub")
    body_lines.append(call)

    if plan.loop_threads > 1 and plan.loop_modes:
        # Parallel driver: collapsed index space chunked over P_L threads.
        var_tuple = ", ".join(loop_vars[m] for m in plan.loop_modes)
        lines.append(f"{indent}def body(_index):")
        if len(plan.loop_modes) > 1:
            lines.append(f"{indent}    {var_tuple} = _index")
        else:
            lines.append(f"{indent}    ({var_tuple},) = _index")
        for bl in body_lines:
            lines.append(f"{indent}    {bl}")
        extents = plan.loop_extents
        lines.append(
            f"{indent}parfor({extents!r}, body, threads={plan.loop_threads})"
        )
    else:
        depth = 0
        for m in plan.loop_modes:
            lines.append(
                f"{indent}{'    ' * depth}for {loop_vars[m]} in "
                f"range({plan.shape[m]}):"
            )
            depth += 1
        for bl in body_lines:
            lines.append(f"{indent}{'    ' * depth}{bl}")
    lines.append(f"{indent}return y")
    return "\n".join(lines) + "\n"


def _as_strided(base: np.ndarray, shape, strides) -> np.ndarray:
    """A strided view of C-contiguous *base* from its first element.

    ``np.lib.stride_tricks.as_strided`` without its per-call
    array-interface round trip (several microseconds, which dominate a
    small kernel); NumPy still checks the view stays inside *base*.
    """
    return np.ndarray(shape, base.dtype, base, 0, strides)


def compile_plan(plan: TtmPlan):
    """Compile (and cache) the specialized TTM callable for *plan*.

    The returned function takes ``(x_data, u, y_data)`` ndarrays and
    writes through ``y_data``.
    """
    cached = _CACHE.get(plan)
    if cached is not None:
        return cached
    source = generate_source(plan)
    namespace = {
        "np": np,
        "_as_strided": _as_strided,
        "gemm": gemm,
        "gemm_blocked": gemm_blocked,
        "gemm_threaded": gemm_threaded,
        "parfor": parfor,
    }
    code = compile(source, f"<inttm:{hash(plan) & 0xFFFFFFFF:08x}>", "exec")
    exec(code, namespace)
    fn = namespace["inttm"]
    fn.__source__ = source
    _CACHE[plan] = fn
    return fn


def clear_cache() -> None:
    """Drop all compiled plans (mostly for tests)."""
    _CACHE.clear()
