"""Tests for the code generator: structure and numerical equivalence."""

import numpy as np
import pytest

from repro.core.codegen import clear_cache, compile_plan, generate_source
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.partition import available_modes_for_strategy, strategy_for
from repro.core.plan import Strategy
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.testing import DEFAULT_CASES, DEGENERATE_CASES
from tests.helpers import TTM_CASES, random_ttm_case, ttm_oracle


def run_generated(plan, x, u):
    fn = compile_plan(plan)
    y = DenseTensor.empty(plan.out_shape, plan.layout)
    fn(x.data, u, y.data)
    return y


class TestSourceStructure:
    def test_collapsible_plan_emits_batched_matmul(self):
        """Leading loop modes collapse into one rank-3 batched matmul."""
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR)
        src = generate_source(plan)
        assert "x.reshape((9, 8, 7))" in src
        assert "y.reshape((9, 3, 7))" in src
        assert "np.matmul(u, x3, out=y3)" in src
        assert "for " not in src

    def test_backward_collapsible_plan_batches_over_trailing(self):
        plan = default_plan((9, 8, 7), 1, 3, COL_MAJOR, kernel="blas")
        src = generate_source(plan)
        assert "order='F'" in src
        assert "np.matmul(x3, ut, out=y3)" in src

    def test_cross_strategy_rm_last_mode_batches(self):
        """Backward on the last row-major mode: batched over the middle
        (loop) block, with U transposed."""
        plan = default_plan((9, 8, 7), 2, 3, ROW_MAJOR, degree=1,
                            kernel="blas")
        src = generate_source(plan)
        assert "ut = u.T" in src
        assert "np.matmul(x3, ut, out=y3)" in src
        assert ".transpose(1, 0, 2)" in src
        assert "for " not in src

    def test_cross_strategy_cm_first_mode_batches(self):
        """Forward on the first column-major mode: batched with F-order
        reshapes over the middle block."""
        plan = default_plan((9, 8, 7), 0, 3, COL_MAJOR, degree=1,
                            kernel="blas")
        src = generate_source(plan)
        assert "order='F'" in src
        assert "np.matmul(u, x3, out=y3)" in src
        assert "for " not in src

    def test_serial_source_has_literal_loops(self):
        # A blocked-kernel plan cannot collapse; it keeps the loop nest.
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR, kernel="blocked")
        src = generate_source(plan)
        assert "for i0 in range(9):" in src
        assert ".reshape((8, 7))" in src
        assert ".reshape((3, 7))" in src
        assert "def inttm(x, u, y):" in src

    def test_partial_collapse_batches_inner_run(self):
        # Degree 1 of an order-4 tensor: M_L = (0, 2) only partially
        # collapses into the batch run — mode 2 batches, and mode 0
        # becomes one more axis of the same N-D strided view, so a single
        # matmul runs the whole nest with no Python loop.
        plan = default_plan((9, 8, 7, 6), 1, 3, ROW_MAJOR, kernel="blas",
                            degree=1)
        assert plan.batch_modes == (2,)
        src = generate_source(plan)
        assert "for " not in src
        assert "x3 = _as_strided(x, (9, 7, 8, 6)," in src
        assert src.count("np.matmul(u, x3, out=y3)") == 1
        x, u, _ = random_ttm_case(plan.shape, plan.j, plan.mode, seed=3)
        y = run_generated(plan, x, u)
        np.testing.assert_allclose(
            y.data, ttm_oracle(x.data, u, plan.mode), rtol=1e-12, atol=1e-12
        )

    def test_blas_kernel_inlines_matmul(self):
        # An explicitly unbatched plan keeps the explicit nest with a
        # per-iteration matmul.
        plan = default_plan((9, 8, 7, 6), 1, 3, ROW_MAJOR, kernel="blas",
                            degree=1, batched=False)
        src = generate_source(plan)
        assert "np.matmul(u, x_sub, out=y_sub)" in src

    def test_blocked_kernel_emits_gemm_blocked(self):
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR, kernel="blocked")
        assert "gemm_blocked(" in generate_source(plan)

    def test_threaded_kernel_emits_gemm_threaded(self):
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR, kernel_threads=4)
        src = generate_source(plan)
        assert "gemm_threaded(" in src and "threads=4" in src

    def test_parallel_loops_emit_parfor(self):
        plan = default_plan((9, 8, 7, 6), 2, 3, ROW_MAJOR, loop_threads=4)
        src = generate_source(plan)
        assert "parfor(" in src and "threads=4" in src
        assert "def body(_index):" in src

    def test_backward_strategy_uses_transpose(self):
        # Force the loop form with a blocked kernel (not collapsible).
        plan = default_plan((9, 8, 7), 1, 3, COL_MAJOR, kernel="blocked")
        src = generate_source(plan)
        assert "ut = u.T" in src
        assert "order='F'" in src
        assert "gemm_blocked(x_sub, ut, out=y_sub)" in src

    def test_docstring_carries_plan_description(self):
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR)
        assert plan.describe() in generate_source(plan)

    def test_custom_function_name(self):
        plan = default_plan((4, 4), 0, 2, ROW_MAJOR)
        assert "def my_ttm(" in generate_source(plan, function_name="my_ttm")


class TestCompileCache:
    def test_same_plan_compiles_once(self):
        clear_cache()
        plan = default_plan((5, 5, 5), 0, 2, ROW_MAJOR)
        assert compile_plan(plan) is compile_plan(plan)

    def test_source_attached(self):
        plan = default_plan((5, 5, 5), 0, 2, ROW_MAJOR)
        fn = compile_plan(plan)
        assert "def inttm" in fn.__source__


class TestGeneratedEquivalence:
    @pytest.mark.parametrize("shape,j,mode", TTM_CASES)
    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    def test_generated_matches_oracle(self, shape, j, mode, layout):
        rng = np.random.default_rng(hash(("cg", shape, j, mode)) % 2**32)
        x = DenseTensor(rng.standard_normal(shape), layout)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, layout)
        y = run_generated(plan, x, u)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_generated_matches_interpreter_all_degrees(self, degree):
        rng = np.random.default_rng(13)
        shape, j, mode = (4, 5, 3, 4), 2, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR, degree=degree)
        y_gen = run_generated(plan, x, u)
        y_int = ttm_inplace(x, u, plan=plan)
        assert np.allclose(y_gen.data, y_int.data)

    def test_parallel_generated_matches(self):
        rng = np.random.default_rng(14)
        shape, j, mode = (6, 5, 4, 3), 2, 2
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR, loop_threads=3)
        y = run_generated(plan, x, u)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    def test_parallel_single_loop_mode(self):
        rng = np.random.default_rng(15)
        shape, j, mode = (6, 5, 4), 2, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR, loop_threads=2)
        y = run_generated(plan, x, u)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    def test_generated_is_in_place(self):
        rng = np.random.default_rng(16)
        shape, j, mode = (4, 5, 6), 3, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR)
        fn = compile_plan(plan)
        y = DenseTensor.zeros(plan.out_shape, ROW_MAJOR)
        buffer = y.data
        fn(x.data, u, y.data)
        assert y.data is buffer
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    def test_col_major_backward_threaded_kernel(self):
        rng = np.random.default_rng(17)
        shape, j, mode = (4, 5, 6), 3, 2
        x = DenseTensor(rng.standard_normal(shape), COL_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, COL_MAJOR, kernel_threads=2)
        y = run_generated(plan, x, u)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))


def _looped_reference(plan):
    """The per-iteration loop nest the generator emitted for single-threaded
    BLAS plans before they became one matmul: a literal ``for`` per loop
    mode around a 2-D ``np.matmul`` on reshaped views.  Kept as the
    bit-identity reference for the loop-free form."""
    sub = ", ".join(f"i{a}" if a in plan.loop_modes else ":"
                    for a in range(plan.order))
    order_kw = ", order='F'" if plan.layout is COL_MAJOR else ""
    i_n, p, j = plan.i_n, plan.component_extent, plan.j
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    if plan.degree == 0:
        x_shape, y_shape = (i_n, 1), (j, 1)
    elif forward:
        x_shape, y_shape = (i_n, p), (j, p)
    else:
        x_shape, y_shape = (p, i_n), (p, j)
    lines = ["def looped(x, u, y):", "    ut = u.T"]
    pad = "    "
    for m in plan.loop_modes:
        lines.append(f"{pad}for i{m} in range({plan.shape[m]}):")
        pad += "    "
    lines.append(f"{pad}x_sub = x[{sub}].reshape({x_shape}{order_kw})")
    lines.append(f"{pad}y_sub = y[{sub}].reshape({y_shape}{order_kw})")
    lines.append(pad + ("np.matmul(u, x_sub, out=y_sub)" if forward
                        else "np.matmul(x_sub, ut, out=y_sub)"))
    namespace = {"np": np}
    exec("\n".join(lines), namespace)
    return namespace["looped"]


def _blas_plans():
    """Every single-threaded BLAS plan over DEFAULT_CASES (plus the
    zero-extent cases): each layout, float32/float64, every legal degree,
    and both kernels that compile to np.matmul."""
    for shape, j, mode in DEFAULT_CASES + DEGENERATE_CASES:
        for layout in (ROW_MAJOR, COL_MAJOR):
            strategy = strategy_for(len(shape), mode, layout)
            top = len(available_modes_for_strategy(len(shape), mode, strategy))
            for degree in range(top + 1):
                for dtype in ("float32", "float64"):
                    for kernel in ("auto", "blas"):
                        yield pytest.param(
                            default_plan(shape, mode, j, layout, degree=degree,
                                         kernel=kernel, dtype=dtype),
                            id=f"{shape}-m{mode}-J{j}-{layout.name}-d{degree}"
                               f"-{dtype}-{kernel}",
                        )


class TestLoopFree:
    @pytest.mark.parametrize("plan", _blas_plans())
    def test_single_threaded_blas_plan_is_one_matmul(self, plan):
        src = generate_source(plan)
        assert "for " not in src
        assert src.count("np.matmul(") == 1
        rng = np.random.default_rng(23)
        x = DenseTensor(rng.standard_normal(plan.shape), plan.layout,
                        dtype=plan.dtype)
        u = rng.standard_normal((plan.j, plan.i_n)).astype(plan.dtype)
        got, want = (
            DenseTensor.empty(plan.out_shape, plan.layout, dtype=plan.dtype)
            for _ in range(2)
        )
        compile_plan(plan)(x.data, u, got.data)
        _looped_reference(plan)(x.data, u, want.data)
        np.testing.assert_array_equal(got.data, want.data)

    def test_explicitly_unbatched_plan_keeps_its_loop(self):
        # batched=False pins the per-iteration nest; it is not rewritten.
        plan = default_plan((9, 8, 7, 6), 1, 3, ROW_MAJOR, kernel="blas",
                            degree=1, batched=False)
        assert "for i0 in range(9):" in generate_source(plan)
