"""Dtype-faithful execution: the multi-dtype kernel layer, end to end.

The contract under test: the element type of ``X`` flows through plan,
estimator, kernel dispatch, autotune cache, and output allocation with
**no silent upcast and no hidden copy**.  float32 inputs produce float32
outputs through float32 arithmetic; float16 (which real BLAS does not
expose) routes to the blocked kernel with a one-time warning; mixing
float widths is an error, never a conversion.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.autotune.cache import PlanCache, PlanKey
from repro.autotune.store import PlanStore
from repro.core.estimator import ParameterEstimator
from repro.core.intensli import InTensLi
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.partition import kernel_working_set_bytes
from repro.gemm import interface as gemm_interface
from repro.gemm.interface import (
    FALLBACK_KERNEL,
    KERNEL_DTYPES,
    blas_dtype_legal,
    kernel_supports,
    resolve_kernel,
)
from repro.obs import tracing
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.testing import DTYPE_TOLERANCES
from repro.util.dtypes import (
    DEFAULT_DTYPE,
    SUPPORTED_DTYPES,
    canonical_dtype,
    is_supported_dtype,
    result_dtype,
)
from repro.util.errors import DtypeError, PlanError
from tests.helpers import ttm_oracle

DTYPES = [np.dtype(name) for name in SUPPORTED_DTYPES]


def _case(shape, mode, j, layout=ROW_MAJOR, dtype="float64", seed=0):
    rng = np.random.default_rng(seed)
    x = DenseTensor(rng.standard_normal(shape), layout, dtype=dtype)
    u = rng.standard_normal((j, shape[mode])).astype(dtype)
    return x, u


class TestDtypeHelpers:
    def test_canonical_accepts_supported(self):
        for name in SUPPORTED_DTYPES:
            assert canonical_dtype(name) == np.dtype(name)

    def test_canonical_rejects_unsupported(self):
        for bad in ("int64", "complex128", "bool"):
            with pytest.raises(DtypeError):
                canonical_dtype(bad)

    @pytest.mark.parametrize("spelling", [
        "float16", "float32", "float64", "f4", "d", "<f8", ">f8", ">f4",
        float, np.float32, np.dtype("float64"), np.dtype(">f2"),
        "int64", "int32", "complex128", "bool", np.int32, np.dtype(">i4"),
        "S10", object, [1, 2],
    ])
    def test_canonical_fast_path_accepts_the_same_set(self, spelling):
        # The dict fast path must agree with np.dtype(...).name on every
        # spelling, non-native byte order included.
        try:
            want = np.dtype(spelling)
        except TypeError:
            want = None
        if want is None or want.name not in SUPPORTED_DTYPES:
            with pytest.raises(DtypeError):
                canonical_dtype(spelling)
        else:
            got = canonical_dtype(spelling)
            assert got == want and got.byteorder == want.byteorder

    def test_is_supported(self):
        assert is_supported_dtype(np.float32)
        assert not is_supported_dtype(np.int32)

    def test_result_dtype_preserves_float_width(self):
        a = np.ones((2, 2), dtype=np.float32)
        assert result_dtype(a, a) == np.float32

    def test_result_dtype_floors_non_float_at_default(self):
        a = np.ones((2, 2), dtype=np.int64)
        assert result_dtype(a, a) == DEFAULT_DTYPE


class TestDenseTensorDtype:
    def test_supported_float_preserved_without_copy(self):
        arr = np.ones((3, 4), dtype=np.float32)
        t = DenseTensor(arr)
        assert t.dtype == np.float32
        assert np.shares_memory(t.data, arr)

    def test_non_float_coerced_to_default(self):
        t = DenseTensor(np.arange(6).reshape(2, 3))
        assert t.dtype == DEFAULT_DTYPE

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_constructors_honor_dtype(self, dtype):
        for ctor in (DenseTensor.zeros, DenseTensor.empty):
            assert ctor((2, 3), dtype=dtype).dtype == dtype
        assert DenseTensor.random((2, 3), seed=0, dtype=dtype).dtype == dtype


class TestGemmKernelDtypes:
    """Every registered 2-D kernel preserves the operand dtype."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel", ["reference", "blocked", "threaded"])
    def test_kernels_preserve_dtype(self, kernel, dtype):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 6)).astype(dtype)
        b = rng.standard_normal((6, 4)).astype(dtype)
        out = gemm_interface.gemm(a, b, kernel=kernel)
        assert out.dtype == dtype
        rtol, atol = DTYPE_TOLERANCES[dtype.name]
        assert np.allclose(out.astype(np.float64), a.astype(np.float64)
                           @ b.astype(np.float64), rtol=rtol, atol=atol)

    def test_auto_dispatch_preserves_float32(self):
        a = np.ones((4, 4), dtype=np.float32)
        assert gemm_interface.gemm(a, a).dtype == np.float32

    def test_capability_map_shape(self):
        assert set(KERNEL_DTYPES) >= {"blas", "blocked", "reference",
                                      "threaded"}
        assert not kernel_supports("blas", "float16")
        assert kernel_supports(FALLBACK_KERNEL, "float16")
        assert not blas_dtype_legal(np.float16)
        assert blas_dtype_legal(np.float32)


class TestCapabilityFallback:
    def setup_method(self):
        gemm_interface._FALLBACKS_WARNED.clear()

    def test_unsupported_dtype_warns_once_and_falls_back(self):
        with warnings.catch_warnings(record=True) as first:
            warnings.simplefilter("always")
            impl = resolve_kernel("blas", "float16")
        assert impl is resolve_kernel(FALLBACK_KERNEL)
        assert len(first) == 1
        assert issubclass(first[0].category, RuntimeWarning)
        assert "float16" in str(first[0].message)
        with warnings.catch_warnings(record=True) as second:
            warnings.simplefilter("always")
            resolve_kernel("blas", "float16")
        assert not second  # one-time per (kernel, dtype)

    def test_supported_dtype_resolves_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_kernel("blas", "float64")
            resolve_kernel("blocked", "float16")


class TestNoSilentUpcast:
    """Regression for the float64 upcast-and-copy in ``_check_inputs``."""

    def test_float32_ttm_preserves_dtype(self):
        x, u = _case((4, 5, 6), 1, 3, dtype="float32")
        y = ttm_inplace(x, u, 1)
        assert y.data.dtype == x.data.dtype == np.float32

    def test_provided_out_is_written_in_place(self):
        x, u = _case((4, 5, 6), 1, 3, dtype="float32")
        out = DenseTensor.empty((4, 3, 6), dtype="float32")
        y = ttm_inplace(x, u, 1, out=out)
        assert y is out
        assert np.shares_memory(y.data, out.data)

    def test_wrapping_float32_never_copies_x(self):
        arr = np.random.default_rng(0).standard_normal((4, 5, 6))
        arr = arr.astype(np.float32)
        x = DenseTensor(arr)
        ttm_inplace(x, np.ones((3, 5), dtype=np.float32), 1)
        assert np.shares_memory(x.data, arr)  # never silently rematerialized

    def test_mixed_float_widths_raise(self):
        x, _ = _case((4, 5, 6), 1, 3, dtype="float32")
        u64 = np.ones((3, 5), dtype=np.float64)
        with pytest.raises(DtypeError):
            ttm_inplace(x, u64, 1)

    def test_wrong_dtype_out_raises(self):
        x, u = _case((4, 5, 6), 1, 3, dtype="float32")
        out = DenseTensor.empty((4, 3, 6), dtype="float64")
        with pytest.raises(DtypeError):
            ttm_inplace(x, u, 1, out=out)

    def test_x_vs_plan_dtype_mismatch_raises(self):
        x, u = _case((4, 5, 6), 1, 3, dtype="float32")
        plan = default_plan((4, 5, 6), 1, 3, ROW_MAJOR, dtype="float64")
        with pytest.raises(DtypeError):
            ttm_inplace(x, u, plan=plan)

    def test_non_float_u_is_cast_to_plan_dtype(self):
        # Ints and Python lists carry no float-width intent; casting the
        # tiny J x I_n matrix to the plan dtype is the ergonomic choice.
        x, _ = _case((4, 5, 6), 1, 3, dtype="float32")
        y = ttm_inplace(x, np.ones((3, 5), dtype=np.int64), 1)
        assert y.data.dtype == np.float32

    def test_strided_u_accepted(self):
        x, _ = _case((4, 5, 6), 1, 3, dtype="float32")
        base = np.random.default_rng(1).standard_normal((6, 10))
        u = base.astype(np.float32)[::2, ::2]  # non-contiguous view
        assert not u.flags["C_CONTIGUOUS"]
        y = ttm_inplace(x, u, 1)
        rtol, atol = DTYPE_TOLERANCES["float32"]
        expect = ttm_oracle(x.data.astype(np.float64),
                            u.astype(np.float64), 1)
        assert np.allclose(y.data.astype(np.float64), expect,
                           rtol=rtol, atol=atol)


class TestPlanDtype:
    def test_plan_carries_dtype(self):
        plan = default_plan((4, 5, 6), 1, 3, ROW_MAJOR, dtype="float32")
        assert plan.dtype == "float32"
        assert plan.np_dtype == np.float32
        assert plan.itemsize == 4
        assert "dtype=float32" in plan.describe()

    def test_plan_rejects_unsupported_dtype(self):
        with pytest.raises(DtypeError):
            default_plan((4, 5, 6), 1, 3, ROW_MAJOR, dtype="int32")
        base = default_plan((4, 5, 6), 1, 3, ROW_MAJOR)
        with pytest.raises(PlanError):
            dataclasses.replace(base, dtype="int32")

    def test_cache_key_separates_dtypes(self):
        p64 = default_plan((4, 5, 6), 1, 3, ROW_MAJOR)
        p32 = default_plan((4, 5, 6), 1, 3, ROW_MAJOR, dtype="float32")
        assert p64.cache_key() != p32.cache_key()

    def test_working_set_scales_with_itemsize(self):
        plan64 = default_plan((8, 9, 10), 1, 4, ROW_MAJOR)
        plan32 = dataclasses.replace(plan64, dtype="float32")
        plan16 = dataclasses.replace(plan64, dtype="float16")
        assert plan64.kernel_working_set_bytes == 2 * plan32.kernel_working_set_bytes
        assert plan32.kernel_working_set_bytes == 2 * plan16.kernel_working_set_bytes

    def test_partition_working_set_itemsize(self):
        ws8 = kernel_working_set_bytes((8, 9, 10), 1, 4, (2,))
        ws4 = kernel_working_set_bytes((8, 9, 10), 1, 4, (2,), itemsize=4)
        assert ws8 == 2 * ws4


class TestEstimatorDtype:
    def test_itemsize_shifts_threshold_window(self):
        # (96, 96, 96) mode 0: the float64 working set overshoots the
        # MSTH/MLTH window at degree 2, the float32 one (half the bytes)
        # fits — so the estimator merges one more mode.
        est = ParameterEstimator(max_threads=1)
        p64 = est.estimate((96, 96, 96), 0, 16, dtype="float64")
        p32 = est.estimate((96, 96, 96), 0, 16, dtype="float32")
        assert p32.degree > p64.degree

    def test_itemsize_shifts_pth_thread_split(self):
        est = ParameterEstimator(max_threads=4)
        p64 = est.estimate((96, 96, 96), 0, 16, dtype="float64")
        p32 = est.estimate((96, 96, 96), 0, 16, dtype="float32")
        split64 = (p64.loop_threads, p64.kernel_threads)
        split32 = (p32.loop_threads, p32.kernel_threads)
        assert split64 != split32

    def test_float16_routes_to_blocked_up_front(self):
        est = ParameterEstimator(max_threads=1)
        plan = est.estimate((6, 7, 8), 1, 4, dtype="float16")
        assert plan.kernel == FALLBACK_KERNEL

    def test_default_dtype_is_float64(self):
        est = ParameterEstimator(max_threads=1)
        assert est.estimate((6, 7, 8), 1, 4).dtype == "float64"


class TestAutotuneCacheDtype:
    def test_plan_key_encodes_dtype(self):
        key = PlanKey.make((6, 7, 8), 1, 4, ROW_MAJOR, 2, "float32")
        assert key.encode() == "6x7x8|m1|J4|ROW_MAJOR|T2|float32"
        assert PlanKey.decode(key.encode()) == key

    def test_distinct_keys_per_dtype(self):
        k64 = PlanKey.make((6, 7, 8), 1, 4, ROW_MAJOR, 2, "float64")
        k32 = PlanKey.make((6, 7, 8), 1, 4, ROW_MAJOR, 2, "float32")
        assert k64 != k32

    def test_malformed_dtype_token_raises_plan_error(self):
        with pytest.raises(PlanError):
            PlanKey.decode("6x7x8|m1|J4|ROW_MAJOR|T2|int32")

    def test_cache_entries_never_collide_across_dtypes(self, tmp_path):
        cache = PlanCache(path=str(tmp_path / "plans.json"),
                          fingerprint="test")
        p64 = default_plan((6, 7, 8), 1, 4, ROW_MAJOR)
        p32 = default_plan((6, 7, 8), 1, 4, ROW_MAJOR, dtype="float32")
        cache.put_plan((6, 7, 8), 1, 4, ROW_MAJOR, 1, p64, dtype="float64")
        cache.put_plan((6, 7, 8), 1, 4, ROW_MAJOR, 1, p32, dtype="float32")
        assert len(cache) == 2
        got64 = cache.get_plan((6, 7, 8), 1, 4, ROW_MAJOR, 1, dtype="float64")
        got32 = cache.get_plan((6, 7, 8), 1, 4, ROW_MAJOR, 1, dtype="float32")
        assert got64.dtype == "float64"
        assert got32.dtype == "float32"

    def test_pre_dtype_store_invalidates_gracefully(self, tmp_path):
        # A schema-2 (pre-dtype) cache file must degrade to an empty
        # cache — one logged invalidation — never a SchemaMismatch crash.
        path = tmp_path / "plans.json"
        plan = default_plan((6, 7, 8), 1, 4, ROW_MAJOR)
        from repro.core.serialize import plan_to_dict

        payload = plan_to_dict(plan)
        payload.pop("dtype")  # schema-2 plans predate the field
        path.write_text(json.dumps({
            "schema": 2,
            "fingerprint": "test",
            "entries": {
                "6x7x8|m1|J4|ROW_MAJOR|T1": {
                    "plan": payload, "source": "estimator",
                    "seconds": None, "trials": {},
                },
            },
        }))
        cache = PlanCache(path=str(path), fingerprint="test")
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        # The cache is usable immediately after invalidation.
        cache.put_plan((6, 7, 8), 1, 4, ROW_MAJOR, 1, plan)
        assert len(PlanCache(path=str(path), fingerprint="test")) == 1

    def test_v2_keys_without_dtype_are_rejected(self):
        # Even if a 5-token key sneaks past the schema gate, decoding
        # refuses it rather than guessing a dtype.
        with pytest.raises(PlanError):
            PlanKey.decode("6x7x8|m1|J4|ROW_MAJOR|T1")

    def test_store_roundtrips_dtype(self, tmp_path):
        path = str(tmp_path / "plans.json")
        store = PlanStore(path, "test")
        key = PlanKey.make((6, 7, 8), 1, 4, ROW_MAJOR, 1, "float32")
        plan = default_plan((6, 7, 8), 1, 4, ROW_MAJOR, dtype="float32")
        from repro.autotune.cache import CacheEntry

        store.save({key.encode(): CacheEntry(plan=plan).to_dict()})
        loaded = store.load()
        assert key.encode() in loaded
        assert loaded[key.encode()]["plan"]["dtype"] == "float32"


class TestEndToEndDtype:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("executor", ["generated", "interpreted"])
    def test_intensli_matches_oracle_per_dtype(self, executor, dtype):
        lib = InTensLi(executor=executor)
        rtol, atol = DTYPE_TOLERANCES[dtype.name]
        for layout in (ROW_MAJOR, COL_MAJOR):
            x, u = _case((5, 6, 7), 1, 4, layout, dtype=dtype.name)
            y = lib.ttm(x, u, 1)
            assert y.dtype == dtype
            expect = ttm_oracle(x.data.astype(np.float64),
                                u.astype(np.float64), 1)
            assert np.allclose(y.data.astype(np.float64), expect,
                               rtol=rtol, atol=atol)

    def test_per_iteration_plan_matches_batched_float32(self):
        x, u = _case((4, 5, 6, 3), 2, 4, dtype="float32")
        batched = default_plan((4, 5, 6, 3), 2, 4, ROW_MAJOR, dtype="float32")
        looped = default_plan((4, 5, 6, 3), 2, 4, ROW_MAJOR, batched=False,
                              dtype="float32")
        yb = ttm_inplace(x, u, plan=batched)
        yl = ttm_inplace(x, u, plan=looped)
        assert yb.dtype == yl.dtype == np.float32
        np.testing.assert_array_equal(yb.data, yl.data)

    def test_spans_record_dtype(self):
        x, u = _case((4, 5, 6), 1, 3, dtype="float32")
        lib = InTensLi(executor="interpreted")
        with tracing() as tracer:
            lib.ttm(x, u, 1)
        spans = {s.name: s for s in tracer.collector.spans()}
        assert spans["ttm"].attrs["dtype"] == "float32"
        assert spans["execute"].attrs["dtype"] == "float32"
        assert spans["gemm-kernel"].attrs["dtype"] == "float32"


class TestZeroExtent:
    CASES = [((0, 4, 5), 1), ((3, 0, 5), 0), ((3, 4, 0), 2),
             ((3, 0, 5), 1), ((0, 0, 3), 2), ((0,), 0), ((4, 0), 1)]

    @pytest.mark.parametrize("shape,mode", CASES)
    def test_empty_outputs_across_executors(self, shape, mode):
        j = 6
        for layout in (ROW_MAJOR, COL_MAJOR):
            x = DenseTensor.random(shape, layout, seed=1)
            u = np.random.default_rng(2).standard_normal((j, shape[mode]))
            expect = tuple(j if i == mode else s
                           for i, s in enumerate(shape))
            for lib in (InTensLi(), InTensLi(executor="interpreted"),
                        InTensLi(max_threads=4)):
                y = lib.ttm(x, u, mode)
                assert y.shape == expect
            plan = default_plan(shape, mode, j, layout, batched=False)
            assert ttm_inplace(x, u, plan=plan).shape == expect

    def test_k_zero_contraction_writes_zeros(self):
        # Contracting an empty mode: the output is nonempty and must be
        # exactly zero, not np.empty garbage.
        for dtype in SUPPORTED_DTYPES:
            x = DenseTensor.random((3, 0, 5), seed=1, dtype=dtype)
            u = np.zeros((6, 0), dtype=dtype)
            y = ttm_inplace(x, u, 1)
            assert y.shape == (3, 6, 5)
            assert y.dtype == np.dtype(dtype)
            assert not np.any(y.data)

    def test_zero_extent_preserves_dtype(self):
        x = DenseTensor.random((0, 4, 5), seed=1, dtype="float32")
        u = np.ones((6, 4), dtype=np.float32)
        y = ttm_inplace(x, u, 1)
        assert y.shape == (0, 6, 5)
        assert y.dtype == np.float32

    def test_loop_threads_exceeding_iterations(self):
        # More loop threads than iterations (including zero iterations)
        # must degrade gracefully, not crash the parfor split.
        x = DenseTensor.random((2, 3, 4), seed=3)
        u = np.random.default_rng(4).standard_normal((5, 3))
        plan = default_plan((2, 3, 4), 1, 5, ROW_MAJOR, batched=False)
        plan = dataclasses.replace(plan, loop_threads=8)
        y = ttm_inplace(x, u, plan=plan)
        expect = ttm_oracle(x.data, u, 1)
        assert np.allclose(y.data, expect)
