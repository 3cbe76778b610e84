"""The :class:`DenseTensor` object.

A ``DenseTensor`` is a thin, layout-explicit wrapper around a contiguous
NumPy array.  It exists because the paper's algorithms are statements about
*storage*: whether a TTM can run in place depends on which modes are
contiguous in memory, and NumPy's implicit view semantics make it too easy
to lose track of that.  The wrapper guarantees:

* ``tensor.data`` is contiguous in ``tensor.layout`` order (C or F);
* element strides are available as ``tensor.strides`` and always agree
  with the declared layout;
* any physical reorganization (``permute``) is explicit and observable,
  which lets tests and the phase profiler attribute copy costs precisely.

Out-of-core backings
--------------------

A ``DenseTensor`` may also wrap storage that does *not* live in process
RAM: an ``np.memmap`` (:meth:`DenseTensor.from_memmap`,
:func:`open_memmap_tensor`) or any buffer-protocol object
(:meth:`DenseTensor.from_buffer`).  The :attr:`DenseTensor.is_inmem`
flag records which kind of backing the tensor has, and every operation
that would materialize the *whole* array in RAM — ``copy``, ``permute``,
``with_layout``, ``materialize``, and the physical ``unfold`` — checks
the memory budget (:func:`repro.resilience.memory.available_bytes`)
first and raises a typed :class:`~repro.util.errors.ResourceError` when
the copy would not fit.  Pure views (fibers, slices, merged-mode
matrices, tile sub-tensors) never materialize anything and therefore
work unchanged on out-of-core tensors: the OS pages in exactly the
bytes a kernel touches.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.tensor.layout import Layout, element_strides, leading_mode
from repro.util.dtypes import DEFAULT_DTYPE, canonical_dtype, is_supported_dtype
from repro.util.errors import LayoutError, ResourceError, ShapeError
from repro.util.rng import default_rng
from repro.util.validation import normalized_order


def _memmap_backed(arr: np.ndarray) -> bool:
    """True when *arr*'s storage is an ``np.memmap`` (walking view bases)."""
    node = arr
    while node is not None:
        if isinstance(node, np.memmap):
            return True
        node = getattr(node, "base", None)
    return False


def _guard_materialize(nbytes: int, what: str) -> None:
    """Refuse a whole-array materialization that exceeds the memory budget.

    Out-of-core tensors exist precisely because the full array does not
    comfortably fit in RAM, so any operation that would copy all of it
    must clear the same budget the execution-time guard uses
    (``$REPRO_MEM_LIMIT``, else ``/proc/meminfo``); when the budget is
    unknowable the copy is permitted.  Raising *before* the allocation
    keeps the failure typed and the source untouched.
    """
    from repro.resilience.memory import available_bytes

    avail = available_bytes()
    if avail is not None and nbytes > avail:
        raise ResourceError(
            f"{what} would materialize {nbytes} bytes of an out-of-core "
            f"tensor in RAM but only {avail} appear available; use tiled "
            "execution (repro.core.tiling) or raise $REPRO_MEM_LIMIT"
        )


class DenseTensor:
    """A dense N-way tensor with an explicit storage layout.

    Parameters
    ----------
    data:
        Array data.  It is used as-is when already contiguous in the
        requested layout (``copy=False``); otherwise it is copied into the
        requested layout.
    layout:
        ``Layout.ROW_MAJOR`` (default, the paper's convention) or
        ``Layout.COL_MAJOR`` (Tensor Toolbox convention).
    copy:
        Force a copy even when *data* already satisfies the layout.
    dtype:
        Explicit element type (one of the supported float dtypes).  When
        None, supported float dtypes of *data* are **preserved copy-free**
        — wrapping a float32 array never silently upcasts it to float64 —
        and anything else (ints, bools, Python lists) is materialized as
        float64, the library default.
    """

    __slots__ = ("_data", "_layout", "_strides", "_inmem")

    def __init__(
        self,
        data: np.ndarray,
        layout: Layout | str = Layout.ROW_MAJOR,
        *,
        copy: bool = False,
        dtype=None,
    ) -> None:
        layout = Layout.parse(layout)
        arr = np.asarray(data)
        if dtype is not None:
            target = canonical_dtype(dtype)
        elif is_supported_dtype(arr.dtype):
            target = arr.dtype
        else:
            target = DEFAULT_DTYPE
        order = layout.numpy_order
        want_flag = "C_CONTIGUOUS" if layout is Layout.ROW_MAJOR else "F_CONTIGUOUS"
        if copy or arr.dtype != target or not arr.flags[want_flag]:
            if _memmap_backed(arr):
                nbytes = arr.size * np.dtype(target).itemsize
                _guard_materialize(nbytes, "DenseTensor(copy=True)")
            arr = np.array(arr, dtype=target, order=order, copy=True)
        self._data = arr
        self._layout = layout
        self._strides = element_strides(arr.shape, layout)
        self._inmem = not _memmap_backed(arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(
        cls,
        data: np.ndarray,
        layout: Layout,
        strides: tuple[int, ...] | None = None,
    ) -> "DenseTensor":
        """Wrap *data* without re-validating (internal hot paths only).

        The caller guarantees *data* is already contiguous in *layout*
        order with a supported dtype — e.g. a slice it just allocated —
        and, when it passes *strides*, that they are *data*'s element
        strides.  Skips the ``__init__`` checks, which dominate the cost
        of constructing many small tensors (the serving coalescer's case).
        """
        self = object.__new__(cls)
        self._data = data
        self._layout = layout
        self._strides = (
            element_strides(data.shape, layout) if strides is None else strides
        )
        self._inmem = not _memmap_backed(data)
        return self

    @classmethod
    def zeros(
        cls,
        shape: Sequence[int],
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
    ) -> "DenseTensor":
        """A zero-filled tensor of the given shape, layout and dtype."""
        layout = Layout.parse(layout)
        dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
        return cls(
            np.zeros(tuple(shape), dtype=dt, order=layout.numpy_order), layout
        )

    @classmethod
    def empty(
        cls,
        shape: Sequence[int],
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
    ) -> "DenseTensor":
        """An uninitialized tensor (used for preallocating TTM outputs)."""
        layout = Layout.parse(layout)
        dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
        # A fresh buffer is contiguous in *layout* by construction.
        return cls._wrap(
            np.empty(tuple(shape), dtype=dt, order=layout.numpy_order), layout
        )

    @classmethod
    def random(
        cls,
        shape: Sequence[int],
        layout: Layout | str = Layout.ROW_MAJOR,
        seed=None,
        dtype=None,
    ) -> "DenseTensor":
        """A tensor with iid uniform [0, 1) entries (deterministic per seed)."""
        layout = Layout.parse(layout)
        dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
        rng = default_rng(seed)
        values = rng.random(tuple(shape))
        return cls(
            np.asarray(values, dtype=dt, order=layout.numpy_order), layout
        )

    @classmethod
    def from_array(
        cls,
        data: np.ndarray,
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
    ) -> "DenseTensor":
        """Wrap (or copy into layout) an existing ndarray."""
        return cls(data, layout, dtype=dtype)

    @classmethod
    def from_memmap(
        cls,
        source: np.memmap,
        layout: Layout | str | None = None,
    ) -> "DenseTensor":
        """Wrap an existing ``np.memmap`` without copying it into RAM.

        The declared layout must agree with the mapping's physical order
        — a mismatch raises :class:`LayoutError` rather than triggering
        the silent full-array copy ``__init__`` would perform.  When
        *layout* is None it is inferred from the mapping's contiguity
        flags (C wins for arrays contiguous both ways, e.g. vectors).
        """
        arr = source
        if not isinstance(arr, np.memmap) and not _memmap_backed(np.asarray(arr)):
            raise TypeError(
                f"from_memmap expects an np.memmap, got {type(source).__name__}; "
                "use from_array for in-memory data"
            )
        if not is_supported_dtype(arr.dtype):
            raise LayoutError(
                f"memmap dtype {arr.dtype} is not a supported float dtype; "
                "out-of-core tensors are never silently converted"
            )
        if layout is None:
            if arr.flags["C_CONTIGUOUS"]:
                layout = Layout.ROW_MAJOR
            elif arr.flags["F_CONTIGUOUS"]:
                layout = Layout.COL_MAJOR
            else:  # pragma: no cover - open_memmap only yields contiguous maps
                raise LayoutError("memmap is not contiguous in either order")
        else:
            layout = Layout.parse(layout)
            want = "C_CONTIGUOUS" if layout is Layout.ROW_MAJOR else "F_CONTIGUOUS"
            if not arr.flags[want]:
                raise LayoutError(
                    f"memmap is not {layout.name} contiguous; reopen it with "
                    "the matching layout instead of copying out of core"
                )
        return cls._wrap(np.asarray(arr), Layout.parse(layout))

    @classmethod
    def from_buffer(
        cls,
        buffer,
        shape: Sequence[int],
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
    ) -> "DenseTensor":
        """Wrap a buffer-protocol object (bytes, mmap, array) copy-free.

        The buffer must hold exactly ``prod(shape)`` elements of *dtype*
        laid out in *layout* order.  Read-only buffers (e.g. ``bytes``)
        yield read-only tensors; writes raise NumPy's usual error.
        """
        layout = Layout.parse(layout)
        dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
        shape_t = tuple(int(s) for s in shape)
        flat = np.frombuffer(buffer, dtype=dt)
        want = math.prod(shape_t)
        if flat.size != want:
            raise ShapeError(
                f"buffer holds {flat.size} {dt} elements, shape {shape_t} "
                f"needs {want}"
            )
        arr = flat.reshape(shape_t, order=layout.numpy_order)
        return cls._wrap(arr, layout)

    # -- basic properties --------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying contiguous ndarray (a view, never a copy)."""
        return self._data

    @property
    def layout(self) -> Layout:
        """The declared storage layout."""
        return self._layout

    @property
    def shape(self) -> tuple[int, ...]:
        """Extent of each mode."""
        return self._data.shape

    @property
    def order(self) -> int:
        """Number of modes (the paper's tensor *order* N)."""
        return self._data.ndim

    @property
    def ndim(self) -> int:
        """Alias of :attr:`order` for NumPy familiarity."""
        return self._data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self._data.size

    @property
    def nbytes(self) -> int:
        """Total storage in bytes."""
        return self._data.nbytes

    @property
    def dtype(self) -> np.dtype:
        """Element dtype (one of the supported float dtypes; float64 default)."""
        return self._data.dtype

    @property
    def strides(self) -> tuple[int, ...]:
        """Element strides of each mode under the declared layout."""
        return self._strides

    @property
    def is_inmem(self) -> bool:
        """False when the backing storage is a disk-backed ``np.memmap``.

        Views of an out-of-core tensor (fibers, tiles, unfoldings built
        copy-free) inherit ``is_inmem=False`` because they share the
        mapped storage; only an explicit :meth:`materialize` (or a
        guarded structural copy) produces an in-memory tensor.
        """
        return self._inmem

    @property
    def leading_mode(self) -> int:
        """The unit-stride mode (last for row-major, first for column-major)."""
        return leading_mode(self.order, self._layout)

    # -- element access ----------------------------------------------------

    def __getitem__(self, key):
        """Index into the underlying array; returns ndarray views/scalars."""
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        self._data[key] = value

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and dtype != self._data.dtype:
            return self._data.astype(dtype)
        if copy:
            return self._data.copy()
        return self._data

    def to_numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self._data

    # -- structural operations --------------------------------------------

    def copy(self) -> "DenseTensor":
        """A deep copy preserving layout (budget-guarded when out-of-core)."""
        if not self._inmem:
            _guard_materialize(self.nbytes, "copy()")
        return DenseTensor(self._data, self._layout, copy=True)

    def materialize(self) -> "DenseTensor":
        """An explicit in-RAM copy of an out-of-core tensor.

        This is the *only* sanctioned way to turn a memmap-backed tensor
        into an in-memory one; it still refuses (``ResourceError``) when
        the full array exceeds the memory budget.  In-memory tensors are
        returned as-is.
        """
        if self._inmem:
            return self
        _guard_materialize(self.nbytes, "materialize()")
        return DenseTensor(self._data, self._layout, copy=True)

    def with_layout(self, layout: Layout | str) -> "DenseTensor":
        """Rematerialize this tensor in another storage layout (copies)."""
        layout = Layout.parse(layout)
        if not self._inmem:
            _guard_materialize(self.nbytes, "with_layout()")
        if layout is self._layout:
            return self.copy()
        return DenseTensor(self._data, layout, copy=True)

    def permute(self, perm: Sequence[int]) -> "DenseTensor":
        """Physically permute modes (an explicit copy; Algorithm 1's step).

        This is the operation the in-place algorithm avoids; baselines call
        it and the phase profiler charges its cost to the *transform* phase.
        """
        perm_t = normalized_order(perm, self.order)
        if not self._inmem:
            _guard_materialize(self.nbytes, "permute()")
        moved = np.transpose(self._data, perm_t)
        return DenseTensor(moved, self._layout, copy=True)

    def reshape_copyfree(self, shape: Sequence[int]) -> np.ndarray:
        """Reshape to *shape* without copying, or raise :class:`LayoutError`.

        Only reshapes that merge/split modes consistently with the storage
        layout are possible copy-free; NumPy would silently copy otherwise,
        so we demand a view and fail loudly if one cannot be formed.
        """
        new_shape = tuple(int(s) for s in shape)
        if math.prod(new_shape) != self.size:
            raise ShapeError(
                f"cannot reshape size-{self.size} tensor to {new_shape}"
            )
        try:
            view = self._data.reshape(new_shape, order=self._layout.numpy_order)
        except ValueError as exc:  # pragma: no cover - numpy message passthrough
            raise LayoutError(str(exc)) from exc
        if view.base is not self._data and view.base is not self._data.base:
            raise LayoutError(
                f"reshape to {new_shape} requires a copy under layout "
                f"{self._layout.name}"
            )
        return view

    # -- comparisons and debugging ------------------------------------------

    def allclose(self, other, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Elementwise closeness against another tensor/array (layout-agnostic)."""
        other_arr = np.asarray(other)
        if other_arr.shape != self.shape:
            return False
        return bool(np.allclose(self._data, other_arr, rtol=rtol, atol=atol))

    def flush(self) -> None:
        """Flush a memmap-backed tensor's dirty pages to disk (no-op in RAM)."""
        node = self._data
        while node is not None:
            if isinstance(node, np.memmap):
                node.flush()
                return
            node = getattr(node, "base", None)

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        mem = "" if self._inmem else ", out-of-core"
        return f"DenseTensor(shape={dims}, layout={self._layout.name}{mem})"


def open_memmap_tensor(
    path,
    mode: str = "r+",
    shape: Sequence[int] | None = None,
    dtype=None,
    layout: Layout | str | None = None,
) -> DenseTensor:
    """Open (or create) a ``.npy``-backed out-of-core :class:`DenseTensor`.

    Built on ``np.lib.format.open_memmap`` so the file header carries
    shape, dtype and physical order — reopening needs only the path.

    Parameters
    ----------
    path:
        Filesystem path of the ``.npy`` file.
    mode:
        ``"w+"`` creates/overwrites (requires *shape*); ``"r+"`` opens
        read-write; ``"r"`` opens read-only.  Geometry arguments are
        taken from the header for the read modes, and a *layout* given
        explicitly on read must match the stored order
        (:class:`LayoutError` otherwise).
    shape, dtype, layout:
        Geometry for ``"w+"`` creation (dtype defaults to float64).

    I/O failures (missing file, bad header, full disk) surface as typed
    :class:`~repro.util.errors.ResourceError`; the deterministic
    ``store-read-error`` fault point fires here with
    ``site="memmap-open"`` so resilience tests can exercise that path.
    """
    from repro.resilience.faults import active_faults

    requested = None if layout is None else Layout.parse(layout)
    layout = Layout.ROW_MAJOR if requested is None else requested
    faults = active_faults()
    if faults is not None:
        try:
            faults.check("store-read-error", site="memmap-open", path=str(path))
        except ResourceError:
            raise
        except OSError as exc:
            raise ResourceError(
                f"injected I/O failure opening memmap tensor {path!s}: {exc}"
            ) from exc
    if mode == "w+" and shape is None:
        raise ShapeError("creating a memmap tensor (mode='w+') needs a shape")
    try:
        if mode == "w+":
            dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
            arr = np.lib.format.open_memmap(
                path,
                mode="w+",
                dtype=dt,
                shape=tuple(int(s) for s in shape),
                fortran_order=layout is Layout.COL_MAJOR,
            )
        else:
            arr = np.lib.format.open_memmap(path, mode=mode)
    except (OSError, ValueError) as exc:
        raise ResourceError(
            f"cannot open memmap tensor {path!s} (mode={mode}): {exc}"
        ) from exc
    if mode == "w+":
        return DenseTensor.from_memmap(arr, layout)
    inferred = (
        Layout.COL_MAJOR
        if arr.ndim > 1 and arr.flags["F_CONTIGUOUS"] and not arr.flags["C_CONTIGUOUS"]
        else Layout.ROW_MAJOR
    )
    if (
        requested is not None
        and requested is not inferred
        and not (arr.flags["C_CONTIGUOUS"] and arr.flags["F_CONTIGUOUS"])
    ):
        raise LayoutError(
            f"memmap tensor {path!s} is stored {inferred.name}; "
            f"requested {requested.name}"
        )
    return DenseTensor.from_memmap(arr, inferred)
