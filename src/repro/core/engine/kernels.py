"""Fused counting kernels: the single-pass core of the sibling-block hot loop.

Profiling the detectors shows essentially all time goes into two operations on
the rank-sorted codes matrix:

* building a sibling block — gather the parent's matched column slice, count
  child sizes, count the top-k prefix (three numpy passes with an intermediate
  ``column[rows]`` materialization between them); and
* re-counting a cached block at a new ``k`` — a binary search for the prefix
  length followed by a ``np.bincount`` over it.

This module fuses each of those chains into a *single* pass over the parent's
sorted rank positions.  Two interchangeable implementations exist:

* :class:`CompiledKernels` — numba ``@njit(nogil=True, cache=True)`` loops.
  One traversal of ``rows`` produces the gathered codes, the size histogram and
  the top-k histogram simultaneously (the prefix limit falls out of the sorted
  ``rows`` for free — no separate ``searchsorted``), with no temporaries.
* :class:`NumpyKernels` — a pure-numpy equivalent of every kernel, bit-identical
  by construction.  It is selected automatically when numba is not importable,
  so the tier-1 test suite (and any production install) never *requires* numba.

Selection happens at import: the module probes ``import numba`` once and
publishes :data:`NUMBA_AVAILABLE`.  :func:`get_kernels` maps the
``ExecutionConfig.kernel`` switch (``"auto" | "numpy" | "compiled"``) onto an
implementation; the ``REPRO_FORCE_KERNEL`` environment variable overrides
``"auto"`` (the CI fallback leg exports ``REPRO_FORCE_KERNEL=numpy`` so the
numpy path stays exercised even on numba-equipped runners).  An explicit
``"compiled"`` request on a machine without numba raises a typed
:class:`~repro.exceptions.ConfigurationError` instead of degrading silently.

Every kernel takes the block layout used by
:class:`~repro.core.engine.blocks.BlockEntry`: ``rows`` — the parent's matching
rank positions in ascending order — and ``codes`` — the child value code of
each of those rows.  Because ``rows`` is sorted, "inside the top-k prefix" is
exactly ``rows[i] < k``, and all prefix counting is a scan that stops at the
first position ``>= k``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "KERNEL_CHOICES",
    "NUMBA_AVAILABLE",
    "FORCE_KERNEL_ENV",
    "NumpyKernels",
    "CompiledKernels",
    "available_kernels",
    "resolve_kernel",
    "get_kernels",
]

#: Valid values of ``ExecutionConfig.kernel`` (and of ``REPRO_FORCE_KERNEL``,
#: minus ``"auto"`` which would be a no-op there).
KERNEL_CHOICES = ("auto", "numpy", "compiled")

#: Environment variable overriding ``kernel="auto"`` resolution (CI uses it to
#: pin the numpy fallback on numba-equipped runners).
FORCE_KERNEL_ENV = "REPRO_FORCE_KERNEL"

try:  # numba is an optional accelerator, never a dependency of tier-1.
    from numba import njit as _njit
except ImportError:  # pragma: no cover - exercised on numba-free installs
    _njit = None

#: Whether the compiled kernel path can be built in this interpreter.
NUMBA_AVAILABLE = _njit is not None


class NumpyKernels:
    """Pure-numpy reference implementation of every counting kernel.

    This is the bit-identity oracle for :class:`CompiledKernels` and the
    implementation that carries all counting when numba is absent.  The
    operations mirror the fused loops step for step (gather, ``bincount``,
    sorted-prefix ``searchsorted``), so outputs agree element for element.
    """

    name = "numpy"

    @staticmethod
    def evaluate_block(
        column: np.ndarray, rows: np.ndarray, k: int, cardinality: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather + size histogram + top-k histogram of one sibling block.

        ``column`` is the full ranked column of the block's attribute; ``rows``
        the parent's sorted rank positions.  Returns ``(codes, sizes, counts)``
        where ``codes = column[rows]`` (cached by the block entry), ``sizes``
        counts every child and ``counts`` counts the children inside the top-k
        prefix.
        """
        codes = column[rows]
        sizes = np.bincount(codes, minlength=cardinality)
        limit = int(np.searchsorted(rows, k, side="left"))
        counts = np.bincount(codes[:limit], minlength=cardinality)
        return codes, sizes, counts

    @staticmethod
    def prefix_counts(rows: np.ndarray, codes: np.ndarray, k: int, cardinality: int) -> np.ndarray:
        """Top-k histogram of a cached block at a new ``k`` (the k-sweep re-count)."""
        limit = int(np.searchsorted(rows, k, side="left"))
        return np.bincount(codes[:limit], minlength=cardinality)

    @staticmethod
    def child_positions(rows: np.ndarray, codes: np.ndarray, code: int) -> np.ndarray:
        """Sorted rank positions of the one child at value ``code``."""
        return rows[codes == code]

    @staticmethod
    def select_positions(column: np.ndarray, rows: np.ndarray, code: int) -> np.ndarray:
        """Positions of ``rows`` whose ranked ``column`` value equals ``code``.

        The single-child gather+filter used on a block-cache miss in
        :meth:`CountingEngine.match` — fused so the compiled path never
        materializes the gathered column.
        """
        return rows[column[rows] == code]


def _build_compiled_kernels(njit):
    """Compile the fused loops and wrap them in a :class:`NumpyKernels`-shaped class.

    Separated into a factory so the decoration only happens when numba is
    importable; ``cache=True`` persists the machine code next to the package, so
    the JIT cost is paid once per install, not once per process.
    """

    @njit(nogil=True, cache=True)
    def _evaluate_block(column, rows, k, cardinality):  # pragma: no cover - jitted
        n = rows.shape[0]
        codes = np.empty(n, dtype=column.dtype)
        sizes = np.zeros(cardinality, dtype=np.int64)
        counts = np.zeros(cardinality, dtype=np.int64)
        for i in range(n):
            row = rows[i]
            code = column[row]
            codes[i] = code
            sizes[code] += 1
            if row < k:
                counts[code] += 1
        return codes, sizes, counts

    @njit(nogil=True, cache=True)
    def _prefix_counts(rows, codes, k, cardinality):  # pragma: no cover - jitted
        counts = np.zeros(cardinality, dtype=np.int64)
        for i in range(rows.shape[0]):
            if rows[i] >= k:
                break
            counts[codes[i]] += 1
        return counts

    @njit(nogil=True, cache=True)
    def _child_positions(rows, codes, code):  # pragma: no cover - jitted
        total = 0
        for i in range(codes.shape[0]):
            if codes[i] == code:
                total += 1
        out = np.empty(total, dtype=rows.dtype)
        cursor = 0
        for i in range(codes.shape[0]):
            if codes[i] == code:
                out[cursor] = rows[i]
                cursor += 1
        return out

    @njit(nogil=True, cache=True)
    def _select_positions(column, rows, code):  # pragma: no cover - jitted
        total = 0
        for i in range(rows.shape[0]):
            if column[rows[i]] == code:
                total += 1
        out = np.empty(total, dtype=rows.dtype)
        cursor = 0
        for i in range(rows.shape[0]):
            if column[rows[i]] == code:
                out[cursor] = rows[i]
                cursor += 1
        return out

    class _CompiledKernels:
        """Fused nogil loops; outputs bit-identical to :class:`NumpyKernels`."""

        name = "compiled"

        evaluate_block = staticmethod(_evaluate_block)
        prefix_counts = staticmethod(_prefix_counts)
        child_positions = staticmethod(_child_positions)
        select_positions = staticmethod(_select_positions)

    return _CompiledKernels


#: The compiled implementation, or ``None`` when numba is not importable.
CompiledKernels = _build_compiled_kernels(_njit) if NUMBA_AVAILABLE else None


def available_kernels() -> tuple[str, ...]:
    """The concrete kernel implementations this interpreter can serve."""
    return ("numpy", "compiled") if NUMBA_AVAILABLE else ("numpy",)


def resolve_kernel(kernel: str = "auto") -> str:
    """Map an ``ExecutionConfig.kernel`` value to a concrete implementation name.

    ``"auto"`` resolves to ``"compiled"`` when numba is importable and to
    ``"numpy"`` otherwise, unless ``REPRO_FORCE_KERNEL`` pins a choice.  An
    explicit (or forced) ``"compiled"`` without numba raises
    :class:`~repro.exceptions.ConfigurationError` — a silent downgrade would
    invalidate any benchmark claiming compiled-kernel numbers.
    """
    if kernel not in KERNEL_CHOICES:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}: expected one of {KERNEL_CHOICES}"
        )
    if kernel == "auto":
        forced = os.environ.get(FORCE_KERNEL_ENV, "").strip().lower()
        if forced:
            if forced not in ("numpy", "compiled"):
                raise ConfigurationError(
                    f"{FORCE_KERNEL_ENV}={forced!r} is not a kernel: expected "
                    "'numpy' or 'compiled'"
                )
            kernel = forced
        else:
            kernel = "compiled" if NUMBA_AVAILABLE else "numpy"
    if kernel == "compiled" and not NUMBA_AVAILABLE:
        raise ConfigurationError(
            "kernel 'compiled' requires numba, which is not importable in this "
            "environment — install numba or use kernel='auto'/'numpy'"
        )
    return kernel


def get_kernels(kernel: str = "auto"):
    """The kernel implementation class for an ``ExecutionConfig.kernel`` value."""
    resolved = resolve_kernel(kernel)
    if resolved == "compiled":
        return CompiledKernels
    return NumpyKernels
