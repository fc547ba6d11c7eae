"""Capacity-doubling arrays: appending rows costs amortised time in the rows
appended, not in the rows already held (the dynamic tables of Cormen et al.,
*Introduction to Algorithms*, ch. 17).

A buffer is an array with spare rows past its ``filled`` ones, and callers
hold read-only views of its filled prefix. ``appended`` writes in place only
when the array it extends is exactly that prefix (the buffer's tip); so no
append writes over rows a view already shows. Any other array - an older,
shorter prefix, a caller's own - is copied into a fresh buffer with room
for twice the rows. A reader that knows how many rows it will fill asks
``reserved`` for a tip of that many, so the first append to what it read
copies nothing.

Every array a graph or a store appends to grows here: the graph's
incidences (``trigraph.SparseBinaryMatrix.extended``), occurrence counts
and sentence table, and a store's kinds. What an append still copies whole
is the graph's passage tuple and its entity registry.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np


class _Buffer(np.ndarray):
    """Array storage whose first ``filled`` rows are in use, shown by the
    view ``tip`` refers to; ``lock`` guards the claim of the rows past
    them."""

    filled: int
    tip: weakref.ref
    lock: threading.Lock


def appended(array: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``array`` followed by ``rows`` along the first axis, as a read-only
    view of a buffer's filled prefix; ``array`` itself is left unchanged."""
    n, total = len(array), len(array) + len(rows)
    dtype = np.result_type(array, rows)
    buffer = _claim_tip(array, total, dtype)
    if buffer is None:
        buffer = _new_buffer(total, array.shape[1:], dtype)
        buffer[:n] = array
    buffer[n:total] = rows
    view = _tip(buffer, total)
    view.flags.writeable = False
    return view


def reserved(rows: int, row_shape: tuple[int, ...], dtype) -> np.ndarray:
    """``rows`` uninitialised rows of shape ``row_shape``: the writable tip
    of a fresh buffer with room for twice as many. The caller fills every
    one and makes them read-only; ``appended`` then extends them in
    place."""
    return _tip(_new_buffer(rows, row_shape, np.dtype(dtype)), rows)


def _new_buffer(filled: int, row_shape: tuple[int, ...], dtype: np.dtype) -> _Buffer:
    buffer = np.ndarray.__new__(_Buffer, (2 * filled, *row_shape), dtype)
    buffer.lock = threading.Lock()
    buffer.filled = filled
    return buffer


def _tip(buffer: _Buffer, rows: int) -> np.ndarray:
    """A view of the buffer's first ``rows`` rows, its filled ones, which
    becomes its tip."""
    view = np.ndarray((rows, *buffer.shape[1:]), buffer.dtype, buffer=buffer)
    buffer.tip = weakref.ref(view)
    return view


def _claim_tip(array: np.ndarray, total: int, dtype: np.dtype) -> _Buffer | None:
    """The buffer whose tip ``array`` is, if it holds ``dtype`` and has room
    for ``total`` rows, with its filled count raised to ``total``; else
    None.

    Only the view ``_tip`` made last is a buffer's tip: any other array,
    even another view of the same rows, is copied. Checking and claiming
    under the buffer's lock lets only one of several threads appending to
    the same tip write in place: the first raises the filled count past
    the tip's rows before the grown view becomes the tip."""
    owner = array.base
    # A slice of a buffer is a _Buffer too, but only the buffer has a tip.
    if not isinstance(owner, _Buffer) or owner.base is not None:
        return None
    if owner.dtype != dtype or total > len(owner):
        return None
    with owner.lock:
        if owner.tip() is not array or len(array) != owner.filled:
            return None
        owner.filled = total
    return owner
