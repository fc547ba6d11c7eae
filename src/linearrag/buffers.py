"""Capacity-doubling arrays: appending rows costs amortised time in the rows
appended, not in the rows already held (the dynamic tables of Cormen et al.,
*Introduction to Algorithms*, ch. 17).

A buffer is an array with spare rows past its ``filled`` ones, and callers
hold read-only views of its filled prefix. ``appended`` writes in place only
when the array it extends is exactly that prefix (the buffer's tip); so no
append writes over rows a view already shows. Any other array - an older,
shorter prefix, an array read from disk, a caller's own - is copied into a
fresh buffer with room for twice the rows.
"""

from __future__ import annotations

import threading

import numpy as np


class _Buffer(np.ndarray):
    """Array storage whose first ``filled`` rows are in use; ``lock`` guards
    the claim of the rows past them."""

    filled: int
    lock: threading.Lock


def appended(array: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``array`` followed by ``rows`` along the first axis, as a read-only
    view of a buffer's filled prefix; ``array`` itself is left unchanged."""
    n, total = len(array), len(array) + len(rows)
    dtype = np.result_type(array, rows)
    buffer = _claim_tip(array, total, dtype)
    if buffer is None:
        buffer = np.ndarray.__new__(_Buffer, (2 * total, *array.shape[1:]), dtype)
        buffer.lock = threading.Lock()
        buffer.filled = total
        buffer[:n] = array
    buffer[n:total] = rows
    view = np.ndarray((total, *buffer.shape[1:]), dtype, buffer=buffer)
    view.flags.writeable = False
    return view


def _claim_tip(array: np.ndarray, total: int, dtype: np.dtype) -> _Buffer | None:
    """The buffer whose filled prefix ``array`` is exactly, if it holds
    ``dtype`` and has room for ``total`` rows, with its filled count raised
    to ``total``; else None.

    The views ``appended`` returns have their buffer for base; a view of
    such a view (even of all its rows) has that view for base and is
    copied. Checking and claiming under the buffer's lock lets only one of
    several threads appending to the same tip write in place."""
    owner = array.base
    # A slice of a buffer is a _Buffer too, but only the buffer has a lock.
    if not isinstance(owner, _Buffer) or owner.base is not None:
        return None
    if owner.dtype != dtype or total > len(owner):
        return None
    with owner.lock:
        is_tip = (
            array.shape == (owner.filled, *owner.shape[1:])
            and array.strides == owner.strides
            and array.__array_interface__["data"][0]
            == owner.__array_interface__["data"][0]
        )
        if not is_tip:
            return None
        owner.filled = total
    return owner
