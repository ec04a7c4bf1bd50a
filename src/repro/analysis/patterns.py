"""Pure wait-state severity formulas (Scalasca pattern definitions).

These functions are clock-agnostic: they take timestamps in whatever unit
the active clock produces (seconds for tsc, logical units otherwise) and
return severities in the same unit.  Keeping them pure makes the pattern
semantics unit-testable independent of the analyzer.

The analyzer's plan evaluation calls the bulk forms over all instances
of a trace at once: ``*_batch`` over flattened groups
(``np.maximum.reduceat`` / ``np.minimum.reduceat`` at the group starts)
and ``*_many`` over aligned message arrays.  The causal DAG evaluates
the per-instance forms of the two patterns it needs, :func:`nxn_waits`
and :func:`late_sender_wait`, once per synchronisation.  Every bulk form
performs the same IEEE operations per element as its per-instance
definition, so both are bit-identical (locked by
``tests/test_columnar.py``; the per-instance definitions of the barrier
split and the late-receiver wait, which only that check calls, live in
``tests/oracles.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "nxn_waits",
    "nxn_waits_batch",
    "barrier_split_batch",
    "late_sender_wait",
    "late_sender_wait_many",
    "late_receiver_wait_many",
]

def nxn_waits(enters: Sequence[float], completion: float) -> List[float]:
    """Wait-at-NxN severity per participant.

    In an all-to-all style collective no participant can leave before the
    last one has entered, so everyone who arrived early waits:
    ``wait_i = max_j(enter_j) - enter_i``, clamped into the participant's
    own interval ``[0, completion - enter_i]``.
    """
    if not len(enters):
        return []
    latest = max(enters)
    lim = min(latest, completion)
    return [max(0.0, lim - e) for e in enters]


def nxn_waits_batch(
    enters: np.ndarray, starts: np.ndarray, completions: np.ndarray
) -> np.ndarray:
    """Wait-at-NxN severities for many collective instances at once.

    ``enters`` is the flat concatenation of all instances' enter
    timestamps, ``starts[k]`` the offset at which instance ``k`` begins,
    and ``completions[k]`` its completion timestamp.  Returns the flat
    severity array aligned with ``enters``; element for element identical
    to calling :func:`nxn_waits` per instance.
    """
    e = np.asarray(enters, dtype=np.float64)
    if not len(e):
        return np.empty(0, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    lim = np.minimum(
        np.maximum.reduceat(e, starts),
        np.asarray(completions, dtype=np.float64),
    )
    sizes = np.diff(np.append(starts, len(e)))
    return np.maximum(0.0, np.repeat(lim, sizes) - e)


def barrier_split_batch(
    enters: np.ndarray, leaves: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(waits, overheads) for many barrier instances at once.

    ``starts`` follows the convention of :func:`nxn_waits_batch`.  Each
    member's interval is ``d_i = leave_i - enter_i``; the *last* arriver
    waits approximately nothing, so the minimum interval is the
    intrinsic barrier overhead, and everything above it is waiting:
    ``overhead_i = min_j d_j``, ``wait_i = d_i - overhead_i``.
    """
    e = np.asarray(enters, dtype=np.float64)
    if not len(e):
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    d = np.asarray(leaves, dtype=np.float64) - e
    starts = np.asarray(starts, dtype=np.int64)
    overhead = np.maximum(0.0, np.minimum.reduceat(d, starts))
    sizes = np.diff(np.append(starts, len(d)))
    o_flat = np.repeat(overhead, sizes)
    return np.maximum(0.0, d - o_flat), o_flat


def late_sender_wait(send_ts: float, recv_enter_ts: float, recv_complete_ts: float) -> float:
    """Late-sender severity at the receiver.

    The receiver blocked from ``recv_enter_ts``; the message only started
    at ``send_ts``.  The waiting ends at the latest at completion.
    """
    return max(0.0, min(send_ts, recv_complete_ts) - recv_enter_ts)


def late_sender_wait_many(
    send_ts: np.ndarray, recv_enter_ts: np.ndarray, recv_complete_ts: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`late_sender_wait` over aligned message arrays."""
    return np.maximum(
        0.0,
        np.minimum(np.asarray(send_ts, dtype=np.float64), recv_complete_ts)
        - recv_enter_ts,
    )


def late_receiver_wait_many(
    send_ts: np.ndarray, recv_post_ts: np.ndarray, complete_ts: np.ndarray
) -> np.ndarray:
    """Late-receiver severity at the sender (rendezvous protocol only),
    over aligned message arrays.

    A rendezvous sender cannot progress until the receive is posted; if
    the receiver posted after the send started, the sender waited.
    """
    return np.maximum(
        0.0,
        np.minimum(np.asarray(recv_post_ts, dtype=np.float64), complete_ts)
        - np.asarray(send_ts, dtype=np.float64),
    )
