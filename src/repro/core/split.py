"""Trace and dataset splitting utilities.

Three kinds of splits appear in the paper:

* **train/test split** (§4.2): the 30 most-active days of each dataset,
  first 15 days as the attacker's background knowledge ``H``, last 15 as
  the trace ``T`` the user wants to share;
* **fixed-time chunking** (§3.4/§4.5): cut a trace into 24 h sub-traces
  to model daily crowdsensing uploads;
* **recursive halving** (Algorithm 1, line 28): MooD's fine-grained stage
  splits a trace in half by time and recurses until the duration floor δ.

A gap-based splitter (the paper's future-work suggestion) ships behind
the same API and is exercised by the ablation bench.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.registry import register_split_policy

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_HOUR = 3_600.0


@register_split_policy("half")
def split_in_half(trace: Trace) -> Tuple[Trace, Trace]:
    """Split *trace* at the midpoint of its covered time span.

    This is ``Split_in_half`` from Algorithm 1.  Records strictly before
    the temporal midpoint go left, the rest right; with < 2 records the
    right half is empty.
    """
    if len(trace) < 2:
        return (trace, Trace.empty(trace.user_id))
    mid = trace.start_time() + trace.duration_s() / 2.0
    left = trace.slice_time(trace.start_time(), mid)
    right = trace.slice_time(mid, np.nextafter(trace.end_time(), np.inf))
    return (left, right)


def check_window_s(window_s: float) -> float:
    """*window_s* as a float; :class:`ConfigurationError` unless finite and > 0."""
    window_s = float(window_s)
    if not (math.isfinite(window_s) and window_s > 0):
        raise ConfigurationError(
            f"window_s must be positive and finite, got {window_s}"
        )
    return window_s


def next_window_edge(edge: float, window_s: float) -> float:
    """``edge + window_s``, the next tumbling-window boundary.

    Raises :class:`ConfigurationError` when the addition is absorbed by
    float rounding (``1.6e9 + 1e-7 == 1.6e9``): a window loop stepping
    by *window_s* would otherwise stay on one edge forever.
    """
    nxt = edge + window_s
    if nxt == edge:
        raise ConfigurationError(
            f"window_s={window_s!r} is below the float resolution of "
            f"timestamps near t={edge!r}"
        )
    return nxt


def window_start(edge: float, window_s: float, t: float) -> float:
    """Start of the tumbling window holding *t*, stepping up from *edge* ≤ *t*.

    The boundaries are exactly those of repeated float addition
    (``edge``, ``edge + w``, ``(edge + w) + w``, …), which batch and
    stream windowing share, but a run of empty windows costs O(1) per
    binade crossed instead of one step per window.
    """
    if not math.isfinite(t):
        raise ConfigurationError(f"timestamp {t!r} is not finite")
    while True:
        nxt = next_window_edge(edge, window_s)
        if nxt > t:
            return edge
        edge = _jump_on_grid(nxt, window_s, t)


def _jump_on_grid(b: float, w: float, t: float) -> float:
    """Advance boundary *b* by the steps of repeated addition of *w* that
    keep every sum on *b*'s float grid, without passing *t*.

    On a grid of spacing ``u`` (one binade; near zero, the subnormal
    spacing) *b* is ``a·u`` for an integer ``a`` and ``fl(b + w)`` is
    ``(a + w/u rounded to an integer)·u``: a constant step.  An exact
    half (``w/u`` ending in ``.5``) rounds to the even neighbour, which
    is a constant step too once ``a`` is even.
    """
    u = math.ulp(b)
    if u == math.ulp(0.0):
        top = 2**53  # |x| <= 2**-1021 keeps the subnormal spacing
    elif b > 0:
        top = 2**53  # x <= 2**53·u stays in b's binade
    else:
        top = -(2**52)  # x <= -2**52·u stays in b's binade
    a = int(b / u)
    steps = Fraction(w) / Fraction(u)
    whole = math.floor(steps)
    half = steps - whole
    if half < Fraction(1, 2):
        step = whole
    elif half > Fraction(1, 2):
        step = whole + 1
    elif a % 2 == 0:
        step = whole + whole % 2
    else:
        return b
    if step <= 0:
        return b
    k = min(
        (top - steps - a) // step + 1,  # every sum a + j·step + w/u <= top
        (Fraction(t) / Fraction(u) - a) // step,  # the landing edge <= t
    )
    if k <= 0:
        return b
    return float(a + k * step) * u


def split_fixed_time(trace: Trace, window_s: float) -> List[Trace]:
    """Cut *trace* into consecutive windows of *window_s* seconds.

    Empty windows are skipped (jumped, see :func:`window_start`).  With
    ``window_s = 86 400`` this models the daily-upload crowdsensing
    scenario of §4.2.
    """
    window_s = check_window_s(window_s)
    if len(trace) == 0:
        return []
    chunks: List[Trace] = []
    ts = trace.timestamps
    t0 = trace.start_time()
    end = trace.end_time()
    while t0 <= end:
        t1 = next_window_edge(t0, window_s)
        chunk = trace.slice_time(t0, t1)
        if len(chunk) > 0:
            chunks.append(chunk)
        later = ts[ts >= t1]
        if len(later) == 0:
            break
        t0 = window_start(t1, window_s, float(later[0]))
    return chunks


def split_on_gaps(trace: Trace, max_gap_s: float) -> List[Trace]:
    """Split *trace* wherever consecutive records are more than *max_gap_s* apart.

    Paper §6 suggests splitting "according to time gaps" as an alternative
    fine-grained policy; this provides it.
    """
    if max_gap_s <= 0:
        raise ConfigurationError(f"max_gap_s must be positive, got {max_gap_s}")
    if len(trace) == 0:
        return []
    t = trace.timestamps
    breaks = np.nonzero(np.diff(t) > max_gap_s)[0] + 1
    pieces: List[Trace] = []
    start = 0
    for b in list(breaks) + [len(trace)]:
        pieces.append(
            Trace(trace.user_id, t[start:b], trace.lats[start:b], trace.lngs[start:b])
        )
        start = b
    return pieces


def most_active_window(trace: Trace, days: int = 30) -> Trace:
    """Restrict *trace* to its most active *days*-long window (most records).

    Mirrors the paper's preprocessing: "we considered the 30 most active
    successive days of each dataset".  The window is aligned to whole days
    from the trace start and chosen to maximise the record count.
    """
    if days <= 0:
        raise ConfigurationError(f"days must be positive, got {days}")
    if len(trace) == 0:
        return trace
    window = days * SECONDS_PER_DAY
    if trace.duration_s() <= window:
        return trace
    t = trace.timestamps
    best_start = trace.start_time()
    best_count = -1
    start = trace.start_time()
    while start <= trace.end_time():
        count = int(np.count_nonzero((t >= start) & (t < start + window)))
        if count > best_count:
            best_count = count
            best_start = start
        start += SECONDS_PER_DAY
    return trace.slice_time(best_start, best_start + window)


def train_test_split(
    dataset: MobilityDataset,
    train_days: int = 15,
    test_days: int = 15,
    min_records: int = 2,
) -> Tuple[MobilityDataset, MobilityDataset]:
    """Chronological per-user split into background knowledge and shared trace.

    Each user's trace is first restricted to its most active
    ``train_days + test_days`` window, then cut at the boundary.  Users
    that end up with fewer than *min_records* records on either side are
    dropped from **both** halves ("only active users during those periods
    were considered", §4.2).
    """
    train = MobilityDataset(f"{dataset.name}-train")
    test = MobilityDataset(f"{dataset.name}-test")
    for trace in dataset.traces():
        if len(trace) == 0:
            continue
        window = most_active_window(trace, days=train_days + test_days)
        cut = window.start_time() + train_days * SECONDS_PER_DAY
        past = window.slice_time(window.start_time(), cut)
        future = window.slice_time(cut, np.nextafter(window.end_time(), np.inf))
        if len(past) < min_records or len(future) < min_records:
            continue
        train.add(past)
        test.add(future)
    return (train, test)
