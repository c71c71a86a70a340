"""Triggering policies (paper §3.1, §4.1.1).

A trigger policy is stateful across batches: ``inform`` receives the next
batch of announced samples ``S_t`` and returns the *ordered list of
indices* within the batch after which a training should fire (the
formalism's T_t). An index ``i`` means: samples ``[0..i]`` of this batch
belong to the closing trigger; samples after ``i`` open the next one.
Index ``-1`` means the trigger fires before any sample of the batch (a
time boundary crossed between batches).

The paper ships amount-based and time-based policies; drift-based ones
are future work there and here.
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.registry import TRIGGERS


class Trigger(ABC):
    """Stateful triggering policy over the announced sample stream."""

    @abstractmethod
    def inform(self, keys: np.ndarray, timestamps: np.ndarray) -> list[int]:
        """Indices within this batch causing triggers, ascending."""


@TRIGGERS.register("DataAmountTrigger")
class DataAmountTrigger(Trigger):
    """Fires every ``data_points_for_trigger`` announced samples."""

    def __init__(self, *, data_points_for_trigger: int) -> None:
        if data_points_for_trigger < 1:
            raise ValueError("data_points_for_trigger must be >= 1")
        self.every = int(data_points_for_trigger)
        self._since_last = 0

    def inform(self, keys, timestamps) -> list[int]:
        out = []
        for i in range(len(keys)):
            self._since_last += 1
            if self._since_last == self.every:
                out.append(i)
                self._since_last = 0
        return out


@TRIGGERS.register("TimeTrigger")
class TimeTrigger(Trigger):
    """Fires whenever a sample's timestamp crosses an interval boundary.

    Boundaries lie at ``start + k * every``; timestamps must be
    non-decreasing. The first sample at-or-past a boundary *opens* the
    next trigger window, so the trigger fires just before it (index
    ``i - 1``, or ``-1`` if it is the batch's first sample). Multiple
    empty intervals collapse into a single trigger (no empty trainings),
    and a first sample past the first boundary opens the window holding
    it rather than firing.
    """

    def __init__(self, *, every: int, start_timestamp: int | None = None) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = int(every)
        self.start = start_timestamp
        self._next_boundary: int | None = None
        self._last_ts: int | None = None

    def inform(self, keys, timestamps) -> list[int]:
        out: list[int] = []
        for i, ts in enumerate(np.asarray(timestamps, np.int64)):
            ts = int(ts)
            if self._last_ts is not None and ts < self._last_ts:
                raise ValueError(
                    f"timestamps must be non-decreasing ({ts} < {self._last_ts})"
                )
            self._last_ts = ts
            if self._next_boundary is None:
                base = self.start if self.start is not None else ts
                self._next_boundary = base + self.every
            elif ts >= self._next_boundary:
                out.append(i - 1)
            if ts >= self._next_boundary:  # the first boundary past ``ts``
                past = (ts - self._next_boundary) // self.every + 1
                self._next_boundary += past * self.every
        return out
