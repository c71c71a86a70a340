"""The model-storage service (paper §4.3).

Stores each trigger's trained model under the pipeline's compression
policy: a full snapshot every ``full_every`` triggers, weight deltas in
between. Restoring trigger ``k`` walks back to the latest full snapshot
and replays the delta chain forward — the video-encoding I/P-frame
structure the paper describes. A delta is taken against the previous
stored model, which the store keeps in memory instead of re-reading its
chain, and deltas are exact, so every load returns the stored state bit
for bit.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.model_storage.policies import (
    FullModelStrategy,
    State,
    WeightsDifferenceStrategy,
)


@dataclass(frozen=True)
class StoredModelInfo:
    """Catalog entry for one stored model."""

    trigger_id: int
    kind: str  # "full" | "delta"
    path: str
    nbytes: int


class ModelStorage:
    """Per-pipeline model store with full + incremental policies."""

    def __init__(self, root: str, *, full_every: int = 1) -> None:
        if full_every < 1:
            raise ValueError("full_every must be >= 1")
        self.root = root
        self.full_every = int(full_every)
        self.full = FullModelStrategy()
        self.incremental = WeightsDifferenceStrategy()
        # insertion (store) order defines the delta chain
        self._catalog: dict[int, StoredModelInfo] = {}
        self._last: State | None = None  # the latest stored state: the next base
        self._lock = threading.Lock()
        os.makedirs(root, exist_ok=True)

    def store(self, trigger_id: int, state: State) -> StoredModelInfo:
        """Persist one trained model; returns its catalog entry."""
        with self._lock:
            if trigger_id in self._catalog:
                raise ValueError(f"model for trigger {trigger_id} already stored")
            state = {k: np.array(v) for k, v in state.items()}  # callers may reuse theirs
            base = self._last
            use_full = (
                len(self._catalog) % self.full_every == 0
                or base is None
                or not self.incremental.applies(state, base)  # architecture changed
            )
            if use_full:
                data, kind = self.full.serialize(state), "full"
            else:
                data, kind = self.incremental.serialize(state, base), "delta"
            path = os.path.join(self.root, f"model_{trigger_id:06d}.{kind}")
            with open(path, "wb") as f:
                f.write(data)
            info = StoredModelInfo(trigger_id, kind, path, len(data))
            self._catalog[trigger_id] = info
            self._last = state
            return info

    def _load_locked(self, trigger_id: int) -> State:
        """Replay the chain from the latest full snapshot at or before
        ``trigger_id`` forward, one delta at a time."""
        order = list(self._catalog)
        end = order.index(trigger_id)
        start = end
        while self._catalog[order[start]].kind != "full":
            start -= 1
        state: State = {}
        for t in order[start : end + 1]:
            info = self._catalog[t]
            with open(info.path, "rb") as f:
                data = f.read()
            if info.kind == "full":
                state = self.full.deserialize(data)
            else:
                state = self.incremental.deserialize(data, state)
        return state

    def load(self, trigger_id: int) -> State:
        """Reconstruct a stored model's parameter state."""
        with self._lock:
            if trigger_id not in self._catalog:
                raise KeyError(f"no model stored for trigger {trigger_id}")
            return self._load_locked(trigger_id)

    def info(self, trigger_id: int) -> StoredModelInfo:
        return self._catalog[trigger_id]

    @property
    def stored_triggers(self) -> list[int]:
        return list(self._catalog)

    def total_bytes(self) -> int:
        return sum(i.nbytes for i in self._catalog.values())

