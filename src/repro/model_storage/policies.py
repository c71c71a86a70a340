"""Model (de)serialization strategies (paper §4.3).

``FullModelStrategy`` stores a model restorable from the file alone (the
I-frame analog); ``WeightsDifferenceStrategy`` stores only the delta from
a base model under a difference operator (the P-frame analog). Both
zlib-compress an ``npz``-style binary payload.
"""
from __future__ import annotations

import io
import zlib

import numpy as np

State = dict[str, np.ndarray]


def _pack(state: State) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **state)
    return zlib.compress(buf.getvalue(), level=6)


def _unpack(data: bytes) -> State:
    with np.load(io.BytesIO(zlib.decompress(data))) as z:
        return {k: z[k].copy() for k in z.files}


class FullModelStrategy:
    """Self-contained compressed snapshot of the full parameter state."""

    name = "PyTorchFullModel"

    def serialize(self, state: State) -> bytes:
        return _pack(state)

    def deserialize(self, data: bytes) -> State:
        return _unpack(data)


def _layout(state: State) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Each key's dtype and shape, in key order."""
    arrays = {k: np.asarray(v) for k, v in state.items()}
    return {k: (a.dtype.str, a.shape) for k, a in sorted(arrays.items())}


def _bytes(a: np.ndarray) -> np.ndarray:
    """The array's raw bytes, as a flat ``uint8`` view."""
    return np.ascontiguousarray(a).reshape(-1).view(np.uint8)


class WeightsDifferenceStrategy:
    """Delta against a base state, under Modyn's ``xor`` difference
    operator: each array's bytes XOR the base's. Unlike a float
    subtraction it restores the state bit for bit, dtype included, and
    similar models share sign, exponent and leading mantissa bits, so
    their delta is mostly zero bytes and compresses well.

    State and base must agree on keys, and per key on dtype and shape
    (``applies``).
    """

    name = "WeightsDifference"

    @staticmethod
    def applies(state: State, base: State) -> bool:
        """Whether ``state`` can be stored as a delta against ``base``."""
        return _layout(state) == _layout(base)

    def serialize(self, state: State, base: State) -> bytes:
        if not self.applies(state, base):
            raise ValueError(
                f"state keys, dtypes and shapes {_layout(state)} != base {_layout(base)}"
            )
        return _pack({k: _bytes(state[k]) ^ _bytes(base[k]) for k in state})

    def deserialize(self, data: bytes, base: State) -> State:
        return {
            k: (_bytes(base[k]) ^ d).view(base[k].dtype).reshape(base[k].shape)
            for k, d in _unpack(data).items()
        }
