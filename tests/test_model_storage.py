"""Unit tests for the model-storage component (paper §4.3)."""
import numpy as np
import pytest

from repro.model_storage import (
    FullModelStrategy,
    ModelStorage,
    WeightsDifferenceStrategy,
)


def _state(seed, scale=1.0):
    g = np.random.default_rng(seed)
    return {"W": g.standard_normal((20, 10)) * scale, "b": g.standard_normal(10)}


class TestStrategies:
    def test_full_roundtrip(self):
        s = FullModelStrategy()
        st = _state(0)
        back = s.deserialize(s.serialize(st))
        assert set(back) == {"W", "b"}
        assert np.allclose(back["W"], st["W"]) and np.allclose(back["b"], st["b"])

    def test_delta_roundtrip(self):
        s = WeightsDifferenceStrategy()
        base, new = _state(0), _state(1)
        back = s.deserialize(s.serialize(new, base), base)
        assert np.allclose(back["W"], new["W"]) and np.allclose(back["b"], new["b"])

    def test_delta_restores_bits_and_dtype(self):
        # unrelated float64 states: base + (new - base) misses new by an
        # ulp in about a third of the values; the xor delta never does
        s = WeightsDifferenceStrategy()
        g = np.random.default_rng(0)
        base = {"w": g.standard_normal(1000), "n": np.arange(6, dtype=np.int32),
                "h": g.standard_normal((3, 2)).astype(np.float32)}
        new = {"w": g.standard_normal(1000), "n": np.arange(6, dtype=np.int32) * 7,
               "h": g.standard_normal((3, 2)).astype(np.float32)}
        back = s.deserialize(s.serialize(new, base), base)
        for k, v in new.items():
            assert (back[k].dtype, back[k].shape) == (v.dtype, v.shape)
            assert back[k].tobytes() == v.tobytes()

    def test_delta_layout_mismatch_rejected(self):
        s = WeightsDifferenceStrategy()
        with pytest.raises(ValueError, match="base"):
            s.serialize({"W": np.zeros(2, np.float32)}, {"W": np.zeros(2)})

    def test_delta_key_mismatch_rejected(self):
        s = WeightsDifferenceStrategy()
        with pytest.raises(ValueError, match="keys"):
            s.serialize({"W": np.zeros(2)}, {"V": np.zeros(2)})

    def test_delta_of_similar_models_compresses_smaller(self):
        # P-frame property: near-identical successor stores ~nothing.
        s = WeightsDifferenceStrategy()
        f = FullModelStrategy()
        base = _state(0)
        similar = {k: v + 0.0 for k, v in base.items()}  # identical
        assert len(s.serialize(similar, base)) < len(f.serialize(similar))


class TestModelStorage:
    def test_store_load_full(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=1)
        st = _state(0)
        info = ms.store(0, st)
        assert info.kind == "full"
        back = ms.load(0)
        assert np.allclose(back["W"], st["W"])

    def test_incremental_chain_reconstructs(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=4)
        states = [_state(i) for i in range(6)]
        for i, st in enumerate(states):
            ms.store(i, st)
        kinds = [ms.info(i).kind for i in range(6)]
        assert kinds == ["full", "delta", "delta", "delta", "full", "delta"]
        for i, st in enumerate(states):
            back = ms.load(i)
            assert np.allclose(back["W"], st["W"])
            assert np.allclose(back["b"], st["b"])

    def test_full_every_one_means_all_full(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=1)
        for i in range(3):
            ms.store(i, _state(i))
        assert all(ms.info(i).kind == "full" for i in range(3))
        for i in range(3):  # each file is the state's full snapshot, nothing else
            with open(ms.info(i).path, "rb") as f:
                assert f.read() == FullModelStrategy().serialize(_state(i))

    def test_long_delta_chain(self, tmp_path):
        # one full snapshot, then 1,100 deltas: a load replays the chain
        # without recursing, and returns each stored state bit for bit
        ms = ModelStorage(str(tmp_path), full_every=10_000)
        g = np.random.default_rng(0)
        states = [{"w": g.standard_normal(4)} for _ in range(1101)]
        for i, st in enumerate(states):
            ms.store(i, st)
        assert [ms.info(i).kind for i in (0, 1, 1100)] == ["full", "delta", "delta"]
        for i in (0, 1, 550, 990, 1100):
            back = ms.load(i)
            assert back["w"].dtype == states[i]["w"].dtype
            assert back["w"].tobytes() == states[i]["w"].tobytes()

    def test_stored_state_is_copied(self, tmp_path):
        # the next delta's base is what was stored, not the caller's array
        ms = ModelStorage(str(tmp_path), full_every=10)
        st = _state(0)
        ms.store(0, st)
        st["W"] += 1.0
        ms.store(1, _state(1))
        assert np.array_equal(ms.load(1)["W"], _state(1)["W"])
        assert np.array_equal(ms.load(0)["W"], _state(0)["W"])

    def test_duplicate_trigger_rejected(self, tmp_path):
        ms = ModelStorage(str(tmp_path))
        ms.store(0, _state(0))
        with pytest.raises(ValueError, match="already stored"):
            ms.store(0, _state(1))

    def test_missing_trigger_raises(self, tmp_path):
        ms = ModelStorage(str(tmp_path))
        with pytest.raises(KeyError):
            ms.load(3)

    def test_architecture_change_falls_back_to_full(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=10)
        ms.store(0, _state(0))
        new_arch = {"W": np.zeros((3, 3)), "b": np.zeros(3), "extra": np.ones(2)}
        info = ms.store(1, new_arch)
        assert info.kind == "full"
        assert np.allclose(ms.load(1)["extra"], 1.0)
        # same keys, new dtype or shape: no delta either
        assert ms.store(2, {k: v.astype(np.float32) for k, v in new_arch.items()}).kind == "full"
        assert ms.store(3, {"W": np.zeros((3, 4)), "b": np.zeros(3), "extra": np.ones(2)}).kind == "full"
        assert ms.store(4, {"W": np.ones((3, 4)), "b": np.zeros(3), "extra": np.ones(2)}).kind == "delta"

    def test_catalog_and_bytes(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=2)
        for i in range(4):
            ms.store(i, _state(i))
        assert ms.stored_triggers == [0, 1, 2, 3]
        assert ms.total_bytes() == sum(ms.info(i).nbytes for i in range(4))

    def test_nonconsecutive_trigger_ids(self, tmp_path):
        # trigger ids are strictly increasing but arbitrary (paper §3.1)
        ms = ModelStorage(str(tmp_path), full_every=2)
        ms.store(3, _state(0))
        ms.store(7, _state(1))
        ms.store(20, _state(2))
        assert [ms.info(t).kind for t in (3, 7, 20)] == ["full", "delta", "full"]
        assert np.allclose(ms.load(7)["W"], _state(1)["W"])

    def test_invalid_full_every(self, tmp_path):
        with pytest.raises(ValueError):
            ModelStorage(str(tmp_path), full_every=0)
