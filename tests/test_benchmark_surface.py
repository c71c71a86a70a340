"""The benchmark's hooks still fit the program.

``perfbench/`` wraps program functions by name from outside (the traced
run's ``layers.install`` and the always-on ``workloads.Probe``). A renamed
function would only fail a traced benchmark run; here every hook is
installed against the current ``src/repro`` and removed again, and the
program must come back exactly as it was. The Probe's per-training checks
must also pass on real trainings, so a change that breaks its accounting
fails here rather than as failed operations of a benchmark run. And the
online workloads must train what the T1–T3 harness's workload table
describes, so a benchmark run measures a harness cell. ``perfbench/`` is
only read.
"""
import importlib
import os
import sys

import numpy as np
import pytest

from repro.experiments.throughput import WORKLOADS
from repro.models import DlrmLite
from repro.selector.downsampling import GradNormDownsampler
from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.synth_data import criteo_batch_parser
from repro.trainer import OnlineDataset, OnlineDatasetConfig, Trainer
from tests.conftest import CRITEO_N

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
_MISSING = object()


def _current(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__.get(attr, _MISSING)
    return getattr(owner, attr, _MISSING)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    names = ("spans", "layers", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    mods = [importlib.import_module(name) for name in names]
    yield mods
    for name in names:
        sys.modules.pop(name, None)


def _recording(base):
    """``base`` (a ``Patches`` class) that also remembers what each patch
    replaced."""

    class Recording(base):
        def patch(self, owner, attr, replacement):
            self.replaced = getattr(self, "replaced", [])
            self.replaced.append((owner, attr, _current(owner, attr), replacement))
            super().patch(owner, attr, replacement)

    return Recording


def _check_install_and_restore(patches, install):
    try:
        install()  # raises AttributeError when a hooked name is gone
    finally:
        patches.restore()
    assert patches.replaced
    for owner, attr, original, _ in patches.replaced:
        assert original is not _MISSING or isinstance(owner, type), (owner, attr)
        assert _current(owner, attr) is original, (owner, attr)


def test_traced_layers_install_and_restore(perfbench):
    spans, layers, _ = perfbench
    patches = _recording(spans.Patches)()
    _check_install_and_restore(patches, lambda: layers.install(spans.Tracer(), patches))


def test_probe_installs_and_restores(perfbench):
    _, _, workloads = perfbench
    probe = _recording(workloads.Probe)()
    _check_install_and_restore(probe, probe.install)


def test_probe_verifies_stb_and_online_trainings(perfbench, criteo_storage, tmp_path):
    """The Probe's per-training checks hold for one OnlineDataset training
    and one StB training: StB's inner ``Trainer.train`` call passes
    through, and the trained share follows ``trainer.downsampler.ratio``."""
    _, _, workloads = perfbench
    strategy = NewDataStrategy(
        LocalMetadataBackend(str(tmp_path / "meta")), partition_size=1000
    )
    selector = Selector("probe", strategy, TriggerSampleStorage(str(tmp_path / "tss")))
    selector.inform_data(np.arange(CRITEO_N), np.zeros(CRITEO_N), np.zeros(CRITEO_N))
    trigger_id = selector.trigger().trigger_id
    keys, weights = selector.get_all_samples(trigger_id)
    probe = workloads.Probe()
    probe.install()
    try:
        Trainer(DlrmLite(seed=0), lr=0.1).train(
            OnlineDataset(
                criteo_storage, selector, trigger_id,
                OnlineDatasetConfig(batch_size=512, num_workers=2),
                batch_bytes_parser=criteo_batch_parser,
            )
        )
        Trainer(
            DlrmLite(seed=0), lr=0.1, epochs=2, downsampler=GradNormDownsampler(ratio=0.25)
        ).train_stb(
            criteo_storage, keys, weights, batch_size=256,
            batch_bytes_parser=criteo_batch_parser, score_parallelism=2,
        )
    finally:
        probe.restore()
    out = workloads.Result()
    probe.verify(out, probe.trainings)
    assert len(probe.trainings) == 2
    assert (out.attempted, out.failed) == (2, 0), out.problems


@pytest.mark.parametrize("kind, name", [("criteo_online", "criteo"), ("cloc_online", "cloc")])
def test_online_workload_matches_harness_table(perfbench, spark, tmp_path, kind, name):
    _, _, workloads = perfbench
    sizes = workloads.Sizes(
        criteo_samples=2000, criteo_per_file=1000, criteo_partition=1000,
        cloc_samples=40, cloc_partition=20,
    )
    files = workloads._generate_online(kind, str(tmp_path / "data"), 0, sizes)
    w = workloads._setup_online(kind, spark, str(tmp_path / "setup"), files, sizes)
    entry = WORKLOADS[name]
    assert type(w.storage.file_wrapper) is type(entry.wrapper)
    assert (w.batch_size, w.gpu_step_seconds) == (entry.batch_size, entry.gpu_step_seconds)
    assert w.parser is entry.batch_parser
    assert (w.transform is None) == (entry.transform is None)
    model, table_model = w.make_model(), entry.make_model()
    assert type(model) is type(table_model)
    state, table_state = model.get_state(), table_model.get_state()
    assert state.keys() == table_state.keys()
    assert all(np.array_equal(state[k], table_state[k]) for k in state)
    cfg = w.config
    assert entry.modyn_config == {
        "prefetched_partitions": cfg.prefetched_partitions,
        "parallel_prefetch": cfg.parallel_prefetch_requests,
        "storage_threads": cfg.storage_threads,
    }
