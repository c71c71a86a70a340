"""Shared fixtures: small ingested datasets reused across test modules.

Session-scoped where the data is read-only (storage, registries) so the
Spark ingest cost is paid once; function-scoped tmp dirs everywhere a
test mutates state.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.storage.file_wrappers import BinaryFileWrapper, SingleSampleFileWrapper
from repro.storage.storage import Storage
from repro.synth_data import (
    CRITEO_DTYPE,
    generate_cloc_files,
    generate_criteo_files,
)

CRITEO_N = 3000
CRITEO_PER_FILE = 500
CLOC_YEARS_SMALL = (2004, 2005, 2006)
CLOC_PER_YEAR = 60
CLOC_CLASSES = 8
CLOC_DIM = 6


@pytest.fixture(scope="session")
def criteo_storage(spark, tmp_path_factory) -> Storage:
    """3000 criteo_lite samples in 6 binary files over 3 days (read-only)."""
    root = tmp_path_factory.mktemp("criteo")
    paths, days = generate_criteo_files(
        str(root / "data"),
        n_samples=CRITEO_N,
        samples_per_file=CRITEO_PER_FILE,
        n_days=3,
    )
    storage = Storage(spark, str(root / "storage"), BinaryFileWrapper(CRITEO_DTYPE))
    storage.ingest_files(paths, timestamps=days)
    return storage


@pytest.fixture(scope="session")
def criteo_selector(criteo_storage):
    """Factory: ``make(root, partition_size)`` announces every
    ``criteo_storage`` sample to a ``NewDataStrategy`` selector on the
    local backend under ``root`` and builds its one trigger set (trigger
    0) in partitions of ``partition_size``."""

    def make(root, partition_size: int) -> Selector:
        strategy = NewDataStrategy(
            LocalMetadataBackend(str(root / "meta")),
            reset_after_trigger=False,
            partition_size=partition_size,
        )
        selector = Selector("criteo", strategy, TriggerSampleStorage(str(root / "tss")))
        selector.inform_data(np.arange(CRITEO_N), np.zeros(CRITEO_N), np.zeros(CRITEO_N))
        selector.trigger()
        return selector

    return make


@pytest.fixture(scope="session")
def cloc_storage(spark, tmp_path_factory) -> Storage:
    """cloc_lite one-file-per-sample data for 3 years (read-only)."""
    root = tmp_path_factory.mktemp("cloc")
    paths, years = generate_cloc_files(
        str(root / "data"),
        per_year=CLOC_PER_YEAR,
        years=CLOC_YEARS_SMALL,
        n_classes=CLOC_CLASSES,
        dim=CLOC_DIM,
    )
    storage = Storage(spark, str(root / "storage"), SingleSampleFileWrapper())
    storage.ingest_files(paths, timestamps=years)
    return storage


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(7)
