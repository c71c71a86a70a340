"""Storage service substrate (paper §4.1.4, §4.2.3).

Samples live in files on the local filesystem, accessed through
``FileWrapper`` implementations; a Parquet *registry* that Spark stages
scan plays the role of the paper's Postgres metadata database (key ->
file, offset, label, timestamp). Retrieval of arbitrary key sets runs the
metadata lookup against an in-memory index kept at ingest, with a
simulated query latency, and the payload reads through a bounded global
thread pool — mirroring the paper's Postgres-query-then-FileWrapper path.
"""
from repro.storage.file_wrappers import (
    BinaryFileWrapper,
    CsvFileWrapper,
    SingleSampleFileWrapper,
)
from repro.storage.filesystem import LocalFilesystemWrapper
from repro.storage.local_dataset import LocalDataset
from repro.storage.payloads import Payloads
from repro.storage.storage import Storage

__all__ = [
    "BinaryFileWrapper",
    "CsvFileWrapper",
    "SingleSampleFileWrapper",
    "LocalFilesystemWrapper",
    "LocalDataset",
    "Payloads",
    "Storage",
]
