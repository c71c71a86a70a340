"""``settle_zip_importers``: Spark's Python worker calls
``importlib.invalidate_caches()`` before every task, and each plain
``zipimporter`` re-reads its archive's whole directory there. After the
helper, an unchanged archive is not re-read, and a changed, deleted or
re-added one behaves as before.

The unit test runs in a subprocess so pytest's own import system is left
untouched.
"""
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_spark_worker_skips_unchanged_archives(spark):
    # nested, so the task pickles it by value
    def _worker_probe(batches):
        """Inside a Spark task: zip directory reads of one
        ``invalidate_caches()`` with plain importers, then after the helper."""
        import importlib
        import zipimport

        import pandas as pd

        from repro.selector.downsampling import settle_zip_importers

        # a reused worker may have been settled by an earlier task: start plain
        sys.path_hooks[:] = [
            zipimport.zipimporter
            if isinstance(h, type) and issubclass(h, zipimport.zipimporter) else h
            for h in sys.path_hooks
        ]
        for entry, finder in list(sys.path_importer_cache.items()):
            if isinstance(finder, zipimport.zipimporter):
                sys.path_importer_cache[entry] = zipimport.zipimporter(entry)

        reads = [0]
        read_directory = zipimport._read_directory

        def counting(archive):
            reads[0] += 1
            return read_directory(archive)

        zipimport._read_directory = counting
        try:
            importlib.invalidate_caches()
            before = reads[0]
            settle_zip_importers()
            reads[0] = 0
            importlib.invalidate_caches()
            after = reads[0]
        finally:
            zipimport._read_directory = read_directory
        zips = [
            f for f in sys.path_importer_cache.values() if isinstance(f, zipimport.zipimporter)
        ]
        kinds = ",".join(sorted({type(f).__name__ for f in zips}))
        for _ in batches:
            pass
        yield pd.DataFrame(
            {"before": [before], "after": [after], "zips": [len(zips)], "kinds": [kinds]}
        )

    out = (
        spark.range(1, numPartitions=1)
        .mapInPandas(_worker_probe, "before long, after long, zips long, kinds string")
        .toPandas()
    )
    row = out.iloc[0]
    assert row["zips"] >= 1  # the worker imports pyspark from pyspark.zip
    assert row["before"] >= 1
    assert row["after"] == 0
    assert row["kinds"] == "_SettledZipImporter"


_UNIT = textwrap.dedent(
    """
    import importlib, os, sys, zipfile, zipimport
    from repro.selector.downsampling import settle_zip_importers

    tmp = sys.argv[1]
    archive = os.path.join(tmp, "mods.zip")

    def write(path, names):
        with zipfile.ZipFile(path, "w") as z:
            for name in names:
                z.writestr(name + ".py", "NAME = %r\\n" % name)

    reads = [0]
    read_directory = zipimport._read_directory
    def counting(path):
        reads[0] += 1
        return read_directory(path)

    def invalidate():
        reads[0] = 0
        importlib.invalidate_caches()
        return reads[0]

    write(archive, ["zmod_a"])
    sys.path.insert(0, archive)
    import zmod_a
    assert type(sys.path_importer_cache[archive]) is zipimport.zipimporter

    settle_zip_importers()
    settled = sys.path_importer_cache[archive]
    hooks = list(sys.path_hooks)
    settle_zip_importers()  # idempotent
    assert sys.path_importer_cache[archive] is settled
    assert sys.path_hooks == hooks
    assert zipimport.zipimporter not in sys.path_hooks
    zip_hooks = [h for h in hooks if isinstance(h, type) and issubclass(h, zipimport.zipimporter)]
    assert len(zip_hooks) == 1
    assert type(settled) is not zipimport.zipimporter

    zipimport._read_directory = counting
    assert invalidate() == 0  # unchanged archive: no re-read
    assert invalidate() == 0

    write(archive, ["zmod_a", "zmod_b"])  # rewritten with a new module
    assert invalidate() == 1
    import zmod_b
    assert zmod_b.NAME == "zmod_b"
    assert invalidate() == 0

    os.remove(archive)
    invalidate()  # a deleted archive does not raise
    try:
        import zmod_c
    except ImportError:
        pass
    else:
        raise AssertionError("imported from a deleted archive")

    write(archive, ["zmod_c"])  # re-added
    invalidate()
    import zmod_c
    assert zmod_c.NAME == "zmod_c"

    later = os.path.join(tmp, "later.zip")  # a zip entry added after the helper
    write(later, ["zmod_d"])
    sys.path.insert(0, later)
    import zmod_d
    assert type(sys.path_importer_cache[later]) is type(settled)
    assert invalidate() == 0
    print("ok")
    """
)


def test_unchanged_archive_not_reread_changed_one_is(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _UNIT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
