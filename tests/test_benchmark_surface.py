"""The benchmark's hooks still fit the program.

``perfbench/`` wraps program functions by name from outside (the traced
run's ``layers.install`` and the always-on ``workloads.Probe``). A renamed
function would only fail a traced benchmark run; here every hook is
installed against the current ``src/repro`` and removed again, and the
program must come back exactly as it was. ``perfbench/`` is only read.
"""
import importlib
import os
import sys

import pytest

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
