"""Core orchestration: pipeline configs (``repro.core.config``),
pluggable registries (``repro.core.registry``) and the end-to-end
pipeline executor (``repro.core.pipeline``), paper §3.4/§3.5.

Nothing is re-exported here: submodules across the codebase import
``repro.core.registry`` at import time, and importing
``repro.core.pipeline`` from this package would close an import cycle
back through the selector and trainer packages.
"""
