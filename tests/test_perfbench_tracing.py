"""The benchmark's traced mode can still wrap every entry point it names.

``perfbench/tracing.py`` times the layers from the outside by replacing
public methods and functions by name.  A renamed or deleted entry point
would only surface when ``perfbench/run.py --trace 1`` runs; installing
and uninstalling the recorder here makes it a test failure instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import repro.service as service_mod
from repro.provenance.store import TraceStore
from repro.query.compiled import PlanRegistry
from repro.query.indexproj import IndexProjEngine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_every_entry_point():
    tracing = _load_tracing()
    originals = {
        (owner, name): vars(owner)[name]
        for owner, name in (
            (PlanRegistry, "get_or_compile"),
            (IndexProjEngine, "lineage_multirun_compiled"),
            (TraceStore, "find_xform_inputs_matching_compiled"),
            (service_mod, "precheck_query"),
        )
    }
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    try:
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original, f"{name} not wrapped"
    finally:
        recorder.uninstall()
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, f"{name} not restored"
