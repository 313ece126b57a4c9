"""The benchmark's tracer still finds every revlab name it wraps.

``perfbench/tracing.py`` replaces layer functions where their callers
look them up and raises ``KeyError`` on a missing one, so deleting or
renaming a traced name fails here in milliseconds, not only in the
benchmark's own smoke test.
"""

from pathlib import Path

import revlab
import revlab.cli  # noqa: F401  (loads every layer module the tracer wraps)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _owners():
    depth = revlab.depth
    return (revlab.cli, depth, revlab.prefixvm, revlab.machines,
            revlab.reversal, depth.DepthLab, depth.RunLedger)


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    before = [dict(vars(owner)) for owner in _owners()]
    tracer = Tracer()
    try:  # a KeyError part-way leaves earlier wrappers to undo
        tracer.install(revlab)
        assert [dict(vars(owner)) for owner in _owners()] != before
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in _owners()] == before
