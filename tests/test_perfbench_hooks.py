"""The benchmark in ``perfbench/`` wraps svrb functions by name; a rename breaks it."""

import os
import sys

import scipy.sparse.linalg as spla

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_name_exists_and_is_restored():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.SPANS]
    splu = spla.splu
    tracer = tracing.Tracer(tracing.SPANS)
    tracer.close()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.SPANS] == originals
    assert spla.splu is splu
