"""The benchmark tracer's probe targets resolve against the package.

bench/tracing.py names every function it wraps as (module, attribute or
Class.method). A rename in the package would break a traced benchmark
run only when the run starts; this test loads the table without
installing any probe and resolves each entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _probes():
    spec = importlib.util.spec_from_file_location("bench_tracing_table", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


def test_every_probe_target_resolves():
    probes = _probes()
    assert probes
    for home, attr, _, _ in probes:
        owner = importlib.import_module(f"irrmeasure.{home}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = getattr(owner, cls_name).__dict__[meth]
        else:
            target = getattr(owner, attr)
        assert callable(target), (home, attr)
