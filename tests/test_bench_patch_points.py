"""The benchmark traces the library by replacing callables at the names
their callers look up (``instrument`` in ``bench/spans.py``).  A library
change that renames or drops one of them breaks the benchmark only when it
runs; this test finds it in the package's own suite."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_patch_point_exists():
    spans = _load_spans()
    targets = spans.instrument(spans.Tracer())    # KeyError where a name is gone
    assert len(targets) >= 10
    originals = []
    for owner, attr, replacement in targets:
        original = owner.__dict__[attr]
        assert callable(original) and replacement.__wrapped__ is original, (owner, attr)
        originals.append(original)
    with spans.patched(targets):
        assert all(owner.__dict__[attr] is new for owner, attr, new in targets)
    assert [owner.__dict__[attr] for owner, attr, _ in targets] == originals
