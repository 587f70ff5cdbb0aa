"""The benchmark's traced layers must name functions that still exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for module, function in spans.LAYERS:
        mod = importlib.import_module(f"indexlab.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
