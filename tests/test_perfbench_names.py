"""The benchmark wraps and reads package names by string; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import fracsmooth.backend

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_wrapped_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.WRAPPED.items()
        for name in names
        if not hasattr(importlib.import_module(f"fracsmooth.{module}"), name)
    ]
    assert missing == []
    assert hasattr(fracsmooth.backend, "BACKEND")
