"""The traced benchmark wraps names looked up on tempbal modules; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_call_sites_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _span in spans.CALL_SITES:
        module = importlib.import_module(f"tempbal.{module_name}")
        assert callable(getattr(module, attr, None)), f"tempbal.{module_name}.{attr}"
