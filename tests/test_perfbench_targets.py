"""The traced benchmark wraps program functions by name; every name it lists
must still exist, so a refactor that drops one fails here first."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, path in spans.TARGETS:
        module = importlib.import_module(f"fincat.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            target = vars(getattr(module, cls_name)).get(attr)
        else:
            target = getattr(module, path, None)
        assert callable(target), f"{module_name}.{path}"
