"""The traced bench run (`bench/spans.py`) wraps program functions by
(module, attribute) name; a renamed or deleted target would only show when
that run is made, so every target is resolved here."""

import importlib
import importlib.util
import os

SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    for module_name in spans.GPFORGE_MODULES:
        importlib.import_module(module_name)
    for name, targets in spans.SPANS.items():
        for module_name, attr in targets:
            # "Class.method" targets are patched on the class itself.
            owner_name, _, fn_name = attr.rpartition(".")
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(vars(owner).get(fn_name)), f"span {name}: {module_name}.{attr} is gone"
