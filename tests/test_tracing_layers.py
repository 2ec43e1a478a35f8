"""The benchmark's per-layer tracer names functions of `epmu` by module and
qualified name; a rename would silently turn their metrics "absent".  This
loads perfbench/tracing.py without running anything and resolves every name
the way its installer does (an attribute of the module or class itself)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (span, modname, qual)
        for span, targets in module.LAYERS.items()
        for modname, qual in targets
    ]


@pytest.mark.parametrize(
    "span,modname,qual", _layers(), ids=lambda v: v if isinstance(v, str) else None
)
def test_layer_resolves(span, modname, qual):
    owner = importlib.import_module(modname)
    attr = qual
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(owner, cls_name)
    assert attr in vars(owner), f"{span}: {modname}.{qual} not found"
    assert callable(vars(owner)[attr])
