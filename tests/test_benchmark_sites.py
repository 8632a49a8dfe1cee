"""The benchmark's tracer finds every function it wraps.

`perfbench/tracing.py` times each layer by replacing a function at the
module attribute where its caller looks it up. If a refactor renames or
drops such an attribute, the tracer would fail to install or, worse, a
layer's span would stay empty. This test reads the tracer's table of
lookup sites without importing perfbench as a package (nothing is
written there) and checks that each site resolves in ctxmr.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _lookup_sites() -> dict:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module.LOOKUP_SITES


def test_every_lookup_site_resolves():
    sites = _lookup_sites()
    assert "numerics.wls_solve" in sites
    for span, pairs in sites.items():
        assert pairs, span
        for module_name, attr in pairs:
            module = importlib.import_module("ctxmr." + module_name)
            assert callable(getattr(module, attr, None)), f"{span}: ctxmr.{module_name}.{attr}"
