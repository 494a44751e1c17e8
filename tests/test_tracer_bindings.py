"""The benchmark tracer (perfbench/tracer.py) wraps functions where the
program's modules bind them; every binding it names must exist, or a traced
benchmark run fails."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracer = load_tracer()
    modules = tracer._modules()
    missing = []
    for name, bindings in tracer.TRACED.items():
        if isinstance(bindings, tuple):
            bindings = [bindings]
        for mod_name, attrs in bindings:
            for attr in attrs:
                if not callable(getattr(modules[mod_name], attr, None)):
                    missing.append(f"{name}: pwa_nav.{mod_name}.{attr}")
    assert not missing, missing
