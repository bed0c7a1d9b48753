"""The benchmark tracer names only functions and methods that exist in
rtlab, so a rename in the package cannot silently break a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # tracer.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = _load_tracer()
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"rtlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"rtlab.{layer}.{name}"
    for layer, classes in tracer.METHODS.items():
        module = importlib.import_module(f"rtlab.{layer}")
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name)
            for name in names:
                # the tracer patches methods found in the class namespace
                assert callable(vars(cls).get(name)), \
                    f"rtlab.{layer}.{cls_name}.{name}"
