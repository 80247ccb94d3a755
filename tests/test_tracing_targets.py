"""Every public function the benchmark tracer wraps still exists.

``perfbench/tracing.py`` names its targets as (module, attribute) pairs;
a refactor that deletes or renames one should fail here, not only when the
benchmark next runs.
"""

import importlib
import importlib.util
from pathlib import Path

from ortholab.linalg import Matrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attr, label in targets:
        # a None module means a method of linalg.Matrix
        owner = Matrix if module_name is None else importlib.import_module(module_name)
        assert callable(getattr(owner, attr, None)), f"{label}: {module_name}.{attr} is gone"
