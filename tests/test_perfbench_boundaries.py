"""Every boundary the benchmark tracer wraps must exist in graphck.

``perfbench/tracer.py`` wraps each ``BOUNDARIES`` entry by module and
attribute path, and a traced run fails on one it cannot find.  This test
makes a removed or renamed boundary fail here as well.  It only reads the
tracer module; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_traced_boundary_resolves():
    boundaries = load_boundaries()
    assert boundaries
    missing = []
    for _, modname, path, _ in boundaries:
        owner = importlib.import_module(f"graphck.{modname}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = vars(owner).get(name)
        if owner is None or attr not in vars(owner):
            missing.append(f"graphck.{modname}.{path}")
    assert not missing
