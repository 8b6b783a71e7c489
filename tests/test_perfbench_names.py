"""Every wflow name the benchmark's tracer and environment record look up exists.

``perfbench/tracing.py`` wraps each ``module.name`` in ``LAYERS`` (a
``Class.method`` names a method) and ``perfbench/child.py`` records
``wflow._kernels.NUMBA_ENABLED``. A deleted or renamed one would crash
``perfbench/run.py --smoke`` and every traced run; this test reads the
table from the source, without importing the benchmark.
"""

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


_PINNED = [(module, name) for module, names in _layers().items() for name in names]
_PINNED.append(("_kernels", "NUMBA_ENABLED"))


@pytest.mark.parametrize("module, name", _PINNED, ids=[f"{m}.{n}" for m, n in _PINNED])
def test_pinned_name_resolves(module, name):
    owner = importlib.import_module(f"wflow.{module}")
    for part in name.split("."):
        assert hasattr(owner, part), f"wflow.{module}.{name} is gone"
        owner = getattr(owner, part)
