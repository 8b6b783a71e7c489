"""Every wflow name and parameter the benchmark uses exists.

``perfbench/tracing.py`` wraps each ``module.name`` in ``LAYERS`` (a
``Class.method`` names a method), ``perfbench/child.py`` records
``wflow._kernels.NUMBA_ENABLED`` and ``perfbench/workloads.py`` calls wflow
functions with keyword arguments. A deleted or renamed name or parameter
would crash ``perfbench/run.py --smoke`` and every benchmark run; these
tests read the benchmark's source, without importing it.
"""

import ast
import importlib
import inspect
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


WORKLOADS = TRACING.with_name("workloads.py")


def _wflow_calls():
    """(line, module, function, positional count, keyword names) of every call
    ``alias.name(...)`` in workloads.py whose alias imports a wflow module."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name: f"wflow.{alias.name}"
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "wflow" for alias in node.names}
    calls = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases):
            calls.append((node.lineno, aliases[node.func.value.id], node.func.attr,
                          len(node.args), [kw.arg for kw in node.keywords]))
    return calls


_CALLS = _wflow_calls()


def test_workloads_call_wflow():
    assert len(_CALLS) >= 5, "the benchmark's wflow calls are no longer found"


@pytest.mark.parametrize("line, module, name, n_args, keywords", _CALLS,
                         ids=[f"{m[6:]}.{n}@{line}" for line, m, n, _, _ in _CALLS])
def test_workload_call_matches_signature(line, module, name, n_args, keywords):
    # binding placeholders checks the positional count and every keyword name
    fn = getattr(importlib.import_module(module), name)
    try:
        inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
    except TypeError as err:
        pytest.fail(f"workloads.py:{line} calls {module}.{name}: {err}")
