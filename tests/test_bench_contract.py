"""The names the benchmark under ``bench/`` reaches into the package by.

The benchmark wraps package functions by (owner, attribute) and reads result
fields by name; a refactor that renames one would only show up as a broken
traced run.
"""
import ast
import dataclasses
import sys
from pathlib import Path

import pytest

from dtmor import OutputErrorBound

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        yield layers
    finally:
        sys.path.remove(str(BENCH))


def test_every_wrapped_name_resolves(layers):
    for owner, attr, name, _ in layers.WRAPS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_output_bound_has_the_fields_the_workloads_read():
    # large-tlbt names its bound_output_tl result ``bound``; _note_gap in
    # layers.py reads sides_relative_gap
    tree = ast.parse((BENCH / "workloads.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "bound"}
    assert read >= {"epsilon", "trace_c_side", "trace_b_side"}
    fields = {f.name for f in dataclasses.fields(OutputErrorBound)}
    for attr in read | {"sides_relative_gap"}:
        assert attr in fields or callable(getattr(OutputErrorBound, attr, None)), attr
