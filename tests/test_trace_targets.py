"""The benchmark's tracer wraps package names by string; each must exist.

``bench/spans.py`` lists its targets in ``TARGETS`` as ``(module[.Class],
attribute, layer, measure)`` and also wraps every entry of
``cli.COMMANDS``. A rename or deletion of any of them would break only the
traced benchmark run, so this test reads the list as the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target, attr", [(t[0], t[1]) for t in _targets()],
                         ids=lambda v: v)
def test_target_resolves(target, attr):
    module_name, _, cls = target.partition(".")
    owner = importlib.import_module(f"arealbayes.{module_name}")
    if cls:
        owner = getattr(owner, cls)
        assert attr in owner.__dict__  # the tracer reads the class's own attribute
    assert callable(getattr(owner, attr))


def test_cli_command_table_exists():
    cli = importlib.import_module("arealbayes.cli")
    assert cli.COMMANDS and all(callable(fn) for fn in cli.COMMANDS.values())
