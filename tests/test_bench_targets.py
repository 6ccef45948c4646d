"""Every function the benchmark's tracer wraps by name exists in veloscore.

The tracer skips a target it cannot find, and the per-layer metric built
from that target's spans then vanishes from the benchmark's output
without an error.  A rename in veloscore has to fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets() -> dict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.dont_write_bytecode", True)  # leave perfbench/ as it is
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = load_targets()


def test_targets_listed():
    assert TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves_to_a_veloscore_callable(name):
    module_name, path = TARGETS[name]
    assert module_name.startswith("veloscore.")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{name}: {module_name} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner), name
