from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_name_is_defined_on_its_owner():
    # The tracer looks each name up in its owner's own __dict__, so a method
    # moved into a helper or base class would break only a traced benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        layers.target_name(owner, attribute)
        for owner, attribute, *_ in layers.RUN_TARGETS + layers.CLI_TARGETS
        if not callable(owner.__dict__.get(attribute))
    ]
    assert missing == []
