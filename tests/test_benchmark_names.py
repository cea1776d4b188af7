"""The names the benchmark harness reads from the package.

``perfbench/tracer.py`` wraps every public function of ``epsqp.<module>`` as
span ``<module>.<function>`` and every registry entry as
``scenarios.<key>``; ``BENCHMARK.json``'s ``per_layer`` metrics are read
from those spans, and a name that no longer exists makes a traced run fail
with "metrics missing from the run".
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from epsqp.scenarios import REGISTRY

ROOT = Path(__file__).resolve().parents[1]

# the parameters each of the tracer's WORK counters reads from a call
WORK_PARAMETERS = {
    "states.splitstep_propagate": ("t_final", "dt"),
    "transforms.wigner_direct": ("grid",),
    "eps_core.chi_build": ("grid",),
    "transforms.apply_extended_transform": ("field",),
}


def _public_function(module: str, name: str):
    obj = getattr(importlib.import_module(f"epsqp.{module}"), name, None)
    assert inspect.isfunction(obj) and not name.startswith("_"), f"{module}.{name} is no public function"
    assert obj.__module__ == f"epsqp.{module}", f"{module}.{name} is defined in {obj.__module__}"
    return obj


def test_per_layer_metric_names_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in (m["name"] for m in spec["per_layer"]):
        layer, *rest = metric.split(".")
        if layer == "trace":
            continue
        importlib.import_module(f"epsqp.{layer}")
        if len(rest) < 2:  # <module>.self_s
            continue
        if layer == "scenarios" and rest[1] == "s":
            assert rest[0] in REGISTRY, metric
        else:
            _public_function(layer, rest[0])


def test_tracer_work_parameters_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(tracer.WORK) == set(WORK_PARAMETERS)
    for span, parameters in WORK_PARAMETERS.items():
        signature = inspect.signature(_public_function(*span.split(".")))
        assert set(parameters) <= set(signature.parameters), span
