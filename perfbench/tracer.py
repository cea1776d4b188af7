"""Run the epsqp CLI with spans around the calls into every module's public functions.

Usage::

    python3 perfbench/tracer.py SPANS.json -- run all --grid-n 1024

Each public module-level function of ``epsqp.*`` is wrapped in every module
namespace that binds it: ``scenarios``, ``quantum_potential`` and the other
modules import names with ``from .x import y``, which copies the binding, so
patching only the defining module would miss those calls.  The scenario
registry holds its functions in a dict, so its entries are wrapped too and
named ``scenarios.<scenario>``.  ``cli.main`` is the root span.

Spans stay in memory as ``[name, start_ns, end_ns, parent_index, work]`` and
are written to ``SPANS.json`` when the run ends, with the names of all
wrapped functions, so that functions never called still report zero.
``work`` holds the counts ``WORK`` computes from the call's arguments.
Nothing is printed: stdout carries only the CLI's report, so it can be
compared byte for byte with an untraced run.  The tracer assumes one thread
(the benchmark never passes ``--parallel``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _splitstep_work(args) -> tuple:
    # Same step count as states.splitstep_propagate.
    t_final, dt = args["t_final"], args["dt"]
    return (0 if t_final == 0.0 else max(1, round(t_final / dt)),)


def _wigner_work(args) -> tuple:
    # corr is n x 2n, kernel 2n x n_p, output n_p x n, all complex128;
    # corr @ kernel does n * 2n * n_p complex multiply-adds.
    grid = args["grid"]
    n, n_p = grid.q_axis.n_points, grid.p_axis.n_points
    return 2 * n * n * n_p, 16 * (2 * n * n + 2 * n * n_p + n_p * n)


def _shear_work(args) -> tuple:
    # one forward and one inverse 2-D FFT over the field
    return (args["field"].values.size,)


def _chi_work(args) -> tuple:
    grid = args["grid"]
    return (grid.p_axis.n_points * grid.q_axis.n_points,)


# span name -> (counter names, counter values computed from the call's arguments)
WORK = {
    "states.splitstep_propagate": (("steps",), _splitstep_work),
    "transforms.wigner_direct": (("cmacs", "bytes"), _wigner_work),
    "transforms.apply_extended_transform": (("fft2_points",), _shear_work),
    "eps_core.chi_build": (("points",), _chi_work),
}


class Tracer:
    """In-memory span recorder for single-threaded calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.functions: list[str] = []
        self.scenarios: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        self.functions.append(name)
        _, work = WORK.get(name, ((), None))
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = work(bound.arguments)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded epsqp module."""
        modules = [m for name, m in sys.modules.items() if name == "epsqp" or name.startswith("epsqp.")]
        registry = sys.modules["epsqp.scenarios"].REGISTRY
        # Scenario functions are reached through the registry only.
        wrappers: dict[int, object] = {id(fn): fn for fn, _ in registry.values()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("epsqp.") or obj.__module__ == "epsqp.cli":
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[id(obj)])
        for key, (fn, description) in list(registry.items()):
            registry[key] = (self.wrap(f"scenarios.{key}", fn), description)
            self.scenarios.append(key)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <epsqp CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import epsqp.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.main", epsqp.cli.main)(cli_args)
    finally:
        with open(spans_path, "w") as out:
            json.dump(
                {
                    "functions": tracer.functions,
                    "scenarios": tracer.scenarios,
                    "counters": {name: keys for name, (keys, _) in WORK.items()},
                    "spans": tracer.spans,
                },
                out,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
