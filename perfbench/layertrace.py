"""In-memory spans around the calls into each towerstab module.

The tracer wraps every public function of the layer modules, and every
public method of the classes they define, then rebinds each name that
refers to an original function in any loaded ``towerstab`` module.  The
rebinding matters: ``spectral`` and ``cli`` import functions by name, so
patching the defining module alone would miss those calls.  Local imports
(``check_kernel`` imports ``energy_coordinates`` at call time) read the
patched module attribute and are covered too.

A span is ``(name, start, end, parent, run)``; ``parent`` is the index of
the enclosing span or ``None``.  Spans stay in memory and are written out
once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("beam_fem", "models", "generator", "spectral", "passive_core", "timesim", "cli")

#: span name -> position of the argument whose identity the span records
#: (``generator.distinct_generators`` counts the distinct generators).
ARGUMENT_KEYS = {"generator.energy_coordinates": 0}


def _grid_counts(result) -> dict:
    return {"points": len(result.s_values) + len(result.excluded), "usable": len(result.s_values)}


#: span name -> counts taken from the return value, recorded on the span.
RESULT_COUNTS = {
    "timesim.simulate": lambda traj: {"steps": len(traj.times) - 1},
    "spectral.scan_resolvent": _grid_counts,
    "passive_core.check_coupled_resolvent_bound": _grid_counts,
    "cli.emit_report": lambda paths: {"bytes": sum(p.stat().st_size for p in paths)},
}


class Tracer:
    """Collects nested spans for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._objects: dict[int, tuple[int, object]] = {}

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _object_key(self, obj) -> int:
        # Holding the object keeps its id from being reused by a later one.
        entry = self._objects.setdefault(id(obj), (len(self._objects), obj))
        return entry[0]

    def wrap(self, name: str, fn):
        arg_pos = ARGUMENT_KEYS.get(name)
        counts = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if arg_pos is not None and len(args) > arg_pos:
                    record["arg"] = self._object_key(args[arg_pos])
                result = fn(*args, **kwargs)
                if counts is not None:
                    record["counts"] = counts(result)
                return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def _public_functions(namespace: dict, module_name: str):
    for attr, value in namespace.items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ == module_name:
            yield attr, value


def install(tracer: Tracer, package: str = "towerstab") -> None:
    """Wrap the layer modules of ``package`` and rebind every reference.

    The package and its layer modules must already be imported.
    """
    replaced: dict[object, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, fn in list(_public_functions(vars(module), module.__name__)):
            replaced[fn] = tracer.wrap(f"{layer}.{attr}", fn)
        for cls_name, cls in list(vars(module).items()):
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, fn in list(_public_functions(vars(cls), module.__name__)):
                setattr(cls, attr, tracer.wrap(f"{layer}.{cls_name}.{attr}", fn))
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
