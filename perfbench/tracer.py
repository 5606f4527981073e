"""Per-layer tracer for one grfock suite run, applied from outside the package.

    python perfbench/tracer.py <grfock command-line arguments>

Wraps every public function of the library modules (and ``IntMatrix.from_rows``)
and rebinds the wrapper under every name that held the original in any grfock
module, because ``from .x import f`` copies the binding.  Each suite function
in ``cli.SUITES`` is wrapped too, so its self time is the suite time that no
layer span covers.  The suite then runs through ``grfock.cli.main``, the report
goes to stdout as usual, and one JSON line of per-function statistics goes to
the last line of stderr:

    {"suite_s": ..., "functions": {"fock.psi_key": {"calls": ..., "self_s": ...,
     ...}, ...}}

A function that exists but is never called appears with zero counts; a
function that no longer exists is absent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from pathlib import Path

from layers import LAYERS


class Stat:
    """Counters of one wrapped function; ``open`` is its current nesting depth."""

    __slots__ = ("calls", "self_s", "open", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.open = 0
        self.extra: dict = {}

    def add(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, **self.extra}


class Tracer:
    """Self-time spans over a single thread: a stack of child-time accumulators."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack = [0.0]  # bottom entry collects the time of top-level spans

    def wrap(self, name: str, fn, observe=None):
        stat = self.stats[name] = Stat()
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat.open += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.open -= 1
            if observe is not None:
                observe(self, stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, observe=None):
        """Each resumption of the generator is one span; ``calls`` counts creations."""
        stat = self.stats[name] = Stat()
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stat.self_s += dt - stack.pop()
                    stack[-1] += dt
                if observe is not None:
                    observe(self, stat, args, item)
                yield item

        traced.__wrapped__ = fn
        return traced


# --- observers: counts that need an argument, the result or another span ---


def _count_none(tracer, stat, args, result):
    if result is None:
        stat.add("none", 1)


def _shuffle_terms(tracer, stat, args, result):
    stat.add("terms_out", len(result.coeffs))
    straightening = tracer.stats.get("klmw.straighten_coeffs")
    if straightening is not None and straightening.open:
        stat.add("rewrites", 1)


def _hnf_shape(tracer, stat, args, result):
    m = args[0]
    stat.add("cells", m.rows * m.cols)
    stat.extra["rows_max"] = max(stat.extra.get("rows_max", 0), m.rows)
    stat.extra["cols_max"] = max(stat.extra.get("cols_max", 0), m.cols)


def _plucker_minors(tracer, stat, args, result):
    basis = args[0]
    stat.add("minors", math.comb(basis.n, basis.k))


def _count_items(tracer, stat, args, item):
    stat.add("items", 1)


OBSERVERS = {
    "fock.psi_key": _count_none,
    "fock.psi_star_key": _count_none,
    "fock.shuffle_adjoint": _shuffle_terms,
    "exact.hermite_normal_form": _hnf_shape,
    "grassmann.plucker_vector": _plucker_minors,
    "grassmann.enumerate_points": _count_items,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap the library's public functions and rebind every name that held one."""
    cli = importlib.import_module("grfock.cli")
    modules = [importlib.import_module(f"grfock.{layer}") for layer in LAYERS]
    replace: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer, module in zip(LAYERS, modules):
        for name, fn in list(_public_functions(module)):
            qualified = f"{layer}.{name}"
            inner = inspect.unwrap(fn)  # an lru_cache keeps the def in __wrapped__
            wrap = tracer.wrap_generator if inspect.isgeneratorfunction(inner) else tracer.wrap
            replace[id(fn)] = (fn, wrap(qualified, fn, OBSERVERS.get(qualified)))
    for module in modules + [cli]:
        for name, obj in list(vars(module).items()):
            original, wrapper = replace.get(id(obj), (None, None))
            if original is obj:
                setattr(module, name, wrapper)

    matrix = modules[LAYERS.index("exact")].IntMatrix
    from_rows = vars(matrix).get("from_rows")
    if isinstance(from_rows, staticmethod):  # else its metric reads as missing
        matrix.from_rows = staticmethod(
            tracer.wrap("exact.IntMatrix.from_rows", from_rows.__func__))

    for command, suite in list(cli.SUITES.items()):
        cli.SUITES[command] = tracer.wrap(f"cli.{suite.__name__}", suite)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("grfock.cli")
    code = cli.main(argv)
    sys.stdout.flush()
    record = {
        "suite_s": tracer.stack[0],
        "functions": {name: stat.to_json() for name, stat in sorted(tracer.stats.items())},
    }
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
