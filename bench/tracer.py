"""Tracing from outside: wrap public functions of the cavityswap layers.

The layers import each other's functions by name (``from .quantum import
expm``), so wrapping the defining module alone would miss most calls.
:meth:`Tracer.install` therefore replaces every binding of the original
function object in every loaded ``cavityswap`` module, and
:meth:`Tracer.uninstall` puts the originals back.

Each call pushes a frame on one stack; on return its duration is added to
the parent frame, so self time is duration minus the time spent in wrapped
callees.  Calls to most functions are also kept as spans (name, start, end,
parent).  Hot functions -- called up to ~1e5 times per run -- keep only
aggregate counters, which bounds both memory and the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (layer, public name, hot).  Hot names get counters but no spans.
TARGETS = (
    ("quantum", "expm", False),
    ("quantum", "evolve", False),
    ("quantum", "concurrence", True),
    ("bragg", "ladder_population_series", False),
    ("bragg", "analytic_amplitudes", True),
    ("bragg", "evolve_ladder", False),
    ("bragg", "pair_oracle_fidelity", False),
    ("bragg", "max_excited_population", False),
    ("swap", "run_protocol", False),
    ("swap", "shot_generator", True),
    ("swap", "herald_distribution", False),
    ("swap", "click_distribution", False),
    ("swap", "joint_state", False),
    ("swap", "epr_decomposition_check", False),
    ("metrics", "run_sweep", False),
    ("metrics", "oracle_compare", False),
    ("metrics", "wilson_interval", True),
    ("cli", "main", False),
    ("cli", "load_config", False),
)
LAYERS = ("quantum", "bragg", "swap", "metrics", "cli")

# Calls of the first name made while the second is open are counted as
# "<first>@<second>": propagators built per population series.
NESTED = {"quantum.expm": ("bragg.ladder_population_series",)}


def _count_points(bound, result, extra):
    extra["bragg.ladder_population_series.points"] += len(bound.arguments["times"])


def _count_shots(bound, result, extra):
    extra["swap.run_protocol.shots"] += int(bound.arguments["shots"])


def _count_rows(bound, result, extra):
    extra["metrics.rows"] += len(result.rows)
    extra["metrics.row_errors"] += sum(1 for row in result.rows if row.error)


# Counters read from a call's arguments or result.
HOOKS = {
    "bragg.ladder_population_series": _count_points,
    "swap.run_protocol": _count_shots,
    "metrics.run_sweep": _count_rows,
}


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


class Tracer:
    def __init__(self):
        self.absent: list = []
        self._patched: list = []
        self._reset()

    def _reset(self) -> None:
        self.stats: dict = defaultdict(Stat)
        self.extra: dict = defaultdict(int)
        self.spans: list = []
        self._stack: list = []
        self._open: dict = defaultdict(int)

    def _modules(self) -> list:
        return [m for name, m in sys.modules.items() if name == "cavityswap" or name.startswith("cavityswap.")]

    def install(self) -> None:
        """Wrap every target, starting from empty counters and spans."""
        self._reset()
        self.absent = []
        modules = self._modules()
        for layer, public, hot in TARGETS:
            name = f"{layer}.{public}"
            original = getattr(sys.modules.get(f"cavityswap.{layer}"), public, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hot)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name, fn, hot):
        stack, open_calls, spans = self._stack, self._open, self.spans
        stat = self.stats[name]
        nested = NESTED.get(name, ())
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for outer in nested:
                if open_calls[outer]:
                    self.extra[f"{name}@{outer}"] += 1
            parent = stack[-1][1] if stack else -1
            span = parent
            if not hot:
                span = len(spans)
                spans.append(None)
            frame = [0.0, span]
            stack.append(frame)
            open_calls[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_calls[name] -= 1
                duration = end - start
                stat.calls += 1
                stat.seconds += duration
                stat.self_seconds += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    spans[span] = (name, start, end, parent)
            if hook is not None:
                hook(signature.bind(*args, **kwargs), result, self.extra)
            return result

        return wrapper

    def layer_self_seconds(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            totals[name.split(".", 1)[0]] += stat.self_seconds
        return totals
