"""Outside-in span tracer for the stressgrid benchmark.

The tracer adds no code to the program. It replaces the module globals the
program calls through with timing wrappers, and puts the originals back on
`uninstall`. A function is patched under every name in every loaded
`stressgrid` module that is bound to it, because callers reach it through
their own imported name (the CLI calls `run` as `stressgrid.cli.run`, the
engine calls `build_class_model` as `stressgrid.engine.build_class_model`).

Spans are kept in memory in flat arrays (name, start, end, parent) and
written out once, at the end, by `save`, with the run id of each span: the
ordinal of the `engine.run` span it lies in. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

# (defining module, function) pairs; spans are named "<module>.<function>".
FUNCTIONS = (
    ("cli", "parse_config"),
    ("cli", "run_sweep"),
    ("engine", "run"),
    ("engine", "load_models"),
    ("homes", "build_class_model"),
    ("consumption", "fit_cdf"),
    ("topology", "build_topology"),
    ("policies", "reset_hourly"),
    ("consumption", "sample_inverse"),
    ("homes", "set_hour_draws"),
    ("topology", "served_demand"),
    ("policies", "baseline_step"),
    ("policies", "alg1_round"),
    ("policies", "alg2_step"),
    ("policies", "cut_nonsmart_groups"),
    ("metrics", "write_report"),
)
APPLY = "protocol.apply"  # CommandChannel.apply, patched on the class
NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + (APPLY,)

# Spans whose return values the benchmark keeps, to check outputs and count.
KEEP_RETURNS = ("cli.run_sweep", "metrics.write_report")


class Tracer:
    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.returns: dict[str, list] = {n: [] for n in KEEP_RETURNS}
        self.effective_commands = 0  # commands that changed a home's level
        self._stack: list[int] = [-1]  # open spans; -1 stands for "no parent"
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Patch every target; `stressgrid.cli` must already be imported."""
        modules = [
            m for n, m in sys.modules.items()
            if (n == "stressgrid" or n.startswith("stressgrid.")) and m is not None
        ]
        for name_id, (module, func) in enumerate(FUNCTIONS):
            original = getattr(sys.modules[f"stressgrid.{module}"], func)
            wrapper = self._wrap(name_id, original, self.returns.get(f"{module}.{func}"))
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._patch(m, key, wrapper)
        from stressgrid.protocol import CommandChannel

        self._patch(CommandChannel, "apply", self._wrap_apply(CommandChannel.apply))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    # -- wrappers (hot path: bound methods are looked up once) -----------

    def _wrap(self, name_id: int, fn, keep: list | None):
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        start, end = self.start, self.end
        add_start, add_end = start.append, end.append
        add_parent, add_name = self.parent.append, self.name.append
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            add_parent(stack[-1])
            add_name(name_id)
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                pop()
            if keep is not None:
                keep.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_apply(self, fn):
        span = self._wrap(len(FUNCTIONS), fn, None)

        def apply(channel, home, level):
            before = home.current_level
            delivered = span(channel, home, level)
            if home.current_level != before:
                self.effective_commands += 1
            return delivered

        apply.__wrapped__ = fn
        return apply

    # -- results ---------------------------------------------------------

    def _arrays(self):
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        return np, start, end, parent, name

    def run_ids(self):
        """Per span, the ordinal of the `engine.run` span it lies in, or -1.

        A parent always precedes its children, so each pass settles one
        more level of nesting.
        """
        np, _, _, parent, name = self._arrays()
        is_run = name == NAMES.index("engine.run")
        owner = np.where(is_run, np.arange(len(name)), -1)
        while True:
            inherited = np.where(parent >= 0, owner[np.maximum(parent, 0)], -1)
            settled = np.where(is_run, owner, inherited)
            if np.array_equal(settled, owner):
                break
            owner = settled
        ordinal = np.cumsum(is_run) - 1
        return np.where(owner >= 0, ordinal[np.maximum(owner, 0)], -1)

    def summary(self, region: tuple[float, float] | None = None) -> dict:
        """Calls and self seconds per span name, over every span recorded,
        and `region_self_s`: the summed self time of the spans inside
        `region=(t0, t1)` (default: all), which is the time the traced
        layers account for within it.
        """
        np, start, end, parent, name = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        calls = np.bincount(name, minlength=len(NAMES))
        total = np.bincount(name, weights=self_s, minlength=len(NAMES))
        out = {
            "spans": int(len(start)),
            "calls": {n: int(calls[i]) for i, n in enumerate(NAMES)},
            "self_s": {n: float(total[i]) for i, n in enumerate(NAMES)},
            "effective_commands": self.effective_commands,
        }
        inside = np.ones_like(start, dtype=bool)
        if region is not None:
            inside = (start >= region[0]) & (end <= region[1])
        out["region_self_s"] = float(self_s[inside].sum())
        return out

    def save(self, path) -> None:
        """Write every span as arrays: name index, start, end, parent, run."""
        np, start, end, parent, name = self._arrays()
        np.savez(
            path,
            names=np.array(NAMES),
            name=name,
            start=start,
            end=end,
            parent=parent,
            run=self.run_ids(),
        )
