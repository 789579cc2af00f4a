"""Per-layer tracing of xstates from outside the package.

The tracer replaces, in each ``xstates`` module, every function that module
imports from another ``xstates`` module (``cli.apply_power_channel``,
``information.marginals``, ...) with a timing wrapper, and does the same for
the CLI's per-row, formatting, spot-check and write functions.  Calls inside
one module are not wrapped, so their time counts as the caller's self time.

A wrapper's self time is its duration minus the time of the wrapped calls
nested inside it, so the self times of all wrappers add up to the time spent
inside wrapped calls.  Nothing under ``src/`` is modified; the wrapping
happens in the process that imports the package.
"""

from __future__ import annotations

import importlib
import json as _json
import time
import types

MODULES = ("cli", "xstate", "tomography", "information", "entanglement", "dense")

# CLI functions that are not imported from elsewhere but mark its stages.
CLI_STAGES = {
    "_cd_row": "row",
    "_werner_row": "row",
    "_row_to_csv": "format",
    "_werner_header": "format",
    "_spot_check": "spot_check",
    "_emit": "write",
}


class Tracer:
    """Call counts, self times and raised errors per (module, function)."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        self.wrapped_s = 0.0  # time inside outermost wrapped calls
        self._stack: list[float] = []
        self._last_error: BaseException | None = None

    def wrap(self, module: str, name: str, fn):
        stat = self.stats.setdefault((module, name), [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, where it first leaves a wrapper.
                if exc is not self._last_error:
                    self._last_error = exc
                    stat[2] += 1
                raise
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                else:
                    self.wrapped_s += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the cross-module imports and the CLI stages of xstates."""
        for short in MODULES:
            mod = importlib.import_module(f"xstates.{short}")
            for name, value in list(vars(mod).items()):
                owner = getattr(value, "__module__", "") or ""
                if (
                    isinstance(value, types.FunctionType)
                    and owner.startswith("xstates.")
                    and owner != mod.__name__
                ):
                    setattr(mod, name, self.wrap(owner.rsplit(".", 1)[1], name, value))
        cli = importlib.import_module("xstates.cli")
        for name, stage in CLI_STAGES.items():
            fn = getattr(cli, name, None)
            if fn is not None:
                setattr(cli, name, self.wrap("cli", stage, fn))
        if getattr(cli, "json", None) is _json:
            cli.json = types.SimpleNamespace(
                **{**vars(_json), "dumps": self.wrap("cli", "format", _json.dumps)}
            )

    def report(self, total_s: float, caller: str) -> dict:
        """Flat per-layer metrics for a traced region of ``total_s`` seconds.

        Time outside every wrapped call belongs to ``caller``: the CLI's own
        code (``cli.other_s``) or the benchmark's loop (``trace.caller_s``).
        """
        out: dict[str, float] = {}
        for (module, name), (calls, self_s, errors) in self.stats.items():
            for key, value in (("calls", calls), ("self_s", self_s), ("errors", errors)):
                out[f"{module}.{key}"] = out.get(f"{module}.{key}", 0) + value
            if module == "cli":
                out[f"cli.{name}_s"] = out.get(f"cli.{name}_s", 0.0) + self_s
            else:
                out[f"{module}.{name}.calls"] = calls
                out[f"{module}.{name}.self_s"] = self_s
        other = total_s - self.wrapped_s
        out["cli.other_s"] = other if caller == "cli" else 0.0
        out["trace.caller_s"] = other if caller != "cli" else 0.0
        out["trace.total_s"] = total_s
        return out
