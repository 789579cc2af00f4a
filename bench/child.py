"""Child process of the benchmark: one CLI run or one batch of scalar calls.

    python3 bench/child.py cli STATS MODE <xstates arguments>
    python3 bench/child.py scalar INPUTS RESULTS STATS MODE

MODE is ``speed`` to sample the machine's speed with ``speed.SpeedSampler``
and also give every duration in reference operations, or ``trace`` to
install the per-layer tracer instead.  STATS is ``-`` when a scalar batch
needs no stats file.

``cli`` runs ``xstates.cli.main`` in this process, as ``python -m xstates``
does, and writes its exit code and duration (plus the per-layer report when
traced, or the duration in reference operations when speed-sampled) to
STATS as JSON.  ``scalar`` feeds the states in INPUTS (written by
``run.py``) through the public chain apply_power_channel -> classify ->
negativity -> concurrence -> system_entropies -> tomogram ->
shannon_report_from_table, timing each state, and saves the
printed-equivalent results to RESULTS.  The parent puts the package's
source directory on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import SCALAR_CLASSES, SCALAR_ERROR  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402

MODES = ("speed", "trace")

CHAIN = (
    "apply_power_channel",
    "classify",
    "negativity",
    "concurrence",
    "system_entropies",
    "tomogram",
    "shannon_report_from_table",
)


def run_cli(stats_path: str, mode: str, argv: list[str]) -> int:
    import xstates.cli

    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    sampler = SpeedSampler()
    clock = time.perf_counter_ns
    with sampler if mode == "speed" else contextlib.nullcontext():
        start = clock()
        code = xstates.cli.main(argv)
        end = clock()
    spent = sampler.spent[0]
    total = (end - start - spent) / 1e9
    stats = {"exit": code, "total_s": total}
    if tracer:
        stats["layers"] = tracer.report(total, caller="cli")
    if mode == "speed":
        stats["refops"] = sampler.refops(start, end, spent)
        stats["ref_ns"] = sampler.median_ref_ns()
    Path(stats_path).write_text(json.dumps(stats))
    return code


def run_scalar(inputs_path: str, results_path: str, stats_path: str | None, mode: str) -> int:
    import xstates

    data = np.load(inputs_path)
    states = [
        xstates.XParams(a=a, b=b, c=complex(c), d=complex(d))
        for a, b, c, d in zip(data["a"].tolist(), data["b"].tolist(), data["c"], data["d"])
    ]
    pairs = [
        (xstates.Direction(theta=ta, psi=pa), xstates.Direction(theta=tb, psi=pb))
        for ta, pa, tb, pb in zip(
            data["theta_a"].tolist(), data["psi_a"].tolist(),
            data["theta_b"].tolist(), data["psi_b"].tolist(),
        )
    ]
    work = list(zip(states, data["n"].tolist(), [pairs[k] for k in data["pair"].tolist()]))

    fns = {name: getattr(xstates, name) for name in CHAIN}
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
        fns = {name: tracer.wrap(fn.__module__.rsplit(".", 1)[1], name, fn) for name, fn in fns.items()}
    apply_power_channel, classify, negativity, concurrence = (
        fns["apply_power_channel"], fns["classify"], fns["negativity"], fns["concurrence"]
    )
    system_entropies, tomogram, shannon = (
        fns["system_entropies"], fns["tomogram"], fns["shannon_report_from_table"]
    )
    code_of = {name: k for k, name in enumerate(SCALAR_CLASSES)}

    sampler = SpeedSampler()
    spent = sampler.spent
    clock = time.perf_counter_ns
    starts = []
    latency = []
    rows = []
    first_error = None
    with sampler if mode == "speed" else contextlib.nullcontext():
        start = clock()
        for p, n, (da, db) in work:
            t0 = clock()
            s0 = spent[0]
            try:
                img = apply_power_channel(p, n).params
                cls = classify(img)
                neg = negativity(img)
                conc = concurrence(img)
                info = system_entropies(img)
                i_s = shannon(tomogram(img, da, db)).i_s
                row = (code_of.get(cls.value, -2), neg, conc, info.s12, info.i_n, i_s)
            except Exception as exc:  # a failed call is counted, not fatal
                first_error = first_error or repr(exc)
                row = (SCALAR_ERROR,) + (float("nan"),) * 5
            # Time the speed sampler's handler spent inside this call is not the call's.
            latency.append(clock() - t0 - (spent[0] - s0))
            starts.append(t0)
            rows.append(row)
        end = clock()
    loop_s = (end - start - spent[0]) / 1e9

    table = np.array(rows, dtype=float).reshape(len(rows), 6)
    latency_ns = np.array(latency, dtype=np.int64)
    speed = {}
    if mode == "speed":
        speed = {
            "latency_refop": sampler.per_call(np.array(starts, dtype=np.int64), latency_ns),
            "loop_refops": sampler.refops(start, end, spent[0]),
            "ref_ns": sampler.median_ref_ns(),
        }
    np.savez(
        results_path,
        latency_ns=latency_ns,
        cls=table[:, 0].astype(np.int64),
        values=table[:, 1:],
        loop_s=loop_s,
        **speed,
    )
    if stats_path:
        stats = {"exit": 0, "total_s": loop_s, "first_error": first_error}
        if tracer:
            stats["layers"] = tracer.report(loop_s, caller="bench")
        Path(stats_path).write_text(json.dumps(stats))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] in MODES:
        return run_cli(argv[1], argv[2], argv[3:])
    if argv[:1] == ["scalar"] and len(argv) == 5 and argv[4] in MODES:
        return run_scalar(argv[1], argv[2], None if argv[3] == "-" else argv[3], argv[4])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
