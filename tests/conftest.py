"""Shared randomized-state generators, a strict JSON reader and the acceptance summary hook."""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np
from hypothesis import strategies as st

from xstates import Direction, XParams, apply_power_channel


def params_from_weights(w, phase_c: float, phase_d: float) -> XParams:
    """Valid X parameters whose spectrum is the given 4-point distribution."""
    a = 0.5 * (w[0] + w[3])
    dm = 0.5 * abs(w[0] - w[3])
    b = 0.5 * (w[1] + w[2])
    cm = 0.5 * abs(w[1] - w[2])
    return XParams(
        a=a, b=b, c=cm * cmath.exp(1j * phase_c), d=dm * cmath.exp(1j * phase_d)
    )


def random_valid_params(rng: np.random.Generator) -> XParams:
    w = rng.dirichlet(np.ones(4))
    ph_c, ph_d = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return params_from_weights(w, ph_c, ph_d)


def random_separable_params(rng: np.random.Generator) -> XParams:
    # keep both coherences below min(a, b): PSD and PPT-PSD by construction
    a = rng.uniform(0.05, 0.45)
    b = 0.5 - a
    m = min(a, b)
    ph_c, ph_d = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return XParams(
        a=a,
        b=b,
        c=rng.uniform(0.0, m) * cmath.exp(1j * ph_c),
        d=rng.uniform(0.0, m) * cmath.exp(1j * ph_d),
    )


def random_channel_image(rng: np.random.Generator) -> XParams:
    n = int(rng.integers(2, 7))
    return apply_power_channel(random_valid_params(rng), n).params


def random_direction(rng: np.random.Generator) -> Direction:
    return Direction(
        theta=math.acos(1.0 - 2.0 * rng.uniform()),
        phi=rng.uniform(0.0, 2.0 * math.pi),
        psi=rng.uniform(0.0, 2.0 * math.pi),
    )


def random_direction_pair(rng: np.random.Generator) -> tuple[Direction, Direction]:
    return random_direction(rng), random_direction(rng)


# hypothesis strategies ------------------------------------------------------

_unit = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
_angle = st.floats(0.0, 2.0 * math.pi, allow_nan=False, allow_infinity=False)
_polar = st.floats(0.0, math.pi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_params_st(draw) -> XParams:
    cuts = sorted((draw(_unit), draw(_unit), draw(_unit)))
    w = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 1.0 - cuts[2])
    return params_from_weights(w, draw(_angle), draw(_angle))


# States on the edges of the columnar kernels' branches: pure states (the
# 0 ln 0 branch), zero and subnormal coherences (whose modulus comes from
# np.hypot in the kernels and from abs in the scalar chain), and eigenvalues
# a - |d| or b - |c| inside the clamp band [-EPS_PSD, 0).
EDGE_STATES = [
    XParams(a=0.5, b=0.0, c=0.0, d=0.5j),
    XParams(a=0.0, b=0.5, c=-0.5, d=0.0),
    XParams(a=0.3, b=0.2, c=0.0, d=0.0),
    XParams(a=0.3, b=0.2, c=3e-310 - 4e-310j, d=-1e-320 + 2e-300j),
    XParams(a=0.25, b=0.25, c=0.0, d=0.0),
    XParams(a=0.4, b=0.1, c=0.1 + 5e-13, d=0.2 * cmath.exp(0.7j)),
    XParams(a=0.25, b=0.25, c=0.1j, d=-(0.25 + 9e-13)),
]


@st.composite
def clamp_band_params_st(draw) -> XParams:
    """A valid state whose eigenvalue b - |c| lies in [-EPS_PSD, 0)."""
    p = draw(valid_params_st())
    excess = draw(st.floats(1e-15, 9e-13))
    return XParams(a=p.a, b=p.b, c=(p.b + excess) * cmath.exp(1j * draw(_angle)), d=p.d)


def kernel_images_st():
    """Lists of valid states as the columnar kernels receive them."""
    one = st.one_of(valid_params_st(), clamp_band_params_st(), st.sampled_from(EDGE_STATES))
    return st.lists(one, min_size=1, max_size=8)


@st.composite
def direction_st(draw) -> Direction:
    return Direction(theta=draw(_polar), phi=draw(_angle), psi=draw(_angle))


def strict_json_loads(text: str):
    """``json.loads`` that rejects NaN, Infinity and -Infinity, which RFC 8259 JSON lacks."""

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


# worker pools ---------------------------------------------------------------


def force_pools(monkeypatch, from_cells: int | None = 0, cpus: int = 2) -> list:
    """Let sweeps of ``from_cells`` measure cells or more (None: the CLI's own threshold) run
    on ``cpus`` processes, whatever CPUs this process may run on; give the list of the pids
    that they fork, one per worker.
    """
    from xstates import cli

    forked, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    if from_cells is not None:
        monkeypatch.setattr(cli, "_POOL_CELLS", from_cells)
    return forked


# acceptance summary ---------------------------------------------------------

ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_criterion(num: int, ok: bool, text: str) -> None:
    ACCEPTANCE_RESULTS.append((num, ok, text))
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {text}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, text in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {text}")
