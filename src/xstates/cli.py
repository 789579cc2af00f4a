"""Command-line front end: single-state reports and reproducible sweeps.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 when the
requested state is not a genuine density matrix.  Sweep output is CSV with
15-significant-digit numbers (``%.15g``), or a JSON mirror with each float's
``repr``, in a fixed column order: identical configurations give identical bytes.

Every option is declared once, in its subcommand's parser.  A ``--config``
file may set any of them by dest name; its values become the parser's
defaults, so a flag beats the config file and the config file beats the
built-in default.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import random
import re
import sys
import threading
from dataclasses import asdict
from itertools import chain, filterfalse, product, repeat
from typing import TYPE_CHECKING, Iterable, Sequence

from .xstate import (
    StateClass,
    XParams,
    ZeroDenominatorError,
    _x_classify,
    _x_columns,
    _x_power,
    apply_power_channel,
    classify,
    spectrum,
    validate,
    werner,
    werner_entanglement_threshold,
    werner_entanglement_threshold_lower,
)
from .tomography import (
    Direction, InvalidAngleError, _pair_coefficients, direction_pairs, marginals, tomogram,
)
from .information import _x_entropies, _x_information, shannon_report_from_table, system_entropies
from .entanglement import _x_entanglement, concurrence, negativity

if TYPE_CHECKING:
    import numpy as np


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)  # sweep-cd's --n is not --n-list
        # argparse reads "-1e-1" as an option because its pattern for negative
        # numbers has no exponent; "-1", "-.5" and "-1.5" already pass.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with 2 on bad flags; the contract here reserves 2 for
    # invalid physical states, so route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    """One CSV cell or report value; floats get 15 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return format(float(x), ".15g")


def _text(value) -> str:
    if isinstance(value, dict):
        return " ".join(f"{key}={_fmt(v)}" for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return _fmt(value)


def _render(report: dict, as_json: bool) -> str:
    """A report as indented JSON, or as one ``key: value`` line per entry."""
    if as_json:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    return "".join(f"{key}: {_text(value)}\n" for key, value in report.items())


# What ``json.dumps(..., indent=2)`` writes between the cells of a row and between
# rows, for a list of rows that is a value of the top-level object.
_CELL_SEP = ",\n      "
_ROW_SEP = "\n    ],\n    [\n      "

# Each format's (cell, number, sep, row_sep): how a cell is written, the %-format of a valid
# row's measure, what goes between cells, and what goes between rows.  The JSON cell is what
# json.dumps(x, allow_nan=False) makes, without a new encoder per call; it refuses inf and
# nan, as RFC 8259 has neither.  "%r" of a float is float.__repr__, what json writes.
_CSV = (_fmt, "%.15g", ",", "\n")
_JSON = (json.JSONEncoder(allow_nan=False).encode, "%r", _CELL_SEP, _ROW_SEP)


# ---------------------------------------------------------------------------
# configuration files


def _load_config(path: str, options: dict[str, argparse.Action]) -> dict:
    """Read a flat ``key = value`` file; '#' starts a comment.

    Each value is converted with its option's own type.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a leading byte-order mark
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}")
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = options.get(key)
        if action is None:
            raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise _UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        if action.choices is not None and value not in action.choices:
            raise _UsageError(f"{path}:{lineno}: unknown {key} {value!r}")
        try:
            out[key] = value if action.type is None else action.type(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"{path}:{lineno}: config key {key!r}: {exc}")
    return out


def _parse_n_list(text: str) -> tuple[int, ...]:
    # argparse prints an ArgumentTypeError's own message, not the function's name.
    try:
        items = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not items:
        raise argparse.ArgumentTypeError("empty power list")
    if any(n < 1 for n in items):
        raise argparse.ArgumentTypeError(f"powers must be >= 1, got {items}")
    return items


def _emit(parts: Iterable[str], output: str | None) -> None:
    """Write the strings in ``parts`` one after another to ``output``, or to stdout."""
    try:
        if output is None:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(parts)
    except OSError as exc:
        if output is None:
            # Python flushes stdout again at exit; that must not fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
        raise _UsageError(f"cannot write {'<stdout>' if output is None else output}: {exc}")


# ---------------------------------------------------------------------------
# argument plumbing


_DEFAULT = " (default %(default)s)"


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    add = p.add_argument
    add("--a", type=float, help="outer diagonal entry")
    add("--b", type=float, help="inner diagonal entry")
    add("--c-abs", type=float, help="inner coherence magnitude")
    add("--c-phase", type=float, default=0.0, help="inner coherence phase, radians" + _DEFAULT)
    add("--d-abs", type=float, help="outer coherence magnitude")
    add("--d-phase", type=float, default=0.0, help="outer coherence phase, radians" + _DEFAULT)
    add("--n", type=int, default=1, help="power applied to the state" + _DEFAULT)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text/CSV")
    p.add_argument("--output", help="write output to this path instead of stdout")
    p.add_argument("--config", help="flat key = value configuration file")


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="xstates", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("analyze", help="report one state and its power-map image")
    _add_state_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("sweep-cd", help="coherence-magnitude grid sweep at fixed diagonals")
    add = p.add_argument
    add("--a", type=float, default=0.33, help="outer diagonal entry" + _DEFAULT)
    add("--b", type=float, default=0.17, help="inner diagonal entry" + _DEFAULT)
    add("--c-phase", type=float, default=0.0, help="inner coherence phase" + _DEFAULT)
    add("--d-phase", type=float, default=0.0, help="outer coherence phase" + _DEFAULT)
    add("--c-abs-max", type=float, default=0.5, help="grid end for |c|" + _DEFAULT)
    add("--d-abs-max", type=float, default=0.5, help="grid end for |d|" + _DEFAULT)
    add("--steps", type=int, default=201, help="grid points per axis" + _DEFAULT)
    add("--n-list", type=_parse_n_list, default="2,3,4,5",
        help="comma-separated powers" + _DEFAULT)
    add("--format", choices=("csv", "json"), default="csv", help="output format" + _DEFAULT)
    add("--seed", type=int, default=0, help="seed for the per-run row spot check" + _DEFAULT)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_sweep_cd)

    p = sub.add_parser("sweep-werner", help="Werner-family sweep over the mixing weight")
    add = p.add_argument
    add("--p-min", type=float, default=0.0, help="start of the weight grid" + _DEFAULT)
    add("--p-max", type=float, default=1.0, help="end of the weight grid" + _DEFAULT)
    add("--steps", type=int, default=401, help="number of weight samples" + _DEFAULT)
    add("--n-list", type=_parse_n_list, default="1,2,3,4,5,6",
        help="comma-separated powers" + _DEFAULT)
    add("--num-dirs", type=int, default=4, help="measured direction pairs" + _DEFAULT)
    add("--format", choices=("csv", "json"), default="csv", help="output format" + _DEFAULT)
    add("--seed", type=int, default=0, help="seed for direction sampling" + _DEFAULT)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_sweep_werner)

    p = sub.add_parser("tomogram", help="joint spin tomogram along one direction pair")
    _add_state_flags(p)
    add = p.add_argument
    for q, which in (("a", "first"), ("b", "second")):
        add(f"--theta-{q}", type=float, help=f"polar angle, {which} qubit (radians)")
        add(f"--phi-{q}", type=float, default=0.0,
            help=f"second Euler angle, {which} qubit (no effect)" + _DEFAULT)
        add(f"--psi-{q}", type=float, default=0.0,
            help=f"third Euler angle, {which} qubit" + _DEFAULT)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_tomogram)

    return parser, sub.choices


# The least value of each option that has one.
_AT_LEAST = {"c_abs": 0, "d_abs": 0, "n": 1, "steps": 2, "num_dirs": 1, "seed": 0}


def _state(args: argparse.Namespace) -> XParams:
    c = args.c_abs * cmath.exp(1j * args.c_phase)
    d = args.d_abs * cmath.exp(1j * args.d_phase)
    return XParams(a=args.a, b=args.b, c=c, d=d)


# ---------------------------------------------------------------------------
# analyze, and the row evaluator that both sweeps share


# The cells (valid, class) of each classify verdict, at its index in list(StateClass),
# then at -1 those of a row without an image because Tr rho^n vanished.
_CLASSES = list(StateClass)
_VERDICTS = [(k < 2, cls.value) for k, cls in enumerate(_CLASSES)] + [(False, None)]


def _evaluate(n: int, x: np.ndarray, measure) -> tuple[int, list[int], list[list]]:
    """The block ``(n, verdicts, measures)`` of the columns ``x`` at power ``n``, by the kernels.

    The images come from one :func:`_x_power` pass, and the validity and class of every image
    from one :func:`_x_classify` pass, as an index into ``_VERDICTS``: -1 where Tr rho^n
    vanished.  ``measure`` is called with the columns of the valid images, and gives one list
    per measure with a value for each valid row, in row order.
    """
    x, vanished = _x_power(x, n)
    index = _x_classify(x)  # 3, a bad trace, where Tr rho^n vanished: those columns are 0
    columns = measure(x[:, index < 2])
    index[vanished] = -1
    return n, index.tolist(), columns


def _public_block(n: int, states: Iterable[XParams], public, width: int) -> tuple:
    """:func:`_evaluate`'s block, made row by row as the spot check makes a row."""
    rows = [_public_row(_cd_row(n, state), public, width) for state in states]
    return n, [v for v, _ in rows], [*zip(*(m for v, m in rows if 0 <= v < 2))] or [()] * width


def _spread(verdicts: list[int], values: Iterable) -> list:
    """``values``, one per valid row, at their rows, and ``()`` for a template without slots."""
    values = iter(values)
    return [next(values) if 0 <= v < 2 else () for v in verdicts]


def _public_row(image: XParams | None, measure, width: int) -> tuple[int, tuple]:
    """:func:`_evaluate`'s reference for one image: :func:`classify`'s verdict, as its index
    into ``_VERDICTS`` (-1 for no image), and ``measure(image)`` if it is valid."""
    v = -1 if image is None else _CLASSES.index(classify(image))
    return v, measure(image) if 0 <= v < 2 else (None,) * width


_CD_MEASURES = ("negativity", "concurrence", "s12", "i_n")


def _scalar_measures(p: XParams) -> tuple:
    """Negativity, concurrence, S(rho) and I_n of a valid state, by the public scalar chain."""
    info = system_entropies(p)
    return negativity(p), concurrence(p), info.s12, info.i_n


def _columnar_measures(x: np.ndarray) -> list[list]:
    """:func:`_scalar_measures`, bit for bit, as columns from the columnar kernels on ``x``."""
    return [col.tolist() for col in (*_x_entanglement(x), *_x_entropies(x))]


def cmd_analyze(args: argparse.Namespace, options: dict[str, argparse.Action]) -> int:
    params = _state(args)
    bad = validate(params)
    lam = spectrum(params)
    if args.json:
        # An invalid state's eigenvalue can overflow; JSON has no inf, so it reads null.
        lam = [x if math.isfinite(x) else None for x in lam]
    report: dict = {"validity": "valid" if bad is None else bad.value, "spectrum": lam}
    if bad is None:
        # Not _cd_row: a vanishing Tr rho^n fails the command here (exit 1 in main).
        img = apply_power_channel(params, args.n).params
        v, measures = _public_row(img, _scalar_measures, 4)
        valid, class_image = _VERDICTS[v]
        report.update(
            class_input=classify(params).value,
            n=args.n,
            image={
                "a": img.a, "b": img.b,
                "c_abs": abs(img.c), "c_phase": cmath.phase(img.c),
                "d_abs": abs(img.d), "d_phase": cmath.phase(img.d),
                "valid": valid,
            },
            class_image=class_image,
            **dict(zip(_CD_MEASURES, measures)),
        )
    _emit([_render(report, args.json)], args.output)
    return 0 if bad is None else 2


# ---------------------------------------------------------------------------
# sweeps


# What a sweep may hold before it writes: sweep-cd rows (as text: 76 B each as CSV, 162 B
# as JSON), or sweep-werner I_s values plus direction pairs (0.7 kB each with their factors).
_MAX_SIZE = 10**7


def _check_size(args: argparse.Namespace, size: int, unit: str, pairs: str = "") -> None:
    if size > _MAX_SIZE:
        raise _UsageError(f"--steps {args.steps} with {len(args.n_list)} powers{pairs} makes"
                          f" {size} {unit}, more than the limit of {_MAX_SIZE}")


def _grid(end: float, steps: int, what: str, start: float = -0.0) -> list[float]:
    # The default start adds nothing: -0.0 + x is x, bit for bit.  end * k can overflow
    # before the division brings it back in range, and start + ... can round up to inf.
    values = [start + end * k / (steps - 1) for k in range(steps)]
    if not all(map(math.isfinite, values)):
        raise _UsageError(f"{what} over --steps {steps} overflows a grid value"
                          " (end * k / (steps - 1))")
    return values


def _cd_row(n: int, state: XParams) -> XParams | None:
    """The image of ``state`` under rho -> rho^n / Tr rho^n, or None where Tr rho^n vanishes.

    A small sweep makes the image of each row here, and the spot check each drawn
    row's; the name stays because bench/tracer.py times the row stage by it.
    """
    try:
        return apply_power_channel(state, n).params
    except ZeroDenominatorError:
        return None


def _row_to_csv(cells) -> str:
    """One CSV line, without its newline, from already formatted cells."""
    return ",".join(cells)


def _block_lines(block: tuple[int, list[int], list[list]], heads: list[str], layout,
                 style: tuple) -> list[str]:
    """The lines of one block in ``style`` (``_CSV`` or ``_JSON``), without row separators.

    ``heads`` are each row's grid cells, each followed by the style's ``sep``.  One sum
    tests the block's measures for inf and nan; they are sought one by one only if it fails.
    """
    cell, number, sep, _ = style
    n, verdicts, measures = block
    # Each verdict's cells from n on, with ``number`` in a valid row's measure slots: a row
    # is its head, then its verdict's template % its measures.
    templates = [sep.join(layout(cell(n), cell(valid), cell(cls),
                                 [number if valid else cell(None)] * len(measures)))
                 for valid, cls in _VERDICTS]
    if not math.isfinite(sum(map(sum, measures))):  # finite measures can overflow the sum
        for x in filterfalse(math.isfinite, chain.from_iterable(measures)):
            cell(x)  # JSON refuses a measure that is inf or nan; CSV writes what "%.15g" gives
    cells = _spread(verdicts, zip(*measures))
    return [head + templates[v] % m for head, v, m in zip(heads, verdicts, cells)]


# From this many measure cells on (rows times measures per row), a sweep makes its blocks by the
# columnar kernels and shares them with forked workers, one per further CPU it may run on, up to
# one per block, unless it runs another thread; a smaller one runs the scalar chain, no numpy.
_POOL_CELLS = 1 << 15

# A block is one chunk of one power's rows: as many rows as hold this many measure cells, and
# at least one.  Chunks even out the work of powers whose rows cost more or less to make.
_CHUNK_CELLS = 1 << 13


def _serve(work, ks: range, out: int, parents: list[int]) -> None:
    # A worker: for each k of ``ks`` in order, it sends work(k) to ``out``; at its first error
    # it stops, and the parent makes that k and the rest itself.  It closes the parent's pipe
    # ends, so that it ends at its next write once the parent has gone, and only by os._exit:
    # it flushes nothing inherited.
    import pickle
    try:
        for fd in parents:
            os.close(fd)
        results = open(out, "wb")
        for k in ks:
            pickle.dump(work(k), results, pickle.HIGHEST_PROTOCOL)
            results.flush()
    except BaseException:
        os._exit(1)
    os._exit(0)


def _map_blocks(work, count: int, pooled: bool) -> list[str]:
    """``[work(k) for k in range(count)]``, shared with forked workers if ``pooled``.

    Of ``w`` processes, worker ``i`` makes k = i, i + w, ... and this one each k that w divides.
    Results are read in k order, and each k that no worker sent (it failed, its worker ended,
    or a pipe or a fork failed) is made here: the first failing k raises as in one process.
    The workers are then killed.  Each ``work(k)`` is a str.
    """
    alone = pooled and threading.active_count() == 1 and hasattr(os, "sched_getaffinity")
    width = min(count, len(os.sched_getaffinity(0))) if alone else 1
    if width > 1:
        import numpy  # noqa: F401  (loaded here, or else once in each worker)
    import pickle
    import signal
    ends, pids = [], []  # worker i's result pipe (read end) and pid at i - 1
    try:
        try:
            for i in range(1, width):
                ends += os.pipe()
                pid = os.fork()
                if not pid:
                    _serve(work, range(i, count, width), ends.pop(), ends)
                os.close(ends.pop())
                pids.append(pid)
        except OSError:  # close this attempt's pipe ends: the workers not forked send nothing
            while len(ends) > len(pids):
                os.close(ends.pop())
        pipes = [open(fd, "rb", closefd=False) for fd in ends]  # pickle frames each text
        texts = []
        for k in range(count):
            text = None  # unit k's text, if its worker sent it
            if 0 < k % width <= len(pipes):
                try:
                    text = pickle.load(pipes[k % width - 1])
                except (EOFError, pickle.UnpicklingError):  # its worker ended before sending it
                    pass
            texts.append(work(k) if text is None else text)
        return texts
    finally:  # no worker outlives the run
        for fd in ends:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _sweep(args: argparse.Namespace, state, columns, grid: dict[str, list[float]], fast,
           public, layout, names: Sequence[str], options: dict[str, argparse.Action],
           comments: list[str], extra: dict) -> int:
    """Evaluate, spot-check and write a sweep, one block per chunk of each power's rows.

    ``grid`` names each axis of the grid.  Its points are numbered in ``product`` order:
    ``state(j)`` is the state of point j, and ``columns(lo, hi)`` the :func:`_x_columns` of
    the states of points lo to hi.  ``layout(n, valid, cls, measures)`` is the row order
    after the grid columns: the header, the writer and the spot check read it.
    ``fast`` and ``public`` give the measures ``names`` (see :func:`_evaluate`).
    ``comments`` are the CSV's comment lines, and ``extra`` the JSON's entries after the config.
    """
    style = _CSV if args.format == "csv" and not args.json else _JSON
    cell, _, sep, row_sep = style
    axes = [[cell(x) + sep for x in axis] for axis in grid.values()]  # written once
    heads = list(map("".join, product(*axes)))  # each row's grid cells, with their separators
    total, size = len(args.n_list) * len(heads), len(heads)
    drawn = random.Random(args.seed).sample(range(total), min(32, total))

    rows = max(1, _CHUNK_CELLS // len(names))
    units = list(product(range(len(args.n_list)), range(0, size, rows)))  # (power, first row)
    columnar = total * len(names) >= _POOL_CELLS

    def work(u: int) -> str:  # unit u's block's text, once its drawn rows pass the spot check
        k, lo = units[u]
        n, hi, first = args.n_list[k], min(lo + rows, size), k * size + lo
        try:
            block = (_evaluate(n, columns(lo, hi), fast) if columnar
                     else _public_block(n, map(state, range(lo, hi)), public, len(names)))
        except OverflowError:
            if columnar:  # a refused block: the scalar chain raises its first bad row's error
                _public_block(n, map(state, range(lo, hi)), public, len(names))
            raise
        lines = _block_lines(block, heads[lo:hi], layout, style)
        _spot_check(n, [i for i in drawn if first <= i < first + len(lines)], lines, lo, state,
                    public, layout, len(names), heads, style)
        return row_sep.join(lines)

    texts = _map_blocks(work, len(units), columnar)
    header = [*grid, *layout("n", "valid", "class", names)]
    if style is _CSV:
        head, tail = "".join(f"{line}\n" for line in [*comments, _row_to_csv(header)]), "\n"
    else:
        # Every sweep setting but the output choice, in parser order.
        config = {key: getattr(args, key) for key in options if key not in ("format", "output")}
        head = json.dumps({"config": config, **extra, "columns": header}, indent=2, allow_nan=False)
        # json.dumps(payload, indent=2) with "rows" as the payload's last key: its text before
        # the first row's first cell, and after the last row's last cell.
        head, tail = head[:-2] + ',\n  "rows": [\n    [\n      ', "\n    ]\n  ]\n}\n"
    seps = chain([head], repeat(row_sep))  # what goes before each unit's text
    _emit(chain(chain.from_iterable(zip(seps, texts)), [tail]), args.output)
    return 0


def _spot_check(n: int, drawn: list[int], lines: list[str], lo: int, state, public, layout,
                width: int, heads: list[str], style: tuple) -> None:
    # A per-run guard: each drawn row of a block of power n, as shipped in ``lines`` from grid
    # point ``lo`` on, must equal the public chain's evaluation of its point's ``state(j)``,
    # placed by the layout and written cell by cell after its grid cells.  ``drawn`` counts
    # rows across the whole sweep, as its error names them.
    cell, _, sep, _ = style
    for idx in drawn:
        j = idx % len(heads)
        v, measures = _public_row(_cd_row(n, state(j)), public, width)
        if heads[j] + sep.join(map(cell, layout(n, *_VERDICTS[v], measures))) != lines[j - lo]:
            raise _UsageError(f"sweep row {idx} failed its self-check")


def cmd_sweep_cd(args: argparse.Namespace, options: dict[str, argparse.Action]) -> int:
    _check_size(args, args.steps ** 2 * len(args.n_list), "rows")
    if args.c_abs_max < 0.0 or args.d_abs_max < 0.0:
        raise _UsageError("grid ends must be >= 0")
    # -0.0 passes the check; + 0.0 makes it 0.0, so no magnitude cell prints -0.
    c_grid = _grid(args.c_abs_max + 0.0, args.steps, f"--c-abs-max {args.c_abs_max}")
    d_grid = _grid(args.d_abs_max + 0.0, args.steps, f"--d-abs-max {args.d_abs_max}")

    c_unit, d_unit = cmath.exp(1j * args.c_phase), cmath.exp(1j * args.d_phase)
    cs, ds = [c * c_unit for c in c_grid], [d * d_unit for d in d_grid]  # once per axis value

    def state(j: int) -> XParams:  # made only for the scalar chain: small sweeps, drawn rows
        return XParams(args.a, args.b, cs[j // args.steps], ds[j % args.steps])

    def columns(lo: int, hi: int) -> np.ndarray:  # _x_columns of states lo to hi, bit for bit
        import numpy as np
        c_at, d_at = np.divmod(np.arange(lo, hi), args.steps)
        c, d = np.array(cs, complex)[c_at], np.array(ds, complex)[d_at]
        return np.array([np.full(hi - lo, args.a), np.full(hi - lo, args.b),
                         c.real, c.imag, d.real, d.imag])

    return _sweep(args, state, columns, {"c_abs": c_grid, "d_abs": d_grid}, _columnar_measures,
                  _scalar_measures, lambda n, valid, cls, m: [n, valid, cls, *m], _CD_MEASURES,
                  options, [], {})


def _werner_header(args: argparse.Namespace, pairs) -> tuple[list[str], dict]:
    """The CSV comment lines and the JSON entries of the direction pairs and thresholds."""
    directions = [
        {"theta_a": da.theta, "psi_a": da.psi, "theta_b": db.theta, "psi_b": db.psi}
        for da, db in pairs
    ]
    thresholds = [
        {"n": n, "upper": werner_entanglement_threshold(n),
         "lower": werner_entanglement_threshold_lower(n) if n % 2 == 0 else None}
        for n in args.n_list
    ]
    lines = [f"# seed = {args.seed}"]
    lines += [f"# direction_pair {k}: {_text(pair)}" for k, pair in enumerate(directions)]
    for t in thresholds:
        line = f"# threshold n={t['n']}: upper = {_fmt(t['upper'])}"
        if t["lower"] is not None:
            line += f" lower = {_fmt(t['lower'])}"
        lines.append(line)
    return lines, {"directions": directions, "thresholds": thresholds}


def cmd_sweep_werner(args: argparse.Namespace, options: dict[str, argparse.Action]) -> int:
    _check_size(args, (args.steps * len(args.n_list) + 1) * args.num_dirs,
                "I_s values and direction pairs", f" and {args.num_dirs} direction pairs")
    span = args.p_max - args.p_min
    if args.p_max < args.p_min:
        raise _UsageError(f"--p-max {args.p_max} is below --p-min {args.p_min}")
    if not math.isfinite(span):
        raise _UsageError(f"--p-max - --p-min must be finite, got {span}")
    p_values = _grid(span, args.steps, f"--p-max - --p-min = {span}", args.p_min)

    pairs = direction_pairs(args.num_dirs, args.seed)
    coefficients = [_pair_coefficients(da, db) for da, db in pairs]

    def columnar(x: np.ndarray) -> list[list]:
        return [_x_entropies(x)[1].tolist(), *_x_information(x, coefficients).T.tolist()]

    def public(image: XParams) -> tuple:
        i_s = [shannon_report_from_table(tomogram(image, da, db)).i_s for da, db in pairs]
        return (system_entropies(image).i_n, *i_s)

    states = list(map(werner, p_values))
    return _sweep(args, states.__getitem__, lambda lo, hi: _x_columns(states[lo:hi]),
                  {"p": p_values}, columnar, public,
                  lambda n, valid, cls, m: [n, valid, *m, cls],  # the class goes last
                  ["i_n", *(f"i_s_dir{k}" for k in range(args.num_dirs))], options,
                  *_werner_header(args, pairs))


# ---------------------------------------------------------------------------
# tomogram


def _direction(args: argparse.Namespace, q: str) -> Direction:
    theta = getattr(args, f"theta_{q}")
    if not 0.0 <= theta <= math.pi:
        raise _UsageError(f"--theta-{q} must lie in [0, pi], got {theta}")
    return Direction(theta=theta, phi=getattr(args, f"phi_{q}"), psi=getattr(args, f"psi_{q}"))


def cmd_tomogram(args: argparse.Namespace, options: dict[str, argparse.Action]) -> int:
    params = _state(args)
    dir_a = _direction(args, "a")
    dir_b = _direction(args, "b")
    try:
        _pair_coefficients(dir_a, dir_b)
    except InvalidAngleError as exc:
        raise _UsageError(str(exc))

    bad = validate(params)
    if bad is not None:
        print(f"error: not a valid density matrix ({bad.value})", file=sys.stderr)
        return 2
    image = apply_power_channel(params, args.n).params
    bad = validate(image)
    if bad is not None:
        print(f"error: power-map image is not a valid state ({bad.value})", file=sys.stderr)
        return 2

    table = tomogram(image, dir_a, dir_b)
    rep = shannon_report_from_table(table)
    first, second = marginals(table)
    report = {
        "w_uu": table.w_uu, "w_ud": table.w_ud, "w_du": table.w_du, "w_dd": table.w_dd,
        "marginal_a": first, "marginal_b": second,
        "h12": rep.h12, "h1": rep.h1, "h2": rep.h2, "i_s": rep.i_s,
    }
    if args.json:
        report = {"n": args.n, "dir_a": asdict(dir_a), "dir_b": asdict(dir_b), **report}
    _emit([_render(report, args.json)], args.output)
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(f"a command is required ({', '.join(commands)})")
        sub = commands[args.command]
        # What a config file may set: every option but help, --json and --config.
        options = {a.dest: a for a in sub._actions if a.dest not in ("help", "json", "config")}
        if args.config is not None:
            sub.set_defaults(**_load_config(args.config, options))
            args = parser.parse_args(argv)
        # Each option's own checks, in parser order; the handlers check the rest.
        for dest, action in options.items():
            value = getattr(args, dest)
            flag = action.option_strings[0]
            if action.type is float:
                if value is None:
                    raise _UsageError(f"missing required option {flag} (flag or config)")
                if not math.isfinite(value):
                    raise _UsageError(f"{flag} must be finite, got {value}")
            if dest in _AT_LEAST and value < _AT_LEAST[dest]:
                raise _UsageError(f"{flag} must be >= {_AT_LEAST[dest]}, got {value}")
        # A command makes no reference cycles, but a sweep allocates enough rows
        # for the cyclic collector to scan them all again and again; pause it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            return args.handler(args, options)
        except ModuleNotFoundError as exc:
            # Only the sweeps import numpy, before they write anything.
            raise _UsageError(f"{args.command} needs numpy: {exc}")
        finally:
            if enabled:
                gc.enable()
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, ZeroDenominatorError) as exc:
        # x**n overflowing, or Tr rho^n underflowing to zero, in the power map.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
