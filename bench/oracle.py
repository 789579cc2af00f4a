"""Independent output oracle for the benchmark, built on ``numpy.linalg``.

Nothing here imports ``xstates``.  Every expected value is recomputed from the
dense 4x4 density matrix: the power map with ``numpy.linalg.matrix_power``,
validity and separability from ``eigvalsh`` of the image and of its partial
transpose, concurrence from Wootters' spin-flip construction, entropies from
eigenvalues and tomograms from a dense SU(2) rotation.

Tolerances.  Measures are printed with 15 significant digits and are of order
one, so they must agree to ``VALUE_TOL`` in absolute terms.  Concurrence takes
square roots of eigenvalues that may sit at zero, which turns rounding of
order 1e-16 into errors of order 1e-8, hence its looser ``CONCURRENCE_TOL``.
A verdict (zero denominator, valid, entangled) whose margin lies within the
rounding of the dense computation is accepted either way.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Validity contract of the package (README): unit trace within 1e-9 and a
# spectrum that is nonnegative within 1e-12; the same 1e-12 guard band
# decides separability and the vanishing of Tr rho^n.
EPS_TRACE = 1e-9
EPS_PSD = 1e-12
EPS_DENOM = 1e-12

VALUE_TOL = 1e-9
CONCURRENCE_TOL = 2e-7
# Width, relative to the largest eigenvalue magnitude, of the band around a
# verdict threshold inside which the dense computation cannot tell the sides.
BAND = 1e-9

CD_COLUMNS = ["c_abs", "d_abs", "n", "valid", "class", "negativity", "concurrence", "s12", "i_n"]

_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# dense linear algebra on stacks of 4x4 matrices


def x_matrices(a, b, c, d) -> np.ndarray:
    """Stack of dense X matrices from parameter arrays (c, d complex)."""
    a, b, c, d = np.broadcast_arrays(
        np.asarray(a, float), np.asarray(b, float), np.asarray(c, complex), np.asarray(d, complex)
    )
    m = np.zeros(a.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = a
    m[..., 1, 1] = m[..., 2, 2] = b
    m[..., 1, 2] = c
    m[..., 2, 1] = np.conj(c)
    m[..., 0, 3] = d
    m[..., 3, 0] = np.conj(d)
    return m


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose over the second qubit: m[(i1,i2),(j1,j2)] -> m[(i1,j2),(j1,i2)]."""
    t = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return np.swapaxes(t, -3, -1).reshape(m.shape)


def reduced_states(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...ikjk->...ij", t), np.einsum("...kikj->...ij", t)


def entropy(weights: np.ndarray) -> np.ndarray:
    """Shannon/von Neumann entropy in nats along the last axis; 0 ln 0 = 0."""
    w = np.clip(weights, 0.0, None)
    safe = np.where(w > 0.0, w, 1.0)
    return -np.sum(w * np.log(safe), axis=-1)


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def su2(theta, phi, psi) -> np.ndarray:
    """SU(2) rotation for Euler angles (theta, phi, psi), stacked."""
    theta, phi, psi = np.broadcast_arrays(np.asarray(theta, float), phi, psi)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    ep = np.exp(0.5j * (phi + psi))
    em = np.exp(0.5j * (phi - psi))
    u = np.empty(theta.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c * ep
    u[..., 0, 1] = s * em
    u[..., 1, 0] = -s * np.conj(em)
    u[..., 1, 1] = c * np.conj(ep)
    return u


def kron2(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Stacked Kronecker products of 2x2 rotations."""
    return np.einsum("...ij,...lm->...iljm", ua, ub).reshape(ua.shape[:-2] + (4, 4))


def tomograms(sigma: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Diagonal of (ua x ub) sigma (ua x ub)^H for every state and pair.

    ``sigma`` is (R, 4, 4), ``ua``/``ub`` are (K, 2, 2); returns (R, K, 4).
    """
    u = kron2(ua, ub)
    return np.einsum("kij,rjl,kil->rki", u, sigma, np.conj(u)).real


def shannon_i_s(w: np.ndarray) -> np.ndarray:
    """Tomographic mutual information from (..., 4) tables ordered uu, ud, du, dd."""
    first = np.stack([w[..., 0] + w[..., 1], w[..., 2] + w[..., 3]], axis=-1)
    second = np.stack([w[..., 0] + w[..., 2], w[..., 1] + w[..., 3]], axis=-1)
    return entropy(first) + entropy(second) - entropy(w)


class Image:
    """Expected image of a stack of states under rho -> rho^n / Tr rho^n."""

    def __init__(self, rho: np.ndarray, n: int):
        lam = np.linalg.eigvalsh(rho)
        power = np.linalg.matrix_power(rho, n)
        tr = np.trace(power, axis1=-2, axis2=-1).real
        scale = np.sum(np.abs(lam) ** n, axis=-1)
        ratio = np.abs(tr) / np.where(scale > 0.0, scale, 1.0)
        self.zero_den = (scale == 0.0) | (ratio < EPS_DENOM)
        self.zero_den_amb = np.abs(ratio - EPS_DENOM) <= 0.1 * EPS_DENOM
        # Relative rounding of the image grows like scale / |Tr rho^n|.
        self.cond = np.where(self.zero_den, np.inf, 1.0 / np.where(ratio > 0.0, ratio, 1.0))
        safe_tr = np.where(self.zero_den, 1.0, tr)
        sigma = _herm(power / safe_tr[..., None, None])
        self.sigma = sigma

        eig = np.linalg.eigvalsh(sigma)
        mag = np.maximum(1.0, np.max(np.abs(eig), axis=-1))
        psd = eig[..., 0] + EPS_PSD
        self.valid = psd >= 0.0
        self.valid_amb = np.abs(psd) <= BAND * mag
        pt = np.linalg.eigvalsh(_herm(partial_transpose(sigma)))
        ppt = pt[..., 0] + EPS_PSD
        self.entangled = ppt < 0.0
        self.entangled_amb = np.abs(ppt) <= BAND * mag
        self.negativity = np.sum(np.abs(pt), axis=-1)
        self.eig = eig

    def concurrence(self) -> np.ndarray:
        w, v = np.linalg.eigh(self.sigma)
        root = np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(np.clip(w, 0.0, None)), np.conj(v))
        flipped = _YY @ np.conj(self.sigma) @ _YY
        r = np.linalg.eigvalsh(_herm(root @ flipped @ root))
        lam = np.sqrt(np.clip(r, 0.0, None))[..., ::-1]
        return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])

    def entropies(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint entropy s12 and quantum mutual information i_n."""
        s12 = entropy(self.eig)
        ra, rb = reduced_states(self.sigma)
        i_n = entropy(np.linalg.eigvalsh(_herm(ra))) + entropy(np.linalg.eigvalsh(_herm(rb))) - s12
        return s12, i_n


def _close(got: np.ndarray, want: np.ndarray, tol: float) -> np.ndarray:
    return np.isfinite(got) & (np.abs(got - want) <= tol)


def _grid(end: float, steps: int) -> np.ndarray:
    return end * np.arange(steps) / (steps - 1)


def _report(bad: np.ndarray, labels, what: str, limit: int = 3) -> list[str]:
    idx = np.flatnonzero(bad)
    return [f"{what}: {labels(i)}" for i in idx[:limit]] + (
        [f"{what}: {len(idx) - limit} more rows"] if len(idx) > limit else []
    )


def _class_ok(printed: np.ndarray, img: Image) -> np.ndarray:
    """Class column of valid rows against the partial-transpose verdict."""
    ent = printed == "entangled"
    sep = printed == "separable"
    return (ent & (img.entangled | img.entangled_amb)) | (sep & (~img.entangled | img.entangled_amb))


def _to_float(text: str) -> float:
    """A printed number, or NaN for an empty or malformed field."""
    try:
        return float(text) if text else np.nan
    except ValueError:
        return np.nan


def _float_column(values) -> np.ndarray:
    return np.array([_to_float(v) for v in values], dtype=float)


# ---------------------------------------------------------------------------
# sweep-cd CSV


def check_cd_csv(text: str, *, a: float, b: float, c_phase: float, d_phase: float,
                 end: float, steps: int, n_list) -> tuple[list[str], dict]:
    """Check a ``sweep-cd`` CSV against the dense oracle.

    Returns (problems, counts); an empty problem list means every row passed.
    """
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        return ["output does not end with a newline"], {}
    lines.pop()
    if not lines or lines[0] != ",".join(CD_COLUMNS):
        return [f"unexpected header {lines[0] if lines else ''!r}"], {}
    body = [line.split(",") for line in lines[1:]]
    expected_rows = steps * steps * len(n_list)
    if len(body) != expected_rows:
        return [f"{len(body)} rows, expected {expected_rows}"], {}
    widths = {len(r) for r in body}
    if widths != {len(CD_COLUMNS)}:
        return [f"rows with {sorted(widths)} columns, expected {len(CD_COLUMNS)}"], {}
    cols = list(zip(*body))
    c_abs, d_abs = _float_column(cols[0]), _float_column(cols[1])
    n_col = np.array(cols[2])
    valid, cls = np.array(cols[3]), np.array(cols[4])
    neg, conc, s12, i_n = (_float_column(cols[k]) for k in range(5, 9))

    grid = _grid(end, steps)
    want_c = np.tile(np.repeat(grid, steps), len(n_list))
    want_d = np.tile(grid, steps * len(n_list))
    want_n = np.repeat([str(n) for n in n_list], steps * steps)
    bad = ~(_close(c_abs, want_c, 1e-12) & _close(d_abs, want_d, 1e-12) & (n_col == want_n))

    rho = x_matrices(a, b, grid[:, None] * np.exp(1j * c_phase), grid[None, :] * np.exp(1j * d_phase))
    rho = rho.reshape(steps * steps, 4, 4)
    block = steps * steps
    counts = {"rows": len(body), "rows_valid": 0, "rows_entangled": 0, "rows_zero_denominator": 0}
    for k, n in enumerate(n_list):
        rows = np.arange(k * block, (k + 1) * block)
        img = Image(rho, n)
        is_valid = valid[rows] == "true"
        is_false = valid[rows] == "false"
        blank = (cls[rows] == "")
        measures_blank = np.isnan(neg[rows]) & np.isnan(conc[rows]) & np.isnan(s12[rows]) & np.isnan(i_n[rows])
        # zero denominator: valid=false and every derived column empty
        zero_ok = img.zero_den | img.zero_den_amb
        row_ok = is_false & blank & measures_blank & zero_ok
        # invalid image: class names the failure, measures empty
        nonzero = ~img.zero_den | img.zero_den_amb
        invalid_ok = (~img.valid | img.valid_amb) & nonzero
        trace_reach = img.cond * 1e-15 > 0.1 * EPS_TRACE
        row_ok |= is_false & measures_blank & invalid_ok & (
            (cls[rows] == "invalid_not_psd") | ((cls[rows] == "invalid_trace") & trace_reach)
        )
        # valid image: class and every measure against the dense matrix
        valid_ok = (img.valid | img.valid_amb) & nonzero
        conc_want = img.concurrence()
        s12_want, i_n_want = img.entropies()
        row_ok |= (
            is_valid
            & valid_ok
            & _class_ok(cls[rows], img)
            & _close(neg[rows], img.negativity, VALUE_TOL)
            & _close(conc[rows], conc_want, CONCURRENCE_TOL)
            & _close(s12[rows], s12_want, VALUE_TOL)
            & _close(i_n[rows], i_n_want, VALUE_TOL)
        )
        bad[rows] |= ~row_ok
        counts["rows_valid"] += int(np.sum(is_valid))
        counts["rows_entangled"] += int(np.sum(is_valid & (cls[rows] == "entangled")))
        counts["rows_zero_denominator"] += int(np.sum(is_false & blank))
    problems = _report(bad, lambda i: f"row {i + 1}: {lines[i + 1]}", "mismatch")
    return problems, counts


# ---------------------------------------------------------------------------
# sweep-werner JSON


_KRONECKER_ALPHAS = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(5.0) - 2.0, math.sqrt(7.0) - 2.0)


def expected_directions(count: int, seed: int) -> np.ndarray:
    """Documented direction sampling: Kronecker half, then a seeded PRNG tail.

    Returns (count, 4) rows of (theta_a, psi_a, theta_b, psi_b).
    """
    cube = []
    for k in range(1, (count + 1) // 2 + 1):
        cube.append([math.modf(k * alpha)[0] for alpha in _KRONECKER_ALPHAS])
    rng = np.random.default_rng(seed)
    while len(cube) < count:
        cube.append(list(rng.uniform(0.0, 1.0, size=4)))
    x = np.array(cube)
    return np.stack(
        [np.arccos(1.0 - 2.0 * x[:, 0]), 2.0 * np.pi * x[:, 2], np.arccos(1.0 - 2.0 * x[:, 1]), 2.0 * np.pi * x[:, 3]],
        axis=1,
    )


def werner_matrices(p: np.ndarray) -> np.ndarray:
    return x_matrices((1.0 + p) / 4.0, (1.0 - p) / 4.0, 0.0, p / 2.0)


def _werner_threshold_problems(thresholds, n_list) -> list[str]:
    problems = []
    if [t.get("n") for t in thresholds] != list(n_list):
        return [f"thresholds list powers {[t.get('n') for t in thresholds]}"]
    for t in thresholds:
        n = t["n"]
        expected_keys = ["upper", "lower"] if n % 2 == 0 else ["upper"]
        if n % 2 and t.get("lower") is not None:
            problems.append(f"threshold n={n}: odd power has a lower threshold")
        for key in expected_keys:
            p = t.get(key)
            if not isinstance(p, float):
                problems.append(f"threshold n={n} {key}: {p!r}")
                continue
            # At the threshold the image's partial transpose is singular.
            img = Image(werner_matrices(np.array([p])), n)
            pt_min = np.linalg.eigvalsh(_herm(partial_transpose(img.sigma)))[0, 0]
            if abs(pt_min) > 1e-9:
                problems.append(f"threshold n={n} {key}={p}: partial-transpose minimum {pt_min:.3g}")
    return problems


def check_werner_json(text: str, *, p_min: float, p_max: float, steps: int, n_list,
                      num_dirs: int, seed: int) -> tuple[list[str], dict]:
    """Check a ``sweep-werner --json`` document against the dense oracle."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], {}
    if not isinstance(doc, dict):
        return ["output is not a JSON object"], {}
    want_config = {"p_min": p_min, "p_max": p_max, "steps": steps, "n_list": list(n_list),
                   "num_dirs": num_dirs, "seed": seed}
    if doc.get("config") != want_config:
        return [f"config {doc.get('config')} != {want_config}"], {}
    columns = ["p", "n", "valid", "i_n"] + [f"i_s_dir{k}" for k in range(num_dirs)] + ["class"]
    if doc.get("columns") != columns:
        return ["unexpected columns"], {}
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != steps * len(n_list):
        return [f"{len(rows) if isinstance(rows, list) else rows!r} rows, expected {steps * len(n_list)}"], {}
    if {len(r) for r in rows} != {len(columns)}:
        return ["rows with the wrong number of columns"], {}
    problems = _werner_threshold_problems(doc.get("thresholds") or [], n_list)

    dirs = doc.get("directions") or []
    try:
        got_dirs = np.array([[d["theta_a"], d["psi_a"], d["theta_b"], d["psi_b"]] for d in dirs], dtype=float)
    except (KeyError, TypeError, ValueError):
        return problems + ["malformed directions"], {}
    if got_dirs.shape != (num_dirs, 4) or not np.allclose(got_dirs, expected_directions(num_dirs, seed),
                                                          rtol=1e-12, atol=1e-12):
        return problems + ["direction pairs differ from the documented sampling"], {}
    ua = su2(got_dirs[:, 0], 0.0, got_dirs[:, 1])
    ub = su2(got_dirs[:, 2], 0.0, got_dirs[:, 3])

    p_col = np.array([r[0] if isinstance(r[0], float) else np.nan for r in rows], dtype=float)
    n_col = np.array([r[1] if type(r[1]) is int else -1 for r in rows])
    valid = [r[2] for r in rows]
    cls = np.array([r[-1] if isinstance(r[-1], str) else "" for r in rows])
    nums = np.array([[x if isinstance(x, float) else np.nan for x in r[3:-1]] for r in rows], dtype=float)

    grid = p_min + (p_max - p_min) * np.arange(steps) / (steps - 1)
    bad = ~(_close(p_col, np.tile(grid, len(n_list)), 1e-12) & (n_col == np.repeat(list(n_list), steps)))
    rho = werner_matrices(grid)
    counts = {"rows": len(rows), "rows_valid": 0, "rows_entangled": 0, "rows_zero_denominator": 0}
    for k, n in enumerate(n_list):
        idx = np.arange(k * steps, (k + 1) * steps)
        img = Image(rho, n)
        is_valid = np.array([valid[i] is True for i in idx])
        is_false = np.array([valid[i] is False for i in idx])
        blank = np.all(np.isnan(nums[idx]), axis=1)
        zero = is_false & blank & np.array([rows[i][-1] is None for i in idx])
        row_ok = zero & (img.zero_den | img.zero_den_amb)
        nonzero = ~img.zero_den | img.zero_den_amb
        row_ok |= is_false & blank & (~img.valid | img.valid_amb) & nonzero & (cls[idx] == "invalid_not_psd")
        _, i_n_want = img.entropies()
        i_s_want = shannon_i_s(tomograms(img.sigma, ua, ub))
        row_ok |= (
            is_valid
            & (img.valid | img.valid_amb)
            & nonzero
            & _class_ok(cls[idx], img)
            & _close(nums[idx, 0], i_n_want, VALUE_TOL)
            & np.all(_close(nums[idx, 1:], i_s_want, VALUE_TOL), axis=1)
        )
        bad[idx] |= ~row_ok
        counts["rows_valid"] += int(np.sum(is_valid))
        counts["rows_entangled"] += int(np.sum(is_valid & (cls[idx] == "entangled")))
        counts["rows_zero_denominator"] += int(np.sum(zero))
    problems += _report(bad, lambda i: f"row {i}: {rows[i][:4]}... class {rows[i][-1]!r}", "mismatch")
    return problems, counts


# ---------------------------------------------------------------------------
# scalar chain


SCALAR_CLASSES = ("separable", "entangled")
SCALAR_ERROR = -1


def check_scalar(inputs: dict, results: dict) -> np.ndarray:
    """Per-state pass/fail of the scalar chain; returns a boolean array.

    ``inputs`` holds arrays a, b, c, d (complex), n and pair (index into
    the direction arrays theta_a, psi_a, theta_b, psi_b).  ``results`` holds
    cls (index into SCALAR_CLASSES, or SCALAR_ERROR) and values with
    columns negativity, concurrence, s12, i_n, i_s.
    """
    n_all = inputs["n"]
    ok = np.zeros(len(n_all), dtype=bool)
    rho_all = x_matrices(inputs["a"], inputs["b"], inputs["c"], inputs["d"])
    ua_all = su2(inputs["theta_a"], 0.0, inputs["psi_a"])
    ub_all = su2(inputs["theta_b"], 0.0, inputs["psi_b"])
    cls, vals = results["cls"], results["values"]
    for n in np.unique(n_all):
        idx = np.flatnonzero(n_all == n)
        img = Image(rho_all[idx], int(n))
        s12, i_n = img.entropies()
        pair = inputs["pair"][idx]
        u = kron2(ua_all[pair], ub_all[pair])
        table = np.einsum("rij,rjl,ril->ri", u, img.sigma, np.conj(u)).real
        i_s = shannon_i_s(table)
        printed = np.where(cls[idx] >= 0, np.array(SCALAR_CLASSES)[np.clip(cls[idx], 0, 1)], "error")
        v = vals[idx]
        ok[idx] = (
            ~img.zero_den
            & (img.valid | img.valid_amb)
            & _class_ok(printed, img)
            & _close(v[:, 0], img.negativity, VALUE_TOL)
            & _close(v[:, 1], img.concurrence(), CONCURRENCE_TOL)
            & _close(v[:, 2], s12, VALUE_TOL)
            & _close(v[:, 3], i_n, VALUE_TOL)
            & _close(v[:, 4], i_s, VALUE_TOL)
        )
    return ok
