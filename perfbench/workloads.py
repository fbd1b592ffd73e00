"""The benchmark's workloads.

Each workload makes its inputs from a seed as a list of draws, runs one pass
on one draw through the public exptwolevel API (the pass is what gets timed),
and checks the pass's output against a reference that shares no code with the
closed form: the DP45 oracle, `numpy.linalg.eigvals` of the 2x2 Hamiltonian,
or `scipy.linalg.expm`.  The package is passed in as `xt`, so a pass calls
whatever the tracer has installed on the module.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np
import scipy.linalg

TOL = 1e-6  # criterion 1: componentwise agreement with the DP45 oracle
EXACT_TOL = 1e-9  # eigvals and expm, relative to max(1, |value|)
SPECTRUM_SAMPLE = 200  # seeded rows of each spectrum figure checked against eigvals
ORACLE = {"rel_tol": 1e-11, "abs_tol": 1e-13}  # the sweep's and criterion 1's setting

# The package's built-in figure sweeps, copied so that the benchmark's inputs
# stay fixed and are built from public classes only.  Base (A, alpha, beta,
# epsilon, Delta, t0, t1), axes (name, start, stop, samples), quantity.
FIGURES = {
    2: ((2.0, 1.0, 1.5, 0.0, 0.5, 0.0, 3.0), (("epsilon", -2.0, 2.0, 201),), "populations"),
    3: ((2.0, 1.0, 0.0, 0.2, 0.0, 0.0, 5.0), (("Delta", -2.0, 2.0, 201),), "populations"),
    4: ((2.0, 1.0, 0.0, 0.0, 0.5, 0.0, 5.0), (("epsilon", -2.0, 2.0, 201),), "populations"),
    5: ((1.0, -15.0, 0.0, 0.0, 0.0, 0.0, 7.0),
        (("Delta", -3.0, 3.0, 121), ("epsilon", 0.0, 4.0, 81)), "spectrum"),
    6: ((20.0, 0.5, 0.0, 1.0, 0.0, 0.0, 15.0),
        (("Delta", -3.0, 3.0, 121), ("beta", -60.0, -20.0, 81)), "spectrum"),
    7: ((0.0, 1.0, 0.0, 0.0, 0.2, -1.0, 0.0),
        (("t", 0.0, 10.0, 121), ("epsilon", -2.0, 2.0, 81)), "interferogram"),
}
# t-scan: amplitudes over t (first axis) x Delta at the figure-3 base
T_SCAN = ((2.0, 1.0, 0.0, 0.2, 0.0, 0.0, 5.0), (("t", 0.2, 4.0, 20), ("Delta", -1.5, 1.5, 7)))
# random-box: one common window [0, RANDOM_T]; alpha*t + beta stays in RANDOM_W
RANDOM_T = 1.0
RANDOM_W = (-4.0, 2.0)
RANDOM_POINTS = 200
RANDOM_DRAWS = 4
PARAM_NAMES = ("A", "alpha", "beta", "epsilon", "Delta", "t0", "t1")


class Tally:
    """Row outcomes: a flagged row counts toward fail_share only; an unflagged
    row that misses tolerance counts toward fail_share and silent_wrong_share."""

    def __init__(self):
        self.attempted = 0
        self.flagged = 0
        self.silent_wrong = 0
        self.checked = 0
        self.max_dev = 0.0

    def add(self, flagged: bool, dev: float | None, tol: float = TOL) -> None:
        """One row; dev is its deviation from the reference, None if unchecked."""
        self.attempted += 1
        if flagged:
            self.flagged += 1
            return
        if dev is None:
            return
        self.checked += 1
        if not dev <= tol:  # NaN counts as a miss
            self.silent_wrong += 1
        self.max_dev = max(self.max_dev, dev if dev == dev else math.inf)

    @property
    def failed(self) -> int:
        return self.flagged + self.silent_wrong

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted

    @property
    def silent_wrong_share(self) -> float:
        return self.silent_wrong / self.attempted

    # the complements go on the result line: there they must never be 0
    @property
    def pass_share(self) -> float:
        return 1.0 - self.fail_share

    @property
    def honest_share(self) -> float:
        return 1.0 - self.silent_wrong_share


def axis_values(start: float, stop: float, samples: int) -> list:
    if samples == 1:
        return [start]
    step = (stop - start) / (samples - 1)
    return [start + i * step for i in range(samples)]


def grid(axes) -> list:
    """Row-major grid points as {axis name: value} dicts."""
    points = [{}]
    for name, start, stop, samples in axes:
        points = [dict(p, **{name: v}) for p in points for v in axis_values(start, stop, samples)]
    return points


def read_csv(path: str):
    """Columns and float rows of an emitted CSV dataset."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        columns = next(reader)
        return columns, [[float(v) for v in row] for row in reader]


def rows_digest(path: str) -> str:
    """SHA-256 of an emitted CSV without its provenance header lines."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


def _point_params(base, pt):
    params = dict(zip(PARAM_NAMES, base))
    params.update((k, v) for k, v in pt.items() if k != "t")
    if "t" in pt:
        params["t1"] = pt["t"]
    return params


def _checked_rows(columns, rows, pts, tally: Tally):
    """Yield (index, {column: value}, grid point) for each unflagged row that sits
    on its grid point; tally flagged rows, misplaced rows and missing rows."""
    for i, (values, pt) in enumerate(zip(rows, pts)):
        row = dict(zip(columns, values))
        if row["error"] != 0:
            tally.add(True, None)
        elif any(abs(row[k] - v) > 1e-12 * max(1.0, abs(v)) for k, v in pt.items()):
            tally.add(False, math.inf)
        else:
            yield i, row, pt
    for _ in range(abs(len(pts) - len(rows))):
        tally.add(False, math.inf)


# reference checks, one per quantity ------------------------------------------


def _integrate(xt, params: list, init, t0: float, t1: float) -> np.ndarray:
    cfg = xt.IntegratorConfig(**ORACLE)
    return xt.oracle.integrate_tdse_batch([xt.ModelParams(**p) for p in params],
                                          init, t0, t1, cfg)


def check_populations(xt, fig, columns, rows, tally: Tally, rng) -> None:
    """|c1|^2 and |c2|^2 against the batched oracle."""
    base, axes, _ = fig
    pts = grid(axes)
    ref = _integrate(xt, [_point_params(base, pt) for pt in pts], (0.0, 1.0), base[5], base[6])
    for i, row, pt in _checked_rows(columns, rows, pts, tally):
        c1, c2 = ref[i]
        tally.add(False, max(abs(row["p12_mod2"] - abs(c1) ** 2),
                             abs(row["p22_mod2"] - abs(c2) ** 2)))


def check_amplitudes(xt, fig, columns, rows, tally: Tally, rng) -> None:
    """c1 and c2 against the batched oracle, one batch per end time."""
    base, axes, _ = fig
    pts = grid(axes)
    ref = [None] * len(pts)
    for t in axis_values(*axes[0][1:]):
        idx = [i for i, pt in enumerate(pts) if pt["t"] == t]
        out = _integrate(xt, [_point_params(base, pts[i]) for i in idx], (0.0, 1.0), base[5], t)
        for i, c in zip(idx, out):
            ref[i] = c
    for i, row, pt in _checked_rows(columns, rows, pts, tally):
        c1 = complex(row["re_c1"], row["im_c1"])
        c2 = complex(row["re_c2"], row["im_c2"])
        tally.add(False, max(abs(c1 - ref[i][0]), abs(c2 - ref[i][1])))


def check_spectrum(xt, fig, columns, rows, tally: Tally, rng) -> None:
    """A seeded sample of rows against eigvals of H(t); the rest count unchecked."""
    base, axes, _ = fig
    pts = grid(axes)
    sample = set(rng.choice(len(pts), size=min(SPECTRUM_SAMPLE, len(pts)), replace=False).tolist())
    for i, row, pt in _checked_rows(columns, rows, pts, tally):
        if i not in sample:
            tally.add(False, None)
            continue
        p = _point_params(base, pt)
        t = pt.get("t", p["t1"])
        om = 0.5 * (p["A"] * math.exp(p["alpha"] * t + p["beta"]) + p["epsilon"])
        d = 0.5 * complex(p["epsilon"], p["Delta"])
        lam = np.linalg.eigvals(np.array([[om, d], [d, -om]], dtype=complex))
        ep = complex(row["re_e_plus"], row["im_e_plus"])
        em = complex(row["re_e_minus"], row["im_e_minus"])
        dev = min(max(abs(ep - lam[0]), abs(em - lam[1])),
                  max(abs(ep - lam[1]), abs(em - lam[0])))
        tally.add(False, dev / max(1.0, float(np.max(np.abs(lam)))), EXACT_TOL)


def check_interferogram(xt, fig, columns, rows, tally: Tally, rng) -> None:
    """Every row's oracle survival column against scipy.linalg.expm."""
    base, axes, _ = fig
    pts = grid(axes)
    eps = np.array([pt["epsilon"] for pt in pts])
    t = np.array([pt["t"] for pt in pts])
    d = 0.5 * (eps + 1j * base[4])
    h = np.empty((len(pts), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 0, 1], h[:, 1, 0], h[:, 1, 1] = 0.5 * eps, d, d, -0.5 * eps
    survival = np.abs(scipy.linalg.expm(-1j * h * t[:, None, None])[:, 0, 0]) ** 2
    for i, row, pt in _checked_rows(columns, rows, pts, tally):
        tally.add(False, abs(row["p_mod2_oracle"] - survival[i]), EXACT_TOL)


CHECKS = {
    "populations": check_populations,
    "amplitudes": check_amplitudes,
    "spectrum": check_spectrum,
    "interferogram": check_interferogram,
}


# workloads --------------------------------------------------------------------


class SweepWorkload:
    """Built-in sweeps, each run with `run_sweep` and emitted as CSV to a file."""

    def __init__(self, name, why, sweeps, first_call):
        self.name = name
        self.why = why
        self.sweeps = sweeps  # label -> (base, axes, quantity)
        self.first_call = first_call

    expects_failures = False

    def inputs(self, xt, seed: int, small: bool = False) -> list:
        """One draw: a list of (label, SweepConfig).  small is the warm-up draw:
        the first sweep with every axis shrunk to 3 samples."""
        out = []
        for label, (base, axes, quantity) in list(self.sweeps.items())[:1 if small else None]:
            cfg = xt.SweepConfig(
                base=xt.ModelParams(*base),
                axes=tuple(xt.AxisSpec(n, a, b, min(s, 3) if small else s)
                           for n, a, b, s in axes),
                quantity=quantity,
                oracle=quantity != "spectrum",
            )
            out.append((label, cfg))
        return [out]

    def run(self, xt, inputs, out_dir: str):
        """One pass; returns (rows, {label: emitted path})."""
        rows, paths = 0, {}
        for label, cfg in inputs:
            ds = xt.run_sweep(cfg)
            path = os.path.join(out_dir, f"{self.name}-{label}.csv")
            xt.emit(ds, "csv", path)
            rows += len(ds.rows)
            paths[label] = path
        return rows, paths

    def digests(self, output) -> dict:
        return {label: rows_digest(path) for label, path in output[1].items()}

    def check(self, xt, output, seed: int, tally: Tally) -> None:
        rng = np.random.default_rng(seed)
        for label, path in output[1].items():
            fig = self.sweeps[label]
            columns, rows = read_csv(path)
            CHECKS[fig[2]](xt, fig, columns, rows, tally, rng)


def _latin(rng, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one in each of n equal bins, in random order."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


class RandomBox:
    """Seeded random points through `propagator`, then one batched oracle call.

    A run cycles through RANDOM_DRAWS draws of RANDOM_POINTS points; each draw
    is a Latin hypercube sample of the box, so that draws, and seeds, differ
    little in their mix of specfun regimes.  About a quarter of the rows are
    silently wrong (ROADMAP item 3): the workload reports them, and its runs
    are judged correct when every pass was checked and repeated passes of a
    draw give the same output.
    """

    name = "random-box"
    why = ("seeded points over alpha, A, epsilon, Delta reach every specfun regime "
           "and the slow sweeps where the closed form is silently wrong")
    first_call = ("xt.propagator(xt.ModelParams(2.0, 1.0, 0.0, 0.2, 0.5, 0.0, 1.0), "
                  "0.0, 1.0)")
    expects_failures = True

    def inputs(self, xt, seed: int, small: bool = False) -> list:
        """RANDOM_DRAWS draws of parameter dicts; small is the warm-up draw of 8."""
        if small:
            return [self._draw(np.random.default_rng([seed, 0]), 8)]
        return [self._draw(np.random.default_rng([seed, j]), RANDOM_POINTS)
                for j in range(RANDOM_DRAWS)]

    @staticmethod
    def _draw(rng, n: int) -> list:
        lo, hi = math.log(0.02), math.log(5.0)
        alpha = np.exp(lo + (hi - lo) * _latin(rng, n))
        amp = 0.5 + 2.5 * _latin(rng, n)
        eps = -3.0 + 6.0 * _latin(rng, n)
        delta = -3.0 + 6.0 * _latin(rng, n)
        # beta keeps alpha*t + beta inside RANDOM_W over the whole window
        beta = RANDOM_W[0] + (RANDOM_W[1] - alpha * RANDOM_T - RANDOM_W[0]) * _latin(rng, n)
        return [dict(A=float(a), alpha=float(al), beta=float(b), epsilon=float(e),
                     Delta=float(d), t0=0.0, t1=RANDOM_T)
                for a, al, b, e, d in zip(amp, alpha, beta, eps, delta)]

    def run(self, xt, inputs, out_dir: str):
        """One pass; returns (rows, propagator entries or None where flagged,
        oracle finals)."""
        props = []
        for p in inputs:
            try:
                u = xt.propagator(xt.ModelParams(**p), 0.0, RANDOM_T)
                props.append((u.u11, u.u12, u.u21, u.u22))
            except Exception:  # a flagged row; the pass goes on, as a sweep's does
                props.append(None)
        # columns of U: initial states (1, 0) and (0, 1), integrated as one batch
        n = len(inputs)
        init = np.array([(1.0, 0.0)] * n + [(0.0, 1.0)] * n, dtype=complex)
        cfg = xt.IntegratorConfig(**ORACLE)
        params = [xt.ModelParams(**p) for p in inputs]
        finals = xt.oracle.integrate_tdse_batch(params + params, init, 0.0, RANDOM_T, cfg)
        return n, props, finals

    def digests(self, output) -> dict:
        _, props, finals = output
        h = hashlib.sha256(repr(props).encode())
        h.update(np.ascontiguousarray(finals).tobytes())
        return {"rows": h.hexdigest()}

    def check(self, xt, output, seed: int, tally: Tally) -> None:
        n, props, finals = output
        for i, u in enumerate(props):
            if u is None:
                tally.add(True, None)
                continue
            u11, u12, u21, u22 = u
            col1, col2 = finals[i], finals[n + i]
            tally.add(False, max(abs(u11 - col1[0]), abs(u21 - col1[1]),
                                 abs(u12 - col2[0]), abs(u22 - col2[1])))


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "fig-populations",
            "figures 2-4 with oracle columns: the paper's headline sweeps, "
            "time split between specfun Taylor sums and the batched oracle",
            {f"fig{n}": FIGURES[n] for n in (2, 3, 4)},
            "xt.populations(xt.ModelParams(2.0, 1.0, 0.0, 0.2, 0.0, 0.0, 5.0), 0.0, 5.0)",
        ),
        SweepWorkload(
            "spectral-maps",
            "figures 5-7: no specfun and no DP45; per-point dispatch in the sweep "
            "engine, spectrum, rabi and emit of large CSVs",
            {f"fig{n}": FIGURES[n] for n in (5, 6, 7)},
            "xt.energy_decomposition(xt.ModelParams(1.0, -15.0, 0.0, 0.0, 0.0, 0.0, 7.0), 7.0)",
        ),
        SweepWorkload(
            "t-scan",
            "amplitudes over t x Delta: every row rebuilds the same t0 basis and "
            "the oracle takes its sampled single-trajectory path",
            {"tscan": (T_SCAN[0], T_SCAN[1], "amplitudes")},
            "xt.amplitudes(xt.ModelParams(2.0, 1.0, 0.0, 0.2, 0.0, 0.0, 5.0), "
            "xt.AmplitudePair(0.0, 1.0, 0.0), 5.0)",
        ),
        RandomBox(),
    )
}
