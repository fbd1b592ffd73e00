"""Parameter-sweep execution and dataset serialization.

A sweep evaluates one quantity (populations, amplitudes, spectrum, rabi, or
interferogram) over a 1-D or 2-D uniform grid of model parameters, optionally
alongside an independent oracle, and serializes the result as CSV or JSON
with a full provenance header.

Every quantity is one entry of a table: the axes it may sweep, its value
columns, and the function that evaluates one grid point.  Points run
serially in grid order, each made once into its parameter record.  For
populations and amplitudes the oracle runs once per sweep, as one batch over
every point sampled at each point's end time, and the rows reuse its
records, so datasets are bitwise reproducible; the closed form builds the t0
basis once per parameter set, which a t axis shares.  Each row reads its
columns off the values the routes return: a populations or amplitudes row
off the `AmplitudePair` of each route, a spectrum row off the parts of the
two eigenvalues, and a rabi row off the real part and modulus of the complex
closed form and the oracle's `AmplitudePair`.  The 2-D energy maps of the
paper are `spectrum` sweeps and its Rabi interferogram is an `interferogram`
sweep over (t, epsilon).

Per-point numerical failures do not abort the sweep: the row is emitted with
NaN values and a nonzero error code (1 = domain, 2 = degenerate basis,
3 = accuracy/overflow, 4 = other).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

from . import __version__
from .analytic import AmplitudePair, _prepared_in_lower, _propagator_end, _propagator_start
from .analytic import populations  # noqa: F401  (perfbench's tracer wraps it under this name)
from .errors import AccuracyError, ConfigError, DegeneracyError, DomainError
from .model import METHOD, AxisSpec, IntegratorConfig, ModelParams, json_number
from .rabi import RabiParams, rabi_survival_closed_form, rabi_survival_oracle
from .spectrum import energy_decomposition
from .specfun import ACCURACY_TARGET

FORMATS = ("csv", "json")
_MODEL_AXES = ("A", "alpha", "beta", "epsilon", "Delta", "t")
_RABI_AXES = ("epsilon", "Delta", "t")

_ORACLE_CFG = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)


@dataclass(frozen=True)
class SweepConfig:
    base: ModelParams
    axes: tuple
    quantity: str
    oracle: bool = False

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ConfigError(f"unknown quantity {self.quantity!r}; choose from {tuple(QUANTITIES)}")
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError("sweeps take one or two axes")
        spec = QUANTITIES[self.quantity]
        names = tuple(ax.name for ax in self.axes)
        if len(set(names)) != len(names):
            raise ConfigError("swept axis names must be distinct")
        for n in names:
            if n not in spec.axes:
                raise ConfigError(f"axis {n!r} not sweepable for {self.quantity}; choose from {spec.axes}")
        if spec.exact_axes and names != spec.axes:
            raise ConfigError(f"{self.quantity} needs axes {spec.axes}, in that order")
        if self.oracle and not spec.oracle_columns:
            raise ConfigError(f"{self.quantity} has no oracle columns; run it without the oracle")

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "axes": [asdict(a) for a in self.axes],
            "quantity": self.quantity,
            "oracle": self.oracle,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SweepConfig":
        try:
            # a key this does not read would otherwise be ignored silently
            known = [(d, ("base", "axes", "quantity", "oracle")),
                     (d["base"], [f.name for f in fields(ModelParams)])]
            known += [(a, [f.name for f in fields(AxisSpec)]) for a in d["axes"]]
            unknown = sorted(k for obj, keys in known for k in set(obj) - set(keys))
            if unknown:
                raise TypeError(f"unknown keys {unknown}")
            # JSON types are checked, not coerced: bool("false") is True
            oracle, samples = d.get("oracle", False), [a["samples"] for a in d["axes"]]
            if type(oracle) is not bool or any(type(n) is not int for n in samples):
                raise TypeError(f"need a boolean oracle and integer samples: {oracle!r}, {samples}")
            base, quantity = ModelParams.from_json_dict(d["base"]), d["quantity"]
            axes = tuple(AxisSpec(a["name"], json_number(a["start"]), json_number(a["stop"]), n)
                         for a, n in zip(d["axes"], samples))
        except (KeyError, TypeError, OverflowError) as exc:  # the JSON's shape or types
            raise ConfigError(f"malformed sweep config: {exc}") from exc
        except DomainError as exc:
            raise ConfigError(f"invalid sweep config: {exc}") from exc
        return SweepConfig(base, axes, quantity, oracle)


@dataclass
class Dataset:
    columns: list
    rows: list
    provenance: dict = field(default_factory=dict)


def _error_code(exc: Exception) -> int:
    if isinstance(exc, (DegeneracyError,)):
        return 2
    if isinstance(exc, (DomainError,)):  # PoleError subclasses it; ConfigError is a ValueError
        return 1
    if isinstance(exc, (AccuracyError, OverflowError)):  # ExponentOverflowError subclasses it
        return 3
    return 4


def _point_params(cfg: SweepConfig, quantity: _Quantity, pt: dict):
    """A grid point's record: RabiParams for a Rabi quantity, else
    (ModelParams, t) with t = t1 without a t axis.  DomainError for an invalid
    point, or a quantity propagating from t0 whose time is not past t0."""
    b = cfg.base
    t = float(pt.get("t", b.t1))
    if quantity.point is _rabi_point:
        return RabiParams(pt.get("epsilon", b.epsilon), pt.get("Delta", b.Delta), t)
    q = ModelParams(pt.get("A", b.A), pt.get("alpha", b.alpha), pt.get("beta", b.beta),
                    pt.get("epsilon", b.epsilon), pt.get("Delta", b.Delta), b.t0, b.t1)
    if quantity.propagates and not t > q.t0:
        raise DomainError(f"sample time t = {t} must exceed t0 = {q.t0}")
    return q, t


def _oracle_points(cfg: SweepConfig, quantity: _Quantity, pts: list) -> list:
    """(record, final) for each grid point: the final is the oracle's
    AmplitudePair or the error that flags the row, the DomainError of an
    invalid point (whose record is None) or the AccuracyError of its run.

    Every valid point goes into one batch over the common window, sampled at
    each distinct end time, so a t-axis sweep costs one batched run too.
    """
    records, finals = [None] * len(pts), [None] * len(pts)
    for i, pt in enumerate(pts):
        try:
            records[i] = _point_params(cfg, quantity, pt)
        except DomainError as exc:
            finals[i] = exc
    _batch_finals(cfg, [(i, *rec) for i, rec in enumerate(records) if rec is not None], finals)
    return list(zip(records, finals))


def _batch_finals(cfg: SweepConfig, batch: list, finals: list) -> None:
    """Fill finals[i] for each (i, params, end time) of batch from one run.

    The phase check tests each point over the whole window: a rejected point
    is flagged if its end time closes the window, else rerun over its own,
    and the rest run again as one batch.  A failure once stepping has started
    spoils the shared step, so each point is then rerun alone.
    """
    if not batch:
        return
    from .oracle import integrate_tdse_batch  # numpy loads with the oracle's first run
    times = sorted({t_end for _, _, t_end in batch})
    try:
        samples = integrate_tdse_batch([q for _, q, _ in batch], (0.0, 1.0), cfg.base.t0,
                                       times[-1], _ORACLE_CFG, t_eval=times)
    except AccuracyError as exc:
        if exc.points is None and len(batch) > 1:
            for point in batch:
                _batch_finals(cfg, [point], finals)
            return
        bad = set(range(len(batch)) if exc.points is None else exc.points)
        for k in bad:  # a rerun below overwrites the flag
            finals[batch[k][0]] = exc
        _batch_finals(cfg, [point for k, point in enumerate(batch) if k not in bad], finals)
        _batch_finals(cfg, [point for k, point in enumerate(batch)
                            if k in bad and point[2] < times[-1]], finals)
        return
    for row, (i, _, t_end) in enumerate(batch):
        c1, c2 = samples[times.index(t_end), row]
        finals[i] = AmplitudePair(complex(c1), complex(c2), t_end)


def _propagate(rec, starts) -> AmplitudePair:
    """Closed-form amplitudes at t of the state (0, 1) at t0 for the record
    (ModelParams, t); `starts` holds one propagator start, or the error it
    raised, per ModelParams, which the rows of a t axis share."""
    q, t = rec
    if q not in starts:
        try:
            starts[q] = _propagator_start(q, q.t0)
        except Exception as exc:
            starts[q] = exc
    if isinstance(starts[q], Exception):
        raise starts[q]
    return _prepared_in_lower(_propagator_end(*starts[q], t))


def _populations_point(cfg, rec, final, starts):
    a = _propagate(rec, starts)
    vals = [a.p12_paper, a.p22_paper, a.p12_mod2, a.p22_mod2, a.norm]
    if cfg.oracle:
        dev = max(abs(a.p12_mod2 - final.p12_mod2), abs(a.p22_mod2 - final.p22_mod2))
        vals += [final.p12_mod2, final.p22_mod2, dev]
    return vals


def _amplitudes_point(cfg, rec, final, starts):
    a = _propagate(rec, starts)
    vals = [a.c1.real, a.c1.imag, a.c2.real, a.c2.imag, a.norm]
    if cfg.oracle:
        o1, o2 = final.c1, final.c2
        vals += [o1.real, o1.imag, o2.real, o2.imag, max(abs(a.c1 - o1), abs(a.c2 - o2))]
    return vals


def _spectrum_point(cfg, rec, final, starts):
    d = energy_decomposition(*rec)
    return [d.e_plus.real, d.e_plus.imag, d.e_minus.real, d.e_minus.imag, d.phi, d.z_mag]


def _rabi_point(cfg, r, final, starts):
    # closed-form transfer (both conventions), then the oracle's survival,
    # its transfer and their deviation; an interferogram keeps the survival
    cf = rabi_survival_closed_form(r)
    vals = [cf.real, abs(cf)]
    if cfg.oracle:
        orc = rabi_survival_oracle(r)
        p12 = orc.p12_mod2
        vals += [orc.p22_mod2, p12, abs(vals[1] - p12)]
    return vals


@dataclass(frozen=True)
class _Quantity:
    axes: tuple  # names a sweep may vary
    columns: tuple  # value columns
    oracle_columns: tuple  # appended when the config asks for the oracle
    point: Callable  # (cfg, record, oracle AmplitudePair | None, starts) -> values, maybe more
    propagates: bool = False  # from t0 to t > t0; oracle columns from the batch finals
    exact_axes: bool = False  # the sweep must vary exactly `axes`, in order


QUANTITIES = {
    "populations": _Quantity(
        _MODEL_AXES,
        ("p12_paper", "p22_paper", "p12_mod2", "p22_mod2", "norm"),
        ("oracle_p12_mod2", "oracle_p22_mod2", "deviation"),
        _populations_point,
        propagates=True,
    ),
    "amplitudes": _Quantity(
        _MODEL_AXES,
        ("re_c1", "im_c1", "re_c2", "im_c2", "norm"),
        ("oracle_re_c1", "oracle_im_c1", "oracle_re_c2", "oracle_im_c2", "deviation"),
        _amplitudes_point,
        propagates=True,
    ),
    "spectrum": _Quantity(
        _MODEL_AXES,
        ("re_e_plus", "im_e_plus", "re_e_minus", "im_e_minus", "phi", "z_mag"),
        (),
        _spectrum_point,
    ),
    "rabi": _Quantity(
        _RABI_AXES,
        ("p_real", "p_modulus"),
        ("oracle_p22_mod2", "oracle_p12_mod2", "deviation"),
        _rabi_point,
    ),
    "interferogram": _Quantity(
        ("t", "epsilon"),
        ("p_real", "p_modulus"),
        ("p_mod2_oracle",),
        _rabi_point,
        exact_axes=True,
    ),
}


def run_sweep(cfg: SweepConfig) -> Dataset:
    quantity = QUANTITIES[cfg.quantity]
    names = [ax.name for ax in cfg.axes]
    values = list(quantity.columns) + list(quantity.oracle_columns if cfg.oracle else ())
    pts = [dict(zip(names, v)) for v in itertools.product(*(ax.values() for ax in cfg.axes))]
    batch = _oracle_points(cfg, quantity, pts) if cfg.oracle and quantity.propagates else None
    point, n, rows, starts = quantity.point, len(values), [], {}  # starts: see _propagate
    for i, pt in enumerate(pts):
        try:
            rec, final = batch[i] if batch else (_point_params(cfg, quantity, pt), None)
            if isinstance(final, Exception):
                raise final
            # concatenation sizes each row exactly, where unpacking would over-allocate
            rows.append(list(pt.values()) + point(cfg, rec, final, starts)[:n] + [0])
        except Exception as exc:  # flagged row, sweep continues
            rows.append(list(pt.values()) + [math.nan] * n + [_error_code(exc)])
    provenance = {
        "generator": f"exptwolevel {__version__}",
        "config": cfg.to_json_dict(),
        "integrator": {"method": METHOD, **asdict(_ORACLE_CFG)},
        "specfun_accuracy_target": ACCURACY_TARGET,
    }
    return Dataset(columns=names + values + ["error"], rows=rows, provenance=provenance)


def emit(ds: Dataset, fmt: str, path=None) -> None:
    """Serialize a dataset as CSV or JSON to a path or file object."""
    import json  # here, so that a closed-form-only process never loads it
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    if path is None or hasattr(path, "write"):  # the caller's stream stays open
        out = contextlib.nullcontext(sys.stdout if path is None else path)
    else:
        try:
            out = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write dataset to {path}: {exc}") from exc
    with out as fh:
        if fmt == "csv":
            for key, val in ds.provenance.items():
                fh.write(f"# {key}: {json.dumps(val, sort_keys=True)}\n")
            fh.write(",".join(ds.columns) + "\n")
            line = ",".join(["%.17g"] * len(ds.columns)) + "\n"
            for row in ds.rows:
                fh.write(line % tuple(row))
        else:
            # JSON has no NaN: a flagged row's cells are null
            rows = [[v if math.isfinite(v) else None for v in row] for row in ds.rows]
            json.dump({"provenance": ds.provenance, "columns": ds.columns, "rows": rows},
                      fh, indent=1, allow_nan=False)
            fh.write("\n")


# Built-in figure sweeps: (base, axes, quantity).  Captions fix only some
# constants; the remaining windows and resolutions are package defaults chosen
# for smooth curves.
FIGURES = {
    2: (ModelParams(A=2.0, alpha=1.0, beta=1.5, epsilon=0.0, Delta=0.5, t0=0.0, t1=3.0),
        (AxisSpec("epsilon", -2.0, 2.0, 201),), "populations"),
    3: (ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.2, Delta=0.0, t0=0.0, t1=5.0),
        (AxisSpec("Delta", -2.0, 2.0, 201),), "populations"),
    4: (ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.5, t0=0.0, t1=5.0),
        (AxisSpec("epsilon", -2.0, 2.0, 201),), "populations"),
    5: (ModelParams(A=1.0, alpha=-15.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=0.0, t1=7.0),
        (AxisSpec("Delta", -3.0, 3.0, 121), AxisSpec("epsilon", 0.0, 4.0, 81)), "spectrum"),
    6: (ModelParams(A=20.0, alpha=0.5, beta=0.0, epsilon=1.0, Delta=0.0, t0=0.0, t1=15.0),
        (AxisSpec("Delta", -3.0, 3.0, 121), AxisSpec("beta", -60.0, -20.0, 81)), "spectrum"),
    7: (ModelParams(A=0.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.2, t0=-1.0, t1=0.0),
        (AxisSpec("t", 0.0, 10.0, 121), AxisSpec("epsilon", -2.0, 2.0, 81)), "interferogram"),
}


def _figure_config(n: int, oracle: bool = True) -> SweepConfig:
    if n not in FIGURES:
        raise ConfigError(f"no built-in figure {n}; choose from {tuple(FIGURES)}")
    base, axes, quantity = FIGURES[n]
    return SweepConfig(base, axes, quantity,
                       oracle=oracle and bool(QUANTITIES[quantity].oracle_columns))
