"""Command-line interface for running sweeps and regenerating figure data.

Subcommands: populations, amplitudes, spectrum, rabi, interferogram run a
configurable sweep; `figure N` (N in 2..7) runs the corresponding built-in
parameter set with the oracle columns enabled; `selftest` exercises the
special-function identities and an analytic-vs-oracle smoke test.

Exit codes: 0 success, 1 numerical failure (selftest or sweep), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .analytic import AmplitudePair, amplitudes
from .errors import ConfigError, DomainError
from .model import AxisSpec, ModelParams
from .oracle import IntegratorConfig, integrate_tdse_batch
from .specfun import kummer_m, tricomi_u, wronskian_residual
from .sweep import FORMATS, SweepConfig, _figure_config, emit, run_sweep

_BASE_DEFAULTS = {"A": 2.0, "alpha": 1.0, "beta": 0.0, "epsilon": 0.2,
                  "Delta": 0.5, "t0": 0.0, "t1": 5.0}


def _parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"axis must be name:start:stop:samples, got {text!r}"
        )
    name, start, stop, samples = parts
    try:
        return AxisSpec(name, float(start), float(stop), int(samples))
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_sweep_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--axis1", type=_parse_axis, help="swept axis, name:start:stop:samples")
    sp.add_argument("--axis2", type=_parse_axis, help="optional second axis")
    for name, default in _BASE_DEFAULTS.items():
        sp.add_argument(f"--{name}", type=float, default=default,
                        help=f"base parameter {name} (default {default})")
    sp.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=False,
                    help="add ODE-oracle columns and a deviation column")
    sp.add_argument("--format", choices=FORMATS, default="csv")
    sp.add_argument("--output", default=None, help="output path (default: stdout)")
    sp.add_argument("--config", default=None,
                    help="JSON sweep config file (overrides the axis, base and oracle flags)")


def _config_from_args(quantity: str, args) -> SweepConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = SweepConfig.from_json_dict(json.load(fh))
        if cfg.quantity != quantity:
            raise ConfigError(
                f"config file selects quantity {cfg.quantity!r} but the "
                f"subcommand is {quantity!r}"
            )
        return cfg
    axes = tuple(ax for ax in (args.axis1, args.axis2) if ax is not None)
    if not axes:
        raise ConfigError("at least --axis1 is required (or use --config)")
    try:
        base = ModelParams(A=args.A, alpha=args.alpha, beta=args.beta,
                           epsilon=args.epsilon, Delta=args.Delta,
                           t0=args.t0, t1=args.t1)
    except DomainError as exc:
        raise ConfigError(f"invalid base parameters: {exc}") from exc
    return SweepConfig(base=base, axes=axes, quantity=quantity, oracle=args.oracle)


def _selftest() -> int:
    failures = []

    def check(name, value, expect, tol):
        err = abs(value - expect)
        ok = err <= tol
        print(f"{'PASS' if ok else 'FAIL'} {name}: |err| = {err:.3e} (tol {tol:.0e})")
        if not ok:
            failures.append(name)

    import math

    check("kummer M(1,2,1) = e - 1", kummer_m(1.0, 2.0, 1.0), math.e - 1.0, 1e-13)
    check(
        "kummer M, complex parameters",
        kummer_m(0.3 + 0.2j, 1.1, 0.5 - 0.4j),
        1.2457725722192147 - 0.0493776037293967j,
        1e-13,
    )
    # integer gamma goes through the offset-averaged path (~1e-8 accuracy)
    check("tricomi U(1,1,1) = e*E1(1)", tricomi_u(1.0, 1.0, 1.0),
          0.5963473623231940743, 1e-6)
    check(
        "tricomi U, complex parameters",
        tricomi_u(0.3 + 0.2j, 1.1, 0.5 - 0.4j),
        0.9950061231940401 + 0.1964986895848441j,
        1e-13,
    )
    check("tricomi reduction U(mu,mu+1,z) = z^-mu",
          tricomi_u(0.7, 1.7, 2.0) * 2.0 ** 0.7, 1.0, 1e-12)
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for _ in range(50):
        mu = complex(rng.uniform(0.2, 1.2), rng.uniform(-0.8, 0.8))
        g = complex(rng.uniform(0.6, 1.8), rng.uniform(-0.8, 0.8))
        z = complex(rng.uniform(-2, 2), rng.uniform(-20, 20))
        if abs(z) < 0.1:
            continue
        worst = max(worst, wronskian_residual(mu, g, z))
    check("wronskian identity, 50-point grid", worst, 0.0, 1e-7)

    # analytic vs oracle smoke test on a small grid
    ds = np.linspace(-2.0, 2.0, 11)
    params = [ModelParams(2.0, 1.0, 0.0, 0.2, float(d), 0.0, 5.0) for d in ds]
    finals = integrate_tdse_batch(params, (0.0, 1.0), 0.0, 5.0,
                                  IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13))
    dev = 0.0
    for q, row in zip(params, finals):
        a = amplitudes(q, AmplitudePair(0.0, 1.0, 0.0), 5.0)
        dev = max(dev, abs(a.c1 - row[0]), abs(a.c2 - row[1]))
    check("closed form vs ODE oracle, 11-point sweep", dev, 0.0, 1e-6)

    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return 1
    print("selftest: all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="exptwolevel",
        description="Exact vs numerical dynamics of the exponential non-Hermitian "
                    "two-level model: parameter sweeps, spectra, Rabi limit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for q in ("populations", "amplitudes", "spectrum", "rabi", "interferogram"):
        sp = sub.add_parser(q, help=f"sweep the {q} quantity over 1 or 2 axes")
        _add_sweep_args(sp)

    fig = sub.add_parser("figure", help="run a built-in figure dataset (2-7)")
    fig.add_argument("number", type=int, choices=(2, 3, 4, 5, 6, 7))
    fig.add_argument("--format", choices=FORMATS, default="csv")
    fig.add_argument("--output", default=None)
    fig.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True)

    sub.add_parser("selftest", help="run built-in identity and oracle checks")

    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            return _selftest()
        if args.command == "figure":
            cfg = _figure_config(args.number, oracle=args.oracle)
        else:
            cfg = _config_from_args(args.command, args)
        ds = run_sweep(cfg)
        emit(ds, args.format, args.output)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
