"""Sweep engine and serialization: delegation, determinism, thread safety,
error flagging, formats, and the CLI."""

import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import exptwolevel.analytic as analytic
import exptwolevel.cli as cli
import exptwolevel.oracle as oracle
from exptwolevel.analytic import AmplitudePair, populations
from exptwolevel.cli import main as cli_main
from exptwolevel.errors import (
    AccuracyError,
    ConfigError,
    DegeneracyError,
    ExponentOverflowError,
)
from exptwolevel.model import AxisSpec, ModelParams
from exptwolevel.spectrum import energy_decomposition
import exptwolevel.sweep as sweep
from exptwolevel.sweep import (
    Dataset,
    SweepConfig,
    emit,
    run_sweep,
)

BASE = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.2, Delta=0.5, t0=0.0, t1=5.0)
# gamma = -1e-10 sits next to M's pole: the basis determinant at t0 misses its
# closed form by a residual of ~9e-8
BAD_START = ModelParams(2.0, 1.0, 0.0, 0.0, 1.0 + 1e-10, 0.0, 1.0)


def small_cfg(**kw):
    defaults = dict(
        base=BASE,
        axes=(AxisSpec("Delta", -1.0, 1.0, 5),),
        quantity="populations",
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


def edited_config(tmp_path, where, key, value) -> str:
    """Path of small_cfg's JSON with obj[key] = value, obj reached by the keys in where."""
    d = small_cfg().to_json_dict()
    obj = d
    for k in where:
        obj = obj[k]
    obj[key] = value
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(d))
    return str(cfgfile)


class TestConfig:
    def test_bad_quantity(self):
        with pytest.raises(ConfigError):
            small_cfg(quantity="nonsense")

    def test_duplicate_axes(self):
        with pytest.raises(ConfigError):
            small_cfg(axes=(AxisSpec("Delta", 0, 1, 2), AxisSpec("Delta", 0, 1, 2)))

    def test_bad_axis_for_rabi(self):
        with pytest.raises(ConfigError):
            small_cfg(quantity="rabi", axes=(AxisSpec("A", 0, 1, 2),))

    def test_interferogram_axis_order(self):
        with pytest.raises(ConfigError):
            small_cfg(
                quantity="interferogram",
                axes=(AxisSpec("epsilon", 0, 1, 2), AxisSpec("t", 0, 1, 2)),
            )

    @pytest.mark.parametrize(
        "call",
        [lambda: small_cfg(axes=(AxisSpec("t", 1.0, 2.0, 2), AxisSpec("Delta", 0.0, 1.0, 2),
                                 AxisSpec("A", 1.0, 2.0, 2))),
         lambda: emit(Dataset(columns=["a"], rows=[]), "xml", io.StringIO()),
         lambda: sweep._figure_config(8),
         # a spectrum has no oracle columns: the flag would change only the header
         lambda: small_cfg(quantity="spectrum", oracle=True)],
        ids=["three-axes", "emit-format", "figure-number", "spectrum-oracle"],
    )
    def test_rejected_with_config_error(self, call):
        with pytest.raises(ConfigError):
            call()

    def test_json_round_trip(self):
        cfg = small_cfg(oracle=True)
        again = SweepConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg


class TestDelegation:
    def test_single_point_matches_populations(self):
        cfg = small_cfg(axes=(AxisSpec("Delta", 0.5, 0.5, 1),))
        ds = run_sweep(cfg)
        assert len(ds.rows) == 1
        rec = populations(BASE, 0.0, 5.0)
        row = dict(zip(ds.columns, ds.rows[0]))
        assert row["p22_mod2"] == rec.p22_mod2
        assert row["p12_mod2"] == rec.p12_mod2
        assert row["error"] == 0

    def test_spectrum_rows_match_decomposition(self):
        cfg = small_cfg(
            quantity="spectrum",
            axes=(AxisSpec("Delta", -1.0, 1.0, 3), AxisSpec("epsilon", 0.0, 2.0, 3)),
        )
        ds = run_sweep(cfg)
        assert len(ds.rows) == 9
        for row in ds.rows:
            rec = dict(zip(ds.columns, row))
            q = ModelParams(2.0, 1.0, 0.0, rec["epsilon"], rec["Delta"], 0.0, 5.0)
            d = energy_decomposition(q, 5.0)
            assert rec["re_e_plus"] == d.e_plus.real
            assert rec["im_e_plus"] == d.e_plus.imag

    def test_oracle_deviation_small(self):
        cfg = small_cfg(oracle=True)
        ds = run_sweep(cfg)
        dev = ds.columns.index("deviation")
        assert max(r[dev] for r in ds.rows) < 1e-6

    @pytest.mark.parametrize(
        "quantity, axes",
        [
            ("populations", (AxisSpec("t", 1.0, 4.0, 7),)),
            # points differing in end time and Delta share one oracle batch
            ("amplitudes", (AxisSpec("t", 1.0, 4.0, 7), AxisSpec("Delta", -1.0, 1.0, 3))),
        ],
        ids=["populations", "amplitudes-2d"],
    )
    def test_time_axis_sweep(self, quantity, axes, monkeypatch):
        batches = []
        batch = oracle.integrate_tdse_batch
        monkeypatch.setattr(oracle, "integrate_tdse_batch",
                            lambda *a, **k: batches.append(1) or batch(*a, **k))
        ds = run_sweep(small_cfg(quantity=quantity, axes=axes, oracle=True))
        assert len(ds.rows) == 7 * (3 if len(axes) == 2 else 1)
        assert len(batches) == 1
        dev = ds.columns.index("deviation")
        assert max(r[dev] for r in ds.rows) < 1e-6

    def test_rabi_oracle_deviation_small(self):
        # the closed form is the transfer probability, so the deviation is
        # taken against the oracle's transfer column, t = 0 included
        base = ModelParams(A=2.0, alpha=1.0, beta=0.0, epsilon=0.2, Delta=0.2, t0=0.0, t1=5.0)
        cfg = small_cfg(
            base=base,
            quantity="rabi",
            axes=(AxisSpec("t", 0.0, 6.0, 7), AxisSpec("epsilon", -1.5, 1.5, 7)),
            oracle=True,
        )
        ds = run_sweep(cfg)
        assert len(ds.rows) == 49
        assert all(r[-1] == 0 for r in ds.rows)
        dev = ds.columns.index("deviation")
        assert max(r[dev] for r in ds.rows) < 1e-10

    def test_error_rows_flagged_not_fatal(self):
        # t <= t0 at the low end of the axis: flagged, rest of sweep intact
        cfg = small_cfg(axes=(AxisSpec("t", -1.0, 4.0, 6),))
        ds = run_sweep(cfg)
        codes = [r[-1] for r in ds.rows]
        assert codes[0] != 0
        assert codes[-1] == 0
        assert math.isnan(ds.rows[0][ds.columns.index("p22_mod2")])

    def test_spectrum_takes_any_time(self):
        # the spectrum is instantaneous, so times at or before t0 are evaluated;
        # populations and amplitudes propagate from t0 and flag them (code 1)
        axes = (AxisSpec("t", -1.0, 1.0, 3),)
        ds = run_sweep(small_cfg(quantity="spectrum", axes=axes))
        for row in ds.rows:
            rec = dict(zip(ds.columns, row))
            d = energy_decomposition(BASE, rec["t"])
            assert rec["error"] == 0
            assert [rec["re_e_plus"], rec["im_e_plus"], rec["re_e_minus"], rec["im_e_minus"],
                    rec["phi"], rec["z_mag"]] == [d.e_plus.real, d.e_plus.imag, d.e_minus.real,
                                                  d.e_minus.imag, d.phi, d.z_mag]
        for quantity in ("populations", "amplitudes"):
            ds = run_sweep(small_cfg(quantity=quantity, axes=axes))
            assert [r[-1] for r in ds.rows] == [1, 1, 0]
            # the oracle batch skips those rows and integrates the last one
            ds = run_sweep(small_cfg(quantity=quantity, axes=axes, oracle=True))
            assert [r[-1] for r in ds.rows] == [1, 1, 0]
            assert ds.rows[-1][ds.columns.index("deviation")] < 1e-6

    @pytest.mark.parametrize("quantity", ["populations", "amplitudes"])
    def test_oracle_sweep_without_valid_rows(self, quantity, monkeypatch):
        # every t <= t0: each row is flagged (code 1) and the oracle never runs
        batches = []
        monkeypatch.setattr(oracle, "integrate_tdse_batch", lambda *a, **k: batches.append(1))
        ds = run_sweep(small_cfg(quantity=quantity, axes=(AxisSpec("t", -1.0, 0.0, 3),),
                                 oracle=True))
        assert [r[-1] for r in ds.rows] == [1, 1, 1]
        assert batches == []

    def test_failed_start_flags_every_row(self):
        # one t0 basis serves the whole t axis, and its failed check flags each row
        ds = run_sweep(small_cfg(base=BAD_START, axes=(AxisSpec("t", 0.25, 1.0, 4),)))
        assert [r[-1] for r in ds.rows] == [3, 3, 3, 3]

    def test_untyped_point_error_is_code_4(self, monkeypatch):
        # an error of no typed kind flags its row as "other", and the sweep goes on
        def failing(*args):
            raise RuntimeError("untyped")

        monkeypatch.setattr(sweep, "energy_decomposition", failing)
        ds = run_sweep(small_cfg(quantity="spectrum"))
        assert [r[-1] for r in ds.rows] == [4] * 5
        assert all(math.isnan(v) for r in ds.rows for v in r[1:-1])

    @pytest.mark.parametrize(
        "base, error, code",
        # zero coupling: the detuning integral overflows and exp(i * inf) is NaN
        [(ModelParams(1e300, 1e-3, 600.0, 0.0, 0.0, 0.0, 1.0), ExponentOverflowError, 3),
         # (Delta / alpha)^2 underflows: mu1 = mu2, and the determinant vanishes
         (ModelParams(2.0, 1.0, 0.0, 0.0, 1e-200, 0.0, 1.0), DegeneracyError, 2)],
        ids=["gauge-phase-overflow", "vanishing-determinant"],
    )
    def test_propagator_error_flags_its_rows(self, base, error, code):
        with pytest.raises(error):
            analytic.propagator(base, 0.0, 1.0)
        ds = run_sweep(small_cfg(base=base, axes=(AxisSpec("t", 0.5, 1.0, 2),)))
        assert [r[-1] for r in ds.rows] == [code, code]

    @pytest.mark.parametrize(
        "base",
        # U's asymptotic prefactor (b x)^-mu at |b x| ~ 1e303, and the
        # (epsilon / alpha)^2 and (Delta / alpha)^2 of derived_params: each
        # names its exponent
        [ModelParams(1e300, 1e-3, 0.0, 0.1, 0.2, 0.0, 20000.0),
         ModelParams(1.0, 1.0, 0.0, 1e308, 0.0, 0.0, 10.0),
         ModelParams(1.0, 1.0, 0.0, 0.0, 1e308, 0.0, 10.0)],
        ids=["tricomi-prefactor", "squared-coupling-ratio", "squared-detuning-ratio"],
    )
    def test_overflow_is_typed(self, base):
        with pytest.raises(ExponentOverflowError):
            analytic.propagator(base, base.t0, base.t1)
        ds = run_sweep(small_cfg(base=base, axes=(AxisSpec("t", base.t1, base.t1, 1),)))
        assert [r[-1] for r in ds.rows] == [3]

    def test_start_built_once_per_parameter_set(self, monkeypatch):
        # the points of a t axis share one propagator start, a raised one too
        built = []

        def failing_start(p, t0):
            built.append(p)
            raise DegeneracyError("start fails")

        monkeypatch.setattr(sweep, "_propagator_start", failing_start)
        axes = (AxisSpec("t", 1.0, 4.0, 4), AxisSpec("Delta", -1.0, 1.0, 2))
        ds = run_sweep(small_cfg(quantity="amplitudes", axes=axes))
        assert [r[-1] for r in ds.rows] == [2] * 8
        assert len(built) == 2

    def test_failed_start_builds_one_basis(self, monkeypatch):
        # the start checks its own basis, so a failed check builds no basis at t
        built = []
        basis = analytic.basis_solutions

        def counted(d, x):
            built.append(x)
            return basis(d, x)

        monkeypatch.setattr(analytic, "basis_solutions", counted)
        run_sweep(small_cfg(base=BAD_START, axes=(AxisSpec("t", 0.25, 1.0, 4),)))
        assert len(built) == 1

    def test_oracle_failure_flags_only_its_row(self, tmp_path):
        # at beta = 400 the oracle's phase is not resolvable: the phase check names
        # that point, the batch runs again without it, and only its row is flagged (code 3)
        out = tmp_path / "o.json"
        rc = cli_main(["populations", "--axis1", "beta:0:400:2", "--oracle",
                       "--format", "json", "--output", str(out)])
        assert rc == 0
        ds = json.loads(out.read_text())
        assert [r[-1] for r in ds["rows"]] == [0, 3]
        assert ds["rows"][0][ds["columns"].index("deviation")] < 1e-6

    def test_unresolvable_oracle_point_fails_fast(self):
        # figure 3 with beta in {-400, 0, 400}: at beta = 400 the oracle's phase
        # (~1e176 rad) fails its batch before the first step, and the other rows
        # equal the sweep without that point
        base = sweep.FIGURES[3][0]
        start = time.monotonic()
        ds = run_sweep(SweepConfig(base, (AxisSpec("beta", -400.0, 400.0, 3),), "populations",
                                   oracle=True))
        assert time.monotonic() - start < 5.0
        assert [r[-1] for r in ds.rows] == [0, 0, 3]
        rest = SweepConfig(base, (AxisSpec("beta", -400.0, 0.0, 2),), "populations", oracle=True)
        assert run_sweep(rest).rows == ds.rows[:2]

    def test_rejected_points_leave_one_batch(self, monkeypatch):
        # figure 3 over beta in {0, 400} x Delta: the phase check rejects the 51
        # beta = 400 points, and the other 51 run as one batch, not one by one
        batches = []
        batch = oracle.integrate_tdse_batch
        monkeypatch.setattr(oracle, "integrate_tdse_batch",
                            lambda *a, **k: batches.append(1) or batch(*a, **k))
        base, (delta,), _ = sweep.FIGURES[3]
        delta = AxisSpec("Delta", delta.start, delta.stop, 51)
        ds = run_sweep(SweepConfig(base, (AxisSpec("beta", 0.0, 400.0, 2), delta), "populations",
                                   oracle=True))
        assert len(batches) <= 2
        assert [r[-1] for r in ds.rows] == [0] * 51 + [3] * 51
        alone = SweepConfig(base, (AxisSpec("beta", 0.0, 0.0, 1), delta), "populations",
                            oracle=True)
        assert run_sweep(alone).rows == ds.rows[:51]

    def test_rejected_point_before_window_end_is_rerun(self, monkeypatch):
        # the phase check tests every point at the window end, the latest t of
        # the batch: a t axis shares its ModelParams, so the check rejects each
        # row, but only a row whose own phase is unresolvable (t > 10.7) is
        # flagged, and the others run again over their own shorter window
        batches = []
        batch = oracle.integrate_tdse_batch
        monkeypatch.setattr(oracle, "integrate_tdse_batch",
                            lambda *a, **k: batches.append(1) or batch(*a, **k))
        alone = run_sweep(small_cfg(axes=(AxisSpec("t", 5.0, 5.0, 1),), oracle=True))
        for axis, codes in ((AxisSpec("t", 5.0, 12.0, 2), [0, 3]),
                            (AxisSpec("t", 5.0, 17.0, 3), [0, 3, 3])):
            batches.clear()
            ds = run_sweep(small_cfg(axes=(axis,), oracle=True))
            assert [r[-1] for r in ds.rows] == codes
            assert len(batches) == len(codes)
            assert ds.rows[:1] == alone.rows

    def test_failure_while_stepping_reruns_each_point(self, monkeypatch):
        # an AccuracyError raised once stepping has started names no point, so
        # each point is rerun alone and only the one that fails again is flagged
        batches = []
        batch = oracle.integrate_tdse_batch

        def fails_at_delta_one(params, *args, **kwargs):
            batches.append(len(params))
            if any(q.Delta == 1.0 for q in params):
                raise AccuracyError("step size underflow")
            return batch(params, *args, **kwargs)

        monkeypatch.setattr(oracle, "integrate_tdse_batch", fails_at_delta_one)
        ds = run_sweep(small_cfg(axes=(AxisSpec("Delta", -1.0, 1.0, 3),), oracle=True))
        assert [r[-1] for r in ds.rows] == [0, 0, 3]
        assert batches == [3, 1, 1, 1]
        for row in ds.rows[:2]:
            alone = small_cfg(axes=(AxisSpec("Delta", row[0], row[0], 1),), oracle=True)
            assert run_sweep(alone).rows == [row]

    @pytest.mark.parametrize("quantity", ["rabi", "interferogram"])
    def test_rabi_degenerate_rows_flagged(self, quantity):
        # eps = Delta = 0 makes the Rabi frequency degenerate: those rows are
        # flagged with code 2 and the rest of the grid is evaluated
        base = ModelParams(A=0.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=0.0, t0=-1.0, t1=0.0)
        cfg = small_cfg(
            base=base,
            quantity=quantity,
            axes=(AxisSpec("t", 0.0, 1.0, 2), AxisSpec("epsilon", -1.0, 1.0, 3)),
        )
        ds = run_sweep(cfg)
        assert [r[-1] for r in ds.rows] == [0, 2, 0, 0, 2, 0]
        assert math.isnan(ds.rows[1][ds.columns.index("p_modulus")])

    @pytest.mark.parametrize("oracle", [False, True], ids=["closed-form", "oracle"])
    def test_rabi_overflow_row_is_typed(self, oracle):
        # at t = 1000 the Rabi angle is 2500i: both routes raise
        # ExponentOverflowError, and its row is flagged with code 3
        base = ModelParams(A=0.0, alpha=1.0, beta=0.0, epsilon=0.0, Delta=5.0, t0=-1.0, t1=0.0)
        ds = run_sweep(small_cfg(base=base, quantity="rabi", oracle=oracle,
                                 axes=(AxisSpec("t", 1.0, 1000.0, 2),)))
        assert [r[-1] for r in ds.rows] == [0, 3]

    def test_alpha_axis_flags_alpha_zero_spectrum(self):
        # alpha = 0 is no ModelParams: only its row is flagged (code 1), and each
        # other row is the decomposition at its own alpha
        ds = run_sweep(small_cfg(quantity="spectrum", axes=(AxisSpec("alpha", -1.0, 1.0, 5),)))
        assert [r[-1] for r in ds.rows] == [0, 0, 1, 0, 0]
        for row in ds.rows[:2] + ds.rows[3:]:
            d = energy_decomposition(replace(BASE, alpha=row[0]), BASE.t1)
            assert row[1:-1] == [d.e_plus.real, d.e_plus.imag, d.e_minus.real, d.e_minus.imag,
                                 d.phi, d.z_mag]

    def test_alpha_axis_flags_alpha_zero_oracle(self):
        # the alpha = 0 row is flagged (code 1) and left out of the oracle batch;
        # the other rows are the closed form at their alpha next to one batch of
        # the four valid points
        ds = run_sweep(small_cfg(oracle=True, axes=(AxisSpec("alpha", -1.0, 1.0, 5),)))
        assert [r[-1] for r in ds.rows] == [0, 0, 1, 0, 0]
        assert all(math.isnan(v) for v in ds.rows[2][1:-1])
        rows = ds.rows[:2] + ds.rows[3:]
        params = [replace(BASE, alpha=row[0]) for row in rows]
        finals = oracle.integrate_tdse_batch(params, (0.0, 1.0), BASE.t0, BASE.t1,
                                             sweep._ORACLE_CFG, t_eval=[BASE.t1])[0]
        for row, q, (o1, o2) in zip(rows, params, finals):
            a = populations(q, q.t0, q.t1)
            o12, o22 = abs(complex(o1)) ** 2, abs(complex(o2)) ** 2
            dev = max(abs(a.p12_mod2 - o12), abs(a.p22_mod2 - o22))
            assert row[1:-1] == [a.p12_paper, a.p22_paper, a.p12_mod2, a.p22_mod2, a.norm,
                                 o12, o22, dev]


class TestDeterminism:
    def test_repeat_runs_bitwise_identical(self):
        a = run_sweep(small_cfg(oracle=True))
        b = run_sweep(small_cfg(oracle=True))
        assert a.columns == b.columns
        assert a.rows == b.rows

    def test_parallel_serial_equivalence(self):
        # the engine holds no shared mutable state: the same sweep run from
        # four threads at once gives the serial rows bitwise
        cfg = small_cfg(oracle=True, axes=(AxisSpec("Delta", -1.0, 1.0, 9),))
        serial = run_sweep(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = list(pool.map(lambda _: run_sweep(cfg), range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(ds.rows == serial.rows for ds in runs)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emitted_files_byte_identical(self, fmt, tmp_path):
        cfg = small_cfg(oracle=True)
        for name in ("a", "b"):
            emit(run_sweep(cfg), fmt, tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


class TestEmit:
    def test_csv_shape(self, tmp_path):
        ds = run_sweep(small_cfg())
        path = tmp_path / "out.csv"
        emit(ds, "csv", path)
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert comments  # provenance block present
        ncol = len(body[0].split(","))
        assert all(len(ln.split(",")) == ncol for ln in body)
        assert len(body) == 1 + len(ds.rows)

    def test_provenance_names_the_integrator(self):
        # a diff of two datasets then shows why their oracle columns differ
        ds = run_sweep(small_cfg(oracle=True))
        assert ds.provenance["integrator"] == {"method": "DOP853", "rel_tol": 1e-11,
                                               "abs_tol": 1e-13}

    def test_csv_17_digits(self, tmp_path):
        ds = Dataset(columns=["x"], rows=[[1.0 / 3.0]], provenance={"note": "t"})
        path = tmp_path / "x.csv"
        emit(ds, "csv", path)
        body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert float(body[1]) == 1.0 / 3.0

    def test_json_round_trip_bitwise(self, tmp_path):
        ds = run_sweep(small_cfg(oracle=True))
        path = tmp_path / "out.json"
        emit(ds, "json", path)
        again = json.loads(path.read_text())
        assert again["columns"] == ds.columns
        assert again["rows"] == ds.rows
        assert again["provenance"] == json.loads(json.dumps(ds.provenance))

    def test_json_flagged_cells_are_null(self, tmp_path):
        # JSON has no NaN token: a strict parser reads a flagged row's cells as null
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        path = tmp_path / "out.json"
        emit(run_sweep(small_cfg(axes=(AxisSpec("t", -1.0, 4.0, 3),))), "json", path)
        rows = json.loads(path.read_text(), parse_constant=reject)["rows"]
        assert [r[-1] for r in rows] == [1, 0, 0]
        assert rows[0][1:-1] == [None] * 5
        assert None not in rows[1]

    def test_empty_dataset(self, tmp_path):
        ds = Dataset(columns=["a", "b"], rows=[], provenance={"k": 1})
        path = tmp_path / "e.csv"
        emit(ds, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[-1] == "a,b"

    def test_unwritable_path(self):
        ds = Dataset(columns=["a"], rows=[], provenance={})
        with pytest.raises(ConfigError):
            emit(ds, "csv", "/nonexistent-dir/x.csv")


class TestCli:
    def test_selftest_green(self, capsys):
        assert cli_main(["selftest"]) == 0

    def test_selftest_fails_on_flagged_row(self, capsys, monkeypatch):
        # a flagged row in the middle of the oracle sweep has a NaN deviation,
        # which must fail the check rather than drop out of its maximum
        def one_flagged(cfg):
            ds = run_sweep(cfg)
            ds.rows[5] = ds.rows[5][:1] + [math.nan] * (len(ds.columns) - 2) + [3]
            return ds

        monkeypatch.setattr(cli, "run_sweep", one_flagged)
        assert cli_main(["selftest"]) == 1
        assert "FAIL closed form vs ODE oracle" in capsys.readouterr().out

    def test_spectrum_grid_size(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = cli_main([
            "spectrum", "--axis1", "Delta:-3:3:11", "--axis2", "epsilon:0:4:9",
            "--output", str(out),
        ])
        assert rc == 0
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(body) == 1 + 99

    def test_figure_runs(self, tmp_path):
        out = tmp_path / "f3.json"
        rc = cli_main(["figure", "3", "--format", "json", "--output", str(out)])
        assert rc == 0
        ds = json.loads(out.read_text())
        assert len(ds["rows"]) == 201
        dev = ds["columns"].index("deviation")
        assert max(r[dev] for r in ds["rows"]) < 1e-6

    def test_missing_axis_is_config_error(self):
        assert cli_main(["populations"]) == 2
        # invalid base parameters are configuration errors, as in a --config file
        for bad in (["--alpha", "0"], ["--t0", "5", "--t1", "1"], ["--Delta", "nan"]):
            assert cli_main(["populations", "--axis1", "Delta:-2:2:3", *bad]) == 2

    def test_config_file(self, tmp_path):
        # --format and --output apply with --config too
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_cfg().to_json_dict()))
        out = tmp_path / "o.csv"
        rc = cli_main(["populations", "--config", str(cfgfile), "--output", str(out),
                       "--format", "json"])
        assert rc == 0
        assert json.loads(out.read_text())["rows"] == run_sweep(small_cfg()).rows

    @pytest.mark.parametrize("via", ["flag", "config-file"])
    def test_spectrum_oracle_is_config_error(self, via, tmp_path, capsys):
        argv = ["--axis1", "Delta:-1:1:3", "--oracle"]
        if via == "config-file":
            d = small_cfg(quantity="spectrum").to_json_dict()
            d["oracle"] = True
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps(d))
            argv = ["--config", str(cfgfile)]
        assert cli_main(["spectrum", *argv]) == 2
        # a well-formed file whose combination is rejected is not "malformed"
        err = capsys.readouterr().err
        assert "spectrum has no oracle columns" in err and "malformed" not in err

    @pytest.mark.parametrize(
        "where, key, value, reads",
        [(("axes", 0), "samples", "3", "malformed sweep config: need a boolean oracle"),
         (("axes", 0), "name", "phase", "axis 'phase' not sweepable for populations"),
         ((), "quantity", "nonsense", "unknown quantity 'nonsense'"),
         (("base",), "alpha", 0.0, "invalid sweep config: alpha must be nonzero")],
        ids=["json-type", "unsweepable-axis", "unknown-quantity", "rejected-value"],
    )
    def test_config_file_error_names_its_kind(self, where, key, value, reads, tmp_path, capsys):
        # only a JSON shape or type error reads "malformed"
        cfgfile = edited_config(tmp_path, where, key, value)
        assert cli_main(["populations", "--config", cfgfile]) == 2
        err = capsys.readouterr().err
        assert reads in err
        assert ("malformed" in err) == reads.startswith("malformed")

    def test_config_file_quantity_must_match_subcommand(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_cfg().to_json_dict()))
        assert cli_main(["amplitudes", "--config", str(cfgfile)]) == 2
        assert "selects quantity 'populations' but the subcommand is 'amplitudes'" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("axis", ["Delta:-1:1", "Delta:-1:1:3:4", "Delta:a:1:3"])
    def test_axis_not_name_start_stop_samples_is_usage_error(self, axis, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["populations", "--axis1", axis])
        assert exc.value.code == 2
        assert "--axis1" in capsys.readouterr().err

    def test_unexpected_exception_exits_one(self, monkeypatch, capsys):
        def failing(cfg):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "run_sweep", failing)
        assert cli_main(["populations", "--axis1", "Delta:-1:1:3"]) == 1
        assert "numerical failure: unexpected" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [None, b'{"base": ', b"\xff"],
                             ids=["missing", "invalid-json", "not-utf8"])
    def test_unreadable_config_file_is_config_error(self, data, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        if data is not None:
            cfgfile.write_bytes(data)
        assert cli_main(["populations", "--config", str(cfgfile)]) == 2

    def test_output_path_not_in_file(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            rc = cli_main(["populations", "--axis1", "Delta:-1:1:3",
                           "--output", str(tmp_path / name)])
            assert rc == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    def test_non_finite_axis_bound_is_usage_error(self, bound, tmp_path):
        # 0 * inf is NaN, so such an axis would sample NaN or infinite values
        for argv in (["rabi", "--axis1", f"epsilon:{bound}:1:2", "--oracle"],
                     ["interferogram", "--axis1", f"t:0:{bound}:2", "--axis2", "epsilon:0:1:2",
                      "--oracle"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
        cfgfile = edited_config(tmp_path, ("axes", 0), "stop", float(bound))
        assert cli_main(["populations", "--config", cfgfile]) == 2

    @pytest.mark.parametrize(
        "where, key, value",
        [((), "convention", "mod2"), ((), "format", "csv"), ((), "out", None),
         ((), "orcale", True), (("base",), "Delat", 0.5), (("axes", 0), "stpe", 3)],
        ids=["convention", "format", "out", "typo", "base-typo", "axis-typo"],
    )
    def test_unknown_config_key_is_config_error(self, where, key, value, tmp_path):
        # a key the config does not read fails instead of being ignored
        cfgfile = edited_config(tmp_path, where, key, value)
        assert cli_main(["populations", "--config", cfgfile]) == 2

    @pytest.mark.parametrize(
        "where, key, value",
        [((), "oracle", "false"), ((), "oracle", 1), (("axes", 0), "samples", 2.9),
         (("axes", 0), "samples", True), (("axes", 0), "samples", "3"),
         (("base",), "A", True), (("base",), "Delta", "2.0"), (("axes", 0), "start", "-1"),
         (("axes", 0), "stop", False), (("base",), "beta", 10**400)],
        ids=["oracle-string", "oracle-int", "samples-float", "samples-bool", "samples-string",
             "base-bool", "base-string", "start-string", "stop-bool", "base-int-beyond-float"],
    )
    def test_config_value_of_wrong_type_is_config_error(self, where, key, value, tmp_path):
        # JSON types are checked, not coerced: bool("false") would turn the oracle on
        cfgfile = edited_config(tmp_path, where, key, value)
        assert cli_main(["populations", "--config", cfgfile]) == 2
