"""Config parsing, sweep CSV emission, CLI exit codes, determinism."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mmwcluster import analytical, montecarlo
from mmwcluster.analytical import ase_from_coverage
from mmwcluster.cli import main as cli_main
from mmwcluster.config import (
    FREQUENCY_PRESETS,
    OVERRIDE_KEYS,
    apply_override,
    config_with_carrier,
    default_config,
    parse_config,
)
from mmwcluster.errors import ConfigError, NumericalError
from mmwcluster.model import AssociationModel
from mmwcluster.montecarlo import IidExponential, LosBall, SinrOptions, estimate_coverage
from mmwcluster.sweep import (
    CSV_HEADER,
    SweepSpec,
    _row_seed,
    figure_specs,
    parse_sweep_spec,
    run_sweep,
)


@pytest.fixture()
def cfg():
    return default_config()


_CONFIG_KEYS = sorted(OVERRIDE_KEYS - {"carrier_hz"}
                      | {"bandwidth_mhz", "noise_figure_db", "tx_power_dbm", "carrier_ghz"})
_INTEGER_KEYS = ["cluster_tx_count", "nakagami_los", "nakagami_nlos", "antenna_elements"]
# small integers, gains in dB, exponents, distances: valid and invalid alike
_VALUES = st.one_of(st.integers(-20, 60).map(float),
                    st.floats(-30.0, 150.0, allow_nan=False, allow_infinity=False))


def _outcome(make):
    try:
        return make()
    except ConfigError:
        return ConfigError


def _parse_dict(path, values):
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    return parse_config(path)


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path, cfg):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        parsed = parse_config(path)
        assert parsed == cfg
        # spot-check the default setting
        assert parsed.parent_density == pytest.approx(150e-6)
        assert parsed.cluster_tx_count == 40
        assert parsed.gamma_th_db == 20.0
        assert parsed.carrier_hz == 28e9
        assert parsed.channel.alpha_los == 2.0
        assert parsed.channel.nakagami_los == 3
        assert parsed.channel.alpha_nlos == 4.0
        assert parsed.channel.nakagami_nlos == 2
        assert parsed.noise_power == pytest.approx(10 ** (-10.7))

    def test_average_los_distance_conversion(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("avg_los_distance = 30\n")
        parsed = parse_config(path)
        assert parsed.channel.blockage_rate == pytest.approx(math.sqrt(2.0) / 30.0)

    def test_db_and_degree_conversion(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("tx_main_lobe_db = 20\ntx_beamwidth_deg = 45\n")
        parsed = parse_config(path)
        assert parsed.tx_pattern.main_lobe_gain == pytest.approx(100.0)
        assert parsed.tx_pattern.beamwidth_rad == pytest.approx(math.pi / 4)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nscatter_std = 25  # trailing\n")
        assert parse_config(path).scatter_std == 25.0

    def test_mean_active_above_cluster_size_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mean_active = 50\ncluster_tx_count = 40\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("scatter_std = 10\nbogus line\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_sir_mode(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("noise_power = 0\n")
        assert parse_config(path).noise_power == 0.0

    @pytest.mark.parametrize("text", ["scatter_std = nan\n", "gamma_th_db = inf\n",
                                      "mean_active = -inf\n"])
    def test_non_finite_rejected(self, tmp_path, text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=":1: .* must be finite"):
            parse_config(path)


class TestOverrides:
    def test_carrier_presets(self, cfg):
        for preset in FREQUENCY_PRESETS:
            tuned = config_with_carrier(cfg, preset.carrier_hz)
            assert tuned.channel.alpha_los == preset.alpha_los
            assert tuned.channel.alpha_nlos == preset.alpha_nlos
            assert tuned.antenna_elements == preset.antenna_elements

    def test_unknown_carrier_keeps_exponents(self, cfg):
        tuned = config_with_carrier(cfg, 45e9)
        assert tuned.channel.alpha_los == cfg.channel.alpha_los
        assert tuned.carrier_hz == 45e9

    def test_pattern_override(self, cfg):
        tuned = apply_override(cfg, "rx_beamwidth_deg", 45.0)
        assert tuned.rx_pattern.beamwidth_rad == pytest.approx(math.pi / 4)

    def test_unsupported_key(self, cfg):
        with pytest.raises(ConfigError):
            apply_override(cfg, "definitely_not_a_key", 1.0)

    @pytest.mark.parametrize("key, value", [("gamma_th_db", math.nan),
                                            ("scatter_std", math.inf),
                                            ("mean_active", -math.inf),
                                            ("avg_los_distance", math.nan)])
    def test_non_finite_rejected(self, cfg, key, value):
        with pytest.raises(ConfigError, match="must be finite"):
            apply_override(cfg, key, value)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _VALUES, max_size=8),
           key=st.sampled_from(sorted(OVERRIDE_KEYS - {"carrier_hz"})), value=_VALUES)
    def test_override_matches_parsing(self, tmp_path, base, key, value):
        path = tmp_path / "c.cfg"
        parsed = _outcome(lambda: _parse_dict(path, base))
        assume(parsed is not ConfigError)
        assert (_outcome(lambda: apply_override(parsed, key, value))
                == _outcome(lambda: _parse_dict(path, base | {key: value})))

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(_INTEGER_KEYS),
           value=st.floats(0.5, 60.0).filter(lambda v: v != int(v)))
    def test_non_integer_rejected(self, tmp_path, cfg, key, value):
        with pytest.raises(ConfigError, match="integer"):
            apply_override(cfg, key, value)
        with pytest.raises(ConfigError, match="integer"):
            _parse_dict(tmp_path / "c.cfg", {key: value})

    @pytest.mark.parametrize("key", ["bandwidth_mhz", "noise_figure_db", "tx_power_dbm",
                                     "carrier_ghz"])
    def test_derived_inputs_rejected(self, cfg, key):
        with pytest.raises(ConfigError, match="derived"):
            apply_override(cfg, key, 30.0)


class TestSweep:
    def _tiny_spec(self):
        return SweepSpec(axis="mean_active", values=(1.0, 2.0),
                         models=(AssociationModel.UNIFORM,),
                         engines=("analytical_approx", "montecarlo"))

    def test_row_count_and_header(self, cfg, tmp_path):
        out = run_sweep(cfg, self._tiny_spec(), tmp_path / "s.csv", seed=3, trials=500)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 1 * 2

    def test_byte_stable_across_threads(self, cfg, tmp_path):
        spec = self._tiny_spec()
        a = run_sweep(cfg, spec, tmp_path / "a.csv", seed=3, trials=500, threads=1)
        b = run_sweep(cfg, spec, tmp_path / "b.csv", seed=3, trials=500, threads=8)
        assert a.read_bytes() == b.read_bytes()

    def test_exact_engine_byte_stable_across_threads(self, cfg, tmp_path):
        # concurrent exact-bound rows must not share kernel scratch memory
        spec = SweepSpec(axis="gamma_th_db", values=(0.0, 10.0),
                         models=tuple(AssociationModel), engines=("analytical",),
                         config_overrides=(("scatter_std", 10.0), ("mean_active", 3.0)))
        a = run_sweep(cfg, spec, tmp_path / "a.csv", threads=1)
        b = run_sweep(cfg, spec, tmp_path / "b.csv", threads=2)
        assert a.read_bytes() == b.read_bytes()

    def test_threads_build_each_table_once(self, cfg, tmp_path):
        # both threads start on the same cold geometry: one builds the
        # inter-cluster table and the other waits for it
        analytical._inter_table.cache_clear()
        spec = SweepSpec(axis="gamma_th_db", values=(0.0, 5.0, 10.0, 15.0),
                         models=(AssociationModel.UNIFORM,), engines=("analytical_approx",))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_sweep(cfg, spec, tmp_path / "s.csv", threads=2)
        finally:
            sys.setswitchinterval(interval)
        assert analytical._inter_table.cache_info().misses == 1

    def test_upper_bound_labels(self, cfg, tmp_path):
        out = run_sweep(cfg, self._tiny_spec(), tmp_path / "s.csv", seed=3, trials=500)
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            if fields[2].startswith("analytical"):
                assert fields[5] == "true"
            else:
                assert fields[5] == "false"

    def test_lower_bound_error_column_at_alpha_two(self, cfg, tmp_path):
        spec = SweepSpec(axis="gamma_th_db", values=(10.0,),
                         models=(AssociationModel.UNIFORM,), engines=("lower_bound",))
        out = run_sweep(cfg, spec, tmp_path / "s.csv", seed=3, trials=100)
        line = out.read_text().splitlines()[1]
        fields = line.split(",")
        assert fields[3] == ""          # no value
        assert "alpha_los" in fields[7]  # reason recorded, sweep not aborted

    def test_monte_carlo_rows_share_one_call_per_point(self, cfg, tmp_path, monkeypatch):
        # each grouped row equals a lone estimate at the point's seed
        cases = {"montecarlo": (SinrOptions(), IidExponential()),
                 "montecarlo:los_only": (SinrOptions(include_nlos_interference=False),
                                         IidExponential()),
                 "montecarlo:no_interference": (
                     SinrOptions(include_intra=False, include_inter=False), IidExponential()),
                 "montecarlo:losball": (
                     SinrOptions(), LosBall(math.log(2.0) / cfg.channel.blockage_rate))}
        spec = SweepSpec(axis="mean_active", values=(2.0, 5.0),
                         models=tuple(AssociationModel), engines=tuple(cases))
        calls = []
        many = montecarlo.estimate_coverage_many

        def counted(*args, **kwargs):
            calls.append(args)
            return many(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "estimate_coverage_many", counted)
        out = run_sweep(cfg, spec, tmp_path / "s.csv", seed=5, trials=600, threads=2)
        assert len(calls) == len(spec.values)
        monkeypatch.undo()

        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 3 * 4
        gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
        for i, load in enumerate(spec.values):
            point = [r for r in rows if float(r[0]) == load]
            assert {r[6] for r in point} == {str(_row_seed(5, i))}
            for row in point:
                options, blockage = cases[row[2]]
                est = estimate_coverage(cfg.with_mean_active(load), AssociationModel(row[1]),
                                        gamma, 600, _row_seed(5, i), blockage, options)
                assert row[3] == f"{est.p_hat:.9g}"
                assert row[4] == f"{est.half_width_95:.9g}"

    def test_error_column_stays_with_its_point(self, cfg, tmp_path):
        spec = SweepSpec(axis="scatter_std", values=(10.0, 100.0),
                         models=(AssociationModel.UNIFORM,),
                         engines=("analytical_approx", "montecarlo", "montecarlo:los_only"))
        out = run_sweep(cfg, spec, tmp_path / "s.csv", seed=3, trials=200, threads=2)
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            if fields[0] == "100" and fields[2].startswith("montecarlo"):
                assert "edge-bias guard" in fields[7] and fields[3] == ""
            else:
                assert fields[3] and not fields[7]

    @pytest.mark.parametrize("axis, values, metric", [
        ("gamma_th_db", (0.0, 12.5, 30.0), "coverage"),
        ("mean_active", (1.0, 2.5, 6.0), "ase"),
    ])
    def test_analytical_curves_equal_lone_calls(self, cfg, tmp_path, axis, values, metric):
        # each analytical curve is one grid call; its rows must be the bytes
        # of lone coverage/ase calls, on any thread count
        spec = SweepSpec(axis=axis, values=values, models=tuple(AssociationModel),
                         engines=("analytical", "analytical_approx", "lower_bound"),
                         metric=metric,
                         config_overrides=(("carrier_hz", 60e9), ("scatter_std", 10.0),
                                           ("mean_active", 3.0), ("gamma_th_db", 10.0)))
        base = cfg
        for key, value in spec.config_overrides:
            base = apply_override(base, key, value)
        lines = [CSV_HEADER]
        for value in values:
            point = apply_override(base, axis, value)
            gamma = 10.0 ** (point.gamma_th_db / 10.0)
            for model in spec.models:
                covs = {"analytical": analytical.coverage(model, gamma, cfg=point),
                        "analytical_approx": analytical.coverage(
                            model, gamma, analytical.CoverageFlags(use_assumption1=True), point),
                        "lower_bound": analytical.coverage_lower_bound(gamma, point)}
                for engine in spec.engines:
                    val = covs[engine]
                    if metric == "ase":
                        val = ase_from_coverage(point, gamma, val)
                    upper = "false" if engine == "lower_bound" else "true"
                    lines.append(f"{value:.9g},{model.value},{engine},{val:.9g},,{upper},,")
        expected = ("\n".join(lines) + "\n").encode()
        for threads in (1, 2):
            out = run_sweep(cfg, spec, tmp_path / f"s{threads}.csv", threads=threads)
            assert out.read_bytes() == expected

    def test_curve_failure_stays_with_its_point(self, cfg, tmp_path, monkeypatch):
        # a failing load makes the grid call fail; the curve's rows are then
        # evaluated alone and only that load's row carries the error
        raw = analytical._coverage_raw

        def failing(model, gammas, flags, c, loads):
            if 3.0 in loads:
                raise NumericalError("forced failure, for the test", value=math.nan)
            return raw(model, gammas, flags, c, loads)

        monkeypatch.setattr(analytical, "_coverage_raw", failing)
        spec = SweepSpec(axis="mean_active", values=(2.0, 3.0, 4.0),
                         models=(AssociationModel.UNIFORM,), engines=("analytical_approx",))
        out = run_sweep(cfg, spec, tmp_path / "s.csv", threads=2)
        monkeypatch.undo()
        flags = analytical.CoverageFlags(use_assumption1=True)
        gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            if fields[0] == "3":
                assert fields[3] == "" and "forced failure" in fields[7]
            else:
                load = float(fields[0])
                lone = analytical.coverage(AssociationModel.UNIFORM, gamma, flags,
                                           cfg.with_mean_active(load))
                assert fields[3] == f"{lone:.9g}" and fields[7] == ""

    def test_figure_presets_enumerate(self):
        for fig in ("2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b"):
            specs = figure_specs(fig)
            assert specs
        with pytest.raises(ConfigError):
            figure_specs("9z")

    def test_fig2a_row_count(self, cfg, tmp_path):
        spec = figure_specs("2a")[0]
        # 10 axis values x 3 models x 3 engines
        assert len(spec.values) * len(spec.models) * len(spec.engines) == 90

    def test_spec_file_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.spec"
        path.write_text(
            "axis = mean_active\nvalues = 1, 2, 3\nmodels = uniform, closest\n"
            "engines = analytical_approx\nmetric = ase\nscatter_std = 15\n")
        spec = parse_sweep_spec(path)
        assert spec.values == (1.0, 2.0, 3.0)
        assert spec.models == (AssociationModel.UNIFORM, AssociationModel.CLOSEST)
        assert spec.metric == "ase"
        assert ("scatter_std", 15.0) in spec.config_overrides

    def test_spec_overrides_density_and_intercept(self, cfg, tmp_path):
        path = tmp_path / "sweep.spec"
        path.write_text("axis = mean_active\nvalues = 2\nmodels = uniform\n"
                        "engines = analytical_approx\nparent_density_per_km2 = 300\n"
                        "intercept_db = -60\n")
        out = run_sweep(cfg, parse_sweep_spec(path), tmp_path / "s.csv")
        fields = out.read_text().splitlines()[1].split(",")
        assert fields[3] and not fields[7]

    def test_engine_variants_validated(self):
        with pytest.raises(ConfigError):
            SweepSpec(axis="mean_active", values=(1.0,),
                      models=(AssociationModel.UNIFORM,),
                      engines=("montecarlo:not_a_variant",))
        with pytest.raises(ConfigError):
            SweepSpec(axis="mean_active", values=(1.0,),
                      models=(AssociationModel.UNIFORM,),
                      engines=("analytical:intra_only",))


class TestCli:
    def test_coverage_prints_upper_bound_label(self, capsys):
        rc = cli_main(["coverage", "--model", "uniform", "--engine",
                       "analytical_approx"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "upper bound" in out

    def test_validate_deterministic_and_exit_codes(self, tmp_path):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        rc1 = cli_main(["validate", "--trials", "2000", "--seed", "42",
                        "--out", str(r1)])
        rc2 = cli_main(["validate", "--trials", "2000", "--seed", "42",
                        "--out", str(r2)])
        assert rc1 == rc2 == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_validate_zero_tolerance_fails(self, tmp_path):
        rc = cli_main(["validate", "--trials", "500", "--seed", "1",
                       "--tol-scale", "0", "--out", str(tmp_path / "r.txt")])
        assert rc == 1

    def test_usage_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("junk key = 1\n")
        rc = cli_main(["coverage", "--config", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["coverage", "--mean-active", "100"],
        ["coverage", "--scatter-std", "-1"],
        ["coverage", "--gamma-db", "nan"],
        ["ase", "--engine", "montecarlo", "--gamma-db", "inf"],
        ["optimize-s", "--gamma-db", "nan"],
        ["coverage", "--config", "{dir}/nan.cfg"],
        ["sweep", "--spec", "{dir}/good.spec", "--out", "{dir}/out.csv", "--trials", "0"],
        ["sweep", "--spec", "{dir}/good.spec", "--out", "{dir}/out.csv", "--threads", "0"],
        ["coverage", "--engine", "montecarlo", "--trials", "0"],
        ["sweep", "--spec", "{dir}/carrier_ghz.spec", "--out", "{dir}/out.csv"],
        ["sweep", "--spec", "{dir}/bandwidth_mhz.spec", "--out", "{dir}/out.csv"],
        ["sweep", "--spec", "{dir}/noise_figure_db.spec", "--out", "{dir}/out.csv"],
        ["sweep", "--spec", "{dir}/tx_power_dbm.spec", "--out", "{dir}/out.csv"],
        ["sweep", "--spec", "{dir}/nakagami_los.spec", "--out", "{dir}/out.csv"],
    ])
    def test_bad_input_exits_two_without_traceback(self, capsys, tmp_path, argv):
        (tmp_path / "nan.cfg").write_text("scatter_std = nan\n")
        good = "axis = mean_active\nvalues = 2\nmodels = uniform\nengines = montecarlo\n"
        (tmp_path / "good.spec").write_text(good)
        for key, value in (("carrier_ghz", 60), ("bandwidth_mhz", 200), ("noise_figure_db", 7),
                           ("tx_power_dbm", 30), ("nakagami_los", 2.5)):
            (tmp_path / f"{key}.spec").write_text(f"{good}{key} = {value}\n")
        rc = cli_main([a.format(dir=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_ase_montecarlo_half_width_in_ase_units(self, capsys, cfg):
        rc = cli_main(["ase", "--engine", "montecarlo", "--trials", "1000", "--seed", "4",
                       "--model", "closest"])
        printed = re.search(r"\+-(\S+) \(95%\)", capsys.readouterr().out).group(1)
        gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
        est = estimate_coverage(cfg, AssociationModel.CLOSEST, gamma, 1000, 4)
        assert rc == 0
        assert printed == f"{ase_from_coverage(cfg, gamma, est.half_width_95):.3g}"

    def test_sweep_writes_csv(self, tmp_path):
        spec = tmp_path / "s.spec"
        spec.write_text("axis = mean_active\nvalues = 2\nmodels = uniform\n"
                        "engines = analytical_approx\n")
        out = tmp_path / "out.csv"
        rc = cli_main(["sweep", "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_module_entrypoint(self):
        proc = subprocess.run([sys.executable, "-m", "mmwcluster.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "mmwcluster" in proc.stdout

    def test_optimize_command(self, capsys, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("cluster_tx_count = 6\nscatter_std = 10\n")
        rc = cli_main(["optimize-s", "--config", str(cfg_file), "--model", "uniform",
                       "--gamma-db", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "optimal mean_active" in out
