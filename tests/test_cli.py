"""Tests for config loading, result emission, plotting, and the CLI."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sfbcsim.channel import ENVIRONMENT_NAMES
from sfbcsim.cli import (ConfigError, emit_csv, emit_json, emit_plot,
                         load_config, main)
from sfbcsim.harness import BerRecord

PRESET_DIR = Path(__file__).resolve().parents[1] / "src" / "sfbcsim" / "presets"

SMALL_CONFIG = """\
name = smoke
modulation = 4
environment = user_defined
csi = estimated
snr_db = 0, 6
min_bits = 10000
max_bits = 12000
seed = 3
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def make_records():
    return [BerRecord(snr_db=0.0, total_bits=100_000, bit_errors=500,
                      ber=500 / 100_000, n_trials=1, seed=42)]


class TestLoadConfig:
    def test_presets_all_valid(self):
        presets = sorted(PRESET_DIR.glob("*.cfg"))
        assert len(presets) == 7
        for preset in presets:
            cfg = load_config(preset)
            assert cfg.tx_corr == 0.5 and cfg.k_factor == 1000.0
            assert cfg.n_rb == 6 and cfg.dims().bandwidth_mhz == 1.4

    def test_bandwidth_pair_violation_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for mhz in ("20", "nan", "NaN"):
            path.write_text(f"n_rb = 6\nbandwidth_mhz = {mhz}\nsnr_db = 0\n")
            with pytest.raises(ConfigError, match="resource blocks"):
                load_config(path)

    def test_all_bandwidth_pairs_accepted(self, tmp_path):
        path = tmp_path / "bw.cfg"
        for n_rb, bw in ((6, 1.4), (15, 3.0), (25, 5.0), (50, 10.0),
                         (75, 15.0), (100, 20.0)):
            path.write_text(f"n_rb = {n_rb}\nbandwidth_mhz = {bw}\nsnr_db = 0\n")
            assert load_config(path).dims().bandwidth_mhz == bw

    def test_tdd_rejected(self, tmp_path):
        path = tmp_path / "tdd.cfg"
        for line in ("duplex = tdd", "tdd_config = 1"):
            path.write_text(f"{line}\nsnr_db = 0\n")
            with pytest.raises(ConfigError, match=line.split()[0]):
                load_config(path)

    @pytest.mark.parametrize("line", ["transmission_mode = sfbc_4x4_downlink",
                                      "structure = slot", "channel_type = nakagami",
                                      "fft_size = 256", "n_frames = 2"])
    def test_fixed_key_bad_value_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{line}\nsnr_db = 0\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_config(path)

    def test_fixed_keys_case_insensitive_and_not_stored(self, tmp_path):
        path = tmp_path / "upper.cfg"
        path.write_text("duplex = FDD\nfft_size = AUTO\nn_frames = 4\nsnr_db = 0\n")
        cfg = load_config(path)
        for key in ("duplex", "fft_size", "n_frames"):
            assert not hasattr(cfg, key)

    @pytest.mark.parametrize("fft_size", [100, 64])
    def test_bad_fft_size_rejected(self, tmp_path, capsys, fft_size):
        path = tmp_path / "fft.cfg"
        path.write_text(f"n_rb = 6\nfft_size = {fft_size}\nsnr_db = 0\n")
        with pytest.raises(ConfigError, match="fft_size"):
            load_config(path)
        assert main(["validate", str(path)]) == 1
        assert "fft_size" in capsys.readouterr().err

    def test_missing_snr_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("modulation = 4\n")
        with pytest.raises(ConfigError, match="snr_db"):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("snr_db = 0\nfrobnicate = 1\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("snr_db = 0\nmodulation eight\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            load_config(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("\ufeffsnr_db = 0, 2\n", encoding="utf-8")
        assert load_config(path).snr_db == (0.0, 2.0)

    def test_name_defaults_to_stem(self, small_config):
        assert load_config(small_config).name == "smoke"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


class TestEmitCsv:
    GOLDEN = ("snr_db,total_bits,bit_errors,ber,n_trials,seed\n"
              "0.0,100000,500,0.005,1,42\n")

    def test_schema_golden_file(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_csv(make_records(), out)
        assert out.read_text() == self.GOLDEN

    def test_reemit_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(make_records(), a)
        emit_csv(make_records(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "r.csv")


class TestEmitJson:
    def test_structure_and_determinism(self, tmp_path, small_config):
        cfg = load_config(small_config)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_json(make_records(), a, cfg)
        emit_json(make_records(), b, cfg)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["format_version"] == 3
        assert payload["scenario"]["seed"] == 3
        assert payload["scenario"]["tap_delays_s"] == [0.0]
        assert payload["scenario"]["tap_powers_db"] == [0.0]
        for key in ("bandwidth_mhz", "fft_size", "n_frames"):
            assert key not in payload["scenario"]
        assert len(payload["scenario"]["config_hash"]) == 16
        row = payload["records"][0]
        assert set(row) == {"snr_db", "total_bits", "bit_errors", "ber",
                            "n_trials", "seed"}

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_json([], tmp_path / "r.json",
                      load_config(PRESET_DIR / "table4_user_defined.cfg"))

    def test_scenario_required(self, tmp_path):
        with pytest.raises(TypeError):
            emit_json(make_records(), tmp_path / "r.json")


class TestEmitPlot:
    def three_sets(self):
        sets = []
        for i, label in enumerate(("4-QAM", "16-QAM", "64-QAM")):
            recs = [BerRecord(float(s), 100_000, max(0, 5000 // (s + 1) - i * 300),
                              max(0, 5000 // (s + 1) - i * 300) / 100_000, 1, 1)
                    for s in range(0, 21, 5)]
            sets.append((label, recs))
        return sets

    def test_three_labelled_curves(self, tmp_path):
        out = tmp_path / "fig.svg"
        emit_plot(self.three_sets(), out, title="QAM comparison")
        svg = out.read_text()
        assert svg.count("<polyline") == 3
        for label in ("4-QAM", "16-QAM", "64-QAM"):
            assert label in svg
        assert "QAM comparison" in svg

    def test_zero_ber_floor_marker(self, tmp_path):
        recs = [BerRecord(0.0, 100_000, 100, 1e-3, 1, 1),
                BerRecord(5.0, 100_000, 0, 0.0, 1, 1)]
        out = tmp_path / "fig.svg"
        emit_plot([("curve", recs)], out)
        svg = out.read_text()
        assert "<path" in svg  # the floor triangle
        assert "inf" not in svg and "nan" not in svg

    def test_single_set(self, tmp_path):
        out = tmp_path / "fig.svg"
        emit_plot([("only", [BerRecord(0.0, 1000, 10, 0.01, 1, 1),
                             BerRecord(4.0, 1000, 1, 0.001, 1, 1)])], out)
        assert out.read_text().startswith("<svg")

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(self.three_sets(), a)
        emit_plot(self.three_sets(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "fig.svg")


class TestMain:
    def test_validate_preset_exits_zero(self, capsys):
        rc = main(["validate", str(PRESET_DIR / "table4_user_defined.cfg")])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n_rb = 6\nbandwidth_mhz = 20\nsnr_db = 0\n")
        assert main(["validate", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["k_factor = inf", "speed_kmh = nan",
                                      "carrier_freq_ghz = inf"])
    def test_validate_non_finite_fading_exits_one(self, tmp_path, capsys, line):
        path = tmp_path / "fading.cfg"
        path.write_text(f"{line}\nsnr_db = 0\n")
        assert main(["validate", str(path)]) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["speed_kmh = -3", "carrier_freq_ghz = -2.7",
                                      "carrier_freq_ghz = 0", "speed_kmh = 1e308",
                                      "carrier_freq_ghz = 1e300"])
    def test_validate_out_of_range_mobility_exits_one(self, tmp_path, capsys, line):
        path = tmp_path / "fading.cfg"
        path.write_text(f"{line}\nsnr_db = 0\n")
        assert main(["validate", str(path)]) == 1
        field, value = line.split(" = ")
        assert (f"{field} must be >" if float(value) <= 0 else
                "speed_kmh and carrier_freq_ghz give an infinite Doppler shift"
                ) in capsys.readouterr().err

    @pytest.mark.parametrize("text", [pytest.param("0.0 0\n1.0 nan\n", id="1.0 nan"),
                                      pytest.param("0.0 0\ninf -3\n", id="inf -3"),
                                      "0.0 -4000\n", "0.0 4000\n", "0.0 4000\n1.0 0\n"])
    def test_validate_non_finite_tap_exits_one(self, tmp_path, capsys, text):
        taps = tmp_path / "taps.txt"
        taps.write_text(text)
        path = tmp_path / "taps.cfg"
        path.write_text(f"environment = user_defined\nenv_file = {taps}\nsnr_db = 0\n")
        assert main(["validate", str(path)]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_validate_delay_overflowing_the_phase_ramp_exits_one(self, tmp_path, capsys):
        taps = tmp_path / "taps.txt"
        taps.write_text("0.0 0\n1e308 0\n")  # a delay of 1e302 s
        path = tmp_path / "taps.cfg"
        path.write_text(f"environment = user_defined\nenv_file = {taps}\nsnr_db = 0\n")
        assert main(["validate", str(path)]) == 1
        assert "overflows the phase ramp" in capsys.readouterr().err

    def test_validate_unsupported_modulation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "qam.cfg"
        path.write_text("modulation = 8\nsnr_db = 0\n")
        assert main(["validate", str(path)]) == 1
        assert "modulation must be one of (4, 16, 64), got 8" in capsys.readouterr().err

    def test_validate_channel_type_exits_one(self, tmp_path, capsys):
        # fading follows k_factor alone, so no file may claim a Rayleigh channel
        path = tmp_path / "rayleigh.cfg"
        path.write_text("channel_type = rayleigh\nsnr_db = 0\n")
        assert main(["validate", str(path)]) == 1
        assert "unknown field 'channel_type'" in capsys.readouterr().err

    def test_validate_bit_budget_beyond_the_bound_exits_one(self, tmp_path, capsys):
        path = tmp_path / "budget.cfg"
        path.write_text("min_bits = 18446744073709551616\nsnr_db = 0\n")  # 2**64
        assert main(["validate", str(path)]) == 1
        assert "min_bits must lie in [10000, 2**42]" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["1000.5", "-1001", "3085", "-4000"])
    def test_validate_out_of_range_snr_exits_one(self, tmp_path, capsys, snr):
        path = tmp_path / "snr.cfg"
        path.write_text(f"snr_db = 0, {snr}\n")
        assert main(["validate", str(path)]) == 1
        assert "snr_db values must lie in [-1000, 1000] dB" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("fault", ["env_file missing", "env_file a directory",
                                       "config not UTF-8"])
    def test_unreadable_file_exits_one(self, tmp_path, capsys, command, fault):
        path = tmp_path / "faulty.cfg"
        env_file = {"env_file missing": tmp_path / "none.txt",
                    "env_file a directory": tmp_path}.get(fault)
        if env_file is None:
            path.write_bytes(b"name = caf\xe9\nsnr_db = 0\n")  # Latin-1
        else:
            path.write_text(f"env_file = {env_file}\nsnr_db = 0\n")
        out_dir = tmp_path / "results"
        assert main([command, str(path)] + ["--out", str(out_dir)] * (command == "sweep")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and "Traceback" not in err
        assert str(env_file or "utf-8") in err
        assert not out_dir.exists()

    def test_validate_negative_seed_env_var_exits_one(self, small_config, monkeypatch, capsys):
        monkeypatch.setenv("SFBCSIM_SEED", "-5")
        assert main(["validate", str(small_config)]) == 1
        assert "SFBCSIM_SEED: seed must be non-negative" in capsys.readouterr().err
        monkeypatch.setenv("SFBCSIM_SEED", "5")
        assert main(["validate", str(small_config)]) == 0

    def test_unknown_subcommand_exits_one_with_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_envs_lists_tap_tables(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        for name in ("awgn_only", "user_defined", "rural_area", "typical_urban",
                     "bad_urban", "hilly_terrain"):
            assert name in out
        assert "17.2" in out  # hilly terrain's longest tap

    def test_python_m_sfbcsim_runs_the_cli(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(PRESET_DIR.parents[1]))  # the src directory
        done = subprocess.run([sys.executable, "-m", "sfbcsim", "envs"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stderr == ""
        listed = [line.split(":")[0] for line in done.stdout.splitlines()]
        assert listed == list(ENVIRONMENT_NAMES)

    def test_sweep_writes_csv(self, small_config, tmp_path, capsys):
        out_dir = tmp_path / "results"
        rc = main(["sweep", str(small_config), "--out", str(out_dir)])
        assert rc == 0
        csv = (out_dir / "smoke.csv").read_text()
        assert csv.splitlines()[0] == "snr_db,total_bits,bit_errors,ber,n_trials,seed"
        assert len(csv.splitlines()) == 3

    def test_sweep_json_and_plot(self, small_config, tmp_path):
        out_dir = tmp_path / "results"
        rc = main(["sweep", str(small_config), "--out", str(out_dir),
                   "--format", "json", "--plot"])
        assert rc == 0
        assert (out_dir / "smoke.json").exists()
        assert (out_dir / "smoke.svg").exists()

    @pytest.mark.parametrize("extra", [[], ["--plot"], ["--format", "json"]])
    def test_sweep_with_every_point_failed_exits_two(self, small_config, tmp_path, capsys,
                                                     monkeypatch, extra):
        import sfbcsim.harness as h

        def broken(self, snr_db, trial_seeds):
            raise h.SimulationError("stage 'add_awgn' failed: boom")

        monkeypatch.setattr(h._TrialEngine, "run", broken)
        out_dir = tmp_path / "results"
        assert main(["sweep", str(small_config), "--out", str(out_dir), *extra]) == 2
        captured = capsys.readouterr()
        assert "failed: stage 'add_awgn' failed: boom" in captured.out
        assert "ber=" not in captured.out
        assert "error: every sweep point failed" in captured.err
        assert not out_dir.exists()

    def test_failed_sweep_worker_exits_two(self, small_config, tmp_path, capsys, monkeypatch):
        import sfbcsim.harness as h

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        parent, original = os.getpid(), h._run_points

        def broken(engine, indices):  # fails in the forked child only
            if os.getpid() != parent:
                raise KeyError("boom")
            return original(engine, indices)

        monkeypatch.setattr(h, "_run_points", broken)
        out_dir = tmp_path / "results"
        assert main(["sweep", str(small_config), "--out", str(out_dir), "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep worker ") and "failed: KeyError: 'boom'" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_jobs_do_not_change_bytes(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", str(small_config), "--out", str(a), "--jobs", "1"]) == 0
        assert main(["sweep", str(small_config), "--out", str(b), "--jobs", "8"]) == 0
        assert (a / "smoke.csv").read_bytes() == (b / "smoke.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_usage_error(self, small_config, tmp_path, capsys, jobs):
        out_dir = tmp_path / "results"
        assert main(["sweep", str(small_config), "--out", str(out_dir),
                     "--jobs", jobs]) == 1
        assert "usage" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_flag_overrides(self, small_config, tmp_path):
        out_dir = tmp_path / "results"
        main(["sweep", str(small_config), "--out", str(out_dir), "--seed", "77"])
        assert ",77" in (out_dir / "smoke.csv").read_text()

    def test_env_var_overrides_config(self, small_config, tmp_path, monkeypatch):
        monkeypatch.setenv("SFBCSIM_SEED", "55")
        out_dir = tmp_path / "results"
        main(["sweep", str(small_config), "--out", str(out_dir)])
        assert ",55" in (out_dir / "smoke.csv").read_text()

    def test_seed_flag_beats_env_var(self, small_config, tmp_path, monkeypatch):
        monkeypatch.setenv("SFBCSIM_SEED", "55")
        out_dir = tmp_path / "results"
        main(["sweep", str(small_config), "--out", str(out_dir), "--seed", "88"])
        assert ",88" in (out_dir / "smoke.csv").read_text()

    def test_negative_seed_in_file_exits_one(self, small_config, tmp_path, capsys):
        small_config.write_text(SMALL_CONFIG.replace("seed = 3", "seed = -1"))
        out_dir = tmp_path / "results"
        assert main(["sweep", str(small_config), "--out", str(out_dir)]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_flag_exits_one(self, small_config, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["sweep", str(small_config), "--out", str(out_dir), "--seed", "-3"]) == 1
        assert "--seed: seed must be non-negative" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_env_var_exits_one(self, small_config, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("SFBCSIM_SEED", "-5")
        out_dir = tmp_path / "results"
        assert main(["sweep", str(small_config), "--out", str(out_dir)]) == 1
        assert "SFBCSIM_SEED: seed must be non-negative" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_plot_of_markup_name_is_well_formed(self, small_config, tmp_path):
        small_config.write_text(SMALL_CONFIG.replace("name = smoke", "name = R&D <test>"))
        out_dir = tmp_path / "results"
        assert main(["sweep", str(small_config), "--out", str(out_dir), "--plot"]) == 0
        root = ET.parse(out_dir / "smoke.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "R&D <test>" in texts

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "none.cfg")]) == 1

    def test_env_file_taps_flow_through_sweep(self, tmp_path):
        taps = tmp_path / "taps.txt"
        taps.write_text("0.0 0\n0.4 -3\n")
        cfg = tmp_path / "custom.cfg"
        cfg.write_text("environment = user_defined\n"
                       f"env_file = {taps}\n"
                       "snr_db = 6\nmax_bits = 12000\n")
        out_dir = tmp_path / "results"
        assert main(["sweep", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "custom.csv").exists()

    def test_env_file_requires_user_defined(self, tmp_path):
        taps = tmp_path / "taps.txt"
        taps.write_text("0.0 0\n")
        cfg = tmp_path / "custom.cfg"
        cfg.write_text("environment = rural_area\n"
                       f"env_file = {taps}\n"
                       "snr_db = 6\n")
        with pytest.raises(ConfigError, match="user_defined"):
            load_config(cfg)
