"""Configuration parsing, result serialization, and CLI entry point."""

import dataclasses
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from coopcdma import cli
from coopcdma.errors import ConfigError
from coopcdma.harness import BerCurve, ExperimentConfig


def make_curve():
    return BerCurve(x_name="snr_db",
                    rows=[(0.0, 0.125, 0.01, 800), (3.0, 0.0625, 0.005, 800)],
                    scheme="cis", variant="exact", divergences=0)


class TestConfigFile:
    def test_defaults_when_nothing_given(self):
        cfg = cli.parse_config()
        assert cfg == ExperimentConfig()

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("users = 6   # six active users\n"
                        "\n"
                        "scheme = cis\n"
                        "snr_grid = 0,6,12\n"
                        "isi = off\n")
        cfg = cli.parse_config(str(path))
        assert cfg.users == 6 and cfg.scheme == "cis"
        assert cfg.snr_grid == (0.0, 6.0, 12.0)
        assert cfg.isi is False

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("users = 6\ntrials = 4\n")
        cfg = cli.parse_config(str(path), {"users": 2, "seed": 9})
        assert cfg.users == 2 and cfg.trials == 4 and cfg.seed == 9

    def test_none_overrides_are_skipped(self):
        cfg = cli.parse_config(None, {"users": None, "trials": 3})
        assert cfg.users == ExperimentConfig().users and cfg.trials == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("wibble = 3\n")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            cli.read_config_file(str(path))

    def test_invalid_value_names_the_key(self):
        with pytest.raises(ConfigError, match="trials: invalid value"):
            cli.parse_config(None, {"trials": "many"})

    def test_key_given_twice_reports_location(self, tmp_path):
        """A repeated key is refused, not overridden by its last line."""
        path = tmp_path / "run.cfg"
        path.write_text("users = 4\n# six users\nusers = 6\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: users given twice"):
            cli.parse_config(str(path))

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("users 6\n")
        with pytest.raises(ConfigError, match=":1"):
            cli.read_config_file(str(path))

    def test_emit_config_round_trips(self, tmp_path):
        cfg = ExperimentConfig(users=6, scheme="cis", snr_grid=(0.0, 12.0),
                               alpha=0.997)
        path = tmp_path / "echo.cfg"
        path.write_text(cli.emit_config(cfg))
        assert cli.parse_config(str(path)) == cfg


class TestSerialization:
    def test_csv_layout(self):
        text = cli.curves_to_csv([make_curve()])
        lines = text.strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert lines[1] == "snr_db,0,cis,exact,0.125,0.01,800"
        assert len(lines) == 3

    def test_csv_uses_full_precision(self):
        curve = make_curve()
        curve.rows = [(0.0, 1.0 / 3.0, 0.1, 10)]
        assert "0.33333333333333331" in cli.curves_to_csv([curve])

    def test_json_structure_and_manifest(self):
        manifest = cli.RunManifest(config={"users": 2}, version="0.1.0",
                                   wall_time_s=1.5, divergences=0)
        payload = json.loads(cli.curves_to_json([make_curve()], manifest))
        assert payload["manifest"]["version"] == "0.1.0"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert payload["manifest"]["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}
        assert payload["curves"][0]["rows"][1]["ber_mean"] == 0.0625

    def test_non_finite_numbers_are_json_null(self):
        """A row with no surviving packets (nan over 0 bits) is written with
        null, which a strict parser accepts; CSV keeps nan."""
        curve = make_curve()
        curve.rows = [(6.0, float("nan"), 0.0, 0)]
        manifest = cli.RunManifest(config={}, version="0", wall_time_s=0.0,
                                   divergences=2)

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads(cli.curves_to_json([curve], manifest),
                             parse_constant=refuse)
        assert payload["curves"][0]["rows"] == [
            {"x_value": 6.0, "ber_mean": None, "ber_stderr": 0.0,
             "bit_count": 0}]
        assert cli.curves_to_csv([curve]).split("\n")[1] == (
            "snr_db,6,cis,exact,nan,0,0")

    def test_emit_results_rejects_unknown_format(self, tmp_path):
        manifest = cli.RunManifest(config={}, version="0", wall_time_s=0,
                                   divergences=0)
        with pytest.raises(ConfigError):
            cli.emit_results([make_curve()], manifest, "xml",
                             str(tmp_path / "out.xml"))


def run_main(args):
    return cli.main(args)


class TestMain:
    COMMON = ["--users", "2", "--relays", "1", "--trials", "1",
              "--snr", "9", "--seed", "3"]

    @pytest.fixture
    def tiny_file(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text("chips = 8\npaths = 2\npacket_len = 200\n"
                        "training_len = 40\n")
        return str(path)

    def test_sweep_snr_writes_csv(self, tiny_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = run_main(["sweep-snr", "--config", tiny_file, *self.COMMON,
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER and len(lines) == 2
        assert "wrote" in capsys.readouterr().out

    def test_identical_invocations_are_byte_identical(self, tiny_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_main(["sweep-snr", "--config", tiny_file, *self.COMMON,
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_users_grid(self, tiny_file, tmp_path):
        out = tmp_path / "u.csv"
        rc = run_main(["sweep-users", "--config", tiny_file, "--trials", "1",
                       "--relays", "1", "--snr", "9", "--seed", "3",
                       "--users", "2,3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert [l.split(",")[1] for l in lines[1:]] == ["2", "3"]

    def test_json_output_contains_manifest(self, tiny_file, tmp_path):
        out = tmp_path / "r.json"
        rc = run_main(["sweep-snr", "--config", tiny_file, *self.COMMON,
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["config"]["users"] == 2
        assert payload["manifest"]["outputs"] == [str(out)]

    def test_bad_config_returns_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("users = many\n")
        rc = run_main(["sweep-snr", "--config", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.cfg", "folder"])
    def test_unreadable_config_returns_2(self, tmp_path, capsys, name):
        (tmp_path / "folder").mkdir()
        path = tmp_path / name
        out = tmp_path / "r.csv"
        rc = run_main(["sweep-snr", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not out.exists()

    def test_unreadable_config_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.cfg"):
            cli.read_config_file(str(tmp_path / "missing.cfg"))
        with pytest.raises(ConfigError, match="cannot read"):
            cli.read_config_file(str(tmp_path))

    @pytest.mark.parametrize("command", ["sweep-snr", "sweep-users",
                                         "learning-curve"])
    def test_out_in_missing_directory_returns_2_before_running(
            self, tiny_file, tmp_path, capsys, monkeypatch, command):
        ran = []
        for name in ("run_experiment", "run_user_sweep", "learning_curve"):
            monkeypatch.setattr(cli.harness, name,
                                lambda *a, name=name: ran.append(name))
        out = tmp_path / "no-such-dir" / "r.csv"
        rc = run_main([command, "--config", tiny_file, "--trials", "1",
                       "--snr", "9", "--users", "2", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no-such-dir" in err and "Traceback" not in err
        assert ran == []
        assert not out.parent.exists()

    def test_out_that_is_a_directory_returns_2(self, tiny_file, tmp_path,
                                               capsys):
        rc = run_main(["sweep-snr", "--config", tiny_file, *self.COMMON,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "is a directory" in capsys.readouterr().err

    def test_negative_loading_returns_2_without_traceback(self, tiny_file,
                                                          tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(Path(tiny_file).read_text() + "lam_t = -0.5\n")
        rc = run_main(["sweep-snr", "--config", str(path), *self.COMMON,
                       "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lam_t" in err and "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "chips = 0", "paths = 0", "relays = -1", "mmse_iters = 0",
        "mmse_tol = 0", "mmse_tol = nan", "delta = 0", "delta = -1",
        "delta = inf", "shadowing_std_db = -3", "shadowing_std_db = nan",
        "snr_grid = 0,nan", "snr_grid = ", "snr_grid = 4000",
        "snr_grid = -4000", "snr_grid = -3100", "seed = -1",
    ])
    def test_out_of_range_field_returns_2_without_traceback(self, tiny_file,
                                                            tmp_path, capsys,
                                                            line):
        path = tmp_path / "bad.cfg"
        path.write_text(Path(tiny_file).read_text() + line + "\n")
        out = tmp_path / "r.csv"
        rc = run_main(["sweep-snr", "--config", str(path), "--trials", "1",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert line.split(" = ")[0] in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_flag_returns_2(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = run_main(["sweep-snr", "--seed", "-1", "--snr", "9", "--variant",
                       "exact", "--scheme", "cis", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-snr", "learning-curve"])
    def test_user_list_outside_user_sweep_returns_2(self, tiny_file, tmp_path,
                                                    capsys, command):
        out = tmp_path / "r.csv"
        rc = run_main([command, "--config", tiny_file, "--trials", "1",
                       "--snr", "12", "--scheme", "ncis", "--users", "2,3",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "users" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_users_in_grid_returns_2(self, tiny_file, tmp_path, capsys):
        rc = run_main(["sweep-users", "--config", tiny_file, "--trials", "1",
                       "--users", "0,2", "--out", str(tmp_path / "u.csv")])
        assert rc == 2
        assert "users" in capsys.readouterr().err
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("command,users", [("sweep-users", "2,3"),
                                               ("learning-curve", "2")])
    def test_snr_grid_for_fixed_snr_command_returns_2(self, tiny_file,
                                                      tmp_path, capsys,
                                                      command, users):
        """A fixed-SNR command refuses several SNRs instead of running the
        first one under a manifest that records them all."""
        out = tmp_path / "r.csv"
        rc = run_main([command, "--config", tiny_file, "--trials", "1",
                       "--scheme", "ncis", "--users", users, "--snr", "0,18",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "snr_grid" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-snr", "sweep-users",
                                         "learning-curve"])
    @pytest.mark.parametrize("flag,key", [("--snr", "snr_grid"),
                                          ("--users", "users"),
                                          ("--config", "config"),
                                          ("--out", "out")])
    def test_empty_value_returns_2_before_running(
            self, tiny_file, tmp_path, capsys, monkeypatch, command, flag,
            key):
        """An empty flag value is refused before any packet runs, instead of
        falling back to its default (or, for --out, failing after the run)."""
        ran = []
        for name in ("run_experiment", "run_user_sweep", "learning_curve"):
            monkeypatch.setattr(cli.harness, name,
                                lambda *a, name=name: ran.append(name))
        args = {"--config": tiny_file, "--snr": "9", "--users": "2",
                "--out": str(tmp_path / "r.csv")}
        args[flag] = ""
        rc = run_main([command, "--trials", "1",
                       *(item for pair in args.items() for item in pair)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {key}" in err and "Traceback" not in err
        assert ran == []

    def test_unwritable_out_returns_2(self, tiny_file, tmp_path, capsys):
        """A write error on the result file (here a dangling symlink into a
        missing directory, which passes the checks before the run) is
        reported with exit code 2, not as a traceback."""
        out = tmp_path / "r.csv"
        out.symlink_to(tmp_path / "no-such-dir" / "r.csv")
        rc = run_main(["sweep-snr", "--config", tiny_file, *self.COMMON,
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: out: cannot write {out}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "no-such-dir").exists()

    def test_trials_with_full_scale_exits_2(self, tiny_file, tmp_path,
                                            capsys, monkeypatch):
        """--trials and --full-scale name two trial counts: the command is
        refused before any packet runs, not run at 1000 trials."""
        monkeypatch.setattr(cli.harness, "run_experiment",
                            lambda *a: pytest.fail("a sweep ran"))
        with pytest.raises(SystemExit) as exc:
            run_main(["sweep-snr", "--config", tiny_file, "--trials", "5",
                      "--full-scale", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_validate_passes(self, capsys):
        assert run_main(["validate"]) == 0
        assert "PASS" in capsys.readouterr().out
