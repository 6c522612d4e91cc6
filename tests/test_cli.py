import json
import math

import pytest

from distid import BoundReport, ExponentFit, McEstimate, TrendReport, make_family
from distid.cli import (
    DEFAULT_SEED,
    ConfigError,
    build_config,
    main,
    parse_config,
    run,
)

PAIR_CFG = """
family.kind = "explicit"
family.pmfs = [[0.5, 0.5], [0.9, 0.1]]
n_grid = [10, 40]
"""


class TestParseConfig:
    def test_basic_values(self):
        raw = parse_config('a = 1\nb = "x"\nc = [1, 2, [3, 4]]\n')
        assert raw == {"a": 1, "b": "x", "c": [1, 2, [3, 4]]}

    def test_skips_comments_and_blanks(self):
        raw = parse_config("# heading\n\nn = 5\n   # trailing comment line\n")
        assert raw == {"n": 5}

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("a = 1\nb = 2\nc = [1, 2\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("a = 1\nnot a pair\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("a = 1\na = 2\n")


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config("bounds", parse_config(PAIR_CFG))
        assert cfg.seed == DEFAULT_SEED == 0x5EED
        assert cfg.format == "csv"
        assert cfg.workers == 1
        assert cfg.out == "distid_bounds.csv"
        assert cfg.n_grid == (10, 40)

    def test_unknown_key_is_named(self):
        raw = parse_config(PAIR_CFG + "trails = 100\n")
        with pytest.raises(ConfigError, match="trails"):
            build_config("simulate", raw)

    def test_non_increasing_grid(self):
        raw = parse_config(
            'family.kind = "explicit"\n'
            "family.pmfs = [[0.5, 0.5], [0.9, 0.1]]\n"
            "n_grid = [10, 10]\n")
        with pytest.raises(ConfigError, match="increasing"):
            build_config("bounds", raw)

    def test_type_mismatch(self):
        raw = parse_config(PAIR_CFG + 'trials = "many"\n')
        with pytest.raises(ConfigError, match="trials"):
            build_config("simulate", raw)

    def test_flag_overrides_file(self):
        raw = parse_config(PAIR_CFG + "seed = 1\n")
        cfg = build_config("bounds", raw, overrides={"seed": 99})
        assert cfg.seed == 99

    def test_n_and_grid_conflict(self):
        raw = parse_config(PAIR_CFG + "n = 5\n")
        with pytest.raises(ConfigError, match="not both"):
            build_config("bounds", raw)

    def test_lemma_defaults(self):
        cfg = build_config("lemma", parse_config("k = 4\nr = 4\n"))
        assert cfg.trials == 1 and cfg.r == 4

    def test_sweep_requires_growth(self):
        raw = parse_config(
            'family.kind = "binary-grid"\n'
            "family.theta_min = 0.2\nfamily.theta_max = 0.8\n"
            "n_grid = [10, 20]\n")
        with pytest.raises(ConfigError, match="growth"):
            build_config("sweep", raw)


def run_command(tmp_path, command, text, fmt="csv", **overrides):
    out = tmp_path / f"{command}_{len(list(tmp_path.iterdir()))}.{fmt}"
    cfg = build_config(command, parse_config(text),
                       overrides={"out": str(out), "format": fmt, **overrides})
    code = run(cfg)
    return code, out


class TestRunCommands:
    def test_bounds_csv(self, tmp_path):
        code, out = run_command(tmp_path, "bounds", PAIR_CFG)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,A,S,log_S,upper,upper_applicable,lower"
        assert len(lines) == 3
        fields = lines[1].split(",")
        s = float(fields[2])
        assert s == pytest.approx(0.8**10, rel=1e-12)
        assert fields[4] == "nan" and fields[5] == "false"
        assert float(fields[6]) == pytest.approx(
            math.sqrt(s) / (8 + math.sqrt(s)), rel=1e-12)

    def test_csv_floats_round_trip(self, tmp_path):
        code, out = run_command(tmp_path, "bounds", PAIR_CFG)
        row = out.read_text().splitlines()[1].split(",")
        rep = BoundReport.from_family(make_family([(0.5, 0.5), (0.9, 0.1)]), 10)
        assert float(row[2]) == rep.s
        assert float(row[3]) == rep.log_s
        assert float(row[6]) == rep.lower

    def test_bounds_json_round_trip(self, tmp_path):
        code, out = run_command(tmp_path, "bounds", PAIR_CFG, fmt="json")
        assert code == 0
        payload = json.loads(out.read_text())
        reports = [BoundReport.from_json_dict(d) for d in payload["reports"]]
        fam = make_family([(0.5, 0.5), (0.9, 0.1)])
        assert reports == [BoundReport.from_family(fam, 10),
                           BoundReport.from_family(fam, 40)]

    def test_simulate_csv_and_determinism(self, tmp_path):
        text = PAIR_CFG + "trials = 2000\nseed = 12\n"
        code1, out1 = run_command(tmp_path, "simulate", text, workers=1)
        code2, out2 = run_command(tmp_path, "simulate", text, workers=3)
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ("n,A,trials,errors,p_hat,stderr,r2_count,"
                          "single_cycle_fraction,S,log_S,upper,"
                          "upper_applicable,lower")

    def test_simulate_json_round_trip(self, tmp_path):
        text = PAIR_CFG + "trials = 500\n"
        code, out = run_command(tmp_path, "simulate", text, fmt="json")
        assert code == 0
        payload = json.loads(out.read_text())
        estimates = [McEstimate.from_json_dict(d) for d in payload["estimates"]]
        assert len(estimates) == 2
        assert all(e.trials == 500 for e in estimates)

    def test_simulate_disjoint_pair_zero_errors(self, tmp_path):
        text = ('family.kind = "explicit"\n'
                "family.pmfs = [[1.0, 0.0], [0.0, 1.0]]\n"
                "n = 5\ntrials = 200\n")
        code, out = run_command(tmp_path, "simulate", text)
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "0" and float(row[4]) == 0.0

    def test_lemma_rows(self, tmp_path):
        code, out = run_command(tmp_path, "lemma", "k = 4\nr = 4\ntrials = 1\n")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,k,r,trial,lhs,rhs,holds"
        assert len(lines) == 3  # one mean-gain row, one expansion row
        assert lines[1].startswith("mean-gain,4,4,0,")
        assert lines[1].endswith(",true")
        assert lines[2].startswith("expansion,4,4,0,")

    def test_lemma_all_r(self, tmp_path):
        code, out = run_command(tmp_path, "lemma", 'k = 5\nr = "all"\ntrials = 2\n')
        assert code == 0
        lines = out.read_text().splitlines()
        mean_rows = [l for l in lines if l.startswith("mean-gain")]
        assert len(mean_rows) == 2 * 4  # r in 2..5, two trials each
        assert all(l.endswith(",true") for l in mean_rows)

    def test_exponent_csv(self, tmp_path):
        text = ('family.kind = "explicit"\n'
                "family.pmfs = [[0.5, 0.5], [0.9, 0.1]]\n"
                "n_grid = [5, 10, 15]\ntrials = 20000\n")
        code, out = run_command(tmp_path, "exponent", text)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,trials,errors,p_hat,used_in_fit,slope,target"
        assert len(lines) == 4

    def test_exponent_json_round_trip(self, tmp_path):
        text = ('family.kind = "explicit"\n'
                "family.pmfs = [[0.5, 0.5], [0.9, 0.1]]\n"
                "n_grid = [5, 10, 15]\ntrials = 20000\n")
        code, out = run_command(tmp_path, "exponent", text, fmt="json")
        payload = json.loads(out.read_text())
        fit = ExponentFit.from_json_dict(payload["fit"])
        assert fit.n_grid == (5, 10, 15)

    def test_sweep_csv_and_json(self, tmp_path):
        text = ('family.kind = "binary-grid"\n'
                "family.theta_min = 0.2\nfamily.theta_max = 0.8\n"
                'growth.kind = "constant"\ngrowth.size = 2\n'
                "n_grid = [10, 20, 30, 40]\n")
        code, out = run_command(tmp_path, "sweep", text)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,A,S,log_S,slope,verdict"
        assert all(l.endswith("identifiable-trend") for l in lines[1:])
        code, out = run_command(tmp_path, "sweep", text, fmt="json")
        payload = json.loads(out.read_text())
        report = TrendReport.from_json_dict(payload["trend"])
        assert report.verdict == "identifiable-trend"

    def test_precondition_violation_exits_3(self, tmp_path):
        text = ('family.kind = "explicit"\n'
                "family.pmfs = [[0.5, 0.5], [0.5, 0.5]]\n"  # duplicates
                "n = 5\n")
        code, _ = run_command(tmp_path, "bounds", text)
        assert code == 3

    @pytest.mark.parametrize("growth", ['growth.kind = "exponential"\ngrowth.rate = 5.0\n',
                                        'growth.kind = "polynomial"\ngrowth.degree = 400.0\n'])
    def test_overflowing_growth_exits_3(self, tmp_path, capsys, growth):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text('family.kind = "binary-grid"\n'
                            "family.theta_min = 0.2\nfamily.theta_max = 0.8\n"
                            + growth + "n_grid = [10, 200]\n")
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sweep.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_io_failure_exits_4(self, tmp_path):
        cfg = build_config("bounds", parse_config(PAIR_CFG),
                           overrides={"out": str(tmp_path / "no" / "dir.csv")})
        assert run(cfg) == 4


class TestMain:
    def test_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(PAIR_CFG)
        out = tmp_path / "report.csv"
        code = main(["bounds", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_missing_config_exits_4(self, tmp_path):
        assert main(["bounds", "--config", str(tmp_path / "absent.cfg")]) == 4

    def test_seed_flag_accepts_hex(self, tmp_path):
        cfg_path = tmp_path / "sim.cfg"
        cfg_path.write_text(PAIR_CFG + "trials = 500\n")
        written = {}
        for seed in ("0x5EED", "24301", "0x10", "16"):
            out = tmp_path / f"sim_{seed}.csv"
            assert main(["simulate", "--config", str(cfg_path), "--seed", seed,
                         "--out", str(out)]) == 0
            written[seed] = out.read_bytes()
        assert written["0x5EED"] == written["24301"]
        assert written["0x10"] == written["16"]
        assert written["16"] != written["24301"]

    def test_malformed_seed_flag_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(PAIR_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--config", str(cfg_path), "--seed", "abc"])
        assert exc.value.code == 2
        assert "invalid seed 'abc'" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(PAIR_CFG + "trails = 7\n")
        assert main(["bounds", "--config", str(cfg_path)]) == 2
