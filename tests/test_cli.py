import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import distid
from distid import (
    BoundReport,
    FamilySequenceSpec,
    GrowthRule,
    estimate_error_prob,
    identifiability_trend,
    make_family,
    pairwise_error_exponent,
)
from distid.cli import (
    DEFAULT_SEED,
    ConfigError,
    build_config,
    main,
    parse_config,
    _allowed_keys,
    run,
)
from distid.bounds import DEFAULT_PAIRS_BUDGET
from distid.distributions import philox_stream

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

    @pytest.mark.parametrize("line, text", [
        ("n = 10**6", "'10**6'"),
        ("family.kind = binary-grid", "'binary-grid'"),
        ("n = {[1]: 2}", "'{[1]: 2}'"),   # literal_eval raises TypeError here
        # literal_eval raises SyntaxError on these
        ("n = [1, 2", "'[1, 2'"),
        ("family.kind = 'binary-grid", "\"'binary-grid\""),
        ("n =", "''"),
        ("n = int('5')", "\"int('5')\""),
    ])
    def test_a_value_that_is_not_a_literal_exits_2_with_a_stable_message(
            self, tmp_path, capsys, line, text):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"# heading\n{line}\n")
        errors = []
        for _ in range(2):
            assert main(["bounds", "--config", str(cfg_path)]) == 2
            errors.append(capsys.readouterr().err)
        key = line.partition(" =")[0]
        assert errors[0] == errors[1]
        assert errors[0] == (f"error: line 2: the value of {key!r} is not a Python "
                             f"literal: {text} (values are numbers, booleans, lists "
                             f"or quoted strings; a string needs quotes)\n")


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

    # the keys each subcommand takes, written out: the fuzzer draws its keys
    # from _allowed_keys, so it cannot see one dropped from the command table
    COMMON = {"seed", "out", "format", "workers"}
    FAMILY = {"family.kind", "family.pmfs", "family.size", "family.theta_min",
              "family.theta_max", "family.alphabet", "family.seed"}
    KEYS = {
        "bounds": COMMON | FAMILY | {"n", "n_grid"},
        "simulate": COMMON | FAMILY | {"n", "n_grid", "trials"},
        "lemma": COMMON | {"k", "r", "trials"},
        "exponent": COMMON | FAMILY | {"n_grid", "trials"},
        "sweep": COMMON | FAMILY | {"growth.kind", "growth.size", "growth.degree",
                                    "growth.rate", "n_grid", "pairs_budget"},
    }

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_allowed_keys(self, command):
        assert _allowed_keys(command) == self.KEYS[command]

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_trials_and_pairs_budget_defaults(self, command):
        entries = {key: value for key, value in VALID[command].items() if key != "trials"}
        cfg = build_config(command, parse_config(config_text(entries)))
        if command in ("simulate", "exponent", "lemma"):
            assert cfg.trials == (1 if command == "lemma" else 10_000)
        assert cfg.pairs_budget == (DEFAULT_PAIRS_BUDGET if command == "sweep" else None)


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
        fam = make_family([(0.5, 0.5), (0.9, 0.1)])
        reports = [BoundReport.from_family(fam, n) for n in (10, 40)]
        assert reports[0].upper is None
        assert payload == {"command": "bounds",
                           "reports": [r.to_json_dict() for r in reports]}

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
        fam = make_family([(0.5, 0.5), (0.9, 0.1)])
        assert payload["estimates"] == [
            estimate_error_prob(fam, n, 500, DEFAULT_SEED).to_json_dict()
            for n in (10, 40)]
        assert payload["bounds"] == [BoundReport.from_family(fam, n).to_json_dict()
                                     for n in (10, 40)]

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
        assert len(lines) == 2  # the header and one mean-gain row
        assert lines[1].startswith("mean-gain,4,4,0,")
        assert lines[1].endswith(",true")

    def test_lemma_all_r(self, tmp_path):
        code, out = run_command(tmp_path, "lemma", 'k = 5\nr = "all"\ntrials = 2\n')
        assert code == 0
        lines = out.read_text().splitlines()
        mean_rows = [l for l in lines if l.startswith("mean-gain")]
        assert len(mean_rows) == 2 * 4  # r in 2..5, two trials each
        assert all(l.endswith(",true") for l in mean_rows)

    # sha256 of lemma output at k = 7, 8, 9 (r = "all", two trials, the
    # default seed), recorded with numpy 2.4.6 on Python 3.11.7; the
    # weights are drawn through numpy's Philox generator
    LEMMA_GOLDEN = {
        (7, "csv"): "66662124a915e2f0f8463fb77eaad8116bfadc7724c718a89bfe505c25f1a696",
        (7, "json"): "9caa855108f6096d931c3e3e57068e15cc8e793eb63224c9714829bd6ef622ba",
        (8, "csv"): "a35b78d0831147b80969d0baf342a244e34b6716f1ff091f6c872e342bc28284",
        (8, "json"): "d27ef5beaa95558a34664ecfe2e579e6c1794749907e5a91a9bbc2f807c5331f",
        (9, "csv"): "1dbd7f25208ea35c194cd1c3abf918dff6417a0aa89db426a3e2a0a517238eba",
        (9, "json"): "4674efe77beaa8334ed4089ee7246de50df55aacf006942201775c6e3d105978",
    }

    @pytest.mark.parametrize("k, fmt", sorted(LEMMA_GOLDEN))
    def test_lemma_bytes(self, tmp_path, k, fmt):
        code, out = run_command(tmp_path, "lemma", f'k = {k}\nr = "all"\ntrials = 2\n',
                                fmt=fmt)
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.LEMMA_GOLDEN[k, fmt]

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
        fam = make_family([(0.5, 0.5), (0.9, 0.1)])
        fit = pairwise_error_exponent(fam[0], fam[1], (5, 10, 15), 20000, DEFAULT_SEED)
        assert payload["fit"] == fit.to_json_dict()

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
        report = identifiability_trend(FamilySequenceSpec(
            GrowthRule("constant", 2),
            {"kind": "binary-grid", "theta_min": 0.2, "theta_max": 0.8},
            (10, 20, 30, 40)))
        assert payload["trend"] == report.to_json_dict()

    def test_sweep_of_disjoint_pair_has_no_slope(self, tmp_path):
        text = ('family.kind = "explicit"\n'
                "family.pmfs = [[1.0, 0.0], [0.0, 1.0]]\n"
                'growth.kind = "constant"\ngrowth.size = 2\n'
                "n_grid = [1, 2, 3]\n")
        code, out = run_command(tmp_path, "sweep", text)
        assert code == 0
        assert out.read_text().splitlines()[1:] == [
            f"{n},2,0,-inf,nan,identifiable-trend" for n in (1, 2, 3)]
        code, out = run_command(tmp_path, "sweep", text, fmt="json")
        trend = json.loads(out.read_text())["trend"]
        assert trend["slope"] is None
        assert [p["log_S"] for p in trend["points"]] == [-math.inf] * 3

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

    HELP = {
        "bounds": "pairwise-sum bound reports over blocklengths",
        "simulate": "Monte Carlo error estimates with matching bounds",
        "lemma": "mean-gain inequality checks on random weighted graphs",
        "exponent": "pairwise error-exponent fit",
        "sweep": "identifiability trend along a family sequence",
    }

    def test_help_lists_each_subcommand_with_its_help_line(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "120")   # no help line wraps
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{bounds,simulate,lemma,exponent,sweep}" in out
        for name, doc in self.HELP.items():
            assert re.search(rf"^ +{name} +{re.escape(doc)}$", out, re.M), name

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(PAIR_CFG + "trails = 7\n")
        assert main(["bounds", "--config", str(cfg_path)]) == 2

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"\xff\xfe" + PAIR_CFG.encode())
        out = tmp_path / "out.csv"
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config is not UTF-8 text") and err.count("\n") == 1
        assert not out.exists()


def config_text(entries: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in entries.items())


BINARY_GRID = {"family.kind": "binary-grid", "family.size": 3,
               "family.theta_min": 0.1, "family.theta_max": 0.9, "n": 5}
RANDOM_SIMPLEX = {"family.kind": "random-simplex", "family.size": 3,
                  "family.alphabet": 3, "family.seed": 1, "n": 5}
EXPLICIT = {"family.kind": "explicit", "family.pmfs": [[0.5, 0.5], [0.9, 0.1]], "n": 5}
SWEEP = {"family.kind": "explicit", "family.pmfs": [[0.5, 0.5], [0.9, 0.1]],
         "growth.kind": "constant", "growth.size": 2, "n_grid": [10, 20]}
GRID_TEMPLATE = {"family.kind": "binary-grid", "family.theta_min": 0.2,
                 "family.theta_max": 0.8, "n_grid": [10, 200]}

# Small valid configs, one per subcommand, that the fuzzer mutates.
VALID = {
    "bounds": EXPLICIT,
    "simulate": {**BINARY_GRID, "trials": 64},
    "lemma": {"k": 4, "r": "all", "trials": 2},
    "exponent": {"family.kind": "explicit", "family.pmfs": [[0.5, 0.5], [0.9, 0.1]],
                 "n_grid": [2, 4, 6], "trials": 2000},
    "sweep": {"family.kind": "random-simplex", "family.alphabet": 3, "family.seed": 7,
              "growth.kind": "constant", "growth.size": 3, "n_grid": [5, 10, 20, 40]},
}

# An exponent config on three symbols: its trials run mc's swap-event blocks.
TRINOMIAL_EXPONENT = {**VALID["exponent"],
                      "family.pmfs": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]}

# Wrong types, None, floats for ints, empty lists and out-of-range values;
# every integer is small, so no mutant asks for a large allocation.
MUTANTS = [None, True, 1.5, 4.7, "4", "x", "json", "all", -1, 0, 1, 2, [], [1], [[]],
           [5, 6], [0.5, 0.5], [[0.5, 0.5]], [[0.5, 0.5], None], [[1.0, 0.0], [0.0, 1.0]],
           {"a": 1}]


def run_main(tmp_path, capsys, command, entries, name):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(config_text(entries))
    out = tmp_path / f"{name}.out"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    return code, out, capsys.readouterr().err


class TestConfigValidation:
    @pytest.mark.parametrize("command,entries", [
        pytest.param("bounds", {**EXPLICIT, "family.pmfs": 5}, id="pmfs-int"),
        pytest.param("bounds", {**EXPLICIT, "family.pmfs": [5, 6]}, id="pmfs-flat"),
        pytest.param("bounds", {**EXPLICIT, "family.pmfs": [[0.5, 0.5], None]},
                     id="pmfs-none-row"),
        pytest.param("bounds", {**BINARY_GRID, "family.size": None}, id="size-none"),
        pytest.param("bounds", {**BINARY_GRID, "family.theta_min": None},
                     id="theta-none"),
        pytest.param("bounds", {**RANDOM_SIMPLEX, "family.seed": None}, id="seed-none"),
        pytest.param("sweep", {**SWEEP, "family.pmfs": 3}, id="sweep-pmfs-int"),
        pytest.param("bounds", {**BINARY_GRID, "family.size": 4.7}, id="size-float"),
        pytest.param("bounds", {**BINARY_GRID, "family.size": "4"}, id="size-str"),
        pytest.param("bounds", {**RANDOM_SIMPLEX, "family.alphabet": 2.9},
                     id="alphabet-float"),
        pytest.param("bounds", {**RANDOM_SIMPLEX, "family.seed": 1.5}, id="seed-float"),
        pytest.param("lemma", {"k": 1}, id="lemma-k1"),
        pytest.param("bounds", {**EXPLICIT, "family.size": 7, "family.theta_min": 0.3},
                     id="keys-of-another-kind"),
    ])
    def test_malformed_family_and_lemma_keys_exit_2(self, tmp_path, capsys,
                                                    command, entries):
        code, out, err = run_main(tmp_path, capsys, command, entries, "bad")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,entries,code,named", [
        # the config text alone decides these
        pytest.param("bounds", {"family.kind": "binary-grid", "family.size": 3,
                                "family.theta_min": 0.1, "n": 5}, 2, "theta_max",
                     id="no-theta-max"),
        pytest.param("bounds", {**BINARY_GRID, "family.size": 1}, 2, "size", id="size-1"),
        pytest.param("bounds", {**RANDOM_SIMPLEX, "family.seed": -1}, 2, "seed",
                     id="seed-negative"),
        pytest.param("exponent", {**VALID["exponent"], "n_grid": [2, 4]}, 2, "n_grid",
                     id="exponent-grid-2"),
        pytest.param("sweep", {**SWEEP, "n_grid": [10]}, 2, "n_grid", id="sweep-grid-1"),
        pytest.param("sweep", {**SWEEP, "growth.size": 2.5}, 2, "size",
                     id="growth-size-float"),
        pytest.param("sweep", {**GRID_TEMPLATE, "growth.kind": "polynomial",
                               "growth.degree": 0.1, "n_grid": [1, 2]}, 2,
                     "family size at n=1 is 1", id="growth-size-below-2"),
        pytest.param("sweep", {**SWEEP, "growth.size": 3}, 2,
                     "template provides 2 members but the growth rule requires 3",
                     id="template-too-short"),
        pytest.param("lemma", {"k": 4, "r": 7}, 2, "r=7", id="lemma-r-over-k"),
        pytest.param("bounds", {**EXPLICIT, "family.pmfs": [[0.5, 0.5]]}, 2,
                     "at least 2 members, got 1", id="one-member"),
        pytest.param("simulate", {**EXPLICIT, "family.pmfs": [[0.5, 0.5]], "trials": 64},
                     2, "at least 2 members, got 1", id="simulate-one-member"),
        pytest.param("bounds", {**EXPLICIT, "family.pmfs": [[0.5, 0.6], [0.9, 0.1]]}, 2,
                     "probs must sum to 1", id="row-sum"),
        pytest.param("bounds", {**EXPLICIT, "family.pmfs": [[0.5, 0.5], [0.2, 0.3, 0.5]]},
                     2, "share one alphabet size", id="row-lengths"),
        pytest.param("bounds", {**EXPLICIT, "family.pmfs": [[1.5, -0.5], [0.9, 0.1]]}, 2,
                     "probs must be nonnegative", id="row-negative"),
        pytest.param("sweep", {**SWEEP, "family.pmfs": [[0.5, 0.5], [0.9, 0.2]]}, 2,
                     "probs must sum to 1", id="sweep-template-row-sum"),
        # a run finds these
        pytest.param("bounds", {**EXPLICIT, "family.pmfs": [[0.5, 0.5], [0.5, 0.5]]}, 3,
                     "not distinct", id="duplicate-members"),
        pytest.param("sweep", {**GRID_TEMPLATE, "growth.kind": "exponential",
                               "growth.rate": 5.0}, 3, "overflows", id="exponential-overflow"),
        pytest.param("sweep", {**GRID_TEMPLATE, "growth.kind": "polynomial",
                               "growth.degree": 400.0}, 3, "overflows",
                     id="polynomial-overflow"),
        pytest.param("sweep", {**GRID_TEMPLATE, "growth.kind": "constant",
                               "growth.size": 200}, 3, "budget", id="over-budget"),
        pytest.param("exponent", {**VALID["exponent"], "n_grid": list(range(10, 81, 10)),
                                  "trials": 100}, 3, "too few", id="too-few-fit-points"),
        # counts numpy's samplers cannot take, named before any block runs
        pytest.param("simulate", {**VALID["simulate"], "n": 2**63}, 3,
                     "n = 9223372036854775808 is above 2^63 - 1", id="simulate-n-2^63"),
        pytest.param("exponent", {**VALID["exponent"], "trials": 2**63}, 3,
                     "trials = 9223372036854775808 is above 2^63 - 1",
                     id="binary-exponent-trials-2^63"),
        pytest.param("exponent", {**TRINOMIAL_EXPONENT, "n_grid": [2, 4, 2**63]}, 3,
                     "n_grid entry = 9223372036854775808 is above 2^63 - 1",
                     id="trinomial-exponent-n-2^63"),
    ])
    def test_exit_code_table(self, tmp_path, capsys, command, entries, code, named):
        got, out, err = run_main(tmp_path, capsys, command, entries, "table")
        assert got == code
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("command, entries", [
        ("bounds", {**EXPLICIT, "n": 2**63}),
        ("exponent", {**VALID["exponent"], "n_grid": [2, 4, 6, 2**63]}),
    ])
    def test_a_blocklength_past_the_samplers_runs_where_none_is_drawn(
            self, tmp_path, capsys, command, entries):
        # the bounds are closed forms, and a binary exponent's count at
        # n = 2^63 is one binomial draw with probability 0.0
        code, out, err = run_main(tmp_path, capsys, command, entries, "far")
        assert code == 0, err
        assert out.exists()

    @pytest.mark.parametrize("family", [
        {"family.kind": "explicit", "family.pmfs": [[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]]},
        {"family.kind": "binary-grid", "family.size": 3,
         "family.theta_min": 0.1, "family.theta_max": 0.9},
    ], ids=["explicit", "binary-grid"])
    def test_exponent_counts_the_family_before_building_it(self, tmp_path, capsys,
                                                           monkeypatch, family):
        def build(spec):
            raise AssertionError("make_family ran")
        monkeypatch.setattr("distid.cli.make_family", build)
        code, out, err = run_main(tmp_path, capsys, "exponent",
                                  {**family, "n_grid": [2, 4, 6]}, "three")
        assert code == 2
        assert err == "error: exponent needs a family of exactly 2 members, got 3\n"
        assert not out.exists()

    def test_seeded_config_fuzzer(self, tmp_path, capsys):
        # valid configs and mutations of them, for every subcommand: each
        # run ends with a documented exit code, and a successful run writes
        # output that parses back
        codes = {}
        for case in range(400):
            rng = philox_stream(0xF022, case)
            command = sorted(VALID)[case % len(VALID)]
            entries = dict(VALID[command])
            keys = sorted(_allowed_keys(command) - {"out"}) + ["bogus"]
            for _ in range(int(rng.integers(0, 3))):
                key = keys[int(rng.integers(len(keys)))]
                if key in entries and rng.random() < 0.2:
                    del entries[key]
                else:
                    entries[key] = MUTANTS[int(rng.integers(len(MUTANTS)))]
            code, out, err = run_main(tmp_path, capsys, command, entries, str(case))
            assert code in (0, 2, 3, 4), (command, entries)
            assert "Traceback" not in err
            codes[code] = codes.get(code, 0) + 1
            if code != 0:
                continue
            if entries.get("format") == "json":
                assert json.loads(out.read_text())["command"] == command
            else:
                rows = list(csv.reader(out.read_text().splitlines()))
                assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows)
        assert sorted(codes) == [0, 2, 3]   # every path ran


# Runs in a fresh interpreter: prints the modules loaded after the call.
LOADED_PROBE = """
import sys
from distid.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""

# Checks the package's lazy names in a fresh interpreter; prints ok.
PACKAGE_PROBE = """
import sys
import distid
assert not [m for m in sys.modules if m.startswith("distid.")]
assert set(distid.__all__) <= set(dir(distid))
from distid import *
assert all(getattr(distid, name) is globals()[name] for name in distid.__all__)
assert not hasattr(distid, "no_such_name")
# every name in each module's __all__ exists
from distid.bounds import *
from distid.decoder import *
from distid.distributions import *
from distid.exact import *
from distid.graphs import *
from distid.mc import *
from distid.cli import *
# the package exports exactly each module's __all__
for module, names in distid._EXPORTS.items():
    assert set(sys.modules[f"distid.{module}"].__all__) == set(names), module
print("ok")
"""

# Modules that only simulate, lemma and m >= 3 exponent runs need.
HEAVY = {"distid.mc", "distid.decoder", "distid.graphs"}

# No subcommand loads these: a thread pool, with the logging it imports,
# and dataclasses, which build each record's methods by exec.
NEVER = {"concurrent.futures", "logging", "dataclasses"}


def fresh_python(code, *args, timeout=120):
    """Run code in a new interpreter that imports distid from this tree:
    (exit code, last line of stdout, stderr)."""
    src = str(Path(distid.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, text=True,
                          timeout=timeout)
    return proc.returncode, (proc.stdout.splitlines() or [""])[-1], proc.stderr


class TestImports:
    """In-process tests cannot see a missing lazy import, because the test
    files have imported every module already."""

    @pytest.mark.parametrize("command, entries, loads, unloaded", [
        ("bounds", EXPLICIT, {"distid.bounds"}, HEAVY | {"distid.exact"}),
        ("sweep", VALID["sweep"], {"distid.bounds"}, HEAVY | {"distid.exact"}),
        # a binary pair compares exact products without fractions or decimal
        ("exponent", VALID["exponent"], {"distid.exact"},
         HEAVY | {"distid.bounds", "fractions", "decimal"}),
        ("exponent", TRINOMIAL_EXPONENT, {"distid.exact", "distid.mc"},
         HEAVY - {"distid.mc"} | {"distid.bounds"}),
        ("simulate", VALID["simulate"], {"distid.bounds", "distid.mc", "distid.decoder"},
         {"fractions"}),
        ("lemma", VALID["lemma"], {"distid.graphs"},
         HEAVY - {"distid.graphs"} | {"distid.bounds", "distid.exact"}),
    ])
    def test_each_subcommand_loads_only_what_it_runs(self, tmp_path, command,
                                                     entries, loads, unloaded):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_text(entries))
        # two workers start a helper thread where the run dispatches blocks
        code, loaded, err = fresh_python(LOADED_PROBE, command, "--config", str(cfg_path),
                                         "--out", str(tmp_path / "out"), "--workers", "2")
        assert code == 0, err
        assert {"distid.cli"} | loads <= set(loaded.split())
        assert not (unloaded | NEVER) & set(loaded.split())

    def test_importing_the_cli_skips_argparse(self):
        # the benchmark's set-up spawn imports distid.cli and calls nothing
        code, out, err = fresh_python(
            "import sys, distid.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
        assert (code, out) == (0, "[]"), err

    def test_importing_the_cli_loads_no_bounds(self):
        # bounds loads inside the runners and the sweep config branch
        code, out, err = fresh_python(
            "import sys, distid.cli; print(sorted(m for m in sys.modules if m.startswith('distid.')))")
        assert (code, out) == (0, "['distid.cli', 'distid.distributions']"), err

    def test_the_package_loads_a_module_on_first_use_of_its_names(self):
        code, out, err = fresh_python(PACKAGE_PROBE)
        assert (code, out) == (0, "ok"), err


# Runs in a fresh interpreter: prints the peak RSS in MiB after the call.
RSS_PROBE = """
import resource, sys
from distid.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
sys.exit(code)
"""


class TestBinaryExponentScale:
    @pytest.mark.parametrize("pmfs, n, exit_code", [
        # the swap probability underflows: no pmf is built, and too few
        # grid points keep 50 events
        ([[0.5, 0.5], [0.9, 0.1]], 10000000, 3),
        ([[0.5, 0.5], [0.9, 0.1]], 4611686018427387904, 3),   # 2^62
        # a close pair, whose probability stays near 1/2: only the counts
        # near the means are summed
        ([[0.5, 0.5], [0.5001, 0.4999]], 10000000, 0),
        # a closer pair at n = 10^12 would sum 4.0e7 counts: it stops at once
        ([[0.5, 0.5], [0.500001, 0.499999]], 10**12, 3),
    ])
    def test_a_large_blocklength_takes_bounded_time_and_memory(self, tmp_path, pmfs, n,
                                                               exit_code):
        # summing the pmfs over all n + 1 counts took 15 s and 800 MiB on
        # the close pair at n = 10^7, and cannot end at 2^62
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_text({"family.kind": "explicit", "family.pmfs": pmfs,
                                         "n_grid": [10, 20, n], "trials": 2000}))
        code, peak_mib, err = fresh_python(RSS_PROBE, "exponent", "--config", str(cfg_path),
                                           "--out", str(tmp_path / "out.csv"), timeout=60)
        assert code == exit_code, err
        assert float(peak_mib) < 100
