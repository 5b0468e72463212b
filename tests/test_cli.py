"""Config loading, override precedence, and the three subcommands."""

import csv
import json

import numpy as np
import pytest

from intervalfusion import GbiWeights, cli, gbi_bayes_weights, scenario
from intervalfusion.cli import (
    ConfigError,
    _fit_rng,
    load_config,
    main,
    run_oracle_check,
    run_sweep,
)


def write_config(tmp_path, **overrides):
    base = dict(
        n=5,
        m=2,
        x_max=5,
        seed=4242,
        taus=[1],
        algorithms=["marzullo", "bi"],
        trials=120,
        moment_samples=10_000,
        output_path=str(tmp_path / "out.csv"),
    )
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return str(path), base


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path, raw = write_config(tmp_path, lambdas=[0.25, 0.5])
        config = load_config(path)
        assert config.n == 5
        assert config.taus == (1,)
        assert config.lambdas == (0.25, 0.5)
        assert config.format == "csv"
        assert config.moment_samples == 10_000

    @pytest.mark.parametrize(
        "overrides,needle",
        [
            (dict(n="five"), "'n'"),
            (dict(m=0), "'m'"),
            (dict(x_max=0), "'x_max'"),
            (dict(trials=99), "'trials'"),
            (dict(taus=[]), "'taus'"),
            (dict(taus=[5]), "'taus'"),
            (dict(lambdas=[1.5]), "'lambdas'"),
            (dict(format="xml"), "'format'"),
            (dict(output_path=""), "'output_path'"),
            (dict(moment_samples=10), "'moment_samples'"),
        ],
    )
    def test_errors_name_the_field(self, tmp_path, overrides, needle):
        path, _ = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert needle in str(info.value)

    def test_tau_bound_without_marzullo_is_n_minus_one(self, tmp_path):
        # BI, GBI and linear fusers run with a single truthful sensor
        path, _ = write_config(tmp_path, taus=[4], algorithms=["bi", "gbi_oneopt", "linear@0.5"])
        config = load_config(path)
        assert config.taus == (4,)
        rows = run_sweep(config)
        assert [r["algorithm"] for r in rows] == ["bi", "gbi_oneopt", "linear@0.5"]
        path, _ = write_config(tmp_path, taus=[5], algorithms=["bi"])
        with pytest.raises(ConfigError, match="'taus'"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, banana=1)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "banana" in str(info.value)

    def test_missing_key_rejected(self, tmp_path):
        raw = dict(n=5, m=2, x_max=5, seed=1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert "taus" in str(info.value)

    def test_not_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("taus: [1]")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "selector",
        ["median", "linear@1.5", "linear@abc", "constant@", "gbi"],
    )
    def test_bad_selector(self, tmp_path, selector):
        path, _ = write_config(tmp_path, algorithms=[selector])
        with pytest.raises(ConfigError):
            load_config(path)

    def test_linear_requires_lambdas(self, tmp_path):
        path, _ = write_config(tmp_path, algorithms=["linear"])
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "lambdas" in str(info.value)

    def test_duplicate_instances_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, algorithms=["linear@0.5"], lambdas=[0.5, 0.5])
        load_config(path)  # plain list of lambdas is fine when unused
        path, _ = write_config(tmp_path, algorithms=["linear", "linear@0.5"], lambdas=[0.5])
        with pytest.raises(ConfigError):
            load_config(path)


class TestOverrides:
    def test_env_overrides_file(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path)
        monkeypatch.setenv("INTERVALFUSION_SEED", "777")
        monkeypatch.setenv("INTERVALFUSION_TRIALS", "150")
        config = load_config(path)
        assert config.seed == 777
        assert config.trials == 150

    def test_flags_override_env(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path)
        monkeypatch.setenv("INTERVALFUSION_SEED", "777")
        monkeypatch.setenv("INTERVALFUSION_TRIALS", "150")
        config = load_config(path, seed_override=9, trials_override=200,
                             out_override=str(tmp_path / "other.csv"))
        assert config.seed == 9
        assert config.trials == 200
        assert config.output_path.endswith("other.csv")

    def test_bad_env_value(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path)
        monkeypatch.setenv("INTERVALFUSION_SEED", "lots")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "INTERVALFUSION_SEED" in str(info.value)


class TestSweep:
    def test_row_schema(self, tmp_path):
        path, raw = write_config(
            tmp_path, algorithms=["marzullo", "bi", "gbi_oneopt", "constant@0"], taus=[0, 1]
        )
        assert main(["sweep", "--config", path]) == 0
        rows = read_rows(raw["output_path"])
        assert len(rows) == 8
        assert [r["algorithm"] for r in rows[:4]] == ["marzullo", "bi", "gbi_oneopt", "constant@0"]
        for row in rows:
            assert row["trials"] == "120"
            assert row["seed"] == "4242"
            assert row["lambda"] == ""
            assert row["objective"] == ""
            assert float(row["mse_agent_1"]) >= 0.0
        # readings are replicated across agents at tau=0, so gaps vanish
        for row in rows[:4]:
            assert float(row["cns_pair_1_2"]) == 0.0

    def test_linear_rows_carry_objective(self, tmp_path):
        path, raw = write_config(tmp_path, algorithms=["linear@0.5"], trials=150)
        assert main(["sweep", "--config", path]) == 0
        row, = read_rows(raw["output_path"])
        assert row["algorithm"] == "linear@0.5"
        assert row["lambda"] == "0.5"
        objective = float(row["objective"])
        lam = 0.5
        recombined = lam * (float(row["mse_agent_1"]) + float(row["mse_agent_2"]))
        recombined += (1 - lam) * float(row["cns_pair_1_2"])
        assert objective == pytest.approx(recombined, rel=1e-9)
        assert row["flags"] in ("", "fit_substituted")

    def test_large_n_gbi_sweep(self, tmp_path):
        # C(40, 20) ~ 1.4e11 subsets: only the region fuser can run this cell
        path, raw = write_config(tmp_path, n=40, taus=[20], algorithms=["gbi_oneopt", "marzullo"],
                                 trials=100)
        rows = run_sweep(load_config(path))
        assert [r["algorithm"] for r in rows] == ["gbi_oneopt", "marzullo"]
        assert all(r["flags"] == "" for r in rows)

    def test_empty_algorithms_header_only(self, tmp_path):
        path, raw = write_config(tmp_path, algorithms=[])
        assert main(["sweep", "--config", path]) == 0
        with open(raw["output_path"]) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("algorithm,tau,lambda,mse_agent_1")

    def test_byte_identical_reruns(self, tmp_path):
        path, raw = write_config(
            tmp_path, algorithms=["marzullo", "bi", "gbi_oneopt", "linear@0.5"], trials=150
        )
        assert main(["sweep", "--config", path]) == 0
        first = open(raw["output_path"], "rb").read()
        assert main(["sweep", "--config", path]) == 0
        second = open(raw["output_path"], "rb").read()
        assert first == second
        assert len(first) > 100

    def test_seed_flag_lands_in_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERVALFUSION_SEED", "777")
        path, raw = write_config(tmp_path)
        assert main(["sweep", "--config", path, "--seed", "123"]) == 0
        rows = read_rows(raw["output_path"])
        assert all(r["seed"] == "123" for r in rows)

    def test_json_format(self, tmp_path):
        out = tmp_path / "out.json"
        path, _ = write_config(tmp_path, format="json", output_path=str(out))
        assert main(["sweep", "--config", path]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[0]["algorithm"] == "marzullo"
        assert rows[0]["lambda"] is None

    def test_linear_needs_two_agents(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, m=1, algorithms=["linear@0.5"])
        config = load_config(path)
        with pytest.raises(ConfigError):
            run_sweep(config)
        assert main(["sweep", "--config", path]) == 2
        assert "'m'" in capsys.readouterr().err

    def test_linear_runs_three_agents(self, tmp_path):
        path, raw = write_config(tmp_path, m=3, algorithms=["linear@0.5", "bi"], trials=150)
        assert main(["sweep", "--config", path]) == 0
        linear, bi = read_rows(raw["output_path"])
        assert linear["algorithm"] == "linear@0.5"
        # the recipe is two-agent only, so the fit always stands in for it
        assert linear["flags"] == "fit_substituted"
        mse = sum(float(linear[f"mse_agent_{j}"]) for j in (1, 2, 3))
        cns = sum(float(linear[f"cns_pair_{j}_{k}"]) for j, k in ((1, 2), (1, 3), (2, 3)))
        assert float(linear["objective"]) == pytest.approx(0.5 * mse + 0.5 / 2 * cns, rel=1e-9)
        assert bi["objective"] == ""

    def test_config_error_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, trials=5)
        assert main(["sweep", "--config", path]) == 2
        assert "'trials'" in capsys.readouterr().err

    def test_tau_bound_with_marzullo_is_n_minus_two(self, tmp_path, capsys, monkeypatch):
        # the config loads (other subcommands run tau = n-1); the sweep refuses
        # it before fitting or drawing anything
        path, _ = write_config(tmp_path, taus=[3], algorithms=["bi", "marzullo"])
        assert [r["tau"] for r in run_sweep(load_config(path))] == [3, 3]
        path, _ = write_config(tmp_path, taus=[0, 4], algorithms=["linear@0.5", "marzullo"])
        config = load_config(path)
        assert config.taus == (0, 4)

        def no_work(*args, **kwargs):
            raise AssertionError("the sweep fitted or evaluated before refusing the config")

        monkeypatch.setattr(cli, "select_linear_coefficients", no_work)
        monkeypatch.setattr(cli, "evaluate", no_work)
        with pytest.raises(ConfigError, match="'taus'"):
            run_sweep(config)
        assert main(["sweep", "--config", path]) == 2
        assert "'taus'" in capsys.readouterr().err


class TestOracleCheck:
    def test_passes_in_model(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, n=4, taus=[0, 1], trials=150)
        assert main(["oracle-check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "passed" in out
        assert "600 comparisons" in out

    def test_passes_at_tau_n_minus_one(self, tmp_path):
        path, _ = write_config(tmp_path, n=5, taus=[4], algorithms=["bi"], trials=100)
        worst, failures = run_oracle_check(load_config(path))
        assert not failures
        assert worst < 1e-9

    def test_runs_at_tau_n_minus_one_with_marzullo_listed(self, tmp_path, capsys):
        # the marzullo bound belongs to the sweep; oracle-check ignores algorithms
        path, _ = write_config(tmp_path, n=4, taus=[3], algorithms=["marzullo", "bi"], trials=100)
        assert main(["oracle-check", "--config", path]) == 0
        assert "200 comparisons" in capsys.readouterr().out

    def test_large_n_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, n=9, taus=[1])
        config = load_config(path)
        with pytest.raises(ConfigError):
            run_oracle_check(config)

    def test_corrupted_weights_detected(self, tmp_path):
        # negative control: a deliberately skewed weight table must be flagged
        # with the offending trial coordinates
        def corrupt(readings, tau):
            w = gbi_bayes_weights(readings, tau)
            return GbiWeights(subsets=w.subsets, weights=w.weights + 0.1, midpoints=w.midpoints)

        path, _ = write_config(tmp_path, n=3, taus=[1], trials=120)
        config = load_config(path)
        worst, failures = run_oracle_check(config, weight_fn=corrupt)
        assert failures
        assert worst > 1e-9
        tau, trial, agent, dev = failures[0]
        assert tau == 1
        assert 0 <= trial < 120
        assert agent in (0, 1)
        assert dev > 1e-9

    def test_region_kernel_deviations_named(self, tmp_path, monkeypatch):
        # negative control for the region half: shifting gbi_rows's estimate on
        # every fifth row must flag exactly those (tau, trial, agent) entries
        real = cli.gbi_rows

        def shifted(cov, tau):
            values, degenerate = real(cov, tau)
            return values + np.where(np.arange(values.size) % 5 == 0, 1e-6, 0.0), degenerate

        monkeypatch.setattr(cli, "gbi_rows", shifted)
        path, _ = write_config(tmp_path, n=4, taus=[1, 2], trials=150)
        worst, failures = run_oracle_check(load_config(path))
        # row t * 2 + j of a 128-trial block is agent j of trial block_start + t
        expected = [(tau, start + r // 2, r % 2) for tau in (1, 2) for start, size in ((0, 128), (128, 22))
                    for r in range(0, 2 * size, 5)]
        assert [entry[:3] for entry in failures] == expected
        assert all(dev == pytest.approx(1e-6, rel=1e-6) for *_, dev in failures)
        assert worst == pytest.approx(1e-6, rel=1e-6)

    def test_nan_region_estimate_fails(self, tmp_path, monkeypatch, capsys):
        # a nan from gbi_rows (a degenerate row) must fail the gate, not slip
        # past a > comparison
        real = cli.gbi_rows

        def nan_on_row_three(cov, tau):
            values, degenerate = real(cov, tau)
            values = values.copy()
            values[3] = np.nan
            return values, degenerate

        monkeypatch.setattr(cli, "gbi_rows", nan_on_row_three)
        path, _ = write_config(tmp_path, n=4, taus=[1, 2], trials=150)
        worst, failures = run_oracle_check(load_config(path))
        # row 3 of each block is agent 1 of the block's second trial
        assert failures == [(1, 1, 1, np.inf), (1, 129, 1, np.inf), (2, 1, 1, np.inf), (2, 129, 1, np.inf)]
        assert worst == np.inf
        assert main(["oracle-check", "--config", path]) == 1
        assert "tau=1 trial=1 agent=1 deviation=inf" in capsys.readouterr().err

    def test_hot_path_builds_no_intervals(self, tmp_path, monkeypatch):
        # the check runs on arrays: no Interval objects and no per-reading
        # scalar oracle
        def refuse(*args, **kwargs):
            raise AssertionError("called on the oracle-check hot path")

        monkeypatch.setattr(cli, "posterior_mean_exact", refuse)
        monkeypatch.setattr(scenario.Interval, "__init__", refuse)
        path, _ = write_config(tmp_path, n=5, taus=[1, 3], trials=150)
        worst, failures = run_oracle_check(load_config(path))
        assert not failures
        assert worst < 1e-9


def test_nearby_lambdas_fit_on_distinct_streams():
    # the two selectors get distinct labels, linear@0.123456 and
    # linear@0.123457, so they must not share one fitting stream
    a, b = 0.1234564999, 0.1234565001
    assert f"{a:g}" != f"{b:g}"
    assert _fit_rng(4242, 1, a).random() != _fit_rng(4242, 1, b).random()
    assert _fit_rng(4242, 1, a).random() == _fit_rng(4242, 1, a).random()


class TestFitLinear:
    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        path, _ = write_config(tmp_path, taus=[1])
        code = main(["fit-linear", "--config", path, "--lambda", "0.5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 1
        entry = payload[0]
        assert entry["tau"] == 1
        assert entry["lambda"] == 0.5
        assert len(entry["eps"]) == 2
        assert len(entry["eps"][0]) == 5
        assert isinstance(entry["closed_form_used"], bool)
        assert entry["empirical_objective"] > 0.0

    def test_runs_at_tau_n_minus_one_with_marzullo_listed(self, tmp_path):
        # fit-linear ignores algorithms, so the sweep's marzullo bound does not apply
        out = tmp_path / "fit.json"
        path, _ = write_config(tmp_path, n=5, taus=[4], algorithms=["marzullo", "bi"])
        assert main(["fit-linear", "--config", path, "--lambda", "0.5", "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())
        assert entry["tau"] == 4
        assert len(entry["eps"]) == 2

    def test_lambda_validated(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["fit-linear", "--config", path, "--lambda", "1.5"]) == 2

    def test_requires_two_agents(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, m=1)
        assert main(["fit-linear", "--config", path, "--lambda", "0.5"]) == 2
        assert "'m'" in capsys.readouterr().err

    def test_three_agents_get_three_coefficient_sets(self, tmp_path):
        out = tmp_path / "fit.json"
        path, _ = write_config(tmp_path, m=3, taus=[0, 2])
        assert main(["fit-linear", "--config", path, "--lambda", "0.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [entry["tau"] for entry in payload] == [0, 2]
        for entry in payload:
            assert len(entry["eps"]) == len(entry["delta"]) == len(entry["gamma"]) == 3
            assert all(len(eps) == 5 for eps in entry["eps"])
            assert entry["closed_form_used"] is False
            assert entry["closed_form_objective"] is None
            assert "m=3" in entry["closed_form_error"]
