"""Config loading, override precedence, and the three subcommands."""

import csv
import hashlib
import json

import numpy as np
import pytest

from intervalfusion import (
    AlgorithmSpec,
    GbiWeights,
    LinearCoefficients,
    ScenarioParams,
    cli,
    evaluate,
    fusion,
    gbi_bayes_weights,
    optimal,
    posterior_rows,
    scenario,
    select_linear_exact,
)
from intervalfusion.cli import (
    ConfigError,
    _sweep_header,
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
        # the file's moment_samples key is accepted and ignored
        assert not hasattr(config, "moment_samples")

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
            (dict(seed=1.5), "'seed'"),
            (dict(taus=[2, 2]), "'taus'"),
            (dict(lambdas=0.5), "'lambdas'"),
            (dict(lambdas=["0.5"]), "'lambdas'"),
            (dict(lambdas=[True]), "'lambdas'"),
            (dict(algorithms="bi"), "'algorithms'"),
            (dict(algorithms=["bi", 3]), "'algorithms'"),
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

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))

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
        ["median", "linear@1.5", "linear@abc", "constant@", "gbi", "constant@inf", "constant@nan"],
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

    def test_duplicate_lambdas_named(self, tmp_path):
        # bare "linear" makes one instance per lambda, so the repeat is the lambdas' fault
        path, _ = write_config(tmp_path, algorithms=["linear"], lambdas=[0.5, 0.5])
        with pytest.raises(ConfigError, match="field 'lambdas'"):
            load_config(path)

    def test_lambdas_sharing_a_label_named(self, tmp_path):
        # labels keep six significant digits, so distinct lambdas can round to one label
        path, _ = write_config(tmp_path, algorithms=["linear"], lambdas=[0.1, 0.1000001])
        with pytest.raises(ConfigError, match=r"^field 'lambdas' holds distinct lambdas 0\.1 and 0\.1000001 "
                                              r"that share the label 'linear@0\.1'$"):
            load_config(path)

    @pytest.mark.parametrize("algorithms", [["linear@0.1", "linear@0.1000001"], ["linear", "linear@0.1000001"]],
                             ids=["two-selectors", "lambdas-and-selector"])
    def test_selectors_sharing_a_label_named(self, tmp_path, algorithms):
        path, _ = write_config(tmp_path, algorithms=algorithms, lambdas=[0.1])
        with pytest.raises(ConfigError, match=r"^field 'algorithms' holds distinct lambdas 0\.1 and 0\.1000001 "
                                              r"that share the label 'linear@0\.1'$"):
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
        for name in ("INTERVALFUSION_SEED", "INTERVALFUSION_TRIALS"):
            with monkeypatch.context() as env:
                env.setenv(name, "lots")
                with pytest.raises(ConfigError) as info:
                    load_config(path)
            assert name in str(info.value)


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
        # flags record only degenerate trials, and a linear fuser has none
        assert row["flags"] == ""

    def test_linear_fits_draw_nothing(self, tmp_path, monkeypatch):
        # the fits run on the exact law: no fitting batch is drawn, and a
        # moment_samples key, absent or of any value, is ignored
        monkeypatch.setattr(optimal, "sample_batch", no_draw)
        rows = []
        for samples in (None, 10, 10_000, "many"):
            path, raw = write_config(tmp_path, algorithms=["linear", "bi"], lambdas=[0.1, 0.9],
                                     taus=[1, 3], moment_samples=samples)
            if samples is None:
                del raw["moment_samples"]
                (tmp_path / "config.json").write_text(json.dumps(raw))
            rows.append(run_sweep(load_config(path)))
        assert all(other == rows[0] for other in rows[1:])
        assert [r["algorithm"] for r in rows[0]] == ["linear@0.1", "linear@0.9", "bi"] * 2

    def test_sweep_never_runs_the_recipe(self, tmp_path, monkeypatch):
        # the linear rows come from fit_linear_exact alone: neither the
        # two-agent recipe nor the selection that scores it runs, also at
        # x_max = 1, m = 2, where a selection kept the recipe's tie
        def no_recipe(*args, **kwargs):
            raise AssertionError("the sweep ran the two-agent recipe or its selection")

        for name in ("solve_linear_two_agent", "population_scores", "_select"):
            monkeypatch.setattr(optimal, name, no_recipe)
        for x_max in (1, 5):
            path, _ = write_config(tmp_path, x_max=x_max, taus=[0, 2], algorithms=["linear", "bi"],
                                   lambdas=[0.1, 0.9])
            rows = run_sweep(load_config(path))
            linear = [row["flags"] for row in rows if row["algorithm"].startswith("linear@")]
            assert linear == [""] * 4

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

    @pytest.mark.parametrize("fields, digest", [
        ({"n": 16, "taus": (4, 8, 12), "algorithms": ("gbi_oneopt", "marzullo"), "trials": 200},
         "582bb0fee75a1f6542ef9ad6094f86230f48e9b0bbbf82b0500fb3882cde43e0"),
        ({"n": 10, "taus": (1, 2, 3, 4, 5, 6, 7), "algorithms": ("marzullo", "bi", "gbi_oneopt"), "trials": 500},
         "99ad1fc63c652d81caf9b30f52bbaeb7929827dfaeca3653798ecab82db6d4a0"),
    ], ids=["gbi-wide", "sweep-eval"])
    def test_fuser_rows_keep_their_bytes(self, tmp_path, fields, digest):
        # the benchmark's gbi-wide and sweep-eval configs at seed 777: a change
        # to the trial layer or the Marzullo, BI and region GBI kernels must
        # leave every row's bytes as they are
        config = cli.RunConfig(m=2, x_max=5, seed=777, lambdas=(), output_path=str(tmp_path / "rows.csv"),
                               format="csv", **fields)
        cli.write_rows(run_sweep(config), config)
        assert hashlib.sha256((tmp_path / "rows.csv").read_bytes()).hexdigest() == digest

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
        assert linear["flags"] == ""
        mse = sum(float(linear[f"mse_agent_{j}"]) for j in (1, 2, 3))
        cns = sum(float(linear[f"cns_pair_{j}_{k}"]) for j, k in ((1, 2), (1, 3), (2, 3)))
        assert float(linear["objective"]) == pytest.approx(0.5 * mse + 0.5 / 2 * cns, rel=1e-9)
        assert bi["objective"] == ""

    def test_rows_follow_the_header_at_three_agents(self, tmp_path):
        path, _ = write_config(tmp_path, m=3, algorithms=["linear@0.5", "bi", "constant@0"], trials=150)
        config = load_config(path)
        rows = run_sweep(config)
        assert len(rows) == 3
        for row in rows:
            assert list(row) == _sweep_header(config)

    def test_degenerate_count_lands_in_flags(self, tmp_path, monkeypatch):
        real_bi_rows = fusion.bi_rows

        def three_flagged(cov, tau):
            values, flags = real_bi_rows(cov, tau)
            flags = flags.copy()
            flags[[0, 5, 7]] = True
            return values, flags

        monkeypatch.setattr(fusion, "bi_rows", three_flagged)
        path, _ = write_config(tmp_path, algorithms=["marzullo", "bi"])
        marzullo, bi = run_sweep(load_config(path))
        # one block of 120 trials: three flagged rows
        assert marzullo["flags"] == ""
        assert bi["flags"] == "degenerate=3"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_output_path(self, tmp_path, capsys, fmt):
        path, _ = write_config(tmp_path, format=fmt, output_path=str(tmp_path / "absent" / f"out.{fmt}"))
        assert main(["sweep", "--config", path]) == 2
        assert "output_path" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, trials=5)
        assert main(["sweep", "--config", path]) == 2
        assert "'trials'" in capsys.readouterr().err

    def test_overflowing_squared_error_refused(self, tmp_path):
        # a finite constant whose squared error overflows raises instead of writing an inf row
        path, _ = write_config(tmp_path, algorithms=["constant@1e200"], trials=100)
        with pytest.raises(ValueError, match=r"'constant@1e200'.*tau=1"):
            run_sweep(load_config(path))

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

        monkeypatch.setattr(cli, "fit_linear_exact", no_work)
        monkeypatch.setattr(cli, "evaluate_taus", no_work)
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
        with pytest.raises(ConfigError, match="field 'n'"):
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

    def test_oracle_pass_keeps_its_bytes(self):
        # the benchmark's oracle-check config at seed 777, pass by pass: the
        # exact means, the region estimates and the enumerative weight table
        # must keep their bytes (the worst deviation and fuse_gbi's dot follow
        # the BLAS kernel, so they are left out)
        config = cli.RunConfig(n=8, m=2, x_max=5, seed=777, taus=(1, 2, 3, 4, 5, 6), trials=300,
                               algorithms=("gbi_oneopt",), lambdas=(), output_path="unused.csv", format="csv")
        digest = hashlib.sha256()
        for start in range(0, config.trials, 128):
            draw = scenario.draw_trials(config.scenario(config.taus[0]), start, min(start + 128, config.trials))
            for tau in config.taus:
                rows = draw.at(tau).rows()
                table = gbi_bayes_weights(np.stack([rows.lo, rows.hi], axis=2), tau)
                for array in (posterior_rows(rows, config.scenario(tau)).means(),
                              fusion.gbi_rows(fusion.coverage_rows(rows), tau)[0],
                              table.weights, table.midpoints):
                    digest.update(array.tobytes())
        assert digest.hexdigest() == "70fbbb3084b28e8e82345d2abaf5242dc3376eeb1eebfe094039b95c593f7551"

    def test_one_weight_call_per_block(self, tmp_path):
        # the hook sees each 128-trial block once per tau, as a (B, n, 2)
        # stack: the block is drawn once and masked at every tau in turn
        calls = []

        def counting(readings, tau):
            calls.append((tau, readings.shape))
            return gbi_bayes_weights(readings, tau)

        path, _ = write_config(tmp_path, n=4, taus=[1, 2], trials=150)
        config = load_config(path)
        assert run_oracle_check(config, weight_fn=counting) == run_oracle_check(config)
        assert calls == [(tau, (rows, 4, 2)) for rows in (256, 44) for tau in (1, 2)]

    def test_result_independent_of_pass_size(self, tmp_path, monkeypatch):
        # rows are corrupted by their content alone, so the failures and the
        # worst deviation must not move with the number of trials per pass
        def shift_negative_starts(readings, tau):
            w = gbi_bayes_weights(readings, tau)
            w.midpoints[readings[:, 0, 0] < 0.0] += 1e-6
            return w

        config = load_config(write_config(tmp_path, n=5, taus=[1, 3], trials=150)[0])
        want = run_oracle_check(config, weight_fn=shift_negative_starts)
        assert want[1] and len(want[1]) < 2 * 2 * 150
        for size in (7, 300):
            monkeypatch.setattr(cli, "_BLOCK_TRIALS", size)
            assert run_oracle_check(config, weight_fn=shift_negative_starts) == want, size

    def test_one_corrupted_row_named(self, tmp_path):
        # shifting one row's midpoints in the second block of tau 2 must flag
        # exactly that (tau, trial, agent); the block's rows are agent-major,
        # so row 22 + 3 holds agent 1 of its fourth trial, trial 131
        def corrupt_one(readings, tau):
            w = gbi_bayes_weights(readings, tau)
            if tau == 2 and readings.shape[0] == 44:
                w.midpoints[22 + 3] += 1e-6
            return w

        path, _ = write_config(tmp_path, n=4, taus=[1, 2], trials=150)
        worst, failures = run_oracle_check(load_config(path), weight_fn=corrupt_one)
        assert [entry[:3] for entry in failures] == [(2, 131, 1)]
        assert failures[0][3] == pytest.approx(1e-6, rel=1e-6)
        assert worst == failures[0][3]

    def test_failures_listed_by_trial_then_agent(self, tmp_path):
        # agent 1 of trial 5 (row 128 + 5) comes before agent 0 of trial 9
        # (row 9), although its row comes after
        def corrupt_two(readings, tau):
            w = gbi_bayes_weights(readings, tau)
            if readings.shape[0] == 256:
                w.midpoints[128 + 5] += 1e-6
                w.midpoints[9] += 2e-6
            return w

        path, _ = write_config(tmp_path, n=4, taus=[1], trials=150)
        worst, failures = run_oracle_check(load_config(path), weight_fn=corrupt_two)
        assert [entry[:3] for entry in failures] == [(1, 5, 1), (1, 9, 0)]
        assert [entry[3] for entry in failures] == pytest.approx([1e-6, 2e-6], rel=1e-6)
        assert worst == failures[1][3]

    @pytest.mark.parametrize("taus", [[1, 2], [2, 1]])
    def test_failures_listed_by_tau_then_trial(self, tmp_path, taus):
        # a fault at both taus in both blocks: each block is checked at every
        # tau before the next block is drawn, but the list runs tau by tau,
        # in config order; row 9 of the first block is agent 0 of trial 9,
        # row 22 + 3 of the second (22 trials) agent 1 of trial 131
        def corrupt(readings, tau):
            w = gbi_bayes_weights(readings, tau)
            w.midpoints[9 if readings.shape[0] == 256 else 22 + 3] += 1e-6
            return w

        path, _ = write_config(tmp_path, n=4, taus=taus, trials=150)
        worst, failures = run_oracle_check(load_config(path), weight_fn=corrupt)
        assert [entry[:3] for entry in failures] == [(tau, trial, agent) for tau in taus
                                                     for trial, agent in ((9, 0), (131, 1))]
        assert [entry[3] for entry in failures] == pytest.approx([1e-6] * 4, rel=1e-6)

    def test_shifted_midpoints_detected(self, tmp_path):
        # negative control: every row's midpoints off by 1e-6 fails every row
        def shifted(readings, tau):
            w = gbi_bayes_weights(readings, tau)
            return GbiWeights(w.subsets, w.weights, w.midpoints + 1e-6)

        path, _ = write_config(tmp_path, n=4, taus=[1, 2], trials=150)
        worst, failures = run_oracle_check(load_config(path), weight_fn=shifted)
        assert len(failures) == 2 * 150 * 2
        assert worst == pytest.approx(1e-6, rel=1e-6)

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
        # row j * size + t of a block of size trials is agent j of trial
        # block_start + t; failures are listed by trial, then agent
        expected = [(tau, start + t, j) for tau in (1, 2) for start, size in ((0, 128), (128, 22))
                    for t in range(size) for j in range(2) if (j * size + t) % 5 == 0]
        assert [entry[:3] for entry in failures] == expected
        assert all(dev == pytest.approx(1e-6, rel=1e-6) for *_, dev in failures)
        assert worst == pytest.approx(1e-6, rel=1e-6)

    def test_nan_region_estimate_fails(self, tmp_path, monkeypatch, capsys):
        # a nan from gbi_rows (an e_k that underflows gives one) must fail the
        # gate, not slip past a > comparison
        real = cli.gbi_rows

        def nan_on_agent_one_trial_one(cov, tau):
            values, degenerate = real(cov, tau)
            values = values.copy()
            values[values.size // 2 + 1] = np.nan
            return values, degenerate

        monkeypatch.setattr(cli, "gbi_rows", nan_on_agent_one_trial_one)
        path, _ = write_config(tmp_path, n=4, taus=[1, 2], trials=150)
        worst, failures = run_oracle_check(load_config(path))
        # row size + 1 of each block is agent 1 of the block's second trial
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

    def test_payload_printed_without_out(self, tmp_path, capsys):
        # the stdout payload is the file --out would write
        out = tmp_path / "fit.json"
        path, _ = write_config(tmp_path, taus=[1, 2])
        assert main(["fit-linear", "--config", path, "--lambda", "0.5"]) == 0
        printed = capsys.readouterr().out
        assert [entry["tau"] for entry in json.loads(printed)] == [1, 2]
        assert main(["fit-linear", "--config", path, "--lambda", "0.5", "--out", str(out)]) == 0
        assert out.read_text() == printed

    def test_unwritable_out(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        out = tmp_path / "absent" / "fit.json"
        assert main(["fit-linear", "--config", path, "--lambda", "0.5", "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_empty_out_names_out(self, tmp_path, capsys):
        # --out names the coefficient file and never stands in for the
        # config's output_path, so an empty one is refused as --out
        path, _ = write_config(tmp_path)
        assert main(["fit-linear", "--config", path, "--lambda", "0.5", "--out", ""]) == 2
        err = capsys.readouterr().err
        assert "--out ''" in err and "output_path" not in err

    def test_runs_at_tau_n_minus_one_with_marzullo_listed(self, tmp_path):
        # fit-linear ignores algorithms, so the sweep's marzullo bound does not apply
        out = tmp_path / "fit.json"
        path, _ = write_config(tmp_path, n=5, taus=[4], algorithms=["marzullo", "bi"])
        assert main(["fit-linear", "--config", path, "--lambda", "0.5", "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())
        assert entry["tau"] == 4
        assert len(entry["eps"]) == 2

    def test_trials_flag_rejected(self, tmp_path):
        # fitting never reads trials, so fit-linear has no --trials flag
        path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["fit-linear", "--config", path, "--lambda", "0.5", "--trials", "150"])
        assert info.value.code == 2

    def test_seed_flag_rejected(self, tmp_path):
        # the fit reads the exact law, so its output does not depend on the seed
        path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["fit-linear", "--config", path, "--lambda", "0.5", "--seed", "7"])
        assert info.value.code == 2

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


    def test_objectives_are_exact_population_values(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimal, "sample_batch", no_draw)
        path, _ = write_config(tmp_path, n=6, taus=[2])
        assert main(["fit-linear", "--config", path, "--lambda", "0.5"]) == 0
        entry, = json.loads(capsys.readouterr().out)
        selection = select_linear_exact(ScenarioParams(n=6, m=2, tau=2, x_max=5, seed=1), 0.5)
        assert entry["empirical_objective"] == selection.empirical_objective
        assert entry["closed_form_objective"] == selection.closed_form_objective
        assert entry["eps"] == [c.eps.tolist() for c in selection.coeffs]


def no_draw(*args, **kwargs):
    raise AssertionError("a fitting batch was drawn")


class TestRowChecks:
    """Each block's reading rows are checked once where they are laid out."""

    @pytest.fixture
    def checks(self, monkeypatch):
        shapes = []
        real = scenario.ReadingRows.__post_init__

        def counting(rows):
            shapes.append(np.shape(rows.lo))
            real(rows)

        monkeypatch.setattr(scenario.ReadingRows, "__post_init__", counting)
        return shapes

    def test_once_per_block_in_a_sweep(self, tmp_path, checks):
        # sweep-eval's shape: 2 kernel blocks of up to 256 trials, each masked
        # at 7 taus
        path, _ = write_config(tmp_path, n=10, taus=[1, 2, 3, 4, 5, 6, 7],
                               algorithms=["marzullo", "bi", "gbi_oneopt"], trials=500)
        run_sweep(load_config(path))
        assert len(checks) == 14
        assert checks == [(2 * size, 10) for size in (256, 244) for _ in range(7)]

    def test_agent_slices_not_checked_again(self, checks):
        params = ScenarioParams(n=5, m=3, tau=1, x_max=5, seed=12)
        coeffs = tuple(LinearCoefficients(np.full(5, 0.1), np.full(5, 0.1), 0.0) for _ in range(3))
        evaluate([AlgorithmSpec(kind="marzullo"), AlgorithmSpec(kind="linear", coeffs=coeffs),
                  AlgorithmSpec(kind="constant", constant_value=0.5)], params, 300)
        assert checks == [(3 * 256, 5), (3 * 44, 5)]

    def test_twice_per_block_in_an_oracle_check(self, tmp_path, checks):
        # oracle-check's shape: 3 blocks, each masked at 6 taus; the masked
        # block's rows and the (B, n, 2) stack weight_fn receives are each
        # checked once
        path, _ = write_config(tmp_path, n=8, taus=[1, 2, 3, 4, 5, 6], trials=300)
        worst, failures = run_oracle_check(load_config(path))
        assert not failures
        assert len(checks) == 36
        assert checks == [shape for size in (128, 128, 44) for _ in range(6) for shape in [(2 * size, 8)] * 2]
