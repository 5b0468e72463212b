"""The acceptance study's linear rows against the exact law.

The 42-row tradeoff study (acceptance 9's config: n=10, m=2, x_max=5, taus
1..7, lambdas 0.1/0.5/0.9, 20,000 trials) is swept once.  The sweep fits its
linear fusers on the exact law, so each row's coefficients have an exact
population mse and cns, which the rows' Monte Carlo estimates must match and
which must order the accuracy/consensus tradeoff in lambda.
"""

from unittest import mock

import pytest

from intervalfusion import ScenarioParams, cli, law_moments, population_scores
from intervalfusion.cli import RunConfig, run_sweep

STUDY = RunConfig(n=10, m=2, x_max=5, seed=20260814, taus=tuple(range(1, 8)), lambdas=(0.1, 0.5, 0.9),
                  algorithms=("linear", "bi", "marzullo", "gbi_oneopt"), trials=20_000,
                  moment_samples=20_000, output_path="unused.csv", format="csv")
LAMBDAS = STUDY.lambdas


@pytest.fixture(scope="module")
def study():
    """The sweep's rows, and the exact scores of the coefficients it selected, by (tau, lambda)."""
    selected = {}
    select = cli.select_linear_exact

    def recording(params: ScenarioParams, lam: float):
        selected[params.tau, lam] = selection = select(params, lam)
        return selection

    with mock.patch.object(cli, "select_linear_exact", recording):
        rows = run_sweep(STUDY)
    scores = {(tau, lam): population_scores(law_moments(STUDY.scenario(tau)), selection.coeffs)
              for (tau, lam), selection in selected.items()}
    return rows, scores


def test_every_linear_cell_was_fitted_once(study):
    rows, scores = study
    assert sorted(scores) == sorted((tau, lam) for tau in STUDY.taus for lam in LAMBDAS)
    assert sum(row["algorithm"].startswith("linear@") for row in rows) == 21


def test_tradeoff_holds_on_the_exact_law(study):
    # at every tau, along lambda 0.1 -> 0.5 -> 0.9, the selected
    # coefficients' exact total mse does not increase and their exact cns
    # does not decrease
    _, scores = study
    for tau in STUDY.taus:
        for lo, hi in zip(LAMBDAS, LAMBDAS[1:]):
            (mse_lo, cns_lo), (mse_hi, cns_hi) = scores[tau, lo], scores[tau, hi]
            assert mse_hi.sum() <= mse_lo.sum(), (tau, lo, hi)
            assert cns_hi.sum() >= cns_lo.sum(), (tau, lo, hi)


def test_linear_rows_lie_within_three_standard_errors_of_the_law(study):
    rows, scores = study
    for row in rows:
        if not row["algorithm"].startswith("linear@"):
            continue
        mse, cns = scores[row["tau"], row["lambda"]]
        for j in (1, 2):
            miss = abs(row[f"mse_agent_{j}"] - mse[j - 1])
            assert miss <= 3.0 * row[f"mse_stderr_{j}"], (row["algorithm"], row["tau"], j, miss)
        miss = abs(row["cns_pair_1_2"] - cns[0])
        assert miss <= 3.0 * row["cns_stderr_1_2"], (row["algorithm"], row["tau"], miss)
