"""End-to-end acceptance of the routing engine and its study harnesses.

Each test prints one verdict line (PASS/FAIL with the measured numbers)
and then asserts, so a teed pytest run doubles as the acceptance report.
Statistical checks use three-sigma slack on their Monte Carlo targets;
exact checks (identities, determinism) use the stated tolerances.

These run minutes, not seconds: sizes are fixed by the study designs
(replication counts, horizons), not shrunk for test speed.
"""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from bpac.cli import EXIT_OK, main
from bpac.core import (
    ConstantSchedule,
    Prior,
    RouterConfig,
    SelectionMode,
    ThresholdGrid,
    TwoStageSchedule,
    deployment_rate,
)
from bpac.engine import _escalation_low, payoff_bound
from bpac.simulation import (
    easy_hard,
    mc_safety,
    oracle_risk,
    oracle_threshold,
    pinned_threshold_study,
    regret_harness,
    run_replication,
    uniform_linear,
)

EPSILON = 0.08
ALPHA = 0.1


def verdict(num: int, name: str, ok: bool, details: str) -> str:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line, flush=True)
    return line


def binomial_slack(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def quiet_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_01_anytime_safety_fixed_sequence():
    # Fraction of replications where the deployed threshold was ever
    # oracle-unsafe must stay near the confidence level alpha.
    n_reps, horizon = 500, 2000
    report = mc_safety("bpac", RouterConfig(), uniform_linear(),
                       horizon, n_reps, base_seed=1000)
    bound = ALPHA + binomial_slack(ALPHA, n_reps)
    ok = report["frequency"] <= bound
    assert verdict(1, "anytime safety, fixed-sequence on iid stream", ok,
                   f"violation freq {report['frequency']:.4f} <= {bound:.4f}, "
                   f"{report['violations']}/{n_reps} reps, T={horizon}") and ok


def test_criterion_02_anytime_safety_mixture_nonstationary():
    # Same coverage statement on a mid-stream loss-law shift, scored by
    # the wager-weighted cumulative risk the mixture certificate controls.
    n_reps, horizon = 500, 2000
    config = dataclasses.replace(RouterConfig(),
                                 selection_mode=SelectionMode.MIXTURE,
                                 prior=Prior.uniform(1001))
    report = mc_safety("bpac", config, easy_hard(), horizon, n_reps,
                       base_seed=2000, criterion="weighted")
    bound = ALPHA + binomial_slack(ALPHA, n_reps)
    ok = report["frequency"] <= bound
    assert verdict(2, "anytime safety, mixture on shifting stream", ok,
                   f"weighted-risk violation freq {report['frequency']:.4f} "
                   f"<= {bound:.4f}, {report['violations']}/{n_reps} reps") and ok


def test_criterion_03_supermartingale_at_unsafe_threshold():
    # At an unsafe pinned threshold the wealth process is a nonnegative
    # supermartingale from 1: empirical mean <= 1 and bar crossings <= alpha,
    # both with three-sigma slack.
    u, n_reps, horizon = 0.6, 2000, 1000
    config = RouterConfig()
    assert oracle_risk(uniform_linear(), u, rho=0.05) > EPSILON
    study = pinned_threshold_study(uniform_linear(), u, config, horizon,
                                   n_reps, base_seed=300)
    wealth = np.exp(study["log_wealth"])
    mean_bound = 1.0 + 3.0 * wealth.std(ddof=1) / math.sqrt(n_reps)
    cross_bound = ALPHA + binomial_slack(ALPHA, n_reps)
    ok_mean = wealth.mean() <= mean_bound
    ok_cross = study["crossing_frequency"] <= cross_bound
    ok = ok_mean and ok_cross
    assert verdict(3, "supermartingale wealth at unsafe threshold", ok,
                   f"mean wealth {wealth.mean():.4f} <= {mean_bound:.4f}, "
                   f"crossing freq {study['crossing_frequency']:.4f} <= "
                   f"{cross_bound:.4f}, u={u}, T={horizon}, n={n_reps}") and ok


def test_criterion_04_ips_estimate_unbiased():
    # The propensity-weighted loss estimate must average to the scaled
    # below-threshold risk, at thresholds on both sides of the deployed one.
    rng = np.random.default_rng(404)
    n, deployed, rho, rho_min = 100_000, 0.5, 0.05, 0.05
    score = rng.random(n)
    latent = (rng.random(n) < score).astype(float)
    pi = np.where(score >= deployed, 1.0, rho)
    coin = (rng.random(n) < pi).astype(float)
    worst = 0.0
    ok = True
    us = rng.uniform(0.05, 0.95, 10)
    for u in us:
        z = (1.0 - rho_min) * latent * coin * (score < u) / pi
        target = (1.0 - rho_min) * u * u / 2.0
        se = z.std(ddof=1) / math.sqrt(n)
        dev = abs(float(z.mean()) - target) / se
        worst = max(worst, dev)
        ok = ok and dev <= 3.0
    # the vectorized draw must be the engine's own arithmetic: a threshold
    # above an escalated query's score is paid what _escalation_low
    # prices, every other one epsilon
    config = RouterConfig(schedule=ConstantSchedule(rho_min))
    idx = rng.integers(0, n, 200)
    for i in idx:
        charged = coin[i] and score[i] < us[0]
        got = (_escalation_low(float(latent[i]), float(pi[i]), rho, config, 1)
               if charged else EPSILON)
        z_i = (1.0 - rho_min) * latent[i] * coin[i] * (score[i] < us[0]) / pi[i]
        ok = ok and got == pytest.approx(EPSILON - z_i, abs=1e-15)
    assert verdict(4, "loss estimate unbiasedness", ok,
                   f"worst |mean-target| = {worst:.2f} standard errors over "
                   f"10 thresholds, {n} draws") and ok


def test_criterion_05_wager_regret_within_bound():
    # Adaptive-wager regret against the best constant wager stays under the
    # explicit logarithmic bound on every tested stream, and across streams
    # the measured regret grows at most logarithmically.
    horizons = (100, 1000, 10_000)
    checks = 0
    ok = True

    # constant positive payoffs: the oracle rides the wager cap. Regret can
    # go negative under the two-stage schedule (the online wager may bet
    # above the deploy-phase cap during warmup, beating any constant): the
    # guarantee is one-sided, so only the upper bound is checked there.
    for schedule in (ConstantSchedule(0.05), TwoStageSchedule(0.7, 0.05, 50)):
        m_deploy = payoff_bound(EPSILON, schedule.rho_min,
                                deployment_rate(schedule))
        for horizon in horizons:
            rep = regret_harness(np.full(horizon, EPSILON), EPSILON, 0.9,
                                 schedule)
            ok = ok and rep.regret <= rep.bound
            if isinstance(schedule, ConstantSchedule):
                ok = ok and rep.regret >= 0.0
            ok = ok and rep.oracle_wager == pytest.approx(0.9 / m_deploy,
                                                          rel=1e-9)
            checks += 1

    # null payoffs: nothing to earn, nothing to regret
    rep = regret_harness(np.zeros(1000), EPSILON, 0.9, ConstantSchedule(0.05))
    ok = ok and rep.regret == 0.0
    checks += 1

    # engine payoff streams at the deployment default
    sched_deploy = ConstantSchedule(0.05)
    study = pinned_threshold_study(
        uniform_linear(), 0.3,
        dataclasses.replace(RouterConfig(), schedule=sched_deploy),
        horizon=10_000, n_reps=60, base_seed=500)
    for j in range(60):
        for horizon in horizons:
            rep = regret_harness(study["payoffs"][:horizon, j], EPSILON, 0.9,
                                 sched_deploy)
            ok = ok and rep.regret <= rep.bound
            checks += 1

    # log-growth ratio across streams; exploration 0.3 keeps the large
    # inverse-propensity payoffs frequent enough that both horizons see them
    sched_ratio = ConstantSchedule(0.3)
    study = pinned_threshold_study(
        uniform_linear(), 0.3,
        dataclasses.replace(RouterConfig(), schedule=sched_ratio),
        horizon=10_000, n_reps=100, base_seed=500)
    r_short, r_long = [], []
    for j in range(100):
        rep_s = regret_harness(study["payoffs"][:100, j], EPSILON, 0.9, sched_ratio)
        rep_l = regret_harness(study["payoffs"][:10_000, j], EPSILON, 0.9, sched_ratio)
        ok = ok and rep_s.regret <= rep_s.bound and rep_l.regret <= rep_l.bound
        r_short.append(rep_s.regret)
        r_long.append(rep_l.regret)
        checks += 2
    ratio = float(np.mean(r_long)) / float(np.mean(r_short))
    ratio_limit = (math.log(10_000) / math.log(100)) * 1.5
    ok = ok and ratio <= ratio_limit
    assert verdict(5, "adaptive wager regret", ok,
                   f"{checks} bound checks, growth ratio {ratio:.2f} <= "
                   f"{ratio_limit:.1f}") and ok


def test_criterion_06_efficiency_convergence():
    # Where the threshold settles and what it costs after 5000 steps,
    # against the oracle frontier of the generator.
    n_seeds, horizon = 100, 5000
    config = RouterConfig()
    u_star = oracle_threshold(uniform_linear(), EPSILON, rho=0.05,
                              grid=ThresholdGrid.default())
    finals_u, finals_ecp = [], []
    for seed in range(n_seeds):
        traj = run_replication("bpac", config, uniform_linear(), horizon, seed)
        finals_u.append(traj.final("u_hat"))
        finals_ecp.append(traj.final("ecp"))
    median_u = float(np.median(finals_u))
    mean_ecp = float(np.mean(finals_ecp))
    # expensive-call target from the generator's uniform law at u = 0.38:
    # P(U >= u) + rho * P(U < u)
    ecp_target = (1.0 - 0.38) + 0.05 * 0.38
    ok_star = u_star == pytest.approx(0.411, abs=1e-12)
    ok_median = 0.35 <= median_u <= 0.410
    ok_ecp = mean_ecp <= ecp_target
    ok = ok_star and ok_median and ok_ecp
    assert verdict(6, "efficiency convergence", ok,
                   f"u*={u_star}, median final u_hat {median_u:.3f} in "
                   f"[0.35, 0.410]: {ok_median}; mean final ECP "
                   f"{mean_ecp:.3f} <= {ecp_target:.3f}: {ok_ecp}; "
                   f"{n_seeds} seeds, T={horizon}") and ok


def test_criterion_07_baseline_failure_modes():
    # The uncorrected selector must blow the risk budget; the union-bound
    # selector must stay pinned at the bottom and call the expert always.
    n_seeds, horizon = 100, 2000
    config = RouterConfig()
    naive_over = 0
    hoeff_min_ecp = 1.0
    for seed in range(n_seeds):
        tn = run_replication("o_naive", config, uniform_linear(), horizon, seed)
        th = run_replication("ips_hoeff", config, uniform_linear(), horizon, seed)
        naive_over += tn.final("er") > EPSILON
        hoeff_min_ecp = min(hoeff_min_ecp, th.final("ecp"))
    ok_naive = naive_over >= 0.9 * n_seeds
    ok_hoeff = hoeff_min_ecp >= 0.99
    ok = ok_naive and ok_hoeff
    assert verdict(7, "baseline contrast", ok,
                   f"o_naive realized risk > {EPSILON} in {naive_over}/"
                   f"{n_seeds} seeds (need >= 90); ips_hoeff min final ECP "
                   f"{hoeff_min_ecp:.4f} >= 0.99") and ok


def test_criterion_08_token_premium_identity():
    # With constant per-arm token counts the premium is the call fraction
    # plus the inverse token ratio, exactly, at every step.
    traj = run_replication("bpac", RouterConfig(), uniform_linear(), 2000,
                           seed=8)
    gap = float(np.max(np.abs(traj.tp - (traj.ecp + 100.0 / 500.0))))
    ok = gap <= 1e-12
    assert verdict(8, "token premium identity", ok,
                   f"max |tp - (ecp + 1/S)| = {gap:.2e} <= 1e-12 over "
                   f"{traj.horizon} steps") and ok


def test_criterion_09_budget_sweep_monotonicity(tmp_path):
    # Looser risk budgets must buy strictly fewer expensive calls.
    out = tmp_path / "sweep"
    code, _ = quiet_cli("sweep", "--out", str(out), "--horizon", "2000",
                        "--n-seeds", "20", "--epsilons", "0.05,0.08,0.1")
    assert code == EXIT_OK
    summary = json.loads((out / "sweep_summary.json").read_text())
    cells = {cell["epsilon"]: cell["aggregate"]["mean_final_ecp"]
             for cell in summary["cells"]}
    means = [cells[eps] for eps in (0.05, 0.08, 0.1)]
    ok = means[0] > means[1] > means[2]
    assert verdict(9, "risk budget sweep monotonicity", ok,
                   "mean final ECP " +
                   " > ".join(f"{m:.4f}" for m in means) +
                   " across eps 0.05, 0.08, 0.10; 20 paired seeds") and ok


def test_criterion_10_byte_identical_reruns(tmp_path):
    # Identical flags, identical bytes: files and stdout both.
    sim_args = ["simulate", "--horizon", "300", "--seeds", "1,2",
                "--emit-wealth-every", "100"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, stdout = quiet_cli(*sim_args, "--out", str(out))
        assert code == EXIT_OK
        outs.append((out, stdout.replace(str(out), "<out>")))
    (dir_a, line_a), (dir_b, line_b) = outs
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    same_files = files_a == files_b and all(
        (dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in files_a)
    mc_args = ["mc-safety", "--horizon", "60", "--n-reps", "5"]
    mc_first = quiet_cli(*mc_args)
    mc_second = quiet_cli(*mc_args)
    ok = same_files and line_a == line_b and mc_first == mc_second
    assert verdict(10, "deterministic reruns", ok,
                   f"{len(files_a)} simulate files byte-identical: "
                   f"{same_files}; stdout identical: "
                   f"{line_a == line_b and mc_first == mc_second}") and ok
