"""Ablation A4: state-feedback (PPO) vs best constant rule (CEM).

Proposition 1 guarantees an optimal *stationary deterministic* upper
policy, but that policy may still condition on (ν_t, λ_t). This bench
quantifies what the feedback buys at Δt = 5: the shipped checkpoint
(CEM warm start + PPO fine-tune, state-dependent) against the best
constant rule CEM finds, and both against JSQ(2)/RND. Expected: both
learned variants beat the baselines; the state-dependent policy is at
least as good as the constant rule.
"""

from repro.config import paper_system_config
from repro.experiments.pretrained import get_mf_policy
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.rl.cem import optimize_constant_rule
from repro.rl.evaluation import evaluate_policies_mfc
from repro.utils.tables import format_table

from conftest import run_once

DELTA_T = 5.0


def _run():
    cfg = paper_system_config(delta_t=DELTA_T, num_queues=100)
    env = MeanFieldEnv(cfg, horizon=100, seed=0)
    ppo_policy, source = get_mf_policy(DELTA_T)
    cem = optimize_constant_rule(
        env, generations=10, population=24, episodes_per_candidate=2, seed=3
    )
    evals = evaluate_policies_mfc(
        env,
        {
            "MF (PPO, state feedback)": ppo_policy,
            "CEM constant rule": cem.policy,
            "JSQ(2)": JoinShortestQueuePolicy(6, 2),
            "RND": RandomPolicy(6, 2),
        },
        episodes=20,
        seed=11,
    )
    return evals, source


def test_cem_vs_ppo(benchmark, results_dir):
    evals, source = run_once(benchmark, _run)
    mf = evals["MF (PPO, state feedback)"].mean
    cem = evals["CEM constant rule"].mean
    jsq = evals["JSQ(2)"].mean
    rnd = evals["RND"].mean
    # Both learned policies beat both baselines at Δt = 5.
    assert mf > jsq and mf > rnd
    assert cem > jsq and cem > rnd
    # State feedback does not hurt (slack = CEM's CI half-width).
    assert mf >= cem - evals["CEM constant rule"].half_width

    rows = [
        [name, f"{ci.mean:.2f}", f"±{ci.half_width:.2f}"]
        for name, ci in evals.items()
    ]
    table = format_table(
        ["Policy", "MFC return (100 epochs, Δt=5)", "95% CI"],
        rows,
        title=f"Ablation A4: constant rule vs state feedback (MF source: {source})",
    )
    (results_dir / "ablation_cem_vs_ppo.txt").write_text(table + "\n")
    print("\n" + table)
