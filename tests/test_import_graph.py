"""Guards on what a fresh process imports.

``scipy.stats`` costs every process about a second of start-up and
~38 MiB of memory, and the package needs none of it: the t quantile of
the confidence intervals comes from ``scipy.special.stdtrit``.
``scipy.special`` and ``scipy.linalg`` cost another ≈ 0.2 s and
≈ 24 MiB, and a simulation needs neither: the package imports each
inside the functions that call it (an interval's t quantile, the
propagator's ``expm`` fallback, the Dirichlet head). These tests run
fresh interpreters through the package's modules, CLI commands and
tiny sweeps and streams, then check which modules were loaded; one
more parses the source for ``scipy.stats`` imports on paths those runs
do not reach. They never measure a time (see "Start-up cost" in
``docs/scaling.md``).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SCIPY = ("scipy.special", "scipy.linalg", "scipy.stats")

_SCRIPT = """
import json
import sys

import repro
import repro.experiments.campaign
import repro.experiments.cli
import repro.scenarios
import repro.serving
import repro.store
from repro.config import SystemConfig
from repro.experiments.parallel import EvalRequest, SweepExecutor
from repro.policies.static import JoinShortestQueuePolicy
from repro.serving import StreamRequest, run_stream_request
from repro.utils.stats import mean_confidence_interval

config = SystemConfig(
    num_clients=64, num_queues=8, buffer_size=2, d=2, delta_t=0.5,
    episode_length=20, monte_carlo_runs=2,
)
policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
(sweep,) = SweepExecutor(workers=1).run(
    [EvalRequest(config=config, policy=policy, num_runs=3, num_epochs=4, seed=0)]
)
stream = run_stream_request(
    StreamRequest(config=config, policy=policy, horizon=4, window=2,
                  num_replicas=2, seed=0)
)
table = stream.format_table()
ci = mean_confidence_interval([1.0, 2.0, 4.0])
print(json.dumps({
    "scipy_stats": sorted(
        m for m in sys.modules
        if m == "scipy.stats" or m.startswith("scipy.stats.")
    ),
    "sweep_n": sweep.interval.n,
    "stream_rows": table.count("±"),
    "ci_half_width": ci.half_width,
}))
"""

_SIMULATION_SCRIPT = """
import importlib
import json
import pkgutil
import sys

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

from repro.config import paper_system_config
from repro.experiments.fig5_delay_sweep import run_fig5
from repro.experiments.parallel import EvalRequest, SweepExecutor
from repro.experiments.pretrained import get_mf_policy
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.delayed_env import BatchedDelayedFiniteEnv
from repro.scenarios.builtin import stochastic_delay_model
from repro.serving import StreamRequest, run_stream_request


def loaded():
    return sorted(m for m in sys.argv[1:] if m in sys.modules)


config = paper_system_config(delta_t=5.0, num_queues=8, num_clients=64)
jsq = JoinShortestQueuePolicy(config.num_queue_states, config.d)
(committed,) = SweepExecutor(workers=1).run([
    EvalRequest(
        config=config, policy=jsq, num_runs=3, num_epochs=4, seed=0,
        env_kwargs={"per_packet_randomization": False},
    )
])
# A Figure 5 panel: per-packet routing, MF from the packaged checkpoint.
_, mf_source = get_mf_policy(5.0, allow_fallback=False)
panel = run_fig5(num_queues=8, delta_ts=(5.0,), num_runs=2, seed=0)
stream = run_stream_request(
    StreamRequest(
        config=config.with_updates(delta_t=2.0), policy=jsq, horizon=6,
        window=2, num_replicas=2, seed=0, env_cls=BatchedDelayedFiniteEnv,
        env_kwargs={"delay_model": stochastic_delay_model()},
    )
)
report = {
    "committed_drops": committed.drops.shape[0],
    "committed_mean": committed.mean_drops,
    "mf_source": mf_source,
    "mf_drops": panel.results["MF"][0].drops.shape[0],
    "winner": panel.winner_at(5.0),
    "stream_summaries": list(stream.summaries.shape),
    "stream_windows": int(stream.window_rows.shape[0]),
    "before_interval": loaded(),
}
interval = committed.interval
report["interval_n"] = interval.n
report["after_interval"] = loaded()
print(json.dumps(report))
"""


def _run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout."""
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_no_process_loads_scipy_stats():
    proc = _run_fresh(["-c", _SCRIPT])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # The script did the work it claims: one merged sweep interval, one
    # interval per stream summary row, and a non-degenerate interval.
    assert report["sweep_n"] == 3
    assert report["stream_rows"] > 0
    assert report["ci_half_width"] > 0.0
    assert report["scipy_stats"] == []


def test_simulation_loads_no_scipy():
    """Every module, a committed and a per-packet sweep and a delayed
    stream load no SciPy module; the first interval loads only
    ``scipy.special``."""
    proc = _run_fresh(["-c", _SIMULATION_SCRIPT, *_SCIPY])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["committed_drops"] == 3
    assert report["committed_mean"] >= 0.0
    assert report["mf_source"] == "checkpoint"
    assert report["mf_drops"] == 2
    assert report["winner"] in ("MF", "JSQ(2)", "RND")
    assert report["stream_summaries"][0] == 2
    assert report["stream_windows"] > 0
    assert report["before_interval"] == []
    assert report["interval_n"] == 3
    assert report["after_interval"] == ["scipy.special"]


def _imported_modules(importtime_stderr: str) -> set[str]:
    """Module column of ``python -X importtime`` output."""
    modules = set()
    for line in importtime_stderr.splitlines():
        if line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[-1].strip())
    return modules


@pytest.mark.parametrize(
    "command", [["table1"], ["scenario", "list"]], ids=["table1", "scenario-list"]
)
def test_cli_command_loads_no_scipy(command):
    proc = _run_fresh(["-X", "importtime", "-m", "repro.experiments.cli", *command])
    assert proc.stdout.strip()
    modules = _imported_modules(proc.stderr)
    assert "repro.experiments" in modules
    assert "numpy" in modules
    assert sorted(modules & set(_SCIPY)) == []


def _imports_scipy_stats(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    else:
        return False
    return any(n == "scipy.stats" or n.startswith("scipy.stats.") for n in names)


def test_src_never_imports_scipy_stats():
    """No module imports ``scipy.stats``, at the top or inside a
    function: the guards above only see the code paths they run."""
    package = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(package.parent)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path)))
        if _imports_scipy_stats(node)
    ]
    assert offenders == []
