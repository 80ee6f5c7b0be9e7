"""Guard on what a fresh process imports.

``scipy.stats`` costs every process about a second of start-up and
~38 MiB of memory, and the package needs none of it: the t quantile of
the confidence intervals comes from ``scipy.special.stdtrit``. This
test runs a fresh interpreter through the package's entry points and one
tiny sweep, stream and interval, then checks which modules were loaded.
It never measures a time (see "Start-up cost" in ``docs/scaling.md``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

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


def test_no_process_loads_scipy_stats():
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # The script did the work it claims: one merged sweep interval, one
    # interval per stream summary row, and a non-degenerate interval.
    assert report["sweep_n"] == 3
    assert report["stream_rows"] > 0
    assert report["ci_half_width"] > 0.0
    assert report["scipy_stats"] == []
