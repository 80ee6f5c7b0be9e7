"""Streaming serving subsystem: long-horizon runs with O(1)-memory metrics.

The figure sweeps materialize per-epoch drop trajectories — fine for
the paper's 50-500-epoch evaluation episodes, linear-memory death for
the production-style horizons the ROADMAP targets. This package runs
the existing batched environments (dense, graph, heterogeneous,
delayed) over arbitrarily long, non-stationary horizons in fixed-size
time windows, folding per-packet outcomes into online accumulators
instead of trajectories:

* :mod:`repro.serving.metrics` — P²-quantile sketches, exact streaming
  quantiles for the discrete queue-length distribution, windowed
  drop-rate/throughput series with bounded coarsening.
* :mod:`repro.serving.engine` — the chunked streaming driver, replica
  sharding, store caching and claiming on
  :class:`repro.experiments.parallel.SweepExecutor` itself, and the
  scenario entry point behind the ``stream`` CLI subcommand.
* :mod:`repro.serving.control` — the closed-loop controller hook: a
  :class:`~repro.serving.control.Controller` observes the same delayed
  windowed surface a dispatcher sees and may switch/blend the active
  policy or resize the fleet mid-stream (mass-conserving handoff).
* :mod:`repro.serving.regret` — regret-vs-oracle evaluation of
  controlled streams on the ``adaptive-*`` scenarios.

See ``docs/serving.md`` for the operator's guide (metric definitions,
delay models, memory model, closed-loop control).
"""

from repro.serving.metrics import (
    StreamingMetrics,
    WindowedSeries,
    window_layout,
)
from repro.serving.engine import (
    StreamRequest,
    StreamResult,
    run_stream,
    run_stream_request,
    run_stream_scenario,
)
from repro.serving.control import (
    ControlAction,
    ControlDecision,
    Controller,
    ControlObservation,
    LoadBand,
    OracleController,
    RateEstimatingController,
    ScriptedController,
    StaticController,
    resize_queue_fleet,
)
from repro.serving.regret import RegretReport, evaluate_regret

__all__ = [
    "StreamingMetrics",
    "WindowedSeries",
    "window_layout",
    "StreamRequest",
    "StreamResult",
    "run_stream",
    "run_stream_request",
    "run_stream_scenario",
    "Controller",
    "ControlAction",
    "ControlDecision",
    "ControlObservation",
    "LoadBand",
    "StaticController",
    "RateEstimatingController",
    "OracleController",
    "ScriptedController",
    "resize_queue_fleet",
    "RegretReport",
    "evaluate_regret",
]
