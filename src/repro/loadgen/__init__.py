"""Open-loop load generation for the serving stack.

The measurement substrate of the ``serving_chaos`` benchmark scenario
and of ``holistix-loadgen``:

* :mod:`repro.loadgen.schedule` — seeded Poisson / fixed-rate arrival
  schedules, precomputed before the run and replayable from JSON trace
  files.
* :mod:`repro.loadgen.histogram` — HDR-style constant-memory latency
  histograms with bounded (≈2.5%) relative quantile error.
* :mod:`repro.loadgen.runner` — the open-loop runner (latency measured
  from *intended* send time, deadline-aware in-flight cap, typed
  failure accounting).
* :mod:`repro.loadgen.cli` — ``holistix-loadgen``, the operator CLI
  that drives a running gateway URL with a schedule or a trace file.

Why open loop: a closed-loop client (N threads, one request in flight
each) slows down exactly when the server does, so a 500 ms server stall
touches only N requests and vanishes from p99 — coordinated omission.
The open-loop runner keeps offered load fixed and charges every stalled
millisecond to the requests that were due, so the tail cannot lie
(``tests/test_loadgen.py`` injects such a stall and checks the open-loop
p99 carries it).  The repository benchmark's ``perfbench/openloop.py``
applies the same rules over keep-alive connections.
"""

from repro.loadgen.histogram import LatencyHistogram
from repro.loadgen.runner import LoadResult, run_open_loop
from repro.loadgen.schedule import (
    ArrivalSchedule,
    fixed_rate_schedule,
    poisson_schedule,
)

__all__ = [
    "ArrivalSchedule",
    "LatencyHistogram",
    "LoadResult",
    "fixed_rate_schedule",
    "poisson_schedule",
    "run_open_loop",
]
