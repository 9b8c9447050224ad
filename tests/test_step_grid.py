"""Simulated time lives on one step grid.

The engine computes step ``i``'s time as ``start + i * step`` and runs
the step count :class:`~repro.sim.clock.SimClock` decides, and every
wake time is compared through :func:`~repro.sim.clock.reached`.  These
tests pin both on steps a float cannot represent, from nonzero starts,
where a running sum of steps drifts off the grid.
"""

import io
import tokenize
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manager import DejaVuConfig
from repro.sim.clock import SimClock
from repro.sim.fleet import FleetEngine
from repro.sim.profiling_queue import ProfilingQueue
from tests.test_fleet_quiet_lanes import build_fleet

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def run_on_grid(
    batched: bool,
    n_lanes: int,
    step: float,
    start: float,
    duration: float,
    every: int,
    outage: tuple[int, int],
):
    """A small DejaVu fleet whose checks, settle delay, re-signatures
    and profiling runs all span a few steps, so lanes adapt, land
    queue-delayed deployments and re-signature inside the run."""
    config = DejaVuConfig(
        check_interval_seconds=every * step,
        settle_delay_seconds=2 * step,
        resignature_every_seconds=(every + 1) * step,
        profiling_retry_limit=2,
        profiling_retry_backoff_seconds=step,
    )
    lanes, _queue, managers = build_fleet(n_lanes, config=config, slots=None)
    # One slot per lane: a lane's profiling run ends within a step, so
    # the queue is uncontended and only the outage delays a request.
    queue = ProfilingQueue(slots=n_lanes, service_seconds=0.5 * step)
    first, last = outage
    queue.attach_faults(
        ((start + (first - 0.5) * step, start + (last + 0.5) * step, None),)
    )
    engine = FleetEngine(
        lanes, step_seconds=step, profiling_queue=queue, batched=batched
    )
    return engine.run(duration, start=start), managers


@given(
    step=st.sampled_from([0.1, 0.3, 0.7, 299.9]),
    start_steps=st.floats(min_value=0.5, max_value=7.5),
    n_steps=st.integers(min_value=8, max_value=20),
    partial=st.booleans(),
    n_lanes=st.integers(min_value=2, max_value=4),
    every=st.integers(min_value=2, max_value=4),
    outage_at=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=10, deadline=None)
def test_off_grid_runs_record_the_grid_and_batched_equals_scalar(
    step, start_steps, n_steps, partial, n_lanes, every, outage_at
):
    start = start_steps * step
    duration = (n_steps + (0.5 if partial else 0.0)) * step
    clock = SimClock(duration, step, start)
    runs = []
    for batched in (False, True):
        result, managers = run_on_grid(
            batched,
            n_lanes,
            step,
            start,
            duration,
            every,
            (outage_at, outage_at + 2),
        )
        assert result.n_steps == clock.n
        np.testing.assert_array_equal(
            result.times, start + np.arange(clock.n) * step
        )
        runs.append((result, [m.adaptation_events for m in managers]))
        # Every lane re-signatures, and the outage holds at least one
        # lane's adaptation until it ends: that deployment lands later.
        assert all(m.resignature_requests for m in managers)
        assert any(
            event.duration_seconds > m.profiler.signature_seconds
            for m in managers
            for event in m.adaptation_events
        )
    (scalar, scalar_events), (batched, batched_events) = runs
    assert batched.series_names() == scalar.series_names()
    for name in scalar.series_names():
        np.testing.assert_array_equal(batched.matrix(name), scalar.matrix(name))
    assert repr(batched_events) == repr(scalar_events)


def test_a_landing_a_hair_past_its_step_deploys_at_the_step():
    """Here a queue-delayed decision's ``apply_at`` is
    0.5000000000000001 and the step that reaches it is at 0.5.
    Deployed at ``apply_at``, its lane's observation at 0.5 found the
    billing clock ahead of it and raised; deployed at the step, both
    control planes record the same run."""
    scalar, _managers = run_on_grid(False, 2, 0.1, 0.1, 0.8, 2, (1, 3))
    batched, _managers = run_on_grid(True, 2, 0.1, 0.1, 0.8, 2, (1, 3))
    for name in scalar.series_names():
        np.testing.assert_array_equal(batched.matrix(name), scalar.matrix(name))


def number_tokens(path: Path) -> list[str]:
    """The source's number tokens: comments and strings excluded."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [tok.string for tok in tokens if tok.type == tokenize.NUMBER]


def is_tolerance(token: str) -> bool:
    try:
        return float(token.replace("_", "")) == 1e-9
    except ValueError:  # hex, octal and imaginary literals
        return False


def test_wake_times_compare_only_through_the_clock():
    """The one tolerance for wake times lives in ``sim/clock.py``; the
    manager and the fleet engine call :func:`reached` instead of adding
    it by hand."""
    for path in (SRC / "core" / "manager.py", SRC / "sim" / "fleet.py"):
        literals = [t for t in number_tokens(path) if is_tolerance(t)]
        assert not literals, f"{path.name} compares with {literals}"
    assert "1e-9" in number_tokens(SRC / "sim" / "clock.py")
