"""The fault-event vocabulary: DSL parsing, schedules, host reactions.

:mod:`repro.sim.faults` is the tentpole's front door — everything the
CLI ``--faults`` flag, the scenario ``faults:`` key and the study's
``faults=`` parameter accept flows through :func:`parse_faults` into a
frozen :class:`FaultSchedule`.  These tests pin the grammar (every bad
token fails loudly, naming itself), the schedule's derived views
(timeline, profiler windows, recovery-gated manager knobs), the seeded
generator's determinism, and the :class:`~repro.sim.hosts.HostMap`
reaction machinery driven directly: failure drops capacity to zero and
evacuates (or degrades) tenants, recovery restores capacity without
fail-back.
"""

import pickle

import pytest

from repro.sim.faults import (
    FaultSchedule,
    HostFaultEvent,
    ProfilerFaultEvent,
    RandomFaultSpec,
    parse_faults,
)


class TestParseFaults:
    def test_none_and_ready_schedules_pass_through(self):
        assert parse_faults(None) is None
        schedule = FaultSchedule(host_faults=(HostFaultEvent(0, 5, 3),))
        assert parse_faults(schedule) is schedule

    def test_host_event_token(self):
        schedule = parse_faults("host:1@40+30")
        assert schedule.host_faults == (HostFaultEvent(1, 40, 30),)
        assert schedule.profiler_faults == ()
        assert schedule.any_host_faults

    def test_profiler_tokens_full_and_partial(self):
        schedule = parse_faults("profiler@30+18,profiler:2@100+6")
        assert schedule.profiler_faults == (
            ProfilerFaultEvent(30, 18, None),
            ProfilerFaultEvent(100, 6, 2),
        )
        assert not schedule.any_host_faults

    def test_tied_profiler_windows_put_the_whole_outage_last(self):
        schedule = parse_faults("profiler@30+18,profiler:2@30+18")
        assert schedule.profiler_windows(10.0) == (
            (300.0, 480.0, 2),
            (300.0, 480.0, None),
        )

    def test_random_generator_token(self):
        schedule = parse_faults("random:3@7")
        assert schedule.generators == (RandomFaultSpec(count=3, seed=7),)
        assert schedule.any_host_faults  # generators can touch hosts

    def test_knobs(self):
        schedule = parse_faults(
            "host:0@5+2,recovery=off,blackout=300,blackout_theft=0.6,"
            "residual=0.2,retries=3,backoff=900,fallback=off"
        )
        assert schedule.recovery is False
        assert schedule.blackout_seconds == 300.0
        assert schedule.blackout_theft == 0.6
        assert schedule.residual_rate == 0.2
        assert schedule.retry_limit == 3
        assert schedule.retry_backoff_seconds == 900.0
        assert schedule.degraded_fallback is False

    def test_iterable_of_spec_strings(self):
        # The scenario faults: list path — each item may itself be
        # comma-separated, all merging into one schedule.
        schedule = parse_faults(["host:0@5+2,host:1@9+4", "retries=1"])
        assert len(schedule.host_faults) == 2
        assert schedule.retry_limit == 1

    @pytest.mark.parametrize(
        "spec,needle",
        [
            ("bogus", "bogus"),
            ("host@5+2", "host"),  # missing index
            ("host:x@5+2", "host:x@5+2"),
            ("host:0@5", "5"),  # no +duration
            ("profiler:x@5+2", "profiler:x@5+2"),
            ("disk:0@5+2", "disk"),  # unknown kind
            ("host:0@5+2,wibble=3", "wibble"),
            ("host:0@5+2,retries=soon", "soon"),
            ("random:0@7", "random:0@7"),  # zero-count generator
        ],
    )
    def test_bad_tokens_fail_naming_themselves(self, spec, needle):
        with pytest.raises(ValueError) as excinfo:
            parse_faults(spec)
        assert needle in str(excinfo.value)

    def test_knobs_alone_are_not_a_schedule(self):
        with pytest.raises(ValueError, match="at least one event"):
            parse_faults("recovery=off,retries=2")

    def test_unparseable_value_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_faults(42)


class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="negative"):
            HostFaultEvent(-1, 5, 2)
        with pytest.raises(ValueError, match="duration"):
            HostFaultEvent(0, 5, 0)
        with pytest.raises(ValueError, match="duration"):
            ProfilerFaultEvent(5, 0)
        with pytest.raises(ValueError, match="slot"):
            ProfilerFaultEvent(5, 2, slots=0)

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            (dict(blackout_seconds=-1.0), "blackout"),
            (dict(blackout_theft=1.5), "theft"),
            (dict(residual_rate=1.0), "residual"),
            (dict(retry_limit=-1), "retry limit"),
            (dict(retry_backoff_seconds=0.0), "backoff"),
        ],
    )
    def test_knob_validation(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            FaultSchedule(host_faults=(HostFaultEvent(0, 5, 2),), **kwargs)

    def test_recovery_gates_the_manager_knobs(self):
        on = FaultSchedule(
            host_faults=(HostFaultEvent(0, 5, 2),),
            retry_limit=2,
            degraded_fallback=True,
        )
        assert on.manager_retry_limit == 2
        assert on.manager_degraded_fallback is True
        off = FaultSchedule(
            host_faults=(HostFaultEvent(0, 5, 2),),
            retry_limit=2,
            degraded_fallback=True,
            recovery=False,
        )
        # Recovery off means *no* response machinery anywhere: the
        # no-recovery benchmark arm must not quietly keep its retries.
        assert off.manager_retry_limit == 0
        assert off.manager_degraded_fallback is False

    def test_resolve_expands_generators_deterministically(self):
        schedule = FaultSchedule(generators=(RandomFaultSpec(3, seed=7),))
        a = schedule.resolve(n_steps=100, n_hosts=4)
        b = schedule.resolve(n_steps=100, n_hosts=4)
        assert a == b  # same seed, same faults — no wall-clock entropy
        assert len(a.host_faults) == 3
        assert a.generators == ()
        for event in a.host_faults:
            assert 0 <= event.host < 4
            assert 1 <= event.start_step < 100
        # A different seed draws different events.
        other = FaultSchedule(
            generators=(RandomFaultSpec(3, seed=8),)
        ).resolve(100, 4)
        assert other.host_faults != a.host_faults

    def test_resolve_validates_host_indices(self):
        schedule = FaultSchedule(host_faults=(HostFaultEvent(5, 10, 2),))
        with pytest.raises(ValueError, match="host 5"):
            schedule.resolve(n_steps=100, n_hosts=2)

    def test_resolve_is_idempotent_for_concrete_schedules(self):
        schedule = FaultSchedule(
            host_faults=(HostFaultEvent(0, 10, 2),)
        ).resolve(100, 1)
        assert schedule.resolve(100, 1) == schedule

    def test_host_timeline_sorted_fail_before_recover(self):
        schedule = FaultSchedule(
            host_faults=(
                HostFaultEvent(1, 20, 10),
                HostFaultEvent(0, 30, 5),  # starts where host 1 recovers
            )
        )
        assert schedule.host_timeline() == [
            (20, 0, 1),
            (30, 0, 0),  # kind 0 (fail) sorts before kind 1 (recover)
            (30, 1, 1),
            (35, 1, 0),
        ]

    def test_host_timeline_requires_resolution(self):
        schedule = FaultSchedule(generators=(RandomFaultSpec(1, seed=0),))
        with pytest.raises(ValueError, match="resolve"):
            schedule.host_timeline()

    def test_profiler_windows_convert_steps_to_seconds(self):
        schedule = FaultSchedule(
            profiler_faults=(
                ProfilerFaultEvent(40, 5, 2),
                ProfilerFaultEvent(10, 3),
            )
        )
        assert schedule.profiler_windows(60.0) == (
            (600.0, 780.0, None),
            (2400.0, 2700.0, 2),
        )
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step"):
                schedule.profiler_windows(bad)

    def test_schedule_is_picklable(self):
        # Shard workers receive the schedule through the study spec.
        schedule = parse_faults("host:0@5+2,profiler@9+3,retries=1")
        assert pickle.loads(pickle.dumps(schedule)) == schedule


# ----------------------------------------------------------------------
# HostMap reactions, driven directly (no fleet engine in the loop)
# ----------------------------------------------------------------------


class TestHostMapFaults:
    """Failure/evacuation/recovery semantics on a hand-driven map."""

    def build_map(self, schedule, n_lanes=4, n_hosts=2, capacity=10.0):
        from repro.sim.placement import build_host_map

        host_map = build_host_map(
            "round_robin", [0.0] * n_lanes, n_hosts, capacity
        )
        host_map.attach_faults(schedule)
        return host_map

    def step(self, host_map, t, demands):
        import numpy as np

        return host_map._apply_demands(t, np.asarray(demands, dtype=float))

    def test_attach_validates(self):
        from repro.sim.placement import build_host_map

        host_map = build_host_map("round_robin", [0.0] * 2, 2, 10.0)
        with pytest.raises(ValueError, match="resolve"):
            host_map.attach_faults(
                FaultSchedule(generators=(RandomFaultSpec(1, seed=0),))
            )
        with pytest.raises(ValueError, match="host 7"):
            host_map.attach_faults(
                FaultSchedule(host_faults=(HostFaultEvent(7, 5, 2),))
            )
        host_map.attach_faults(
            FaultSchedule(host_faults=(HostFaultEvent(0, 5, 2),))
        )
        with pytest.raises(ValueError, match="already attached"):
            host_map.attach_faults(
                FaultSchedule(host_faults=(HostFaultEvent(0, 5, 2),))
            )

    def test_failure_evacuates_and_recovery_restores(self):
        # Lanes 0, 2 on host 0; lanes 1, 3 on host 1 (spread).  Host 0
        # dies at step 2: both tenants fit on host 1 (demand 2 each
        # against 10 - 4 = 6 headroom), each paying the blackout.
        schedule = FaultSchedule(
            host_faults=(HostFaultEvent(0, 2, 3),),
            blackout_seconds=600.0,
            blackout_theft=0.5,
        )
        host_map = self.build_map(schedule)
        demands = [2.0, 2.0, 2.0, 2.0]
        self.step(host_map, 0.0, demands)
        self.step(host_map, 300.0, demands)
        assert host_map.host_failures == 0
        thefts = self.step(host_map, 600.0, demands)  # step index 2: fail
        assert host_map.host_failures == 1
        assert host_map.evacuations == 2
        assert host_map.unplaced_evacuations == 0
        assert host_map.placement == (1, 1, 1, 1)
        # Evacuees pay the cloning blackout through their feeds.
        assert thefts[0] == 0.5 and thefts[2] == 0.5
        # Once the blackout expires the survivors settle: 8 units on a
        # 10-unit host is not overloaded, so theft returns to zero.
        thefts = self.step(host_map, 1500.0, demands)
        assert float(thefts.max()) == 0.0
        self.step(host_map, 1800.0, demands)  # step index 4: still down
        assert host_map.host_recoveries == 0
        self.step(host_map, 2100.0, demands)  # step index 5: recover
        assert host_map.host_recoveries == 1
        # No fail-back: evacuees stay where they landed.
        assert host_map.placement == (1, 1, 1, 1)

    def test_unplaceable_tenants_run_degraded_until_recovery(self):
        # One fat tenant per host: nothing fits anywhere else, so the
        # dead host's tenant degrades to the residual rate instead of
        # overcommitting the survivor.
        schedule = FaultSchedule(
            host_faults=(HostFaultEvent(0, 1, 2),), residual_rate=0.2
        )
        host_map = self.build_map(schedule, n_lanes=2, n_hosts=2)
        demands = [8.0, 8.0]
        self.step(host_map, 0.0, demands)
        thefts = self.step(host_map, 300.0, demands)  # fail
        assert host_map.unplaced_evacuations == 1
        assert host_map.evacuations == 0
        assert host_map.placement == (0, 1)  # nobody moved
        assert thefts[0] == pytest.approx(0.8)  # 1 - residual_rate
        self.step(host_map, 900.0, demands)  # step index 2: still down
        thefts = self.step(host_map, 1200.0, demands)  # step index 3: recover
        assert host_map.host_recoveries == 1
        assert thefts[0] == 0.0

    def test_recovery_off_degrades_every_tenant_in_place(self):
        schedule = FaultSchedule(
            host_faults=(HostFaultEvent(0, 1, 2),),
            recovery=False,
            residual_rate=0.1,
        )
        host_map = self.build_map(schedule)
        demands = [1.0, 1.0, 1.0, 1.0]
        self.step(host_map, 0.0, demands)
        thefts = self.step(host_map, 300.0, demands)
        # No evacuation machinery: both tenants ride the dead host.
        assert host_map.evacuations == 0
        assert host_map.placement == (0, 1, 0, 1)
        assert thefts[0] == pytest.approx(0.9) and thefts[2] == pytest.approx(0.9)
        assert thefts[1] == 0.0 and thefts[3] == 0.0
        # The event window still closes — recovery=off changes the
        # response, not the timeline — and capacity comes back.
        self.step(host_map, 900.0, demands)  # step index 2: still down
        thefts = self.step(host_map, 1200.0, demands)  # step index 3: recover
        assert float(thefts.max()) == 0.0

    def test_overlapping_windows_fail_once_recover_once(self):
        schedule = FaultSchedule(
            host_faults=(
                HostFaultEvent(0, 1, 4),
                HostFaultEvent(0, 2, 1),  # nested inside the first
            )
        )
        host_map = self.build_map(schedule)
        demands = [1.0, 1.0, 1.0, 1.0]
        for k in range(7):
            self.step(host_map, 300.0 * k, demands)
        # The nested event neither double-kills nor resurrects early.
        assert host_map.host_failures == 1
        assert host_map.host_recoveries == 1
        assert host_map.fault_commit_steps == [1, 5]
