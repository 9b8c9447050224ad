"""``CapacityCache`` re-reads only what moved, and never serves a stale
capacity.

:class:`~repro.cloud.provider.CapacityCache` holds many providers'
deployed capacity and, on :meth:`~repro.cloud.provider.CapacityCache.refresh`,
re-reads only the providers whose allocation changed since their last
read or whose warm-up has not yet elapsed at the query time.  The
property below drives it with random allocation changes — scale-outs
that warm up, scale-ins, instance-type switches — on several providers
(and provider-less entries), and queries it at times in any order,
earlier than a previous query included: after every refresh each entry
must equal its provider's own ``capacity_at``.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import EXTRA_LARGE, LARGE
from repro.cloud.provider import Allocation, CapacityCache, CloudProvider
from repro.cloud.vm import DEFAULT_WARMUP_SECONDS

ITYPES = (LARGE, EXTRA_LARGE)

#: One step of a scenario: ``("apply", provider, count, itype, dt)``
#: advances the apply clock by ``dt`` and deploys ``count`` instances of
#: ``ITYPES[itype]`` on that provider (applies never rewind: billing
#: forbids it); ``("refresh", t)`` queries the cache at ``t`` seconds,
#: any time up to a warm-up past the apply clock.
STEP = st.one_of(
    st.tuples(
        st.just("apply"),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=1),
        st.sampled_from([0.0, 1.0, 2.5, DEFAULT_WARMUP_SECONDS, 30.0]),
    ),
    st.tuples(
        st.just("refresh"),
        st.floats(
            min_value=0.0,
            max_value=1.0,
            allow_nan=False,
        ),
    ),
)


def check(cache: CapacityCache, providers: list, t: float) -> None:
    for j, provider in enumerate(providers):
        expected = math.inf if provider is None else provider.capacity_at(t)
        assert cache.values[j] == expected, (j, t)


@given(
    layout=st.lists(st.booleans(), min_size=1, max_size=5),
    steps=st.lists(STEP, max_size=40),
)
@example(
    # Scale out, query past the warm-up, then query back inside it.
    layout=[True],
    steps=[
        ("apply", 0, 4, 0, 0.0),
        ("refresh", 1.0),
        ("refresh", 0.0),
        ("refresh", 0.5),
    ],
)
@example(
    # A type switch mid-warm-up, then a scale-in, queried out of order.
    layout=[True, False, True],
    steps=[
        ("apply", 0, 3, 0, 0.0),
        ("apply", 2, 5, 1, 1.0),
        ("refresh", 0.9),
        ("apply", 0, 3, 1, 2.5),
        ("refresh", 0.1),
        ("apply", 2, 1, 1, 30.0),
        ("refresh", 1.0),
        ("refresh", 0.0),
    ],
)
@settings(max_examples=150, deadline=None)
def test_values_equal_capacity_at_after_every_refresh(layout, steps):
    """``layout[j]`` says whether entry ``j`` has a provider; a
    provider-less entry reads ``inf`` forever."""
    providers = [CloudProvider(max_instances=6) if has else None for has in layout]
    real = [j for j, provider in enumerate(providers) if provider is not None]
    cache = CapacityCache(providers)
    clock = 0.0
    for step in steps:
        if step[0] == "apply":
            _kind, pick, count, itype, dt = step
            if not real:
                continue
            clock += dt
            providers[real[pick % len(real)]].apply(
                Allocation(count, ITYPES[itype]), clock
            )
        else:
            # Anywhere from the start to a warm-up past the last apply.
            t = step[1] * (clock + 2.0 * DEFAULT_WARMUP_SECONDS)
            cache.refresh(t)
            check(cache, providers, t)
    for j, provider in enumerate(providers):
        if provider is None:
            assert cache.values[j] == math.inf


def test_refresh_re_reads_only_what_moved():
    """A settled, unchanged provider is not re-read; one that changed
    allocation, or whose warm-up has not elapsed at the query time, is."""
    providers = [CloudProvider(max_instances=4) for _ in range(3)]
    cache = CapacityCache(providers)
    assert cache.refresh(0.0).tolist() == [0, 1, 2]
    assert cache.refresh(1.0).tolist() == []
    providers[1].apply(Allocation(2), 5.0)
    assert cache.refresh(5.0).tolist() == [1]
    # Still warming at 6 s: re-read until a query at or past the
    # warm-up's end, and again for any query earlier than that.
    assert cache.refresh(6.0).tolist() == [1]
    settled = 5.0 + DEFAULT_WARMUP_SECONDS
    assert cache.refresh(settled).tolist() == [1]
    assert cache.refresh(settled + 1.0).tolist() == []
    assert cache.refresh(6.0).tolist() == [1]
    assert cache.values[1] == providers[1].capacity_at(6.0)
