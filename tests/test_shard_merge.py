"""Unit tests for the online global AE merger's holdback timer."""

from types import SimpleNamespace

import pytest

from repro.shard.merge import GlobalAeMerger
from repro.sim import Simulator

#: An event stamped here and held back 0.05 s matures at
#: ``1.0108159572792552``, but ``1.0108159572792552 - 0.05`` rounds to
#: ``0.9608159572792552``: just below the stamp.
OLDEST = 0.9608159572792553
HOLDBACK = 0.05


@pytest.mark.parametrize(
    "offered_at",
    [OLDEST, 0.9],
    ids=["armed-at-the-stamp", "re-armed-for-the-oldest"],
)
def test_timer_fired_for_the_oldest_entry_releases_it(offered_at):
    sim = Simulator()
    released = []
    merger = GlobalAeMerger(sim, lambda shard, event: released.append((sim.now, event)), HOLDBACK)
    fires = []
    on_timer = merger._on_timer

    def bounded_timer(*args):
        fires.append(sim.now)
        # Before the fix the timer re-armed with a zero delay at the same
        # instant forever; a handful of fires is already a livelock.
        assert len(fires) <= 4, f"holdback timer livelocked at t={sim.now!r}"
        on_timer(*args)

    merger._on_timer = bounded_timer
    sim.run(until=offered_at)
    event = SimpleNamespace(timestamp=OLDEST)
    merger.offer(0, event)
    dispatched_before = sim.dispatched
    sim.run(until=2.0)

    assert released == [(1.0108159572792552, event)]
    assert merger.pending == 0
    assert fires[-1] == 1.0108159572792552
    assert sim.dispatched - dispatched_before <= 2
