"""Property tests pinning the profile-merge algebra.

The daemon aggregates per-session :class:`StreamProfile`\\ s twice (per
shard, then fleet-wide); the live metrics path merges
:class:`MetricsSnapshot`\\ s shipped at arbitrary times from arbitrary
shard subsets.  Both merges must therefore be associative and
order-independent with the empty merge as identity — otherwise the reported totals would depend on shard count, shipment
timing, or drain order.  Numeric inputs are dyadic rationals (n/16) so
float addition is exact and the algebraic properties hold exactly.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.obs import Histogram, MetricsSnapshot, merge_snapshots
from repro.stream import StreamProfile, merge_profiles

counts = st.integers(min_value=0, max_value=1 << 20)
#: exactly-representable non-negative dyadic rationals
dyadic = counts.map(lambda n: n / 16.0)

stream_profiles = st.builds(
    StreamProfile,
    **{
        field.name: counts
        for field in dataclasses.fields(StreamProfile)
    },
)


def _as_tuple(profile) -> tuple:
    return tuple(
        getattr(profile, field.name)
        for field in dataclasses.fields(profile)
    )


class TestStreamProfileMerge:
    @given(st.lists(stream_profiles, max_size=8), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_order_independent(self, profiles, rng):
        shuffled = list(profiles)
        rng.shuffle(shuffled)
        assert _as_tuple(merge_profiles(profiles)) == _as_tuple(
            merge_profiles(shuffled)
        )

    @given(
        st.lists(stream_profiles, max_size=8),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_invariant(self, profiles, cut):
        """Merging shard-level merges equals merging everything flat —
        the sharded daemon's totals cannot depend on the partition."""
        cut = min(cut, len(profiles))
        regrouped = merge_profiles(
            [merge_profiles(profiles[:cut]), merge_profiles(profiles[cut:])]
        )
        assert _as_tuple(regrouped) == _as_tuple(merge_profiles(profiles))

    @given(stream_profiles)
    @settings(max_examples=50, deadline=None)
    def test_identity(self, profile):
        assert _as_tuple(merge_profiles([])) == _as_tuple(StreamProfile())
        assert _as_tuple(merge_profiles([profile])) == _as_tuple(profile)


# -- metrics snapshots -------------------------------------------------------

sample_names = st.sampled_from(["a_total", "b_total", "c_depth"])


@st.composite
def snapshots(draw):
    snap = MetricsSnapshot()
    for name in draw(st.lists(sample_names, max_size=3, unique=True)):
        snap.counter(name, draw(dyadic))
    for name in draw(st.lists(sample_names, max_size=2, unique=True)):
        snap.gauge(f"g_{name}", draw(dyadic))
    if draw(st.booleans()):
        hist = Histogram(buckets=(0.5, 2.0))
        for value in draw(st.lists(dyadic, max_size=4)):
            hist.observe(value)
        snap.histogram("lat", hist.data())
    return snap


def _canon(snap: MetricsSnapshot) -> tuple:
    return (
        tuple(sorted(snap.counters.items())),
        tuple(sorted(snap.gauges.items())),
        tuple(
            (key, tuple(data.counts), data.sum, data.count)
            for key, data in sorted(snap.histograms.items())
        ),
    )


class TestSnapshotMerge:
    @given(st.lists(snapshots(), max_size=6), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_order_independent(self, snaps, rng):
        shuffled = list(snaps)
        rng.shuffle(shuffled)
        assert _canon(merge_snapshots(snaps)) == _canon(
            merge_snapshots(shuffled)
        )

    @given(
        st.lists(snapshots(), max_size=6),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_invariant(self, snaps, cut):
        cut = min(cut, len(snaps))
        regrouped = merge_snapshots(
            [merge_snapshots(snaps[:cut]), merge_snapshots(snaps[cut:])]
        )
        assert _canon(regrouped) == _canon(merge_snapshots(snaps))

    def test_identity(self):
        assert _canon(merge_snapshots([])) == ((), (), ())
