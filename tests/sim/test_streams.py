"""Unit tests for named random streams."""

import pytest

from repro.sim.streams import RandomStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(1)
        assert streams.get("page-count") is streams.get("page-count")

    def test_streams_reproducible_across_instances(self):
        a = RandomStreams(7)
        b = RandomStreams(7)
        assert [a.get("write-coin").random() for _ in range(5)] == [
            b.get("write-coin").random() for _ in range(5)
        ]

    def test_streams_independent_of_creation_order(self):
        a = RandomStreams(7)
        a.get("page-count")
        first_draw_late = a.get("page-choice").random()
        b = RandomStreams(7)
        first_draw_early = b.get("page-choice").random()
        assert first_draw_late == first_draw_early

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        assert (
            streams.get("disk-service-0").random()
            != streams.get("disk-choice-0").random()
        )

    def test_exponential_mean(self):
        streams = RandomStreams(3)
        draws = [
            streams.exponential("restart-delay", 2.0)
            for _ in range(20_000)
        ]
        assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.05)

    def test_exponential_zero_mean_is_zero(self):
        streams = RandomStreams(3)
        assert streams.exponential("restart-delay", 0.0) == 0.0

    def test_bernoulli_edge_cases(self):
        streams = RandomStreams(3)
        assert streams.bernoulli("write-coin", 0.0) is False
        assert streams.bernoulli("write-coin", 1.0) is True

    def test_bernoulli_rate(self):
        streams = RandomStreams(3)
        hits = sum(
            streams.bernoulli("write-coin", 0.125) for _ in range(40_000)
        )
        assert hits / 40_000 == pytest.approx(0.125, abs=0.01)


class TestFreshStreams:
    def test_each_call_builds_a_new_stream(self):
        streams = RandomStreams(5)
        assert streams.fresh("think-0") is not streams.fresh("think-0")

    def test_first_draw_matches_get(self):
        fresh = RandomStreams(5).fresh("think-3").expovariate(0.5)
        cached = RandomStreams(5).get("think-3").expovariate(0.5)
        assert fresh == cached

    def test_never_cached(self):
        streams = RandomStreams(5)
        streams.fresh("think-0").random()
        assert streams._streams == {}
        assert streams.get("think-0") is not streams.fresh("think-0")


class TestRegistryRefusal:
    """Every stream creation resolves its name against the
    ``register_stream`` registry; a lookup that names its component
    must name the registered owner."""

    def test_unregistered_name_raises_through_get(self):
        streams = RandomStreams(5)
        with pytest.raises(ValueError, match="'thnik-0'"):
            streams.get("thnik-0")
        assert streams._streams == {}

    def test_unregistered_name_raises_through_fresh(self):
        streams = RandomStreams(5)
        streams.fresh("think-0")
        with pytest.raises(ValueError, match="'thnik-0'"):
            streams.fresh("thnik-0")

    def test_cross_owner_creation_raises(self):
        streams = RandomStreams(5)
        with pytest.raises(ValueError, match="'page-count'"):
            streams.get("page-count", owner="resources")
        with pytest.raises(ValueError, match="'think-3'"):
            streams.fresh("think-3", owner="resources")
        assert streams._streams == {}

    def test_cross_owner_cached_lookup_raises(self):
        streams = RandomStreams(5)
        stream = streams.get("page-count", owner="workload")
        assert streams.get("page-count", owner="workload") is stream
        with pytest.raises(ValueError, match="owned by 'workload'"):
            streams.get("page-count", owner="resources")
        with pytest.raises(ValueError, match="drawn by 'resources'"):
            streams.exponential("page-count", 1.0, owner="resources")

    def test_owner_less_lookup_passes(self):
        streams = RandomStreams(5)
        stream = streams.get("write-coin")
        assert streams.get("write-coin") is stream
        assert streams.get("write-coin", owner="workload") is stream
        streams.fresh("restart-delay").random()

    def test_placeholder_family_member_passes(self):
        streams = RandomStreams(5)
        streams.get("disk-service-12", owner="resources").random()
        streams.fresh("think-25599", owner="workload").random()
        streams.exponential("fault-crash-3", 1.0, owner="faults")
        with pytest.raises(ValueError, match="'disk-service-'"):
            streams.get("disk-service-", owner="resources")
