"""Unit tests for named random streams."""

import pytest

from repro.sanitizer.core import Sanitizer
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
        assert streams.get("x") is streams.get("x")

    def test_streams_reproducible_across_instances(self):
        a = RandomStreams(7)
        b = RandomStreams(7)
        assert [a.get("s").random() for _ in range(5)] == [
            b.get("s").random() for _ in range(5)
        ]

    def test_streams_independent_of_creation_order(self):
        a = RandomStreams(7)
        a.get("first")
        first_draw_late = a.get("second").random()
        b = RandomStreams(7)
        first_draw_early = b.get("second").random()
        assert first_draw_late == first_draw_early

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        assert streams.get("a").random() != streams.get("b").random()

    def test_exponential_mean(self):
        streams = RandomStreams(3)
        draws = [streams.exponential("e", 2.0) for _ in range(20_000)]
        assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.05)

    def test_exponential_zero_mean_is_zero(self):
        streams = RandomStreams(3)
        assert streams.exponential("e", 0.0) == 0.0

    def test_uniform_int_bounds(self):
        streams = RandomStreams(3)
        draws = [
            streams.uniform_int("u", 4, 12) for _ in range(2_000)
        ]
        assert min(draws) == 4
        assert max(draws) == 12

    def test_uniform_bounds(self):
        streams = RandomStreams(3)
        draws = [
            streams.uniform("u", 0.01, 0.03) for _ in range(1_000)
        ]
        assert all(0.01 <= d <= 0.03 for d in draws)

    def test_bernoulli_edge_cases(self):
        streams = RandomStreams(3)
        assert streams.bernoulli("b", 0.0) is False
        assert streams.bernoulli("b", 1.0) is True

    def test_bernoulli_rate(self):
        streams = RandomStreams(3)
        hits = sum(
            streams.bernoulli("b", 0.125) for _ in range(40_000)
        )
        assert hits / 40_000 == pytest.approx(0.125, abs=0.01)

    def test_sample_without_replacement_distinct(self):
        streams = RandomStreams(3)
        sample = streams.sample_without_replacement("s", 300, 12)
        assert len(set(sample)) == 12
        assert all(0 <= x < 300 for x in sample)

    def test_sample_too_many_raises(self):
        streams = RandomStreams(3)
        with pytest.raises(ValueError):
            streams.sample_without_replacement("s", 3, 5)


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

    def test_sanitizer_checks_the_registry(self):
        sanitizer = Sanitizer()
        streams = RandomStreams(5)
        streams.attach_sanitizer(sanitizer)
        streams.fresh("think-0")
        streams.fresh("thnik-0")
        [finding] = sanitizer.finalize()
        assert finding.rule_id == "stream-discipline"
        assert "'thnik-0'" in finding.message
