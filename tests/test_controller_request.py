"""Workload generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import ReadRequest, WorkloadConfig, generate_workload
from repro.controller.request import measured_row_hit_rate
from repro.errors import ConfigurationError


class TestWorkloadConfig:
    def test_defaults_match_paper(self):
        config = WorkloadConfig()
        assert config.num_requests == 10_000
        assert config.arrival_interval == 5
        assert config.row_hit_rate == 0.80
        assert config.num_dies == 4 and config.banks_per_die == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_requests": 0},
            {"arrival_interval": 0},
            {"row_hit_rate": 1.5},
            {"same_die_rate": -0.1},
            {"num_rows": 1},
            {"locality_window": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**kwargs)


class TestGenerator:
    def test_deterministic(self):
        a = generate_workload(WorkloadConfig(num_requests=200))
        b = generate_workload(WorkloadConfig(num_requests=200))
        assert [(r.die, r.bank, r.row) for r in a] == [
            (r.die, r.bank, r.row) for r in b
        ]

    def test_different_seeds_differ(self):
        a = generate_workload(WorkloadConfig(num_requests=200, seed=1))
        b = generate_workload(WorkloadConfig(num_requests=200, seed=2))
        assert [(r.die, r.bank) for r in a] != [(r.die, r.bank) for r in b]

    def test_arrival_spacing(self):
        wl = generate_workload(WorkloadConfig(num_requests=10, arrival_interval=5))
        assert [r.arrival_cycle for r in wl] == [5 * i for i in range(10)]

    def test_targets_in_range(self):
        wl = generate_workload(WorkloadConfig(num_requests=500))
        for r in wl:
            assert 0 <= r.die < 4
            assert 0 <= r.bank < 8
            assert 0 <= r.row < 4096

    def test_short_range_hit_rate_near_nominal(self):
        """Immediate re-touches hit close to the configured 80%."""
        config = WorkloadConfig(
            num_requests=20_000, banks_per_die=1, num_dies=1, same_die_rate=1.0
        )
        wl = generate_workload(config)
        assert measured_row_hit_rate(wl) == pytest.approx(0.80, abs=0.02)

    def test_all_dies_covered(self):
        wl = generate_workload(WorkloadConfig(num_requests=1000))
        assert {r.die for r in wl} == {0, 1, 2, 3}

    def test_latency_none_until_complete(self):
        req = ReadRequest(0, 0, 0, 0, arrival_cycle=0)
        assert req.latency is None
        req.complete_cycle = 42
        assert req.latency == 42

    @settings(max_examples=20)
    @given(st.integers(min_value=50, max_value=400))
    def test_generator_request_count(self, n):
        wl = generate_workload(WorkloadConfig(num_requests=n))
        assert len(wl) == n
        assert [r.req_id for r in wl] == list(range(n))


class TestExplicitRNG:
    """Randomness threading: the default path is byte-identical to the
    historical seeded stream; an explicit numpy Generator is supported
    and reproducible from its own seed."""

    def _key(self, wl):
        return [
            (r.die, r.bank, r.row, r.arrival_cycle, r.is_write) for r in wl
        ]

    def test_default_path_unchanged(self):
        """No rng argument -> the config-seeded stream (regression pin
        for Table 5/6: the draw sequence must never move)."""
        cfg = WorkloadConfig(num_requests=500, seed=42)
        assert self._key(generate_workload(cfg)) == self._key(
            generate_workload(cfg)
        )

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_numpy_generator_reproducible(self, seed):
        np = pytest.importorskip("numpy")
        cfg = WorkloadConfig(num_requests=120, write_fraction=0.3)
        a = generate_workload(cfg, rng=np.random.default_rng(seed))
        b = generate_workload(cfg, rng=np.random.default_rng(seed))
        assert self._key(a) == self._key(b)

    def test_numpy_generator_advances(self):
        """One Generator threaded through two calls yields two different
        workloads (the caller owns the stream position)."""
        np = pytest.importorskip("numpy")
        cfg = WorkloadConfig(num_requests=120)
        gen = np.random.default_rng(7)
        a = generate_workload(cfg, rng=gen)
        b = generate_workload(cfg, rng=gen)
        assert self._key(a) != self._key(b)

    def test_numpy_path_respects_config_shape(self):
        np = pytest.importorskip("numpy")
        cfg = WorkloadConfig(num_requests=300, num_dies=2, banks_per_die=4)
        wl = generate_workload(cfg, rng=np.random.default_rng(0))
        assert len(wl) == 300
        assert all(0 <= r.die < 2 and 0 <= r.bank < 4 for r in wl)
