"""Serving layer: request streams, batching, SLA metrics."""

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, build_cluster, make_router
from repro.serving import (
    ArrivalConfig,
    BatchingConfig,
    BurstyConfig,
    Request,
    assign_hot_experts,
    generate_bursty,
    generate_requests,
    replay_trace,
)


class TestRequestGeneration:
    def test_count_and_order(self):
        requests = generate_requests(ArrivalConfig(rate_per_s=2.0, seed=1), 20)
        assert len(requests) == 20
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)

    def test_deterministic_per_seed(self):
        a = generate_requests(ArrivalConfig(seed=3), 10)
        b = generate_requests(ArrivalConfig(seed=3), 10)
        assert a == b

    def test_rate_controls_density(self):
        slow = generate_requests(ArrivalConfig(rate_per_s=0.1, seed=1), 50)
        fast = generate_requests(ArrivalConfig(rate_per_s=10.0, seed=1), 50)
        assert fast[-1].arrival_s < slow[-1].arrival_s

    def test_prompt_lengths_within_spread(self):
        cfg = ArrivalConfig(prompt_len_mean=100, prompt_len_spread=0.2, seed=2)
        for request in generate_requests(cfg, 40):
            assert 80 <= request.prompt_len <= 120

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalConfig(rate_per_s=0)
        with pytest.raises(ValueError):
            ArrivalConfig(prompt_len_spread=1.5)


class TestBatchingConfig:
    def test_capacity(self):
        assert BatchingConfig(batch_size=8, group_batches=4).group_capacity == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingConfig(batch_size=0)
        for max_wait_s in (0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="max_wait_s"):
                BatchingConfig(max_wait_s=max_wait_s)


def serve_one_machine(small_mixtral, hw, batching, requests):
    """Serve ``requests`` on one machine: a one-replica fleet."""
    replicas = build_cluster(
        small_mixtral, [hw], batching, prompt_len=32, gen_len=4, prompt_quantum=1
    )
    return ClusterSimulator(replicas, make_router("round-robin")).run(requests)


class TestServer:
    """One machine served through the cluster event loop."""

    def test_larger_groups_raise_throughput(self, small_mixtral, hw):
        """The core trade-off: bigger batch groups amortize weight I/O."""
        requests = generate_requests(
            ArrivalConfig(rate_per_s=50.0, prompt_len_mean=32, gen_len=4, seed=5), 24
        )
        small, large = (
            serve_one_machine(
                small_mixtral, hw,
                BatchingConfig(batch_size=4, group_batches=group_batches),
                requests,
            )
            for group_batches in (1, 6)
        )
        assert large.throughput > small.throughput

    def test_full_group_dispatches_at_fill_time(self, small_mixtral, hw):
        batching = BatchingConfig(batch_size=4, group_batches=2, max_wait_s=30.0)
        capacity = batching.group_capacity
        requests = [Request(i, float(i), 32, 4) for i in range(capacity)]
        report = serve_one_machine(small_mixtral, hw, batching, requests)
        fill_time = float(capacity - 1)
        assert len(report.records) == capacity
        assert all(
            r.dispatch_s == r.start_s == pytest.approx(fill_time)
            for r in report.records
        )


class TestBurstyArrivals:
    def test_count_order_determinism(self):
        config = BurstyConfig(seed=5)
        a = generate_bursty(config, 30)
        b = generate_bursty(config, 30)
        assert a == b
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)
        assert len(a) == 30

    def test_burstier_than_poisson(self):
        """MMPP inter-arrival gaps have a higher coefficient of variation."""
        bursty = generate_bursty(
            BurstyConfig(base_rate_per_s=0.2, burst_rate_per_s=20.0, seed=1), 300
        )
        poisson = generate_requests(ArrivalConfig(rate_per_s=1.0, seed=1), 300)

        def cv(requests):
            gaps = np.diff([r.arrival_s for r in requests])
            return gaps.std() / gaps.mean()

        assert cv(bursty) > cv(poisson)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyConfig(base_rate_per_s=0)
        with pytest.raises(ValueError):
            BurstyConfig(switch_prob=0)

    def test_empty_and_single_counts(self):
        # Edge cases of the vectorized sampler: the prefix-XOR state
        # chain slices [:-1]/[1:], which must degrade cleanly at 0 and 1.
        assert generate_bursty(BurstyConfig(seed=2), 0) == []
        (only,) = generate_bursty(BurstyConfig(seed=2), 1)
        assert only.request_id == 0
        assert only.arrival_s > 0.0

    def test_first_arrival_starts_calm(self):
        """State before the first arrival is always the calm state."""
        config = BurstyConfig(
            base_rate_per_s=1.0, burst_rate_per_s=1000.0, switch_prob=0.999,
            seed=9,
        )
        first = generate_bursty(config, 2)[0]
        # Calm-rate gap: exponential(1)/1.0 — overwhelmingly larger than
        # any burst-rate gap (1/1000 scale).
        assert first.arrival_s > 1e-3


class TestTraceReplay:
    def test_from_records(self):
        requests = replay_trace(
            [
                {"arrival_s": 2.0, "prompt_len": 64, "gen_len": 8},
                {"arrival_s": 0.5, "prompt_len": 32, "gen_len": 4,
                 "hot_expert": 3},
                (1.0, 48, 6),
            ]
        )
        assert [r.arrival_s for r in requests] == [0.5, 1.0, 2.0]
        assert [r.request_id for r in requests] == [0, 1, 2]
        assert requests[0].hot_expert == 3
        assert requests[1].hot_expert is None

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            '[{"arrival_s": 0.0, "prompt_len": 16, "gen_len": 2},'
            ' {"arrival_s": 1.5, "prompt_len": 24, "gen_len": 2}]'
        )
        requests = replay_trace(path)
        assert len(requests) == 2
        assert requests[1].arrival_s == 1.5


class TestHotExpertTagging:
    def test_deterministic_and_in_range(self):
        requests = generate_requests(ArrivalConfig(seed=1), 40)
        a = assign_hot_experts(requests, num_experts=8, skew=1.2, seed=3)
        b = assign_hot_experts(requests, num_experts=8, skew=1.2, seed=3)
        assert a == b
        assert all(0 <= r.hot_expert < 8 for r in a)

    def test_skew_favours_low_ranks(self):
        requests = generate_requests(ArrivalConfig(seed=1), 400)
        tagged = assign_hot_experts(requests, num_experts=8, skew=1.5, seed=0)
        counts = np.bincount([r.hot_expert for r in tagged], minlength=8)
        assert counts[0] == counts.max()
