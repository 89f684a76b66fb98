"""FlowPolicy validation and the net-runtime credit-window mapping."""

import pytest

from repro.transput import FlowPolicy


class TestValidation:
    def test_defaults_are_valid(self):
        policy = FlowPolicy()
        assert policy.lookahead == 0
        assert policy.batch == 1

    @pytest.mark.parametrize("lookahead", [-1, -100])
    def test_negative_lookahead_rejected(self, lookahead):
        with pytest.raises(ValueError, match="lookahead"):
            FlowPolicy(lookahead=lookahead)

    @pytest.mark.parametrize("batch", [0, -1, -7])
    def test_non_positive_batch_rejected(self, batch):
        with pytest.raises(ValueError, match="batch"):
            FlowPolicy(batch=batch)

    @pytest.mark.parametrize("capacity", [0, -5])
    def test_bad_buffer_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="buffer_capacity"):
            FlowPolicy(buffer_capacity=capacity)

    @pytest.mark.parametrize("capacity", [0, -2])
    def test_bad_inbox_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="inbox_capacity"):
            FlowPolicy(inbox_capacity=capacity)

    def test_none_capacities_mean_unbounded(self):
        policy = FlowPolicy(buffer_capacity=None, inbox_capacity=None)
        assert policy.buffer_capacity is None
        assert policy.inbox_capacity is None

    def test_with_batch_revalidates(self):
        with pytest.raises(ValueError, match="batch"):
            FlowPolicy().with_batch(0)

    def test_eager_constructor_validates(self):
        with pytest.raises(ValueError, match="lookahead"):
            FlowPolicy.eager(lookahead=-3)


class TestCreditWindow:
    def test_explicit_credit_window_wins(self):
        policy = FlowPolicy(credit_window=3, inbox_capacity=5, lookahead=9)
        assert policy.effective_credit_window() == 3

    def test_inbox_capacity_wins(self):
        policy = FlowPolicy(inbox_capacity=5, lookahead=9)
        assert policy.effective_credit_window() == 5

    def test_lookahead_is_the_fallback(self):
        assert FlowPolicy(lookahead=8).effective_credit_window() == 8

    def test_lazy_degenerates_to_synchronous_window(self):
        assert FlowPolicy.lazy().effective_credit_window() == 1

    @pytest.mark.parametrize("knobs, window", [
        (dict(batch=8), 8),                     # one invocation in flight
        (dict(lookahead=16, batch=8), 16),
        (dict(lookahead=4, batch=8), 8),
        (dict(inbox_capacity=4, batch=8), 4),   # a bounded inbox still bounds
        (dict(credit_window=1, batch=32), 1),   # the explicit window wins
    ])
    def test_lazy_window_is_one_invocation(self, knobs, window):
        assert FlowPolicy(**knobs).effective_credit_window() == window

    def test_eager_maps_to_its_lookahead(self):
        assert FlowPolicy.eager(lookahead=16).effective_credit_window() == 16

    @pytest.mark.parametrize("window", [0, -4])
    def test_bad_credit_window_rejected(self, window):
        with pytest.raises(ValueError, match="credit_window"):
            FlowPolicy(credit_window=window)

    def test_with_credit_window_revalidates(self):
        assert FlowPolicy().with_credit_window(7).effective_credit_window() == 7
        with pytest.raises(ValueError, match="credit_window"):
            FlowPolicy().with_credit_window(0)


class TestPipelineDepth:
    def test_default_is_strict_alternation(self):
        assert FlowPolicy().effective_pipeline_depth() == 1

    def test_explicit_depth_wins(self):
        policy = FlowPolicy(lookahead=4, pipeline_depth=8)
        assert policy.effective_pipeline_depth() == 8

    def test_lookahead_is_the_fallback(self):
        assert FlowPolicy.eager(lookahead=5).effective_pipeline_depth() == 5

    @pytest.mark.parametrize("depth", [0, -3])
    def test_bad_depth_rejected(self, depth):
        with pytest.raises(ValueError, match="pipeline_depth"):
            FlowPolicy(pipeline_depth=depth)

    def test_with_pipeline_depth_revalidates(self):
        assert FlowPolicy().with_pipeline_depth(4).pipeline_depth == 4
        with pytest.raises(ValueError, match="pipeline_depth"):
            FlowPolicy().with_pipeline_depth(0)

    def test_describe_includes_the_new_knobs(self):
        described = FlowPolicy(pipeline_depth=3, adaptive=True).describe()
        assert described["pipeline_depth"] == 3
        assert described["adaptive"] is True


class TestAutotuner:
    def make(self, **kwargs):
        from repro.transput.flow import FlowAutotuner
        policy = kwargs.pop("policy", FlowPolicy(batch=2, credit_window=4))
        return FlowAutotuner(policy, **kwargs)

    def test_starts_at_the_policy_floor(self):
        tuner = self.make()
        assert tuner.batch == 2
        assert tuner.credit_window == 4

    def test_grows_additively_while_latency_holds(self):
        tuner = self.make(epoch=4, increment=2)
        for _ in range(4):
            assert tuner.observe(0.001) in (False, True)
        assert tuner.batch == 4
        assert tuner.credit_window == 6

    def test_no_retune_mid_epoch(self):
        tuner = self.make(epoch=8)
        assert not any(tuner.observe(0.001) for _ in range(7))
        assert tuner.batch == 2

    def test_halves_when_rtt_inflates(self):
        tuner = self.make(epoch=2, increment=4)
        for _ in range(4):       # two fast epochs: batch 2 -> 6 -> 10
            tuner.observe(0.001)
        grown = tuner.batch
        for _ in range(2):       # one slow epoch: multiplicative decrease
            tuner.observe(1.0)
        assert tuner.batch == grown // 2

    def test_never_sinks_below_the_floor(self):
        tuner = self.make(epoch=1)
        tuner.observe(0.0001)    # establish a low best-RTT
        for _ in range(20):
            tuner.observe(5.0)
        assert tuner.batch >= 2
        assert tuner.credit_window >= 4

    def test_growth_capped_at_max_batch(self):
        tuner = self.make(epoch=1, max_batch=5, increment=10)
        tuner.observe(0.001)
        tuner.observe(0.001)
        assert tuner.batch == 5
        assert tuner.credit_window == 5

    def test_describe_is_json_safe(self):
        import json
        tuner = self.make(epoch=1)
        tuner.observe(0.002)
        snapshot = tuner.describe()
        json.dumps(snapshot)
        assert snapshot["batch"] == tuner.batch
        assert snapshot["credit_window"] == tuner.credit_window

    def test_bad_constructor_args_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            self.make(epoch=0)
        with pytest.raises(ValueError, match="max_batch"):
            self.make(max_batch=0)
        with pytest.raises(ValueError, match="tolerance"):
            self.make(tolerance=1.0)


class TestShardOf:
    def test_stable_across_calls(self):
        from repro.transput.flow import shard_of
        records = [f"record-{i}" for i in range(50)]
        first = [shard_of(record, 4) for record in records]
        assert [shard_of(record, 4) for record in records] == first

    def test_every_index_in_range(self):
        from repro.transput.flow import shard_of
        for record in range(200):
            assert 0 <= shard_of(record, 7) < 7

    def test_single_shard_is_identity(self):
        from repro.transput.flow import shard_of
        assert shard_of("anything", 1) == 0

    def test_spreads_over_shards(self):
        from repro.transput.flow import shard_of
        seen = {shard_of(f"record-{i}", 4) for i in range(100)}
        assert seen == {0, 1, 2, 3}

    def test_rejects_non_positive(self):
        from repro.transput.flow import shard_of
        with pytest.raises(ValueError, match="shards"):
            shard_of("x", 0)
