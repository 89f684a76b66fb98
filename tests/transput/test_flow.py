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
        described = FlowPolicy(pipeline_depth=3).describe()
        assert described["pipeline_depth"] == 3


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
