"""Tests for the paged KV cache manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.paged_kv import KVAllocationError, PagedKVManager


def manager(blocks=10, block_tokens=4, bytes_per_token=2.0):
    return PagedKVManager(
        total_bytes=blocks * block_tokens * bytes_per_token,
        bytes_per_token=bytes_per_token,
        block_tokens=block_tokens,
    )


class TestConstruction:
    def test_block_count(self):
        m = manager(blocks=10, block_tokens=4)
        assert m.num_blocks == 10
        assert m.token_capacity == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVManager(0, 1.0)
        with pytest.raises(ValueError):
            PagedKVManager(10, -1.0)
        with pytest.raises(ValueError):
            PagedKVManager(10, 1.0, block_tokens=0)


class TestAllocation:
    def test_allocate_rounds_to_blocks(self):
        m = manager()
        assert m.allocate(1, tokens=5)  # 2 blocks of 4
        assert m.used_blocks == 2
        assert m.sequence_tokens(1) == 5

    def test_double_allocate_rejected(self):
        m = manager()
        m.allocate(1, 4)
        with pytest.raises(KVAllocationError):
            m.allocate(1, 4)

    def test_allocation_failure_leaves_state(self):
        m = manager(blocks=2, block_tokens=4)
        assert not m.allocate(1, tokens=100)
        assert m.free_blocks == 2

    def test_can_allocate_agrees_with_allocate_for_zero_tokens(self):
        """An empty sequence still holds one block, so a full pool can
        admit it neither way."""
        m = manager(blocks=2, block_tokens=4)
        assert m.can_allocate(0) and m.allocate(1, 0)
        assert m.allocate(2, 4)
        assert m.free_blocks == 0
        assert not m.can_allocate(0)
        assert not m.allocate(3, 0)

    def test_append_grows_blocks(self):
        m = manager()
        m.allocate(1, 4)  # exactly one block
        assert m.used_blocks == 1
        assert m.append_token(1)
        assert m.used_blocks == 2

    def test_append_within_block_no_growth(self):
        m = manager()
        m.allocate(1, 3)
        assert m.append_token(1)
        assert m.used_blocks == 1

    def test_append_fails_when_exhausted(self):
        m = manager(blocks=1, block_tokens=4)
        m.allocate(1, 4)
        assert not m.append_token(1)
        assert m.sequence_tokens(1) == 4  # unchanged

    def test_append_unknown_sequence(self):
        with pytest.raises(KVAllocationError):
            manager().append_token(7)

    def test_free_returns_blocks(self):
        m = manager()
        m.allocate(1, 8)
        m.free(1)
        assert m.free_blocks == m.num_blocks
        with pytest.raises(KVAllocationError):
            m.free(1)

    def test_sequence_bytes(self):
        m = manager(bytes_per_token=3.0)
        m.allocate(1, 5)
        assert m.sequence_bytes(1) == 15.0

    def test_no_external_fragmentation(self):
        """Freeing any mix of sequences makes all their blocks reusable."""
        m = manager(blocks=8, block_tokens=4)
        for i in range(4):
            assert m.allocate(i, 8)  # 2 blocks each
        for i in (0, 2):
            m.free(i)
        # A 16-token (4-block) sequence fits in the freed blocks even
        # though they're discontiguous.
        assert m.allocate(99, 16)


class TestUtilization:
    def test_empty(self):
        assert manager().utilization() == 1.0

    def test_internal_fragmentation_only(self):
        m = manager(block_tokens=4)
        m.allocate(1, 1)  # 1 token in a 4-slot block
        assert m.utilization() == 0.25

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_utilization_bound_property(self, lengths):
        """Paged allocation wastes less than one block per sequence."""
        m = manager(blocks=100, block_tokens=4)
        for i, tokens in enumerate(lengths):
            assert m.allocate(i, tokens)
        allocated_slots = m.used_blocks * m.block_tokens
        used = sum(lengths)
        assert allocated_slots - used < len(lengths) * m.block_tokens
        assert 0.25 <= m.utilization() <= 1.0
