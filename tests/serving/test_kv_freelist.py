"""The paged-KV free stack against a list-based reference pool.

``ListKVPool`` is the straightforward model of the allocator: the free
list is a Python list popped and pushed at its end, and the free-list
gauges sort every free id.  :class:`PagedKVManager` keeps an int32 stack
whose never-popped prefix stays implicit, so its gauges only look at the
blocks ever taken.  The property test drives both with the same random
operations and demands identical state after every one — block tables,
free order, gauges (exact float equality) — and the scale tests check
that the pool's construction and gauges no longer grow with pool size.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.config import tiny_config
from repro.obs import live as live_obs
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.paged_kv import PagedKVManager
from repro.serving.request import Request
from repro.serving.systems import build_system


def sorted_freelist_fragmentation(free_ids) -> float:
    """``1 - longest_contiguous_run / free`` by sorting every free id."""
    n = len(free_ids)
    if n <= 1:
        return 0.0
    ids = np.sort(np.asarray(free_ids, dtype=np.int64))
    breaks = np.flatnonzero(np.diff(ids) != 1)
    bounds = np.concatenate(([-1], breaks, [n - 1]))
    longest = int(np.max(np.diff(bounds)))
    return 1.0 - longest / n


def fragmentation_of_used(num_blocks: int, used_ids) -> float:
    """The same gauge from the complement: the free runs are the gaps
    between consecutive used ids (O(used), for pools too big to list)."""
    used = np.unique(np.asarray(used_ids, dtype=np.int64))
    n = num_blocks - used.size
    if n <= 1:
        return 0.0
    edges = np.concatenate(([-1], used, [num_blocks]))
    longest = int(np.max(np.diff(edges) - 1))
    return 1.0 - longest / n


class ListKVPool:
    """Reference pool: a Python free list, per-sequence block lists and
    per-block refcounts, with no batching and no cached aggregates."""

    def __init__(self, num_blocks: int, block_tokens: int):
        self.block_tokens = block_tokens
        self.free = list(range(num_blocks))
        self.rc = np.zeros(num_blocks, dtype=np.int32)
        self.tables: dict[int, list[int]] = {}
        self.tokens: dict[int, int] = {}

    def _take(self) -> int:
        block = self.free.pop()
        self.rc[block] = 1
        return block

    def _release(self, block: int) -> None:
        self.rc[block] -= 1
        if self.rc[block] == 0:
            self.free.append(block)

    def allocate(self, sid: int, tokens: int) -> bool:
        need = -(-max(tokens, 1) // self.block_tokens)
        if need > len(self.free):
            return False
        self.tables[sid] = [self._take() for _ in range(need)]
        self.tokens[sid] = tokens
        return True

    def fork(self, parent: int, child: int, shared: int) -> bool:
        full, tail = divmod(shared, self.block_tokens)
        if tail and not self.free:
            return False
        blocks = self.tables[parent][:full]
        for block in blocks:
            self.rc[block] += 1
        if tail:
            blocks = blocks + [self._take()]
        self.tables[child] = blocks
        self.tokens[child] = shared
        return True

    def append_token(self, sid: int) -> bool:
        blocks = self.tables[sid]
        if self.tokens[sid] + 1 > len(blocks) * self.block_tokens:
            if not self.free:
                return False
            blocks.append(self._take())
        elif blocks and self.rc[blocks[-1]] > 1:
            if not self.free:
                return False
            old = blocks[-1]
            blocks[-1] = self._take()
            self._release(old)
        self.tokens[sid] += 1
        return True

    def append_token_many(self, sids: list[int]) -> bool:
        if np.any(self.rc > 1):
            return False
        crossing = sum(
            self.tokens[s] >= len(self.tables[s]) * self.block_tokens
            for s in sids
        )
        if crossing > len(self.free):
            return False
        for sid in sids:
            assert self.append_token(sid)
        return True

    def free_seq(self, sid: int) -> None:
        for block in self.tables.pop(sid):
            self._release(block)
        del self.tokens[sid]

    def freelist_fragmentation(self) -> float:
        return sorted_freelist_fragmentation(self.free)

    def refcount_distribution(self) -> dict[int, int]:
        counts, freq = np.unique(self.rc[self.rc > 0], return_counts=True)
        return {int(c): int(f) for c, f in zip(counts, freq)}


def make_manager(num_blocks: int, block_tokens: int) -> PagedKVManager:
    return PagedKVManager(
        total_bytes=num_blocks * block_tokens * 2.0,
        bytes_per_token=2.0,
        block_tokens=block_tokens,
    )


def free_order(m: PagedKVManager) -> list[int]:
    """The manager's free list, bottom to top (the implicit prefix made
    explicit) — comparable with ``ListKVPool.free``."""
    return list(range(m._low)) + m._stack[m._low:m._nfree].tolist()


def assert_same_state(m: PagedKVManager, ref: ListKVPool) -> None:
    assert m.live_sequences() == sorted(ref.tables)
    for sid, blocks in ref.tables.items():
        assert m.block_table(sid) == blocks
        assert m.sequence_tokens(sid) == ref.tokens[sid]
    assert free_order(m) == ref.free
    assert m.free_blocks == len(ref.free)
    frag = m.freelist_fragmentation()
    assert frag == ref.freelist_fragmentation()  # exact, not approx
    assert frag == fragmentation_of_used(m.num_blocks, [
        b for blocks in ref.tables.values() for b in blocks
    ])
    assert m.refcount_distribution() == ref.refcount_distribution()
    assert m._refcount == {
        int(b): int(ref.rc[b]) for b in np.flatnonzero(ref.rc)
    }


# One operation: (kind, sequence pick, size parameter).
OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["allocate", "fork", "fork_partial", "append", "append_many",
             "free"]
        ),
        st.integers(0, 10**6),
        st.integers(0, 40),
    ),
    min_size=1,
    max_size=60,
)


class TestEquivalence:
    @given(
        num_blocks=st.integers(1, 300),
        block_tokens=st.sampled_from([1, 2, 4, 16]),
        ops=OPS,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_list_reference(self, num_blocks, block_tokens, ops):
        m = make_manager(num_blocks, block_tokens)
        ref = ListKVPool(num_blocks, block_tokens)
        assert m.num_blocks == num_blocks
        next_id = 0
        assert_same_state(m, ref)
        for kind, pick, size in ops:
            live = sorted(ref.tables)
            sid = live[pick % len(live)] if live else None
            if kind == "allocate" or sid is None:
                got = m.allocate(next_id, size)
                assert got == ref.allocate(next_id, size)
                next_id += 1
            elif kind in ("fork", "fork_partial"):
                parent_tokens = ref.tokens[sid]
                if parent_tokens == 0:
                    continue
                shared = (
                    parent_tokens if kind == "fork"
                    else 1 + size % parent_tokens
                )
                got = m.fork(sid, next_id, shared_tokens=shared)
                assert got == ref.fork(sid, next_id, shared)
                next_id += 1
            elif kind == "append":
                for _ in range(1 + size % 5):
                    assert m.append_token(sid) == ref.append_token(sid)
            elif kind == "append_many":
                sids = live[pick % len(live):][: 1 + size % 8]
                rows = np.array([m.sequence_row(s) for s in sids])
                assert m.append_token_many(rows) == ref.append_token_many(
                    sids
                )
            else:
                m.free(sid)
                ref.free_seq(sid)
            assert_same_state(m, ref)

    def test_gauge_cache_sees_every_mutation(self):
        m = make_manager(8, 1)
        for sid in range(8):
            assert m.allocate(sid, 1)
        assert m.freelist_fragmentation() == 0.0
        m.free(1)
        m.free(5)
        assert m.freelist_fragmentation() == 0.5
        m.free(6)
        assert m.freelist_fragmentation() == pytest.approx(1 / 3)
        assert m.allocate(9, 1)  # pops 6: free = {1, 5}
        assert m.freelist_fragmentation() == 0.5


# The tiny scale-bench model's pool on the default engine: 31.3M blocks.
SCALE_MODEL = tiny_config(name="scale-bench")


def scale_pool() -> PagedKVManager:
    return ServingEngine(SCALE_MODEL, build_system("comet")).kv


def traced_bytes(build) -> tuple[object, int]:
    tracemalloc.start()
    try:
        obj = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return obj, peak


class TestPoolSizeIndependence:
    # int32 free stack + int32 refcounts, untouched until used, plus slack.
    BYTES_PER_BLOCK_BOUND = 8.5

    def test_construction_memory_bound(self):
        pool, peak = traced_bytes(scale_pool)
        assert pool.num_blocks > 30_000_000
        bound = self.BYTES_PER_BLOCK_BOUND * pool.num_blocks
        assert peak <= bound
        # The list-based pool, measured on 1/32 of the blocks (its cost is
        # linear in the pool), needs at least 3x the bound at full size.
        sample = pool.num_blocks // 32
        _, list_peak = traced_bytes(lambda: ListKVPool(sample, 16))
        assert list_peak * (pool.num_blocks / sample) >= 3 * bound

    def test_gauges_cost_blocks_used_not_pool(self):
        pool = scale_pool()
        rng = np.random.default_rng(0)
        live: list[int] = []
        for sid in range(300):
            assert pool.allocate(sid, int(rng.integers(1, 300)))
            live.append(sid)
            for _ in range(int(rng.integers(0, 20))):
                assert pool.append_token(sid)
            if rng.random() < 0.4:
                pool.free(live.pop(int(rng.integers(len(live)))))
        # Each gauge call follows a mutation, so none is a cache hit.
        # The sort over the whole free list took ~2.2 s per call here.
        t0 = time.perf_counter()
        for sid in range(1000, 2000):
            assert pool.allocate(sid, 1)
            pool.free(sid)
            frag = pool.freelist_fragmentation()
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"1000 gauge calls took {elapsed:.1f} s"
        used = [b for s in live for b in pool.block_table(s)]
        assert frag == fragmentation_of_used(pool.num_blocks, used)
        assert sum(pool.refcount_distribution().values()) == len(used)


def burst(n: int, seed: int = 0) -> list[Request]:
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 0.05, size=n))
    prompts = (256, 512, 1024, 2048)
    outputs = (16, 24, 32, 48)
    return [
        Request(
            request_id=i,
            prompt_len=prompts[i % 4],
            max_new_tokens=outputs[i % 4],
            arrival_time=float(arrivals[i]),
        )
        for i in range(n)
    ]


class TestAttachedScaleParity:
    """Live observability and the cost ledger attached at the scale tier
    (31.3M-block pool): the report is bit-equal to the detached run, and
    every heartbeat's free-list gauge matches the complement oracle."""

    def _engine(self) -> ServingEngine:
        return ServingEngine(
            SCALE_MODEL, build_system("comet"),
            config=EngineConfig(max_batch=128),
        )

    def test_attached_equals_detached(self):
        detached = self._engine().run(burst(200))

        engine = self._engine()
        kv = engine.kv
        gauge = kv.freelist_fragmentation
        checked, mismatches = [], []

        def checked_gauge() -> float:
            value = gauge()
            used = [b for s in kv.live_sequences() for b in kv.block_table(s)]
            checked.append(value)
            if value != fragmentation_of_used(kv.num_blocks, used):
                mismatches.append(value)
            return value

        kv.freelist_fragmentation = checked_gauge
        live = live_obs.attach(window_seconds=1.0, attrib_capacity=256)
        try:
            attached = engine.run(burst(200))
        finally:
            live_obs.detach()
        assert attached == detached
        assert len(checked) >= live.steps > 0
        assert max(checked) > 0.0
        assert not mismatches
        pool = live.attrib.snapshot()["pool"]
        assert pool["free_blocks"] == kv.num_blocks
        assert pool["freelist_fragmentation"] == fragmentation_of_used(
            kv.num_blocks, []
        )
