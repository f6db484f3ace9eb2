"""RRSetPool: flat-CSR storage, bulk index maintenance, and views."""

import numpy as np
import pytest

from repro.rrset.pool import CSRSetView, RRSetPool


def _sets(*members):
    return [np.asarray(m, dtype=np.int64) for m in members]


class TestAddFlat:
    def test_bulk_append(self):
        pool = RRSetPool(6)
        pool.add_flat(np.asarray([0, 1, 2, 3, 1]), np.asarray([2, 3]))
        assert pool.num_total == 2
        assert pool.get_set(0).tolist() == [0, 1]
        assert pool.get_set(1).tolist() == [2, 3, 1]
        assert pool.coverage().tolist() == [1, 2, 1, 1, 0, 0]

    def test_empty_sets_are_registered(self):
        pool = RRSetPool(4)
        pool.add_flat(np.asarray([2]), np.asarray([0, 1, 0]))
        assert pool.num_total == 3
        assert pool.get_set(0).size == 0
        assert pool.get_set(1).tolist() == [2]
        assert pool.get_set(2).size == 0
        assert pool.coverage_of_set([2]) == 1

    def test_length_mismatch_rejected(self):
        pool = RRSetPool(4)
        with pytest.raises(ValueError):
            pool.add_flat(np.asarray([0, 1]), np.asarray([3]))

    def test_negative_length_rejected(self):
        pool = RRSetPool(4)
        with pytest.raises(ValueError):
            pool.add_flat(np.asarray([0]), np.asarray([2, -1]))

    def test_out_of_range_members_rejected(self):
        pool = RRSetPool(4)
        with pytest.raises(ValueError):
            pool.add_flat(np.asarray([4]), np.asarray([1]))
        with pytest.raises(ValueError):
            pool.add_flat(np.asarray([-1]), np.asarray([1]))

    def test_growth_across_many_batches(self):
        """Appends far past the initial capacities keep all data intact."""
        pool = RRSetPool(50)
        rng = np.random.default_rng(0)
        reference = []
        for _ in range(40):
            batch = [rng.choice(50, size=rng.integers(1, 6), replace=False)
                     for _ in range(rng.integers(1, 60))]
            pool.add_sets(batch)
            reference.extend(batch)
        assert pool.num_total == len(reference)
        for i, members in enumerate(reference):
            assert pool.get_set(i).tolist() == list(members)
        expected = np.zeros(50, dtype=np.int64)
        for members in reference:
            expected[members] += 1
        assert np.array_equal(pool.coverage(), expected)


class TestAddFlatFromBuffer:
    """Single-copy ingest of a packed ``[int64 lengths][int32 members]``
    block — the parent-side splice path of shard-cache hits."""

    @staticmethod
    def _packed(members, lengths, pad_before=0):
        lengths = np.asarray(lengths, dtype=np.int64)
        members = np.asarray(members, dtype=np.int32)
        return b"\x00" * pad_before + lengths.tobytes() + members.tobytes()

    def test_matches_add_flat(self):
        a, b = RRSetPool(6), RRSetPool(6)
        members, lengths = [0, 1, 2, 3, 1], [2, 3]
        a.add_flat(np.asarray(members), np.asarray(lengths))
        b.add_flat_from_buffer(
            self._packed(members, lengths), num_sets=2, num_members=5
        )
        assert b.num_total == a.num_total
        va, vb = a.prefix_view(), b.prefix_view()
        assert va.members.tobytes() == vb.members.tobytes()
        assert va.indptr.tobytes() == vb.indptr.tobytes()
        assert a.coverage().tolist() == b.coverage().tolist()

    def test_offsets_select_a_sub_block(self):
        """The engine splices ``[lo, hi)`` of a chunk by pointing the
        offsets into the middle of a worker's block."""
        pool = RRSetPool(6)
        members, lengths = [0, 1, 2, 3, 1, 4], [2, 3, 1]
        buf = self._packed(members, lengths)
        # take sets [1, 3): lengths start at entry 1, members at element 2
        pool.add_flat_from_buffer(
            buf, num_sets=2, num_members=4,
            lengths_offset=1 * 8, members_offset=3 * 8 + 2 * 4,
        )
        assert pool.num_total == 2
        assert pool.get_set(0).tolist() == [2, 3, 1]
        assert pool.get_set(1).tolist() == [4]

    def test_leading_padding_via_lengths_offset(self):
        pool = RRSetPool(6)
        buf = self._packed([5, 0], [1, 1], pad_before=16)
        pool.add_flat_from_buffer(
            buf, num_sets=2, num_members=2, lengths_offset=16
        )
        assert pool.get_set(0).tolist() == [5]
        assert pool.get_set(1).tolist() == [0]

    def test_empty_block(self):
        pool = RRSetPool(4)
        pool.add_flat_from_buffer(b"", num_sets=0, num_members=0)
        assert pool.num_total == 0

    def test_validation_mirrors_add_flat(self):
        pool = RRSetPool(4)
        with pytest.raises(ValueError):  # lengths do not sum to members
            pool.add_flat_from_buffer(
                self._packed([0, 1], [3]), num_sets=1, num_members=2
            )
        with pytest.raises(ValueError):  # out-of-range member
            pool.add_flat_from_buffer(
                self._packed([7], [1]), num_sets=1, num_members=1
            )
        with pytest.raises(ValueError):  # negative length
            pool.add_flat_from_buffer(
                self._packed([0], [2, -1]), num_sets=2, num_members=1
            )
        with pytest.raises(ValueError):  # negative counts
            pool.add_flat_from_buffer(b"", num_sets=-1, num_members=0)
        with pytest.raises(ValueError):  # buffer too small for the counts
            pool.add_flat_from_buffer(
                self._packed([0], [1]), num_sets=1, num_members=9
            )
        assert pool.num_total == 0  # refused appends leave the pool untouched

    def test_pool_keeps_no_reference_to_the_buffer(self):
        """The caller may unlink/release the source immediately — the
        pool's arrays must own their bytes."""
        pool = RRSetPool(6)
        buf = bytearray(self._packed([0, 1, 2], [1, 2]))
        pool.add_flat_from_buffer(bytes(buf), num_sets=2, num_members=3)
        before = pool.prefix_view().members.tobytes()
        buf[:] = b"\xff" * len(buf)  # clobber the source
        assert pool.prefix_view().members.tobytes() == before
        assert pool.get_set(1).tolist() == [1, 2]

    def test_add_flat_still_accepts_int64_convenience_input(self):
        """``add_flat`` keeps the legacy wide-dtype convenience path (one
        explicit astype) while int32 input goes straight through."""
        pool = RRSetPool(6)
        pool.add_flat(
            np.asarray([0, 1], dtype=np.int64), np.asarray([2], dtype=np.int64)
        )
        pool.add_flat(
            np.asarray([2], dtype=np.int32), np.asarray([1], dtype=np.int32)
        )
        assert pool.num_total == 2
        assert pool.get_set(0).tolist() == [0, 1]
        assert pool.get_set(1).tolist() == [2]


class TestIndexMaintenance:
    def test_pending_mini_index_serves_queries(self):
        """A small batch after a large one must not trigger a full
        rebuild, yet queries must still see the new sets."""
        pool = RRSetPool(30)
        rng = np.random.default_rng(1)
        big = [rng.choice(30, size=8, replace=False) for _ in range(700)]
        pool.add_sets(big)
        assert pool._indexed_sets == 700  # full index covers the batch
        pool.add_sets(_sets([3, 4], [4, 5]))
        assert pool._indexed_sets == 700  # mini-index path engaged
        assert pool.num_total == 702
        assert set(pool.sets_containing(4)) >= {700, 701}
        assert pool.coverage_of(4) == int(
            sum(4 in set(map(int, s)) for s in big)
        ) + 2
        # removal through the mixed main+mini index stays consistent
        before = pool.num_alive
        removed = pool.remove_covered(4)
        assert pool.num_alive == before - removed
        assert pool.coverage_of(4) == 0

    def test_full_rebuild_when_pending_grows(self):
        pool = RRSetPool(10)
        pool.add_sets(_sets([0], [1]))
        pool.add_sets(_sets(*[[i % 10] for i in range(100)]))
        assert pool._indexed_sets == pool.num_total  # pending forced rebuild


class TestViews:
    def test_prefix_view_is_zero_copy(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0, 1], [2], [3, 4]))
        view = pool.prefix_view(2)
        assert isinstance(view, CSRSetView)
        assert view.num_sets == 2
        assert view.members.base is not None  # a view, not a copy
        assert view.get_set(0).tolist() == [0, 1]
        assert view.get_set(1).tolist() == [2]

    def test_prefix_view_defaults_to_all(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0], [1], [2]))
        assert pool.prefix_view().num_sets == 3

    def test_prefix_view_clamps(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0]))
        assert pool.prefix_view(10).num_sets == 1
        assert pool.prefix_view(-3).num_sets == 0

    def test_first_k_sets(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0, 1], [2], [3]))
        first = pool.first_k_sets(2)
        assert [s.tolist() for s in first] == [[0, 1], [2]]

    def test_set_ids_containing_array(self):
        pool = RRSetPool(5)
        ids = pool.add_sets(_sets([0, 1], [1, 2], [2]))
        hits = pool.set_ids_containing(1)
        assert isinstance(hits, np.ndarray)
        assert sorted(hits.tolist()) == [ids[0], ids[1]]
        pool.remove_covered(0)
        assert pool.set_ids_containing(1).tolist() == [ids[1]]
        assert sorted(pool.set_ids_containing(1, alive_only=False).tolist()) == [
            ids[0], ids[1],
        ]

    def test_alive_mask(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0], [1], [0, 1]))
        pool.remove_covered(0)
        assert pool.alive_mask().tolist() == [False, True, False]
        with pytest.raises(ValueError):
            pool.alive_mask()[0] = True


class TestViewGenerations:
    def test_generation_bumps_on_reallocation(self):
        pool = RRSetPool(50)
        pool.add_sets(_sets([0, 1]))
        start = pool.generation
        # small append: fits in the initial capacity, no retirement
        pool.add_sets(_sets([2]))
        assert pool.generation == start
        # blow past the member-buffer capacity: generation must move
        big = [np.arange(50, dtype=np.int64) for _ in range(60)]
        pool.add_sets(big)
        assert pool.generation > start

    def test_prefix_view_survives_growth_reallocation(self):
        """Regression: a view held across a growth-triggered reallocation
        used to keep pointing at the retired buffer.  It must now
        re-materialize against the live one with identical contents."""
        pool = RRSetPool(50)
        pool.add_sets(_sets([0, 1], [2, 3, 4]))
        view = pool.prefix_view(2)
        before = [view.get_set(i).tolist() for i in range(2)]
        old_members = pool._members
        big = [np.arange(50, dtype=np.int64) for _ in range(200)]
        pool.add_sets(big)
        assert pool._members is not old_members  # reallocation happened
        # contents unchanged, but served from the live buffer
        assert [view.get_set(i).tolist() for i in range(2)] == before
        assert np.shares_memory(view.members, pool._members)
        assert view.indptr.tolist() == pool._indptr[:3].tolist()

    def test_view_grows_pool_mid_theta_pilot(self):
        """The `_theta_for` pattern: greedy-cover an OPT pilot window
        while top-up sampling grows the pool underneath it."""
        from repro.rrset.tim import greedy_max_coverage

        pool = RRSetPool(30)
        rng = np.random.default_rng(8)
        pool.add_sets(
            [rng.choice(30, size=4, replace=False) for _ in range(50)]
        )
        pilot = pool.prefix_view(50)
        expected = greedy_max_coverage(pilot, 30, 3)
        # grow well past capacity, as a θ top-up would
        pool.add_sets([rng.choice(30, size=6, replace=False) for _ in range(800)])
        # the held view still answers over exactly the first 50 sets
        assert greedy_max_coverage(pilot, 30, 3) == expected
        assert pilot.num_sets == 50

    def test_detached_view_is_frozen(self):
        pool = RRSetPool(10)
        pool.add_sets(_sets([0, 1], [2]))
        detached = pool.prefix_view().detach()
        pool.add_sets([np.arange(10, dtype=np.int64) for _ in range(300)])
        assert detached.num_sets == 2
        assert detached.get_set(0).tolist() == [0, 1]
        assert not np.shares_memory(detached.members, pool._members)


class TestBounds:
    def test_get_set_range_checked(self):
        pool = RRSetPool(3)
        pool.add_sets(_sets([0]))
        with pytest.raises(IndexError):
            pool.get_set(1)
        with pytest.raises(IndexError):
            pool.is_alive(-1)

    def test_node_range_checked(self):
        pool = RRSetPool(3)
        pool.add_sets(_sets([0]))
        with pytest.raises(IndexError):
            pool.remove_covered(3)
        with pytest.raises(IndexError):
            pool.coverage_of_set([5])


class TestMemoryAccounting:
    def test_reports_real_buffer_bytes(self):
        pool = RRSetPool(100)
        rng = np.random.default_rng(2)
        pool.add_sets(
            [rng.choice(100, size=5, replace=False) for _ in range(1_000)]
        )
        reported = pool.memory_bytes()
        # int32 members + int32 index dominate: 5 members/set × 8 bytes.
        assert reported >= 1_000 * 5 * (4 + 4)
        assert reported <= pool.allocated_bytes()

    def test_members_are_int32(self):
        pool = RRSetPool(10)
        pool.add_sets(_sets([1, 2]))
        assert pool.get_set(0).dtype == np.int32


class TestCapacityLimits:
    """int32 overflow guards: the pool must refuse — loudly, before any
    buffer mutation — appends that would wrap set ids or member offsets
    past 2^31 and silently corrupt the CSR index."""

    def _near_set_limit(self):
        from repro.rrset.pool import MAX_SETS

        pool = RRSetPool(4)
        pool.add_sets(_sets([0], [1]))
        snapshot = (pool.num_total, pool.coverage().copy())
        # White-box: fake a pool one set short of the id limit — actually
        # appending 2^31 sets is not testable hardware-wise.
        pool._num_sets = MAX_SETS - 1
        return pool, snapshot

    def test_add_flat_refuses_set_id_overflow(self):
        from repro.errors import CapacityError

        pool, _ = self._near_set_limit()
        with pytest.raises(CapacityError, match="set-id limit"):
            pool.add_flat(
                np.asarray([0, 1, 2], dtype=np.int32),
                np.asarray([1, 1, 1], dtype=np.int64),
            )

    def test_add_flat_refuses_member_offset_overflow(self):
        from repro.errors import CapacityError
        from repro.rrset.pool import MAX_MEMBERS

        pool = RRSetPool(4)
        pool.add_sets(_sets([0, 1]))
        pool._members_used = MAX_MEMBERS - 1
        with pytest.raises(CapacityError, match="member-offset limit"):
            pool.add_flat(
                np.asarray([0, 1], dtype=np.int32),
                np.asarray([2], dtype=np.int64),
            )

    def test_reserve_helpers_refuse_overflow_directly(self):
        from repro.errors import CapacityError
        from repro.rrset.pool import MAX_MEMBERS, MAX_SETS

        pool = RRSetPool(4)
        with pytest.raises(CapacityError):
            pool._reserve_members(MAX_MEMBERS + 1)
        with pytest.raises(CapacityError):
            pool._reserve_sets(MAX_SETS + 1)

    def test_refused_append_leaves_pool_untouched(self):
        """The guard must fire before any mutation: a refused append is
        not a partially applied one."""
        from repro.errors import CapacityError
        from repro.rrset.pool import MAX_SETS

        pool = RRSetPool(4)
        pool.add_sets(_sets([0], [1, 2]))
        coverage = pool.coverage().copy()
        members_used = pool._members_used
        pool._num_sets = MAX_SETS  # at the limit: any append overflows
        with pytest.raises(CapacityError):
            pool.add_flat(
                np.asarray([3], dtype=np.int32), np.asarray([1], dtype=np.int64)
            )
        pool._num_sets = 2  # restore the honest count
        assert pool._members_used == members_used
        assert np.array_equal(pool.coverage(), coverage)
        assert pool.num_total == 2


class TestKillSets:
    def test_kills_by_id_and_decrements_coverage(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0, 1], [1, 2], [3]))
        killed = pool.kill_sets([0, 2])
        assert killed == 2
        assert pool.num_alive == 1
        assert not pool.is_alive(0) and pool.is_alive(1) and not pool.is_alive(2)
        assert pool.coverage_of(1) == 1  # only set 1 still covers node 1
        assert pool.coverage_of(0) == 0 and pool.coverage_of(3) == 0

    def test_already_dead_ids_are_ignored(self):
        pool = RRSetPool(5)
        pool.add_sets(_sets([0], [1]))
        assert pool.kill_sets([0]) == 1
        assert pool.kill_sets([0, 1]) == 1  # 0 already dead
        assert pool.kill_sets([]) == 0
        assert pool.num_alive == 0

    def test_restores_remove_covered_semantics(self):
        """Killing the snapshot's dead ids reproduces the exact state a
        sequence of ``remove_covered`` calls left behind."""
        rng = np.random.default_rng(5)
        source = RRSetPool(30)
        source.add_sets(
            [rng.choice(30, size=4, replace=False) for _ in range(200)]
        )
        twin = RRSetPool(30)
        twin.add_sets([source.get_set(i).copy() for i in range(200)])
        for node in (3, 17, 9):
            source.remove_covered(node)
        dead = np.flatnonzero(~np.asarray(source.alive_mask()))
        twin.kill_sets(dead)
        assert np.array_equal(twin.alive_mask(), source.alive_mask())
        assert np.array_equal(twin.coverage(), source.coverage())
        assert twin.num_alive == source.num_alive

    def test_rejects_out_of_range_ids(self):
        pool = RRSetPool(3)
        pool.add_sets(_sets([0]))
        with pytest.raises(IndexError):
            pool.kill_sets([5])
        with pytest.raises(IndexError):
            pool.kill_sets([-1])
