"""Map semantics: array/hash/LRU/per-CPU, update flags, host interface."""

import pytest

from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import (
    BPF_ANY,
    BPF_EXIST,
    BPF_NOEXIST,
    ArrayMap,
    HashMap,
    LruHashMap,
    MapError,
    MapSet,
    PercpuArrayMap,
    bank_of,
    create_map,
)


def key4(i: int) -> bytes:
    return i.to_bytes(4, "little")


def val8(v: int) -> bytes:
    return v.to_bytes(8, "little")


class TestArrayMap:
    def _map(self, entries=4):
        return ArrayMap(MapSpec("a", "array", 4, 8, entries))

    def test_all_slots_exist_zeroed(self):
        m = self._map()
        assert m.lookup(key4(0)) == bytes(8)
        assert m.entry_count() == 4

    def test_update_and_lookup(self):
        m = self._map()
        m.update(key4(2), val8(99))
        assert m.lookup(key4(2)) == val8(99)

    def test_out_of_range_lookup_misses(self):
        m = self._map()
        assert m.lookup(key4(4)) is None

    def test_out_of_range_update_fails(self):
        with pytest.raises(MapError):
            self._map().update(key4(9), val8(1))

    def test_delete_rejected(self):
        with pytest.raises(MapError):
            self._map().delete(key4(0))

    def test_noexist_flag_rejected(self):
        with pytest.raises(MapError):
            self._map().update(key4(0), val8(1), flags=BPF_NOEXIST)

    def test_key_size_enforced(self):
        with pytest.raises(MapError):
            self._map().lookup(b"\x00" * 3)

    def test_value_size_enforced(self):
        with pytest.raises(MapError):
            self._map().update(key4(0), b"\x01" * 7)

    def test_key_must_be_4_bytes(self):
        with pytest.raises(MapError):
            ArrayMap(MapSpec("a", "array", 8, 8, 4))

    def test_items(self):
        m = self._map()
        m.update(key4(1), val8(5))
        items = dict(m.items())
        assert items[key4(1)] == val8(5)
        assert len(items) == 4

    def test_stable_value_addresses(self):
        m = self._map()
        assert m.value_addr(2) == 16
        assert m.slot_of_addr(19) == 2


class TestHashMap:
    def _map(self, entries=3):
        return HashMap(MapSpec("h", "hash", 8, 8, entries))

    def test_miss_then_hit(self):
        m = self._map()
        k = b"flowkey1"
        assert m.lookup(k) is None
        m.update(k, val8(7))
        assert m.lookup(k) == val8(7)

    def test_overwrite(self):
        m = self._map()
        m.update(b"flowkey1", val8(1))
        m.update(b"flowkey1", val8(2))
        assert m.lookup(b"flowkey1") == val8(2)
        assert m.entry_count() == 1

    def test_full_map_rejects_insert(self):
        m = self._map(entries=2)
        m.update(b"k1111111", val8(1))
        m.update(b"k2222222", val8(2))
        with pytest.raises(MapError):
            m.update(b"k3333333", val8(3))

    def test_delete_frees_slot(self):
        m = self._map(entries=1)
        m.update(b"k1111111", val8(1))
        assert m.delete(b"k1111111")
        assert m.lookup(b"k1111111") is None
        m.update(b"k2222222", val8(2))  # slot reusable

    def test_delete_missing_returns_false(self):
        assert not self._map().delete(b"missingk")

    def test_noexist_flag(self):
        m = self._map()
        m.update(b"k1111111", val8(1), flags=BPF_NOEXIST)
        with pytest.raises(MapError):
            m.update(b"k1111111", val8(2), flags=BPF_NOEXIST)

    def test_exist_flag(self):
        m = self._map()
        with pytest.raises(MapError):
            m.update(b"k1111111", val8(1), flags=BPF_EXIST)

    def test_slot_stable_across_updates(self):
        m = self._map()
        slot = m.update(b"k1111111", val8(1))
        assert m.update(b"k1111111", val8(2)) == slot
        assert m.lookup_slot(b"k1111111") == slot

    def test_deleted_slot_zeroed(self):
        m = self._map()
        slot = m.update(b"k1111111", val8(0xFF))
        m.delete(b"k1111111")
        assert m.storage[slot * 8 : slot * 8 + 8] == bytes(8)

    def test_clear(self):
        m = self._map()
        m.update(b"k1111111", val8(1))
        m.clear()
        assert m.entry_count() == 0
        assert m.lookup(b"k1111111") is None

    def test_slot_allocation_order(self):
        # Value addresses are slot * value_size and reach the engines:
        # lowest never-used slot first, but a released slot before any
        # never-used one, last released first — also after clear().
        m = self._map(entries=5)
        keys = [b"k%07d" % i for i in range(8)]
        assert [m.update(k, val8(0)) for k in keys[:4]] == [0, 1, 2, 3]
        m.delete(keys[1])
        m.delete(keys[3])
        assert [m.update(k, val8(0)) for k in keys[4:7]] == [3, 1, 4]
        with pytest.raises(MapError, match="full"):
            m.update(keys[7], val8(0))
        m.clear()
        assert [m.update(k, val8(0)) for k in keys[:2]] == [0, 1]

    def test_storage_grows_with_the_slots_handed_out(self):
        # in place, so a view bound before an insert (the stream path's
        # _st<fd>) sees its value; value addresses do not move
        m = self._map(entries=1 << 20)
        storage = m.storage
        assert len(storage) == 0
        first = m.update(b"k1111111", val8(1))
        address = m.value_addr(first)
        for i in range(100):
            m.update(b"m%07d" % i, val8(i))
        assert m.storage is storage and len(storage) == 101 * 8
        assert m.value_addr(m.lookup_slot(b"k1111111")) == address
        assert storage[address:address + 8] == val8(1)
        assert len(m.snapshot()) == 101 * 8

    def test_a_released_slot_is_reused_without_growth(self):
        m = self._map(entries=4)
        slots = [m.update(b"k%07d" % i, val8(i)) for i in range(3)]
        m.delete(b"k0000001")
        assert m.update(b"k9999999", val8(9)) == slots[1]
        assert len(m.storage) == 3 * 8
        m.clear()
        assert len(m.storage) == 0 and m.entry_count() == 0

    def test_an_address_past_the_slots_handed_out_faults(self):
        m = self._map()
        m.update(b"k1111111", val8(1))
        assert m.slot_of_addr(7) == 0
        with pytest.raises(MapError, match="outside"):
            m.slot_of_addr(8)

    def test_mismatch_sees_storage_the_slots_do_not_take(self):
        spec = {1: MapSpec("h", "hash", 8, 8, 4)}
        maps = MapSet(spec)
        maps[1].update(b"k1111111", val8(1))
        assert maps.mismatch(spec) is None
        maps[1].storage += bytes(8)
        assert maps.mismatch(spec) == 1


class TestLruHashMap:
    def _map(self, entries=2):
        return LruHashMap(MapSpec("l", "lru_hash", 4, 8, entries))

    def test_evicts_least_recently_used(self):
        m = self._map()
        m.update(key4(1), val8(1))
        m.update(key4(2), val8(2))
        m.lookup(key4(1))  # touch 1 -> 2 becomes LRU
        m.update(key4(3), val8(3))
        assert m.lookup(key4(2)) is None
        assert m.lookup(key4(1)) == val8(1)
        assert m.lookup(key4(3)) == val8(3)

    def test_update_refreshes_recency(self):
        m = self._map()
        m.update(key4(1), val8(1))
        m.update(key4(2), val8(2))
        m.update(key4(1), val8(11))  # refresh 1
        m.update(key4(3), val8(3))
        assert m.lookup(key4(2)) is None
        assert m.lookup(key4(1)) == val8(11)

    def test_recency_order_and_evicted_slot_reuse(self):
        m = self._map(entries=3)
        slots = [m.update(key4(i), val8(i)) for i in (1, 2, 3)]
        assert slots == [0, 1, 2]
        m.lookup_slot(key4(1))
        m.update(key4(2), val8(22))
        assert m.lru_keys() == [key4(3), key4(1), key4(2)]
        assert [k for k, _v in m.items()] == m.lru_keys()
        # the newcomer takes the victim's slot, at the recent end
        assert m.update(key4(4), val8(4)) == 2
        assert m.lru_keys() == [key4(1), key4(2), key4(4)]
        assert m.evictions == 1
        m.delete(key4(2))
        assert m.lru_keys() == [key4(1), key4(4)]


class TestBankedLruHashMap:
    """B banks: B independent LRU maps over one storage, the bank picked
    by ``bank_of`` of the key."""

    @staticmethod
    def _map(entries=8, banks=4):
        return LruHashMap(MapSpec("l", "lru_hash", 4, 8, entries,
                                  banks=banks))

    @staticmethod
    def _keys_in(bank, banks=4, count=3):
        keys = (key4(i) for i in range(1 << 16))
        return [k for k in keys if bank_of(k, banks) == bank][:count]

    def test_bank_of_is_crc32_low_bits(self):
        import zlib

        for i in range(64):
            assert bank_of(key4(i), 16) == zlib.crc32(key4(i)) % 16
            assert bank_of(bytearray(key4(i)), 16) == bank_of(key4(i), 16)
        assert {bank_of(key4(i), 4) for i in range(64)} == {0, 1, 2, 3}

    def test_each_bank_evicts_its_own_oldest(self):
        m = self._map()
        a0, a1, a2 = self._keys_in(0)
        b0, = self._keys_in(1, count=1)
        m.update(a0, val8(1))
        m.update(b0, val8(2))
        m.update(a1, val8(3))
        # bank 0 is full (2 entries): a2 evicts a0, not the older b0
        m.update(a2, val8(4))
        assert m.lookup(a0) is None
        assert m.lookup(b0) == val8(2) and m.evictions == 1
        assert m.entry_count() == 3

    def test_slots_stay_in_their_bank(self):
        m = self._map()
        for bank in range(4):
            for key in self._keys_in(bank):
                slot = m.update(key, val8(bank))
                assert 2 * bank <= slot < 2 * bank + 2
        assert m.entry_count() == 8 and m.evictions == 4

    def test_items_and_lru_keys_go_bank_by_bank(self):
        m = self._map()
        keys = [key4(i) for i in range(12)]
        for key in keys:
            m.update(key, val8(1))
        m.lookup(m.lru_keys()[0])  # refresh bank 0's oldest
        order = m.lru_keys()
        assert [k for k, _v in m.items()] == order
        assert [bank_of(k, 4) for k in order] == sorted(
            bank_of(k, 4) for k in order)
        # within a bank, oldest first: replaying rebuilds every bank
        again = self._map()
        for key, value in m.items():
            again.update(key, value)
        assert again.lru_keys() == order
        again.clear()
        assert again.entry_count() == 0 and again.lru_keys() == []
        assert [again.update(k, val8(0)) for k in self._keys_in(3, count=2)] \
            == [6, 7]

    def test_delete_frees_a_slot_of_its_bank(self):
        m = self._map()
        k0, k1, k2 = self._keys_in(2)
        assert [m.update(k, val8(0)) for k in (k0, k1)] == [4, 5]
        assert m.delete(k0) and not m.delete(k0)
        assert m.update(k2, val8(0)) == 4 and m.evictions == 0

    def test_one_bank_is_the_map_wide_order(self):
        m, banked = self._map(banks=1), self._map()
        for i in range(12):
            m.update(key4(i), val8(i))
            banked.update(key4(i), val8(i))
        assert m.lru_keys() == [key4(i) for i in range(4, 12)]
        assert banked.lru_keys() != m.lru_keys()

    def test_mismatch_sees_the_bank_count(self):
        banked = {1: MapSpec("l", "lru_hash", 4, 8, 8, banks=4)}
        unbanked = {1: MapSpec("l", "lru_hash", 4, 8, 8)}
        assert MapSet(banked).mismatch(banked) is None
        assert MapSet(unbanked).mismatch(banked) == 1
        assert MapSet(banked).mismatch(unbanked) == 1


class TestPercpuArray:
    def test_behaves_like_array(self):
        m = PercpuArrayMap(MapSpec("p", "percpu_array", 4, 8, 2))
        m.update(key4(1), val8(5))
        assert m.lookup(key4(1)) == val8(5)


class TestFactoryAndMapSet:
    def test_create_map_dispatch(self):
        assert isinstance(create_map(MapSpec("a", "array", 4, 8, 1)), ArrayMap)
        assert isinstance(create_map(MapSpec("h", "hash", 4, 8, 1)), HashMap)
        assert isinstance(create_map(MapSpec("l", "lru_hash", 4, 8, 1)), LruHashMap)

    def test_mapset_by_name_and_fd(self):
        ms = MapSet({1: MapSpec("a", "array", 4, 8, 1), 2: MapSpec("h", "hash", 4, 8, 1)})
        assert ms.by_name("h").name == "h"
        assert ms.fd_of("a") == 1
        assert 2 in ms and 3 not in ms
        with pytest.raises(MapError):
            ms.by_name("zzz")
        with pytest.raises(MapError):
            ms[9]

    def test_snapshot_and_clear(self):
        ms = MapSet({1: MapSpec("a", "array", 4, 8, 2)})
        ms[1].update(key4(0), val8(3))
        snap = ms.snapshot()
        assert snap[1][:8] == val8(3)
        ms.clear()
        assert ms.snapshot()[1] == bytes(16)


class TestEntryCount:
    """``entry_count`` is a counter, not a scan of a per-slot list."""

    @pytest.mark.parametrize("map_type", ["hash", "lru_hash"])
    def test_hash_maps_count_live_keys(self, map_type):
        m = create_map(MapSpec("m", map_type, 4, 8, 3))
        assert m.entry_count() == 0
        for i in range(3):
            m.update(key4(i), val8(i))
        m.update(key4(1), val8(9))  # an overwrite is not an insert
        assert m.entry_count() == 3
        assert m.delete(key4(0)) and not m.delete(key4(0))
        assert m.entry_count() == 2
        m.clear()
        assert m.entry_count() == 0
        m.update(key4(7), val8(7))
        assert m.entry_count() == 1

    def test_lru_eviction_keeps_the_count_at_capacity(self):
        m = LruHashMap(MapSpec("l", "lru_hash", 4, 8, 2))
        for i in range(5):
            m.update(key4(i), val8(i))
        assert m.entry_count() == 2

    def test_array_entries_always_exist(self):
        # clear() used to leave an array map reporting zero entries
        m = ArrayMap(MapSpec("a", "array", 4, 8, 4))
        m.update(key4(2), val8(5))
        assert m.entry_count() == 4
        m.clear()
        assert m.entry_count() == 4 and m.lookup(key4(2)) == bytes(8)


class TestHostInterfaceChecks:
    """The public ``lookup_slot`` / ``update`` / ``delete`` check the key
    and value sizes before the unchecked data-plane cores (``_find`` /
    ``_update``) run, for every map kind."""

    SPECS = {
        "array": MapSpec("a", "array", 4, 8, 4),
        "percpu_array": MapSpec("p", "percpu_array", 4, 8, 4),
        "hash": MapSpec("h", "hash", 4, 8, 2),
        "lru_hash": MapSpec("l", "lru_hash", 4, 8, 2),
        "banked_lru_hash": MapSpec("b", "lru_hash", 4, 8, 4, banks=2),
    }

    def _full(self, kind):
        m = create_map(self.SPECS[kind])
        for i in range(m.max_entries):
            m.update(key4(i), val8(i + 1))
        return m

    @pytest.mark.parametrize("kind", sorted(SPECS))
    @pytest.mark.parametrize("size", [0, 3, 5])
    def test_wrong_key_size_raises(self, kind, size):
        m, key = self._full(kind), b"\x01" * size
        before = (m.snapshot(), list(m.items()))
        for call in (lambda: m.lookup_slot(key),
                     lambda: m.update(key, val8(7)),
                     lambda: m.delete(key)):
            with pytest.raises(MapError):
                call()
        assert (m.snapshot(), list(m.items())) == before

    @pytest.mark.parametrize("kind", sorted(SPECS))
    @pytest.mark.parametrize("size", [0, 7, 9])
    def test_wrong_value_size_raises_and_changes_nothing(self, kind, size):
        # a full LRU map evicts on an insert: a refused one must not
        m, value = self._full(kind), b"\x01" * size
        before = (m.snapshot(), list(m.items()))
        for key in (key4(0), key4(99)):
            with pytest.raises(MapError):
                m.update(key, value)
        assert (m.snapshot(), list(m.items())) == before

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_cores_are_the_checked_calls(self, kind):
        checked, core = self._full(kind), self._full(kind)
        for key in (key4(1), key4(3), key4(9)):
            assert checked.lookup_slot(key) == core._find(key)
            try:
                want = checked.update(key, val8(5), BPF_EXIST)
            except MapError:
                with pytest.raises(MapError):
                    core._update(key, val8(5), BPF_EXIST)
            else:
                assert core._update(key, val8(5), BPF_EXIST) == want
        assert list(checked.items()) == list(core.items())
        assert checked.snapshot() == core.snapshot()
