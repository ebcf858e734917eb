"""eBPF map implementations.

Maps are the only memory that persists across eBPF program executions
(Section 2.2 of the paper). This module implements the map types the
evaluation applications need — array, hash, LRU hash and per-CPU array —
with both the *data-plane* interface used by helper calls inside the VM
(pointer-based lookup into backing storage) and the *host* interface used
from userspace tooling (``lookup``/``update``/``delete`` by key bytes),
mirroring how a real eBPF map is shared between an XDP program and
``bpftool``/libbpf on the host.

Backing storage is a flat ``bytearray`` per map so that value *pointers*
(as returned by ``bpf_map_lookup_elem``) are well-defined stable addresses
— the property the eHDL hazard analysis relies on.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from .isa import ISAError, MapSpec

# Update flags (matching Linux).
BPF_ANY = 0
BPF_NOEXIST = 1
BPF_EXIST = 2


class MapError(ValueError):
    """Raised on invalid map operations (bad key size, full map, ...)."""


class Map:
    """Base class: fixed-size keys and values, flat backing storage.

    Subclasses implement :meth:`_find` (data-plane lookup), :meth:`_update`
    (placement policy) and :meth:`delete`. Every entry occupies a fixed slot
    index; ``value_addr(slot)`` converts a slot to a stable offset within
    the map's storage, which the VM maps into its address space.
    """

    def __init__(self, spec: MapSpec) -> None:
        self.spec = spec
        # The geometry, as plain attributes: the pipeline engines read it
        # per lookup.
        self.key_size = spec.key_size
        self.value_size = spec.value_size
        self.max_entries = spec.max_entries
        self.banks = spec.banks
        self.storage = bytearray(self.storage_size())

    @property
    def name(self) -> str:
        return self.spec.name

    def storage_size(self) -> int:
        """The bytes of ``storage`` its slots take: every slot's, here."""
        return self.max_entries * self.value_size

    def value_addr(self, slot: int) -> int:
        """Byte offset of a slot's value within this map's storage."""
        if not 0 <= slot < self.max_entries:
            raise MapError(f"slot {slot} out of range for {self.name}")
        return slot * self.value_size

    def slot_of_addr(self, offset: int) -> int:
        """Inverse of :meth:`value_addr` for any address within the value."""
        if not 0 <= offset < len(self.storage):
            raise MapError(f"offset {offset} outside map {self.name}")
        return offset // self.value_size

    def _check_key(self, key: bytes) -> bytes:
        if len(key) != self.key_size:
            raise MapError(
                f"{self.name}: key size {len(key)} != {self.key_size}"
            )
        return bytes(key)

    def _check_value(self, value: bytes) -> bytes:
        if len(value) != self.value_size:
            raise MapError(
                f"{self.name}: value size {len(value)} != {self.value_size}"
            )
        return bytes(value)

    def _read_slot(self, slot: int) -> bytes:
        base = self.value_addr(slot)
        return bytes(self.storage[base : base + self.value_size])

    def _write_slot(self, slot: int, value: bytes) -> None:
        base = self.value_addr(slot)
        self.storage[base : base + self.value_size] = value

    # -- data-plane interface -------------------------------------------------

    def lookup_slot(self, key: bytes) -> Optional[int]:
        """Data-plane lookup: return the slot index holding ``key`` or None."""
        return self._find(self._check_key(key))

    def update(self, key: bytes, value: bytes, flags: int = BPF_ANY) -> int:
        """Insert or overwrite; returns the slot written.

        Honors ``BPF_NOEXIST``/``BPF_EXIST`` semantics like the kernel.
        """
        return self._update(self._check_key(key), self._check_value(value),
                            flags)

    def delete(self, key: bytes) -> bool:
        raise NotImplementedError

    # The unchecked cores of lookup_slot and update: ``key`` is exactly
    # key_size bytes and ``value`` exactly value_size bytes, both
    # ``bytes``. Code that proves the sizes by construction (the codegen
    # engine's ``_stream``, which slices them off the stack at the
    # map's own key and value sizes) calls these directly.

    def _find(self, key: bytes) -> Optional[int]:
        raise NotImplementedError

    def _update(self, key: bytes, value: bytes, flags: int) -> int:
        raise NotImplementedError

    # -- host interface ---------------------------------------------------------

    def lookup(self, key: bytes) -> Optional[bytes]:
        """Host-side lookup returning a *copy* of the value bytes."""
        slot = self.lookup_slot(self._check_key(key))
        if slot is None:
            return None
        return self._read_slot(slot)

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate (key, value) pairs, host-side."""
        raise NotImplementedError

    def entry_count(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        self.storage[:] = bytes(len(self.storage))

    def snapshot(self) -> bytes:
        """Full copy of the backing storage (used by differential tests)."""
        return bytes(self.storage)


class ArrayMap(Map):
    """``BPF_MAP_TYPE_ARRAY``: key is a u32 index; all slots always exist.

    Like the kernel, lookups of in-range indices always succeed (values are
    zero-initialised) and deletes are rejected.
    """

    def __init__(self, spec: MapSpec) -> None:
        if spec.key_size != 4:
            raise MapError("array map key size must be 4")
        super().__init__(spec)

    def entry_count(self) -> int:
        return self.max_entries

    def _find(self, key: bytes) -> Optional[int]:
        index = int.from_bytes(key, "little")
        if index >= self.max_entries:
            return None
        return index

    def _update(self, key: bytes, value: bytes, flags: int) -> int:
        index = self._find(key)
        if index is None:
            raise MapError(f"{self.name}: index out of bounds")
        if flags == BPF_NOEXIST:
            raise MapError(f"{self.name}: array entries always exist")
        self._write_slot(index, value)
        return index

    def delete(self, key: bytes) -> bool:
        raise MapError(f"{self.name}: cannot delete from array map")

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for index in range(self.max_entries):
            yield index.to_bytes(4, "little"), self._read_slot(index)


class HashMap(Map):
    """``BPF_MAP_TYPE_HASH``: open-addressed over the fixed slot table.

    Keys are stored in a slot directory so that slot indices (and hence
    value addresses) stay stable until deletion, matching kernel
    behaviour where a looked-up value pointer stays valid. Slots are
    handed out lowest-first, a released slot (last released first)
    before a never-used one: ``_free`` lists the released, ``_fresh``
    counts the handed out. The storage holds those ``_fresh`` slots and
    grows in place with them, so an empty map costs neither a
    ``max_entries``-long list nor its ``max_entries`` values; a value
    address is its slot's offset, whatever the storage's length.
    """

    def __init__(self, spec: MapSpec) -> None:
        self._fresh = 0
        super().__init__(spec)
        self._slot_by_key: Dict[bytes, int] = {}
        self._free: List[int] = []

    def storage_size(self) -> int:
        return self._fresh * self.value_size

    def _find(self, key: bytes) -> Optional[int]:
        return self._slot_by_key.get(key)

    def _update(self, key: bytes, value: bytes, flags: int) -> int:
        slot = self._slot_by_key.get(key)
        if slot is not None:
            if flags == BPF_NOEXIST:
                raise MapError(f"{self.name}: key already exists")
            self._write_slot(slot, value)
            return slot
        if flags == BPF_EXIST:
            raise MapError(f"{self.name}: key does not exist")
        if self._free:
            slot = self._free.pop()
            self._write_slot(slot, value)
        elif self._fresh < self.max_entries:
            slot = self._fresh
            self._fresh += 1
            self.storage += value  # in place: bound views stay valid
        else:
            raise MapError(f"{self.name}: map is full")
        self._slot_by_key[key] = slot
        return slot

    def delete(self, key: bytes) -> bool:
        key = self._check_key(key)
        slot = self._slot_by_key.pop(key, None)
        if slot is None:
            return False
        self._write_slot(slot, bytes(self.value_size))
        self._free.append(slot)
        return True

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for key, slot in list(self._slot_by_key.items()):
            yield key, self._read_slot(slot)

    def entry_count(self) -> int:
        return len(self._slot_by_key)

    def clear(self) -> None:
        del self.storage[:]
        self._slot_by_key.clear()
        self._free = []
        self._fresh = 0


def bank_of(key, banks: int) -> int:
    """The bank of ``key`` (bytes-like) in a map of ``banks`` banks (a
    power of two): the low bits of its CRC-32. The one bank hash — the
    banked map and every engine's per-bank window interlock call it. A
    real hash, because flow keys are structured: a fold of the key
    bytes sends whole port ranges to one bank."""
    return zlib.crc32(key) & (banks - 1)


class LruHashMap(Map):
    """``BPF_MAP_TYPE_LRU_HASH``: a hash map that evicts the least recently
    used entry instead of failing when full.

    Recency order is part of the observable state: it decides future
    eviction victims, so engines must replicate it exactly and hot-swap
    carry (:func:`repro.serve.daemon.carry_maps`) must preserve it.

    With ``spec.banks`` = B the map is B independent LRU maps over one
    storage (``BPF_F_NO_COMMON_LRU``'s contract, the bank picked by
    :func:`bank_of` of the key): bank ``b`` owns the ``max_entries / B``
    slots from ``b * max_entries / B`` on and evicts its own least
    recently used entry. Per bank, the slot directory is an
    ``OrderedDict`` kept in recency order (a lookup or update moves the
    key to the end) and slots are handed out as :class:`HashMap` does.
    :meth:`items` and :meth:`lru_keys` go bank by bank, oldest-first
    within each, so replaying the pairs through :meth:`update` into a
    map of the same bank count reconstructs every bank's order. B = 1
    computes no hash.
    """

    def __init__(self, spec: MapSpec) -> None:
        super().__init__(spec)
        self.evictions = 0
        self.bank_entries = spec.max_entries // spec.banks
        # Per bank: the slot directory in recency order, the released
        # slots and the next never-used slot.
        self._dirs: List["OrderedDict[bytes, int]"] = [
            OrderedDict() for _ in range(spec.banks)]
        self._free: List[List[int]] = [[] for _ in range(spec.banks)]
        self._fresh = list(range(0, spec.max_entries, self.bank_entries))

    # ``bank``, where given, is ``bank_of(key, banks)`` as the caller
    # already computed it (the codegen engine's ``_stream`` hashes a
    # packet's key once for its window lane and both requests).

    def _find(self, key: bytes, bank: Optional[int] = None) -> Optional[int]:
        if bank is None:
            bank = bank_of(key, self.banks) if self.banks > 1 else 0
        directory = self._dirs[bank]
        slot = directory.get(key)
        if slot is not None:
            directory.move_to_end(key)
        return slot

    def _update(self, key: bytes, value: bytes, flags: int,
                bank: Optional[int] = None) -> int:
        if bank is None:
            bank = bank_of(key, self.banks) if self.banks > 1 else 0
        directory = self._dirs[bank]
        slot = directory.get(key)
        if slot is None and len(directory) >= self.bank_entries:
            self._release(bank, directory.popitem(last=False)[1])
            self.evictions += 1
        if slot is not None:
            if flags == BPF_NOEXIST:
                raise MapError(f"{self.name}: key already exists")
        elif flags == BPF_EXIST:
            raise MapError(f"{self.name}: key does not exist")
        else:
            free = self._free[bank]
            if free:
                slot = free.pop()
            else:
                slot = self._fresh[bank]
                self._fresh[bank] += 1
            directory[key] = slot
        self._write_slot(slot, value)
        directory.move_to_end(key)
        return slot

    def _release(self, bank: int, slot: int) -> None:
        self._write_slot(slot, bytes(self.value_size))
        self._free[bank].append(slot)

    def delete(self, key: bytes) -> bool:
        key = self._check_key(key)
        bank = bank_of(key, self.banks) if self.banks > 1 else 0
        slot = self._dirs[bank].pop(key, None)
        if slot is None:
            return False
        self._release(bank, slot)
        return True

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for directory in self._dirs:
            for key, slot in list(directory.items()):
                yield key, self._read_slot(slot)

    def entry_count(self) -> int:
        return sum(map(len, self._dirs))

    def clear(self) -> None:
        super().clear()
        for directory, free in zip(self._dirs, self._free):
            directory.clear()
            free.clear()
        self._fresh = list(range(0, self.max_entries, self.bank_entries))

    def lru_keys(self) -> List[bytes]:
        """Keys in recency order, least recently used first, bank by
        bank."""
        return [key for directory in self._dirs for key in directory]


class PercpuArrayMap(ArrayMap):
    """``BPF_MAP_TYPE_PERCPU_ARRAY`` collapsed to a single CPU.

    The hardware pipeline has a single map block, so per-CPU replication
    degenerates to a plain array; the host interface still sums over
    "cpus" (of which there is one) the way ``bpftool`` presents it.
    """


_MAP_CLASSES = {
    "array": ArrayMap,
    "hash": HashMap,
    "lru_hash": LruHashMap,
    "percpu_array": PercpuArrayMap,
}


def create_map(spec: MapSpec) -> Map:
    """Instantiate the right map class for a :class:`MapSpec`."""
    try:
        cls = _MAP_CLASSES[spec.map_type]
    except KeyError:
        raise MapError(f"unknown map type {spec.map_type!r}")
    return cls(spec)


class MapSet:
    """All maps of a loaded program, indexed by fd — the 'map side' of a
    loaded program shared by the VM, the pipeline simulator and host tools."""

    def __init__(self, specs: Dict[int, MapSpec]) -> None:
        self.maps: Dict[int, Map] = {fd: create_map(spec) for fd, spec in specs.items()}

    def __getitem__(self, fd: int) -> Map:
        try:
            return self.maps[fd]
        except KeyError:
            raise MapError(f"no map with fd {fd}")

    def __contains__(self, fd: int) -> bool:
        return fd in self.maps

    def __iter__(self) -> Iterator[int]:
        return iter(self.maps)

    def mismatch(self, specs: Dict[int, MapSpec]) -> Optional[int]:
        """The first fd of ``specs`` this set does not hold as exactly
        the map :func:`create_map` builds from its spec — same class,
        same geometry and bank count, storage of the size its slots
        take (``Map.storage_size``: ``max_entries * value_size`` bytes
        at most) — or ``None`` when it holds them all. Code specialised
        to the specs (the ``codegen`` engine's ``_stream``, whose window
        timing is per bank) is sound only over a set that passes."""
        for fd, spec in specs.items():
            held = self.maps.get(fd)
            if (held is None
                    or type(held) is not _MAP_CLASSES[spec.map_type]
                    or (held.key_size, held.value_size, held.max_entries,
                        held.banks)
                    != (spec.key_size, spec.value_size, spec.max_entries,
                        spec.banks)
                    or len(held.storage) != held.storage_size()):
                return fd
        return None

    def by_name(self, name: str) -> Map:
        for m in self.maps.values():
            if m.name == name:
                return m
        raise MapError(f"no map named {name!r}")

    def fd_of(self, name: str) -> int:
        for fd, m in self.maps.items():
            if m.name == name:
                return fd
        raise MapError(f"no map named {name!r}")

    def snapshot(self) -> Dict[int, bytes]:
        return {fd: m.snapshot() for fd, m in self.maps.items()}

    def clear(self) -> None:
        for m in self.maps.values():
            m.clear()
