"""XDP context / address-space model tests."""

import struct

import pytest

from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet
from repro.ebpf.xdp import (
    AddressSpace,
    XDP_MD_DATA,
    XDP_MD_DATA_END,
    XdpAction,
    XdpContext,
    XdpResult,
)


class TestAddressSpace:
    def test_regions_disjoint(self):
        addrs = {
            "ctx": AddressSpace.CTX_BASE,
            "packet": AddressSpace.PACKET_BASE + AddressSpace.PACKET_HEADROOM,
            "stack": AddressSpace.STACK_BASE,
            "map": AddressSpace.map_value_addr(1, 0),
        }
        assert AddressSpace.is_ctx(addrs["ctx"])
        assert AddressSpace.is_packet(addrs["packet"])
        assert AddressSpace.is_stack(addrs["stack"])
        assert AddressSpace.is_map_value(addrs["map"])
        # each address belongs to exactly one region
        for name, addr in addrs.items():
            count = sum([
                AddressSpace.is_ctx(addr),
                AddressSpace.is_packet(addr),
                AddressSpace.is_stack(addr),
                AddressSpace.is_map_value(addr),
            ])
            assert count == 1, name

    def test_stack_top_is_r10(self):
        assert AddressSpace.stack_top() == AddressSpace.STACK_BASE + 512

    def test_map_window_roundtrip(self):
        addr = AddressSpace.map_value_addr(3, 1234)
        assert AddressSpace.map_fd_of(addr) == 3
        assert AddressSpace.map_offset_of(addr) == 1234

    def test_map_fd_of_non_map_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace.map_fd_of(AddressSpace.CTX_BASE)

    def test_locate_names_one_buffer_per_region(self):
        maps = MapSet({1: MapSpec("m", "array", 4, 8, 4)})
        stack = bytearray(AddressSpace.STACK_SIZE)
        ctx = XdpContext(bytearray(64))
        locate = AddressSpace.locate
        assert locate(AddressSpace.stack_top() - 8, 8, stack, ctx, maps) \
            == (stack, AddressSpace.STACK_SIZE - 8, None)
        assert locate(ctx.data + 60, 4, stack, ctx, maps) \
            == (ctx.packet, 60, None)
        assert locate(AddressSpace.CTX_BASE + 4, 4, stack, ctx, maps) \
            == (ctx.ctx_bytes(), 4, None)
        buf, off, fd = locate(
            AddressSpace.map_value_addr(1, 24), 8, stack, ctx, maps)
        assert (buf is maps[1].storage, off, fd) == (True, 24, 1)

    @pytest.mark.parametrize("addr, size, writing, refusal", [
        (AddressSpace.stack_top() - 8, 16, False, ("stack", "out of bounds")),
        (AddressSpace.stack_top() - 8, -1, False, ("stack", "out of bounds")),
        (AddressSpace.PACKET_BASE, 1, False, ("packet", "out of bounds")),
        (AddressSpace.map_value_addr(1, 24), 16, False,
         ("map value", "out of bounds")),
        (AddressSpace.map_value_addr(7, 0), 8, False,
         ("map value", "of unknown map fd 7")),
        (AddressSpace.CTX_BASE, 4, True, ("ctx", "of the read-only xdp_md")),
        (AddressSpace.CTX_BASE + 20, 8, False, ("ctx", "out of bounds")),
        (0, 4, False, ("unmapped", "out of bounds")),
    ])
    def test_locate_refusals_say_region_and_reason(
            self, addr, size, writing, refusal):
        maps = MapSet({1: MapSpec("m", "array", 4, 8, 4)})
        assert AddressSpace.locate(
            addr, size, bytearray(AddressSpace.STACK_SIZE),
            XdpContext(bytearray(64)), maps, writing) == (None,) + refusal

    def test_packet_addresses_fit_u32(self):
        # xdp_md.data is a u32 field
        assert AddressSpace.PACKET_BASE + AddressSpace.PACKET_HEADROOM + 9000 < 2 ** 32


class TestXdpContext:
    def test_ctx_bytes_layout(self):
        ctx = XdpContext(bytearray(100), ingress_ifindex=5, rx_queue_index=2)
        raw = ctx.ctx_bytes()
        data, data_end = struct.unpack_from("<II", raw, XDP_MD_DATA)
        assert data_end - data == 100
        assert struct.unpack_from("<I", raw, 12)[0] == 5

    def test_adjust_head_grow(self):
        ctx = XdpContext(bytearray(b"abcd"))
        old_data = ctx.data
        assert ctx.adjust_head(-4)
        assert ctx.data == old_data - 4
        assert bytes(ctx.packet) == bytes(4) + b"abcd"

    def test_adjust_head_shrink(self):
        ctx = XdpContext(bytearray(b"abcdef"))
        assert ctx.adjust_head(2)
        assert bytes(ctx.packet) == b"cdef"

    def test_adjust_head_headroom_limit(self):
        ctx = XdpContext(bytearray(4))
        assert not ctx.adjust_head(-(AddressSpace.PACKET_HEADROOM + 1))
        assert len(ctx.packet) == 4

    def test_adjust_head_cannot_consume_packet(self):
        ctx = XdpContext(bytearray(4))
        assert not ctx.adjust_head(4)

    def test_cumulative_adjustments(self):
        ctx = XdpContext(bytearray(10))
        assert ctx.adjust_head(-10)
        assert ctx.adjust_head(5)
        assert len(ctx.packet) == 15
        assert ctx.head_adjust == -5


class TestXdpAction:
    def test_of_reads_the_low_32_bits_and_aborts_on_no_action(self):
        assert XdpAction.of(2) is XdpAction.PASS
        assert XdpAction.of((7 << 32) | 3) is XdpAction.TX
        assert XdpAction.of(5) is XdpAction.ABORTED
        assert XdpAction.of((1 << 64) - 1) is XdpAction.ABORTED


class TestXdpResult:
    def test_forwarded_actions(self):
        for action in (XdpAction.TX, XdpAction.PASS, XdpAction.REDIRECT):
            assert XdpResult(action, b"").forwarded
        for action in (XdpAction.DROP, XdpAction.ABORTED):
            assert not XdpResult(action, b"").forwarded

    def test_action_values_match_linux(self):
        assert XdpAction.ABORTED == 0
        assert XdpAction.DROP == 1
        assert XdpAction.PASS == 2
        assert XdpAction.TX == 3
        assert XdpAction.REDIRECT == 4
