"""Generated execution module for pipeline 'router_rmw' (28 stages).

Emitted by repro.hwsim.codegen (CODEGEN_VERSION = 18); flush machinery included, map-read tracking included. Do not edit.
"""

import struct

from repro.ebpf.xdp import XdpAction

_u1 = struct.Struct("<B").unpack_from
_u2 = struct.Struct("<H").unpack_from
_u4 = struct.Struct("<I").unpack_from
_p1 = struct.Struct("<B").pack_into
_p2 = struct.Struct("<H").pack_into
_p4 = struct.Struct("<I").pack_into
_ACTIONS = {int(_a): _a for _a in XdpAction}
_ABORTED = XdpAction.ABORTED

def _s1(sim, pkt, slots, barrier_queues, input_queue, report, _u2=_u2):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 0 in enabled:
        regs[2] = _u2(pkt.ctx.packet, 12)[0]
    return False

def _s2(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 0 in enabled:
        enabled.update((6,) if regs[2] != 0x8 else (1,))
    return False

def _s3(sim, pkt, slots, barrier_queues, input_queue, report, _u1=_u1):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 1 in enabled:
        regs[2] = _u1(pkt.ctx.packet, 22)[0]
    return False

def _s4(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 1 in enabled:
        enabled.update((6,) if regs[2] <= 0x1 else (2,))
    return False

def _s5(sim, pkt, slots, barrier_queues, input_queue, report, _u4=_u4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        regs[2] = _u4(pkt.ctx.packet, 30)[0]
    if 2 in enabled:
        regs[1] = 0x30000001
    return False

def _s6(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        regs[2] = regs[2] & 0xffffff
    return False

def _s7(sim, pkt, slots, barrier_queues, input_queue, report, _p4=_p4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 2 in enabled:
        _se = None
        _p4(pkt.stack, 508, regs[2] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(7)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 2 in enabled:
        regs[2] = regs[10]
    if not pkt.done and 2 in enabled:
        regs[2] = (regs[2] + 0xfffffffffffffffc) & 0xffffffffffffffff
    return flushed

def _s8(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        _m = sim.maps.maps.get(1)
        if _m is None:
            sim._drop(pkt)
        else:
            _a = regs[2]
            _o = _a - 0x200000
            if 0 <= _o <= 512 - _m.key_size:
                _k = bytes(pkt.stack[_o:_o + _m.key_size])
            else:
                _k = sim._read_plain(pkt, _a, _m.key_size)
            if _k is not None:
                _sl = _m.lookup_slot(_k)
                pkt.addr_reads.setdefault(1, []).append((_k, _sl))
                regs[0] = 0 if _sl is None else 0x41000000 + _sl * _m.value_size
        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
    return False

def _s10(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        enabled.update((6,) if regs[0] == 0x0 else (3,))
    return False

def _s11(sim, pkt, slots, barrier_queues, input_queue, report, _u2=_u2):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        regs[8] = regs[0]
    if 3 in enabled:
        regs[3] = _u2(pkt.ctx.packet, 24)[0]
    if 3 in enabled:
        regs[1] = 0x30000002
    if 6 in enabled:
        regs[0] = 0x2
    return False

def _s12(sim, pkt, slots, barrier_queues, input_queue, report, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        _a = regs[8]
        _o = _a - 0x41000000
        _m = sim.maps.maps.get(1)
        if _m is not None and 0 <= _o <= len(_m.storage) - 4 <= 16777212:
            _d = sim._map_read_bytes(pkt, 1, _o, 4)
            pkt.value_reads.setdefault(1, set()).add(_m.slot_of_addr(_o))
            regs[2] = int.from_bytes(_d, "little")
        else:
            _v = sim._mem_load(pkt, _a, 4)
            if _v is not None:
                regs[2] = _v
    if not pkt.done and 3 in enabled:
        _v = regs[3] & 0xffff
        regs[3] = int.from_bytes(_v.to_bytes(2, "little"), "big")
    if not pkt.done and 6 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    return False

def _s13(sim, pkt, slots, barrier_queues, input_queue, report, _p4=_p4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 3 in enabled:
        _se = None
        _p4(pkt.ctx.packet, 0, regs[2] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(13)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 3 in enabled:
        _a = (regs[8] + 4) & 0xffffffffffffffff
        _o = _a - 0x41000000
        _m = sim.maps.maps.get(1)
        if _m is not None and 0 <= _o <= len(_m.storage) - 2 <= 16777214:
            _d = sim._map_read_bytes(pkt, 1, _o, 2)
            pkt.value_reads.setdefault(1, set()).add(_m.slot_of_addr(_o))
            regs[2] = int.from_bytes(_d, "little")
        else:
            _v = sim._mem_load(pkt, _a, 2)
            if _v is not None:
                regs[2] = _v
    if not pkt.done and 3 in enabled:
        regs[3] = (regs[3] + 0x100) & 0xffffffffffffffff
    if not pkt.done and 3 in enabled:
        regs[4] = regs[3]
    if not pkt.done and 3 in enabled:
        regs[3] = regs[3] & 0xffff
    return flushed

def _s14(sim, pkt, slots, barrier_queues, input_queue, report, _p2=_p2):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 3 in enabled:
        _se = None
        _p2(pkt.ctx.packet, 4, regs[2] & 0xffff)
        if _se is not None:
            pkt.take_snapshot(14)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 3 in enabled:
        _a = (regs[8] + 6) & 0xffffffffffffffff
        _o = _a - 0x41000000
        _m = sim.maps.maps.get(1)
        if _m is not None and 0 <= _o <= len(_m.storage) - 4 <= 16777212:
            _d = sim._map_read_bytes(pkt, 1, _o, 4)
            pkt.value_reads.setdefault(1, set()).add(_m.slot_of_addr(_o))
            regs[2] = int.from_bytes(_d, "little")
        else:
            _v = sim._mem_load(pkt, _a, 4)
            if _v is not None:
                regs[2] = _v
    if not pkt.done and 3 in enabled:
        regs[4] = regs[4] >> 16
    if not pkt.done and 3 in enabled:
        regs[3] = (regs[3] + regs[4]) & 0xffffffffffffffff
    return flushed

def _s15(sim, pkt, slots, barrier_queues, input_queue, report, _p4=_p4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 3 in enabled:
        _se = None
        _p4(pkt.ctx.packet, 6, regs[2] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(15)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 3 in enabled:
        _a = (regs[8] + 10) & 0xffffffffffffffff
        _o = _a - 0x41000000
        _m = sim.maps.maps.get(1)
        if _m is not None and 0 <= _o <= len(_m.storage) - 2 <= 16777214:
            _d = sim._map_read_bytes(pkt, 1, _o, 2)
            pkt.value_reads.setdefault(1, set()).add(_m.slot_of_addr(_o))
            regs[2] = int.from_bytes(_d, "little")
        else:
            _v = sim._mem_load(pkt, _a, 2)
            if _v is not None:
                regs[2] = _v
    if not pkt.done and 3 in enabled:
        regs[4] = regs[3]
    if not pkt.done and 3 in enabled:
        regs[4] = regs[4] >> 16
    if not pkt.done and 3 in enabled:
        regs[3] = regs[3] & 0xffff
    return flushed

def _s16(sim, pkt, slots, barrier_queues, input_queue, report, _u1=_u1, _p2=_p2):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 3 in enabled:
        _se = None
        _p2(pkt.ctx.packet, 10, regs[2] & 0xffff)
        if _se is not None:
            pkt.take_snapshot(16)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 3 in enabled:
        regs[2] = _u1(pkt.ctx.packet, 22)[0]
    if not pkt.done and 3 in enabled:
        regs[3] = (regs[3] + regs[4]) & 0xffffffffffffffff
    return flushed

def _s17(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        regs[2] = (regs[2] + 0xffffffffffffffff) & 0xffffffffffffffff
    if 3 in enabled:
        _v = regs[3] & 0xffff
        regs[3] = int.from_bytes(_v.to_bytes(2, "little"), "big")
    return False

def _s18(sim, pkt, slots, barrier_queues, input_queue, report, _p1=_p1, _p2=_p2):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 3 in enabled:
        _se = None
        _p1(pkt.ctx.packet, 22, regs[2] & 0xff)
        if _se is not None:
            pkt.take_snapshot(18)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 3 in enabled:
        _se = None
        _p2(pkt.ctx.packet, 24, regs[3] & 0xffff)
        if _se is not None:
            pkt.take_snapshot(18)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 3 in enabled:
        regs[2] = 0x0
    return flushed

def _s19(sim, pkt, slots, barrier_queues, input_queue, report, _p4=_p4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 3 in enabled:
        _se = None
        _p4(pkt.stack, 504, regs[2] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(19)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 3 in enabled:
        regs[2] = regs[10]
    if not pkt.done and 3 in enabled:
        regs[2] = (regs[2] + 0xfffffffffffffff8) & 0xffffffffffffffff
    return flushed

def _s20(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        _m = sim.maps.maps.get(2)
        if _m is None:
            sim._drop(pkt)
        else:
            _a = regs[2]
            _o = _a - 0x200000
            if 0 <= _o <= 512 - _m.key_size:
                _k = bytes(pkt.stack[_o:_o + _m.key_size])
            else:
                _k = sim._read_plain(pkt, _a, _m.key_size)
            if _k is not None:
                _sl = _m.lookup_slot(_k)
                pkt.addr_reads.setdefault(2, []).append((_k, _sl))
                regs[0] = 0 if _sl is None else 0x42000000 + _sl * _m.value_size
        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
    return False

def _s22(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        enabled.update((5,) if regs[0] == 0x0 else (4,))
    return False

def _s23(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 4 in enabled:
        _a = regs[0]
        _o = _a - 0x42000000
        _m = sim.maps.maps.get(2)
        if _m is not None and 0 <= _o <= len(_m.storage) - 8 <= 16777208:
            _d = sim._map_read_bytes(pkt, 2, _o, 8)
            pkt.value_reads.setdefault(2, set()).add(_m.slot_of_addr(_o))
            regs[2] = int.from_bytes(_d, "little")
        else:
            _v = sim._mem_load(pkt, _a, 8)
            if _v is not None:
                regs[2] = _v
    return False

def _s24(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 4 in enabled:
        regs[2] = (regs[2] + 0x1) & 0xffffffffffffffff
    return False

def _s25(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 4 in enabled:
        _a = regs[0]
        _se = sim._mem_store(pkt, _a, 8, regs[2], None)
        if not pkt.done:
            enabled.add(5)
        if _se is not None:
            pkt.take_snapshot(25)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    return flushed

def _s26(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        _a = (regs[8] + 12) & 0xffffffffffffffff
        _o = _a - 0x41000000
        _m = sim.maps.maps.get(1)
        if _m is not None and 0 <= _o <= len(_m.storage) - 4 <= 16777212:
            _d = sim._map_read_bytes(pkt, 1, _o, 4)
            pkt.value_reads.setdefault(1, set()).add(_m.slot_of_addr(_o))
            regs[1] = int.from_bytes(_d, "little")
        else:
            _v = sim._mem_load(pkt, _a, 4)
            if _v is not None:
                regs[1] = _v
    if not pkt.done and 5 in enabled:
        regs[2] = 0x0
    return False

def _s27(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        pkt.ctx.redirect_ifindex = regs[1] & 0xffffffff
        regs[0] = 4
        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
    return False

def _s28(sim, pkt, slots, barrier_queues, input_queue, report, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    return False

def _entry(sim, pkt):
    regs = pkt.regs
    regs[6] = 0x100100 + pkt.ctx.head_adjust

_STAGE_FNS = (_s1, _s2, _s3, _s4, _s5, _s6, _s7, _s8, None, _s10, _s11, _s12, _s13, _s14, _s15, _s16, _s17, _s18, _s19, _s20, None, _s22, _s23, _s24, _s25, _s26, _s27, _s28,)
_ENTRY = _entry
_STREAM = None

