"""Generated execution module for pipeline 'firewall' (22 stages).

Emitted by repro.hwsim.codegen (CODEGEN_VERSION = 5); flush machinery elided, position/commit tracking elided. Do not edit.
"""

import struct

from repro.ebpf.isa import Instruction
from repro.ebpf.xdp import XdpAction
from repro.hwsim.sim import SimError, _InFlight as _IF
from repro.hwsim.stats import PacketRecord as _PR

_u1 = struct.Struct("<B").unpack_from
_u2 = struct.Struct("<H").unpack_from
_u4 = struct.Struct("<I").unpack_from
_u8 = struct.Struct("<Q").unpack_from
_p2 = struct.Struct("<H").pack_into
_p4 = struct.Struct("<I").pack_into
_p8 = struct.Struct("<Q").pack_into
_ACTIONS = {int(_a): _a for _a in XdpAction}
_ABORTED = XdpAction.ABORTED
_PASS = XdpAction.PASS
_i0 = Instruction(opcode=219, dst=0, src=1, off=0, imm=0, imm64=None)
_i1 = Instruction(opcode=219, dst=0, src=1, off=0, imm=0, imm64=None)
_RINIT = [0, 4096, 0, 0, 0, 0, 0, 0, 0, 0, 2097664]
_ZSTACK = bytes(512)

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
        enabled.update((6,) if (regs[2] & 0xffffffffffffffff) != 0x8 else (1,))
    return False

def _s3(sim, pkt, slots, barrier_queues, input_queue, report, _u1=_u1):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 1 in enabled:
        regs[2] = _u1(pkt.ctx.packet, 23)[0]
    return False

def _s4(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 1 in enabled:
        enabled.update((6,) if (regs[2] & 0xffffffffffffffff) != 0x11 else (2,))
    return False

def _s5(sim, pkt, slots, barrier_queues, input_queue, report, _u2=_u2, _u4=_u4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        regs[2] = _u4(pkt.ctx.packet, 26)[0]
    if 2 in enabled:
        regs[3] = _u4(pkt.ctx.packet, 30)[0]
    if 2 in enabled:
        regs[4] = _u2(pkt.ctx.packet, 34)[0]
    if 2 in enabled:
        regs[5] = _u2(pkt.ctx.packet, 36)[0]
    if 2 in enabled:
        regs[8] = 0x0
    if 2 in enabled:
        regs[1] = 0x30000001
    return False

def _s6(sim, pkt, slots, barrier_queues, input_queue, report, _p2=_p2, _p4=_p4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        _p4(pkt.stack, 496, regs[2] & 0xffffffff)
    if 2 in enabled:
        _p4(pkt.stack, 500, regs[3] & 0xffffffff)
    if 2 in enabled:
        _p2(pkt.stack, 504, regs[4] & 0xffff)
    if 2 in enabled:
        _p2(pkt.stack, 506, regs[5] & 0xffff)
    if 2 in enabled:
        _p4(pkt.stack, 508, regs[8] & 0xffffffff)
    if 2 in enabled:
        regs[2] = regs[10] & 0xffffffffffffffff
    if 2 in enabled:
        regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
    return False

def _s7(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        _fd = regs[1] - 0x30000000
        _e = sim._map_entry.get(_fd) or sim._map_entry_for(_fd)
        if _e is None:
            sim._drop(pkt)
        else:
            _m, _ks, _vs, _mb, _lk = _e
            _a = regs[2]
            if 0x200000 <= _a < 0x200200 and _a - 0x200000 + _ks <= 512:
                _o = _a - 0x200000
                _k = bytes(pkt.stack[_o:_o + _ks])
            else:
                _k = sim._read_plain(pkt, _a, _ks)
            if _k is not None:
                _sl = _lk(_k)
                regs[0] = 0 if _sl is None else _mb + _sl * _vs
        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
    return False

def _s9(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        enabled.update((5,) if (regs[0] & 0xffffffffffffffff) != 0x0 else (3,))
    return False

def _s10(sim, pkt, slots, barrier_queues, input_queue, report, _u2=_u2, _u4=_u4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        regs[2] = _u4(pkt.ctx.packet, 30)[0]
    if 3 in enabled:
        regs[3] = _u4(pkt.ctx.packet, 26)[0]
    if 3 in enabled:
        regs[4] = _u2(pkt.ctx.packet, 36)[0]
    if 3 in enabled:
        regs[5] = _u2(pkt.ctx.packet, 34)[0]
    if 3 in enabled:
        regs[1] = 0x30000001
    return False

def _s11(sim, pkt, slots, barrier_queues, input_queue, report, _p2=_p2, _p4=_p4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        _p4(pkt.stack, 496, regs[2] & 0xffffffff)
    if 3 in enabled:
        _p4(pkt.stack, 500, regs[3] & 0xffffffff)
    if 3 in enabled:
        _p2(pkt.stack, 504, regs[4] & 0xffff)
    if 3 in enabled:
        _p2(pkt.stack, 506, regs[5] & 0xffff)
    if 3 in enabled:
        regs[2] = regs[10] & 0xffffffffffffffff
    if 3 in enabled:
        regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
    return False

def _s12(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        _fd = regs[1] - 0x30000000
        _e = sim._map_entry.get(_fd) or sim._map_entry_for(_fd)
        if _e is None:
            sim._drop(pkt)
        else:
            _m, _ks, _vs, _mb, _lk = _e
            _a = regs[2]
            if 0x200000 <= _a < 0x200200 and _a - 0x200000 + _ks <= 512:
                _o = _a - 0x200000
                _k = bytes(pkt.stack[_o:_o + _ks])
            else:
                _k = sim._read_plain(pkt, _a, _ks)
            if _k is not None:
                _sl = _lk(_k)
                regs[0] = 0 if _sl is None else _mb + _sl * _vs
        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
    return False

def _s14(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        enabled.update((5,) if (regs[0] & 0xffffffffffffffff) != 0x0 else (4,))
    return False

def _s15(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 4 in enabled:
        regs[0] = 0x1
    return False

def _s16(sim, pkt, slots, barrier_queues, input_queue, report, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 4 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    return False

def _s17(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        regs[1] = 0x1
    return False

def _s18(sim, pkt, slots, barrier_queues, input_queue, report, _u8=_u8, _p8=_p8, _i0=_i0):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        _a = regs[0] & 0xffffffffffffffff
        if _a < 0x40000000 or pkt.pending_writes:
            sim._atomic(pkt, _i0, _a)
        else:
            _sp = _a - 0x40000000
            _fd = _sp >> 24
            _o = _sp & 0xffffff
            _st = sim.maps[_fd].storage
            if _o + 8 > len(_st):
                sim._drop(pkt)
            else:
                _old = _u8(_st, _o)[0]
                _sv = regs[1] & 0xffffffffffffffff
                _new = (_old + _sv) & 0xffffffffffffffff
                _p8(_st, _o, _new)
    return False

def _s19(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        regs[0] = 0x3
    return False

def _s20(sim, pkt, slots, barrier_queues, input_queue, report, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    return False

def _s21(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 6 in enabled:
        regs[0] = 0x2
    return False

def _s22(sim, pkt, slots, barrier_queues, input_queue, report, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 6 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    return False

def _entry(sim, pkt):
    regs = pkt.regs
    regs[6] = 0x100100 + pkt.ctx.head_adjust

def _advance(sim, slots, barrier_queues, input_queue, report, _u1=_u1, _u2=_u2, _u4=_u4, _u8=_u8, _p2=_p2, _p4=_p4, _p8=_p8, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED, _i0=_i0):
    slots.insert(1, None)
    del slots[-1]
    pkt = slots[18]
    if pkt is not None:
        if not pkt.done:
            regs = pkt.regs
            enabled = pkt.enabled
            if 5 in enabled:
                _a = regs[0] & 0xffffffffffffffff
                if _a < 0x40000000 or pkt.pending_writes:
                    sim._atomic(pkt, _i0, _a)
                else:
                    _sp = _a - 0x40000000
                    _fd = _sp >> 24
                    _o = _sp & 0xffffff
                    _st = sim.maps[_fd].storage
                    if _o + 8 > len(_st):
                        sim._drop(pkt)
                    else:
                        _old = _u8(_st, _o)[0]
                        _sv = regs[1] & 0xffffffffffffffff
                        _new = (_old + _sv) & 0xffffffffffffffff
                        _p8(_st, _o, _new)
            if not pkt.done:
                if 5 in enabled:
                    regs[0] = 0x3
                if not pkt.done:
                    if 5 in enabled:
                        pkt.done = True
                        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
                    if not pkt.done:
                        if 6 in enabled:
                            regs[0] = 0x2
                        if not pkt.done:
                            if 6 in enabled:
                                pkt.done = True
                                pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    pkt = slots[12]
    if pkt is not None:
        if not pkt.done:
            regs = pkt.regs
            enabled = pkt.enabled
            if 3 in enabled:
                _fd = regs[1] - 0x30000000
                _e = sim._map_entry.get(_fd) or sim._map_entry_for(_fd)
                if _e is None:
                    sim._drop(pkt)
                else:
                    _m, _ks, _vs, _mb, _lk = _e
                    _a = regs[2]
                    if 0x200000 <= _a < 0x200200 and _a - 0x200000 + _ks <= 512:
                        _o = _a - 0x200000
                        _k = bytes(pkt.stack[_o:_o + _ks])
                    else:
                        _k = sim._read_plain(pkt, _a, _ks)
                    if _k is not None:
                        _sl = _lk(_k)
                        regs[0] = 0 if _sl is None else _mb + _sl * _vs
                regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
            if not pkt.done:
                if 3 in enabled:
                    enabled.update((5,) if (regs[0] & 0xffffffffffffffff) != 0x0 else (4,))
                if not pkt.done:
                    if 4 in enabled:
                        regs[0] = 0x1
                    if not pkt.done:
                        if 4 in enabled:
                            pkt.done = True
                            pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
                        if not pkt.done:
                            if 5 in enabled:
                                regs[1] = 0x1
    pkt = slots[7]
    if pkt is not None:
        if not pkt.done:
            regs = pkt.regs
            enabled = pkt.enabled
            if 2 in enabled:
                _fd = regs[1] - 0x30000000
                _e = sim._map_entry.get(_fd) or sim._map_entry_for(_fd)
                if _e is None:
                    sim._drop(pkt)
                else:
                    _m, _ks, _vs, _mb, _lk = _e
                    _a = regs[2]
                    if 0x200000 <= _a < 0x200200 and _a - 0x200000 + _ks <= 512:
                        _o = _a - 0x200000
                        _k = bytes(pkt.stack[_o:_o + _ks])
                    else:
                        _k = sim._read_plain(pkt, _a, _ks)
                    if _k is not None:
                        _sl = _lk(_k)
                        regs[0] = 0 if _sl is None else _mb + _sl * _vs
                regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
            if not pkt.done:
                if 2 in enabled:
                    enabled.update((5,) if (regs[0] & 0xffffffffffffffff) != 0x0 else (3,))
                if not pkt.done:
                    if 3 in enabled:
                        regs[2] = _u4(pkt.ctx.packet, 30)[0]
                    if 3 in enabled:
                        regs[3] = _u4(pkt.ctx.packet, 26)[0]
                    if 3 in enabled:
                        regs[4] = _u2(pkt.ctx.packet, 36)[0]
                    if 3 in enabled:
                        regs[5] = _u2(pkt.ctx.packet, 34)[0]
                    if 3 in enabled:
                        regs[1] = 0x30000001
                    if not pkt.done:
                        if 3 in enabled:
                            _p4(pkt.stack, 496, regs[2] & 0xffffffff)
                        if 3 in enabled:
                            _p4(pkt.stack, 500, regs[3] & 0xffffffff)
                        if 3 in enabled:
                            _p2(pkt.stack, 504, regs[4] & 0xffff)
                        if 3 in enabled:
                            _p2(pkt.stack, 506, regs[5] & 0xffff)
                        if 3 in enabled:
                            regs[2] = regs[10] & 0xffffffffffffffff
                        if 3 in enabled:
                            regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
    pkt = slots[2]
    if pkt is not None:
        if not pkt.done:
            regs = pkt.regs
            enabled = pkt.enabled
            if 0 in enabled:
                enabled.update((6,) if (regs[2] & 0xffffffffffffffff) != 0x8 else (1,))
            if not pkt.done:
                if 1 in enabled:
                    regs[2] = _u1(pkt.ctx.packet, 23)[0]
                if not pkt.done:
                    if 1 in enabled:
                        enabled.update((6,) if (regs[2] & 0xffffffffffffffff) != 0x11 else (2,))
                    if not pkt.done:
                        if 2 in enabled:
                            regs[2] = _u4(pkt.ctx.packet, 26)[0]
                        if 2 in enabled:
                            regs[3] = _u4(pkt.ctx.packet, 30)[0]
                        if 2 in enabled:
                            regs[4] = _u2(pkt.ctx.packet, 34)[0]
                        if 2 in enabled:
                            regs[5] = _u2(pkt.ctx.packet, 36)[0]
                        if 2 in enabled:
                            regs[8] = 0x0
                        if 2 in enabled:
                            regs[1] = 0x30000001
                        if not pkt.done:
                            if 2 in enabled:
                                _p4(pkt.stack, 496, regs[2] & 0xffffffff)
                            if 2 in enabled:
                                _p4(pkt.stack, 500, regs[3] & 0xffffffff)
                            if 2 in enabled:
                                _p2(pkt.stack, 504, regs[4] & 0xffff)
                            if 2 in enabled:
                                _p2(pkt.stack, 506, regs[5] & 0xffff)
                            if 2 in enabled:
                                _p4(pkt.stack, 508, regs[8] & 0xffffffff)
                            if 2 in enabled:
                                regs[2] = regs[10] & 0xffffffffffffffff
                            if 2 in enabled:
                                regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
    return False

def _observe(metrics, slots, barrier_queues):
    metrics.observed_cycles += 1
    _b = metrics.stage_busy_cycles
    if slots[1] is not None:
        _b[0] += 1
    if slots[2] is not None:
        _b[1] += 1
    if slots[3] is not None:
        _b[2] += 1
    if slots[4] is not None:
        _b[3] += 1
    if slots[5] is not None:
        _b[4] += 1
    if slots[6] is not None:
        _b[5] += 1
    if slots[7] is not None:
        _b[6] += 1
    if slots[8] is not None:
        _b[7] += 1
    if slots[9] is not None:
        _b[8] += 1
    if slots[10] is not None:
        _b[9] += 1
    if slots[11] is not None:
        _b[10] += 1
    if slots[12] is not None:
        _b[11] += 1
    if slots[13] is not None:
        _b[12] += 1
    if slots[14] is not None:
        _b[13] += 1
    if slots[15] is not None:
        _b[14] += 1
    if slots[16] is not None:
        _b[15] += 1
    if slots[17] is not None:
        _b[16] += 1
    if slots[18] is not None:
        _b[17] += 1
    if slots[19] is not None:
        _b[18] += 1
    if slots[20] is not None:
        _b[19] += 1
    if slots[21] is not None:
        _b[20] += 1
    if slots[22] is not None:
        _b[21] += 1

def _stream(sim, frames, gap, report, keep_records, SimError=SimError, _IF=_IF, _PR=_PR, _u1=_u1, _u2=_u2, _u4=_u4, _u8=_u8, _p2=_p2, _p4=_p4, _p8=_p8, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED, _PASS=_PASS, _i1=_i1, _RINIT=_RINIT, _ZSTACK=_ZSTACK):
    pid = 0
    cycle = 0
    _max = sim.options.max_cycles
    pkt = _IF(0, b"", 0)
    _c = pkt.ctx
    regs = pkt.regs
    _cnt = {}
    _recs = report.records
    for frame in frames:
        if cycle + 22 >= _max:
            raise SimError("simulation exceeded %d cycles" % _max)
        _c.packet = frame
        pkt.done = False
        pkt.action = None
        regs[:] = _RINIT
        pkt.stack[:] = _ZSTACK
        _pl = len(_c.packet)
        if _pl < 42:
            pkt.done = True
            pkt.action = _ACTIONS.get(2, _ABORTED)
        if not pkt.done:
            _e0 = True
            _e1 = False
            _e2 = False
            _e3 = False
            _e4 = False
            _e5 = False
            _e6 = False
            regs[6] = 0x100100 + pkt.ctx.head_adjust
            if _e0:
                regs[2] = _u2(pkt.ctx.packet, 12)[0]
            if not pkt.done:
                if _e0:
                    if (regs[2] & 0xffffffffffffffff) != 0x8:
                        _e6 = True
                    else:
                        _e1 = True
                if not pkt.done:
                    if _e1:
                        regs[2] = _u1(pkt.ctx.packet, 23)[0]
                    if not pkt.done:
                        if _e1:
                            if (regs[2] & 0xffffffffffffffff) != 0x11:
                                _e6 = True
                            else:
                                _e2 = True
                        if not pkt.done:
                            if _e2:
                                regs[2] = _u4(pkt.ctx.packet, 26)[0]
                            if _e2:
                                regs[3] = _u4(pkt.ctx.packet, 30)[0]
                            if _e2:
                                regs[4] = _u2(pkt.ctx.packet, 34)[0]
                            if _e2:
                                regs[5] = _u2(pkt.ctx.packet, 36)[0]
                            if _e2:
                                regs[8] = 0x0
                            if _e2:
                                regs[1] = 0x30000001
                            if not pkt.done:
                                if _e2:
                                    _p4(pkt.stack, 496, regs[2] & 0xffffffff)
                                if _e2:
                                    _p4(pkt.stack, 500, regs[3] & 0xffffffff)
                                if _e2:
                                    _p2(pkt.stack, 504, regs[4] & 0xffff)
                                if _e2:
                                    _p2(pkt.stack, 506, regs[5] & 0xffff)
                                if _e2:
                                    _p4(pkt.stack, 508, regs[8] & 0xffffffff)
                                if _e2:
                                    regs[2] = regs[10] & 0xffffffffffffffff
                                if _e2:
                                    regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
                                if not pkt.done:
                                    if _e2:
                                        _fd = regs[1] - 0x30000000
                                        _e = sim._map_entry.get(_fd) or sim._map_entry_for(_fd)
                                        if _e is None:
                                            sim._drop(pkt)
                                        else:
                                            _m, _ks, _vs, _mb, _lk = _e
                                            _a = regs[2]
                                            if 0x200000 <= _a < 0x200200 and _a - 0x200000 + _ks <= 512:
                                                _o = _a - 0x200000
                                                _k = bytes(pkt.stack[_o:_o + _ks])
                                            else:
                                                _k = sim._read_plain(pkt, _a, _ks)
                                            if _k is not None:
                                                _sl = _lk(_k)
                                                regs[0] = 0 if _sl is None else _mb + _sl * _vs
                                        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
                                    if not pkt.done:
                                        if _e2:
                                            if (regs[0] & 0xffffffffffffffff) != 0x0:
                                                _e5 = True
                                            else:
                                                _e3 = True
                                        if not pkt.done:
                                            if _e3:
                                                regs[2] = _u4(pkt.ctx.packet, 30)[0]
                                            if _e3:
                                                regs[3] = _u4(pkt.ctx.packet, 26)[0]
                                            if _e3:
                                                regs[4] = _u2(pkt.ctx.packet, 36)[0]
                                            if _e3:
                                                regs[5] = _u2(pkt.ctx.packet, 34)[0]
                                            if _e3:
                                                regs[1] = 0x30000001
                                            if not pkt.done:
                                                if _e3:
                                                    _p4(pkt.stack, 496, regs[2] & 0xffffffff)
                                                if _e3:
                                                    _p4(pkt.stack, 500, regs[3] & 0xffffffff)
                                                if _e3:
                                                    _p2(pkt.stack, 504, regs[4] & 0xffff)
                                                if _e3:
                                                    _p2(pkt.stack, 506, regs[5] & 0xffff)
                                                if _e3:
                                                    regs[2] = regs[10] & 0xffffffffffffffff
                                                if _e3:
                                                    regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
                                                if not pkt.done:
                                                    if _e3:
                                                        _fd = regs[1] - 0x30000000
                                                        _e = sim._map_entry.get(_fd) or sim._map_entry_for(_fd)
                                                        if _e is None:
                                                            sim._drop(pkt)
                                                        else:
                                                            _m, _ks, _vs, _mb, _lk = _e
                                                            _a = regs[2]
                                                            if 0x200000 <= _a < 0x200200 and _a - 0x200000 + _ks <= 512:
                                                                _o = _a - 0x200000
                                                                _k = bytes(pkt.stack[_o:_o + _ks])
                                                            else:
                                                                _k = sim._read_plain(pkt, _a, _ks)
                                                            if _k is not None:
                                                                _sl = _lk(_k)
                                                                regs[0] = 0 if _sl is None else _mb + _sl * _vs
                                                        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
                                                    if not pkt.done:
                                                        if _e3:
                                                            if (regs[0] & 0xffffffffffffffff) != 0x0:
                                                                _e5 = True
                                                            else:
                                                                _e4 = True
                                                        if not pkt.done:
                                                            if _e4:
                                                                regs[0] = 0x1
                                                            if not pkt.done:
                                                                if _e4:
                                                                    pkt.done = True
                                                                    pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
                                                                if not pkt.done:
                                                                    if _e5:
                                                                        regs[1] = 0x1
                                                                    if not pkt.done:
                                                                        if _e5:
                                                                            _a = regs[0] & 0xffffffffffffffff
                                                                            if _a < 0x40000000 or pkt.pending_writes:
                                                                                sim._atomic(pkt, _i1, _a)
                                                                            else:
                                                                                _sp = _a - 0x40000000
                                                                                _fd = _sp >> 24
                                                                                _o = _sp & 0xffffff
                                                                                _st = sim.maps[_fd].storage
                                                                                if _o + 8 > len(_st):
                                                                                    sim._drop(pkt)
                                                                                else:
                                                                                    _old = _u8(_st, _o)[0]
                                                                                    _sv = regs[1] & 0xffffffffffffffff
                                                                                    _new = (_old + _sv) & 0xffffffffffffffff
                                                                                    _p8(_st, _o, _new)
                                                                        if not pkt.done:
                                                                            if _e5:
                                                                                regs[0] = 0x3
                                                                            if not pkt.done:
                                                                                if _e5:
                                                                                    pkt.done = True
                                                                                    pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
                                                                                if not pkt.done:
                                                                                    if _e6:
                                                                                        regs[0] = 0x2
                                                                                    if not pkt.done:
                                                                                        if _e6:
                                                                                            pkt.done = True
                                                                                            pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
        if pkt.pending_writes:
            sim._finalize(pkt)
        elif not pkt.done:
            pkt.action = _ABORTED
        _act = pkt.action
        if _act is None:
            _act = _PASS
        _cnt[_act] = _cnt.get(_act, 0) + 1
        if keep_records:
            _recs.append(_PR(pid=pid, action=_act, data=bytes(_c.packet), arrival_cycle=cycle, inject_cycle=cycle, exit_cycle=cycle + 22, restarts=0))
        pid += 1
        cycle += gap
    if pid:
        report.cycles = (pid - 1) * gap + 23
    report.packets_in += pid
    report.packets_out += pid
    _ac = report.action_counts
    for _k, _v in _cnt.items():
        _ac[_k] = _ac.get(_k, 0) + _v
    report.sum_total_cycles += pid * 22
    report.sum_pipeline_cycles += pid * 22
    return pid

_STAGE_FNS = (_s1, _s2, _s3, _s4, _s5, _s6, _s7, None, _s9, _s10, _s11, _s12, None, _s14, _s15, _s16, _s17, _s18, _s19, _s20, _s21, _s22,)
_ENTRY = _entry
_ADVANCE = _advance
_OBSERVE = _observe
_STREAM = _stream

