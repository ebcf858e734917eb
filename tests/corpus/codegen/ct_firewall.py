"""Generated execution module for pipeline 'ct_firewall' (18 stages).

Emitted by repro.hwsim.codegen (CODEGEN_VERSION = 18); flush machinery included, map-read tracking included. Do not edit.
"""

import struct

from collections import deque as _deque
from repro.ebpf.maps import MapError, bank_of as _bank_of
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
_DROP = XdpAction.DROP
_i0 = Instruction(opcode=219, dst=0, src=1, off=0, imm=0, imm64=None)
_i1 = Instruction(opcode=219, dst=0, src=9, off=0, imm=0, imm64=None)
_i2 = Instruction(opcode=219, dst=0, src=1, off=0, imm=0, imm64=None)
_i3 = Instruction(opcode=219, dst=0, src=9, off=0, imm=0, imm64=None)
_pk_IIHHI = struct.Struct("<IIHHI").pack
_pk_Q = struct.Struct("<Q").pack

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
        enabled.update((10,) if regs[2] != 0x8 else (1,))
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
        enabled.update((3,) if regs[2] == 0x11 else (2,))
    return False

def _s5(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 2 in enabled:
        enabled.update((10,) if regs[2] != 0x6 else (3,))
    return False

def _s6(sim, pkt, slots, barrier_queues, input_queue, report, _u4=_u4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        regs[8] = _u4(pkt.ctx.packet, 26)[0]
    if 10 in enabled:
        regs[0] = 0x2
    return False

def _s7(sim, pkt, slots, barrier_queues, input_queue, report, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        regs[2] = regs[8]
    if 3 in enabled:
        regs[2] = regs[2] & 0xff
    if 10 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    return False

def _s8(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 3 in enabled:
        enabled.update((6,) if regs[2] == 0xa else (4,))
    return False

def _s9(sim, pkt, slots, barrier_queues, input_queue, report, _u2=_u2, _u4=_u4, _p4=_p4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 4 in enabled:
        regs[2] = _u4(pkt.ctx.packet, 30)[0]
    if 4 in enabled:
        _se = None
        _p4(pkt.stack, 500, regs[8] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(9)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 4 in enabled:
        regs[4] = _u2(pkt.ctx.packet, 36)[0]
    if not pkt.done and 4 in enabled:
        regs[5] = _u2(pkt.ctx.packet, 34)[0]
    if not pkt.done and 4 in enabled:
        regs[3] = 0x0
    if not pkt.done and 4 in enabled:
        regs[1] = 0x30000001
    if not pkt.done and 6 in enabled:
        regs[7] = 0x1
    if not pkt.done and 6 in enabled:
        regs[9] = 0x1
    if not pkt.done and 6 in enabled:
        _se = None
        _p4(pkt.stack, 496, regs[8] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(9)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 6 in enabled:
        regs[3] = _u4(pkt.ctx.packet, 30)[0]
    if not pkt.done and 6 in enabled:
        regs[4] = _u2(pkt.ctx.packet, 34)[0]
    if not pkt.done and 6 in enabled:
        regs[5] = _u2(pkt.ctx.packet, 36)[0]
    if not pkt.done and 6 in enabled:
        regs[1] = 0x30000001
    if not pkt.done and 6 in enabled:
        regs[2] = regs[10]
    if not pkt.done and 6 in enabled:
        regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
    return flushed

def _s10(sim, pkt, slots, barrier_queues, input_queue, report, _p2=_p2, _p4=_p4, _p8=_p8):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 4 in enabled:
        _se = None
        _p4(pkt.stack, 496, regs[2] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(10)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 4 in enabled:
        _se = None
        _p2(pkt.stack, 504, regs[4] & 0xffff)
        if _se is not None:
            pkt.take_snapshot(10)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 4 in enabled:
        _se = None
        _p2(pkt.stack, 506, regs[5] & 0xffff)
        if _se is not None:
            pkt.take_snapshot(10)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 4 in enabled:
        _se = None
        _p4(pkt.stack, 508, regs[3] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(10)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 4 in enabled:
        regs[2] = regs[10]
    if not pkt.done and 4 in enabled:
        regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
    if not pkt.done and 6 in enabled:
        _se = None
        _p8(pkt.stack, 480, regs[7] & 0xffffffffffffffff)
        if _se is not None:
            pkt.take_snapshot(10)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 6 in enabled:
        _se = None
        _p4(pkt.stack, 500, regs[3] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(10)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 6 in enabled:
        _se = None
        _p2(pkt.stack, 504, regs[4] & 0xffff)
        if _se is not None:
            pkt.take_snapshot(10)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 6 in enabled:
        _se = None
        _p2(pkt.stack, 506, regs[5] & 0xffff)
        if _se is not None:
            pkt.take_snapshot(10)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 6 in enabled:
        regs[3] = 0x0
    return flushed

def _s11(sim, pkt, slots, barrier_queues, input_queue, report, _p4=_p4):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 6 in enabled:
        _se = None
        _p4(pkt.stack, 508, regs[3] & 0xffffffff)
        if _se is not None:
            pkt.take_snapshot(11)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    return flushed

def _s12(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 4 in enabled:
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
    if not pkt.done and 6 in enabled:
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

def _s14(sim, pkt, slots, barrier_queues, input_queue, report):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 4 in enabled:
        regs[1] = 0x1
    if 4 in enabled:
        enabled.update((9,) if regs[0] == 0x0 else (5,))
    if 6 in enabled:
        regs[1] = 0x30000001
    if 6 in enabled:
        regs[2] = regs[10]
    if 6 in enabled:
        regs[2] = (regs[2] + 0xfffffffffffffff0) & 0xffffffffffffffff
    if 6 in enabled:
        regs[3] = regs[10]
    if 6 in enabled:
        regs[3] = (regs[3] + 0xffffffffffffffe0) & 0xffffffffffffffff
    if 6 in enabled:
        regs[4] = 0x0
    if 6 in enabled:
        enabled.update((8,) if regs[0] != 0x0 else (7,))
    return False

def _s15(sim, pkt, slots, barrier_queues, input_queue, report, _u8=_u8, _p8=_p8, _i0=_i0, _i1=_i1):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    flushed = False
    if 5 in enabled:
        _a = regs[0]
        _o = _a - 0x41000000
        _m = sim.maps.maps.get(1)
        if _m is not None and 0 <= _o <= len(_m.storage) - 8 <= 16777208:
            _old = _u8(_m.storage, _o)[0]
            _sv = regs[1]
            _p8(_m.storage, _o, (_old + _sv) & 0xffffffffffffffff)
            _se = ("atomic", 1)
        else:
            _se = sim._atomic(pkt, _i0, _a)
        if _se is not None:
            pkt.take_snapshot(15)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 7 in enabled:
        _se = sim._map_channel_call(pkt, 2)
        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
        if _se is not None:
            pkt.take_snapshot(15)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 8 in enabled:
        _a = regs[0]
        _o = _a - 0x41000000
        _m = sim.maps.maps.get(1)
        if _m is not None and 0 <= _o <= len(_m.storage) - 8 <= 16777208:
            _old = _u8(_m.storage, _o)[0]
            _sv = regs[9]
            _p8(_m.storage, _o, (_old + _sv) & 0xffffffffffffffff)
            _se = ("atomic", 1)
        else:
            _se = sim._atomic(pkt, _i1, _a)
        if _se is not None:
            pkt.take_snapshot(15)
            if sim._flush_check(pkt, _se, slots, barrier_queues, input_queue, report):
                flushed = True
    if not pkt.done and 9 in enabled:
        regs[0] = 0x1
    return flushed

def _s17(sim, pkt, slots, barrier_queues, input_queue, report, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        regs[0] = 0x2
    if 7 in enabled:
        regs[0] = 0x3
    if 8 in enabled:
        regs[0] = 0x3
    if 9 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    return False

def _s18(sim, pkt, slots, barrier_queues, input_queue, report, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED):
    if pkt.done:
        return False
    regs = pkt.regs
    enabled = pkt.enabled
    if 5 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    if not pkt.done and 7 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    if not pkt.done and 8 in enabled:
        pkt.done = True
        pkt.action = _ACTIONS.get(regs[0] & 0xffffffff, _ABORTED)
    return False

def _entry(sim, pkt):
    regs = pkt.regs
    regs[6] = 0x100100 + pkt.ctx.head_adjust

def _stream(sim, frames, gap, report, keep_records, _deque=_deque, MapError=MapError, _bank_of=_bank_of, SimError=SimError, _IF=_IF, _PR=_PR, _u1=_u1, _u2=_u2, _u4=_u4, _u8=_u8, _p8=_p8, _ACTIONS=_ACTIONS, _ABORTED=_ABORTED, _DROP=_DROP, _pk_IIHHI=_pk_IIHHI, _pk_Q=_pk_Q):
    pid = 0
    cycle = 0
    _cap = sim.options.input_queue_capacity
    _inq = _deque()
    _ring = [0] * 11
    _ri = 0
    _inj = _went = -1
    _free = [0] * 16
    _exit = _drops = _tot = _pip = 0
    _max = sim.options.max_cycles
    pkt = _IF(0, b"", 0)
    _c = pkt.ctx
    _u_IHH = struct.Struct("<IHH").unpack_from
    _m1 = sim.maps[1]
    _st1 = _m1.storage
    _lk1 = _m1._find
    _up1 = _m1._update
    _PASS = _ACTIONS[2]
    _TX = _ACTIONS[3]
    _cnt = {}
    _recs = report.records
    for frame in frames:
        while _inq and _inq[0] < cycle:
            _inq.popleft()
        if len(_inq) >= _cap:
            _drops += 1
            cycle += gap
            continue
        _inj += 1
        if cycle > _inj:
            _inj = cycle
        if _ring[_ri] > _inj:
            _inj = _ring[_ri]
        _inq.append(_inj)
        _b = _c.packet = frame
        _e1 = _e2 = _e3 = _e4 = _e5 = _e6 = _e7 = _e8 = _e9 = _e10 = False
        while True:
            _pl = len(_b)
            if _pl < 42:
                _act = _PASS
                break
            r2 = _u2(_b, 12)[0]
            if r2 != 0x8:
                _e10 = True
            else:
                _e1 = True
            if _e1:
                r2 = _u1(_b, 23)[0]
                if r2 == 0x11:
                    _e3 = True
                else:
                    _e2 = True
            if _e2:
                if r2 != 0x6:
                    _e10 = True
                else:
                    _e3 = True
            if _e3:
                r8 = _u4(_b, 26)[0]
                r2 = r8
                r2 = r2 & 0xff
                if r2 == 0xa:
                    _e6 = True
                else:
                    _e4 = True
            if _e4:
                _s496, _s506, _s504 = _u_IHH(_b, 30)
                _s500 = r8 & 0xffffffff
                r3 = 0x0
                _s508 = r3
                _sb496_16 = _pk_IIHHI(_s496, _s500, _s504, _s506, _s508)
                _bk = _bank_of(_sb496_16, 16)
                _sl = _lk1(_sb496_16, _bk)
                _v0 = None if _sl is None else _sl * 8
                r1 = 0x1
                if _v0 is None:
                    _e9 = True
                else:
                    _e5 = True
            if _e5:
                _old = _u8(_st1, _v0)[0]
                _sv = r1
                _p8(_st1, _v0, (_old + _sv) & 0xffffffffffffffff)
                _act = _PASS
                break
            if _e6:
                r7 = 0x1
                r9 = 0x1
                _s496 = r8 & 0xffffffff
                _s500, _s504, _s506 = _u_IHH(_b, 30)
                _s480 = r7
                r3 = 0x0
                _s508 = r3
                _sb496_16 = _pk_IIHHI(_s496, _s500, _s504, _s506, _s508)
                _bk = _bank_of(_sb496_16, 16)
                _sl = _lk1(_sb496_16, _bk)
                _v0 = None if _sl is None else _sl * 8
                r4 = 0x0
                if _v0 is not None:
                    _e8 = True
                else:
                    _e7 = True
            if _e7:
                try:
                    _up1(_sb496_16, _pk_Q(_s480), r4 & 0x3, _bk)
                except MapError:
                    pass
                _act = _TX
                break
            if _e8:
                _old = _u8(_st1, _v0)[0]
                _sv = r9
                _p8(_st1, _v0, (_old + _sv) & 0xffffffffffffffff)
                _act = _TX
                break
            if _e9:
                _act = _DROP
                break
            if _e10:
                _act = _PASS
                break
            _act = _ABORTED
            break
        _went += 1
        if _inj + 11 > _went:
            _went = _inj + 11
        if _e4 or _e6:
            if _free[_bk] > _went:
                _went = _free[_bk]
            _free[_bk] = _went + (1 if _e4 else 3 if _e7 else 2)
        _ring[_ri] = _went
        _ri += 1
        if _ri == 11:
            _ri = 0
        _exit = _went + 7
        if _exit >= _max:
            raise SimError("simulation exceeded %d cycles" % _max)
        _tot += _exit - cycle
        _pip += _exit - _inj
        _cnt[_act] = _cnt.get(_act, 0) + 1
        if keep_records:
            _recs.append(_PR(pid=pid, action=_act, data=bytes(_b), arrival_cycle=cycle, inject_cycle=_inj, exit_cycle=_exit, restarts=0))
        pid += 1
        cycle += gap
    if pid:
        report.cycles = _exit + 1
    report.packets_in += pid
    report.packets_out += pid
    report.packets_dropped_queue += _drops
    _ac = report.action_counts
    for _k, _v in _cnt.items():
        _ac[_k] = _ac.get(_k, 0) + _v
    report.sum_total_cycles += _tot
    report.sum_pipeline_cycles += _pip
    return pid

_STAGE_FNS = (_s1, _s2, _s3, _s4, _s5, _s6, _s7, _s8, _s9, _s10, _s11, _s12, None, _s14, _s15, None, _s17, _s18,)
_ENTRY = _entry
_STREAM = _stream
_STREAM_SHAPE = "2 of 2 lookups, 1 of 1 writes folded, 0 spill sites, 6 stack slots, 2 of 2 value accesses by slot, 2 coalesced runs"

