"""Generated RTL evaluation schedule for 'firewall'.

RTL_CODEGEN_VERSION = 7; regenerated whenever the netlist or the
generator changes (repro.rtl.codegen). Event-driven: the dirty bytearray NQ
doubles as the queue — levelized indices mean marks always land ahead of the
scan, so settle is a single NQ.find(1) sweep; gated primitives stay live
while requested by re-marking their own slot.
nodes=58 procs=19 nets=121 ranks=5 fused=26->8
"""

from repro.rtl.codegen import VmError, _CH_OP_HELPER, _CH_OP_NAMES, atomic_step, channel_step

def _e0(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1271
    V[14] = (1) & 1

def _e1(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1272
    V[15] = 0

def _e2(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1273
    V[16] = 0

def _e3(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1274
    V[7] = (1) & 1

def _e4(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1275
    _o1 = V[17]
    _v2 = _o1 & 0x1ffffffffffff000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 | ((((V[3] << 16) | V[4])) & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff)
    if _v2 != _o1:
        V[17] = _v2
        NQ[29] = 1

def _e5(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1276
    _o3 = V[17]
    _v4 = _o3 & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
    if _v4 != _o3:
        V[17] = _v4
        NQ[29] = 1

def _e6(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1287
    _v5 = (1) & 0xffffffff
    if V[27] != _v5:
        V[27] = _v5
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e7(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1290
    _o6 = V[28]
    _v7 = _o6 & 0x1ffffffffffffffffffffffff0000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
    if _v7 != _o6:
        V[28] = _v7
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e8(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1293
    _o8 = V[28]
    _v9 = _o8 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((0x100100) & 0xffffffffffffffff) << 577)
    if _v9 != _o8:
        V[28] = _v9
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e9(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1302
    V[115] = 0

def _e10(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e13

def _e11(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s007:493
    _v10 = (1) & 0xff
    if V[85] != _v10:
        V[85] = _v10
        NQ[34] = 1

def _e12(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s007:494
    if V[86]:
        V[86] = 0
        NQ[34] = 1

def _e13(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s007:492
    _v11 = ((1 if ((V[44] == 1) and ((V[45] >> 2 & 1) == 1)) and ((V[46] >> 544 & 1) == 0) else 0)) & 1
    if V[84] != _v11:
        V[84] = _v11
        NQ[34] = 1
    # [conc r0] ehdl_firewall/s007:495
    _v12 = (V[46] >> 769 & 0xffffffffffffffffffffffffffffffff)
    if V[87] != _v12:
        V[87] = _v12
        NQ[34] = 1

def _e14(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s007:496
    if V[88]:
        V[88] = 0
        NQ[34] = 1

def _e15(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e18

def _e16(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s012:808
    _v13 = (1) & 0xff
    if V[90] != _v13:
        V[90] = _v13
        NQ[34] = 1

def _e17(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s012:809
    if V[91]:
        V[91] = 0
        NQ[34] = 1

def _e18(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s012:807
    _v14 = ((1 if ((V[59] == 1) and ((V[60] >> 3 & 1) == 1)) and ((V[61] >> 544 & 1) == 0) else 0)) & 1
    if V[89] != _v14:
        V[89] = _v14
        NQ[34] = 1
    # [conc r0] ehdl_firewall/s012:810
    _v15 = (V[61] >> 769 & 0xffffffffffffffffffffffffffffffff)
    if V[92] != _v15:
        V[92] = _v15
        NQ[34] = 1

def _e19(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s012:811
    if V[93]:
        V[93] = 0
        NQ[34] = 1

def _e20(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e24

def _e21(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s016:1011
    if V[95]:
        V[95] = 0
        NQ[40] = 1

def _e22(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s016:1012
    _v16 = (8) & 0xf
    if V[96] != _v16:
        V[96] = _v16
        NQ[40] = 1

def _e23(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e24

def _e24(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s016:1010
    _v17 = ((1 if ((V[71] == 1) and ((V[72] >> 5 & 1) == 1)) and ((V[73] >> 544 & 1) == 0) else 0)) & 1
    if V[94] != _v17:
        V[94] = _v17
        NQ[40] = 1
    # [conc r0] ehdl_firewall/s016:1013
    _v18 = (((V[73] >> 577 & 0xffffffffffffffff) + 0) & 0xffffffffffffffff)
    if V[97] != _v18:
        V[97] = _v18
        NQ[40] = 1
    # [conc r0] ehdl_firewall/s016:1014
    _v19 = (V[73] >> 641 & 0xffffffffffffffff)
    if V[98] != _v19:
        V[98] = _v19
        NQ[40] = 1

def _e25(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall/s016:1015
    if V[99]:
        V[99] = 0
        NQ[40] = 1

def _e26(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1539
    if V[83]:
        V[83] = 0
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)
        if not PQ[2]:
            PQ[2] = 1
            PEND.append(2)
        if not PQ[3]:
            PQ[3] = 1
            PEND.append(3)
        if not PQ[4]:
            PQ[4] = 1
            PEND.append(4)
        if not PQ[5]:
            PQ[5] = 1
            PEND.append(5)
        if not PQ[6]:
            PQ[6] = 1
            PEND.append(6)
        if not PQ[7]:
            PQ[7] = 1
            PEND.append(7)
        if not PQ[8]:
            PQ[8] = 1
            PEND.append(8)
        if not PQ[9]:
            PQ[9] = 1
            PEND.append(9)
        if not PQ[10]:
            PQ[10] = 1
            PEND.append(10)
        if not PQ[11]:
            PQ[11] = 1
            PEND.append(11)
        if not PQ[12]:
            PQ[12] = 1
            PEND.append(12)
        if not PQ[13]:
            PQ[13] = 1
            PEND.append(13)
        if not PQ[14]:
            PQ[14] = 1
            PEND.append(14)
        if not PQ[15]:
            PQ[15] = 1
            PEND.append(15)
        if not PQ[16]:
            PQ[16] = 1
            PEND.append(16)
        if not PQ[17]:
            PQ[17] = 1
            PEND.append(17)
        if not PQ[18]:
            PQ[18] = 1
            PEND.append(18)

def _e27(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1540
    _v20 = V[82]
    if V[117] != _v20:
        V[117] = _v20
        NQ[41] = 1

def _e28(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_firewall:1549
    V[12] = (1) & 1

def _e29(V, NQ, PEND, PQ, PRIMS, ACT):
    # [fifo r1] ehdl_async_fifo
    _v21 = V[17]
    if V[18] != _v21:
        V[18] = _v21
        NQ[43] = 1
    _v22 = ((0 if V[5] else 1)) & 1
    if V[19] != _v22:
        V[19] = _v22
        NQ[44] = 1
    V[20] = 0

def _e30(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e34

def _e31(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e34

def _e32(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e34

def _e33(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e34

def _e34(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r1] ehdl_firewall:1505
    _v23 = ((V[84] | V[89])) & 1
    if V[100] != _v23:
        V[100] = _v23
        NQ[45] = 1
    # [conc r1] ehdl_firewall:1506
    _v24 = ((V[85] if V[84] == 1 else (V[90] if V[89] == 1 else 0))) & 0xff
    if V[101] != _v24:
        V[101] = _v24
        NQ[45] = 1
    # [conc r1] ehdl_firewall:1507
    _v25 = ((V[86] if V[84] == 1 else (V[91] if V[89] == 1 else 0))) & 0xffffffffffffffff
    if V[102] != _v25:
        V[102] = _v25
        NQ[45] = 1
    # [conc r1] ehdl_firewall:1508
    _v26 = ((V[87] if V[84] == 1 else (V[92] if V[89] == 1 else 0))) & 0xffffffffffffffffffffffffffffffff
    if V[103] != _v26:
        V[103] = _v26
        NQ[45] = 1
    # [conc r1] ehdl_firewall:1509
    _v27 = ((V[88] if V[84] == 1 else (V[93] if V[89] == 1 else 0))) & 0xffffffffffffffff
    if V[104] != _v27:
        V[104] = _v27
        NQ[45] = 1

def _e35(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e40

def _e36(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e40

def _e37(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e40

def _e38(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e40

def _e39(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e40

def _e40(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r1] ehdl_firewall:1510
    _v28 = V[94]
    if V[107] != _v28:
        V[107] = _v28
        NQ[54] = 1
    # [conc r1] ehdl_firewall:1511
    _v29 = ((V[95] if V[94] == 1 else 0)) & 0xff
    if V[108] != _v29:
        V[108] = _v29
        NQ[54] = 1
    # [conc r1] ehdl_firewall:1512
    _v30 = ((V[96] if V[94] == 1 else 0)) & 0xf
    if V[109] != _v30:
        V[109] = _v30
        NQ[54] = 1
    # [conc r1] ehdl_firewall:1513
    _v31 = ((V[97] if V[94] == 1 else 0)) & 0xffffffffffffffff
    if V[110] != _v31:
        V[110] = _v31
        NQ[54] = 1
    # [conc r1] ehdl_firewall:1514
    _v32 = ((V[98] if V[94] == 1 else 0)) & 0xffffffffffffffff
    if V[111] != _v32:
        V[111] = _v32
        NQ[54] = 1
    # [conc r1] ehdl_firewall:1515
    _v33 = ((V[99] if V[94] == 1 else 0)) & 0xffffffffffffffff
    if V[112] != _v33:
        V[112] = _v33
        NQ[54] = 1

def _e41(V, NQ, PEND, PQ, PRIMS, ACT):
    # [fifo r1] ehdl_async_fifo
    _v34 = V[117]
    if V[118] != _v34:
        V[118] = _v34
        NQ[49] = 1
    _v35 = ((0 if V[80] else 1)) & 1
    if V[119] != _v35:
        V[119] = _v35
        NQ[46] = 1
    V[120] = 0

def _e42(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e43

def _e43(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r2] ehdl_firewall:1282
    _v36 = (V[18] >> 16 & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff)
    if V[21] != _v36:
        V[21] = _v36
        NQ[52] = 1
        if not PQ[0] and V[26]:
            PQ[0] = 1
            PEND.append(0)
    # [conc r2] ehdl_firewall:1283
    _v37 = (V[18] & 0xffff)
    if V[22] != _v37:
        V[22] = _v37
        NQ[53] = 1

def _e44(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r2] ehdl_firewall:1286
    _v38 = (~V[19] & 1)
    if V[26] != _v38:
        V[26] = _v38
        if not PQ[0]:
            PQ[0] = 1
            PEND.append(0)
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e45(V, NQ, PEND, PQ, PRIMS, ACT):
    # [prim r2] firewall_map_1.ch0
    if V[100]:
        ACT[0] += 1
        _s39 = V[105]
        _s40 = V[106]
        _op = V[101]
        _cd = _op & 15
        if _cd == 4:
            _o = V[102] - 0x41000000
            _z = _op >> 4
            _st = PRIMS[2]
            if 0 <= _o < 0x1000000 and _o + _z <= len(_st):
                _oc = PRIMS[3]
                _oc["load"] = _oc.get("load", 0) + 1
                V[105] = ((int.from_bytes(_st[_o:_o + _z], "little")) & 0xffffffffffffffff)
                V[106] = 0
            else:
                PRIMS[0](V)
        elif _cd == 1:
            _oc = PRIMS[3]
            _oc["lookup"] = _oc.get("lookup", 0) + 1
            _sl = PRIMS[6](V[103].to_bytes(16, "little"))
            V[105] = ((0 if _sl is None else 0x41000000 + _sl * 8) & 0xffffffffffffffff)
            V[106] = 0
        elif _cd == 5:
            _o = V[102] - 0x41000000
            _z = _op >> 4
            _st = PRIMS[2]
            if 0 <= _o < 0x1000000 and _o + _z <= len(_st):
                _oc = PRIMS[3]
                _oc["store"] = _oc.get("store", 0) + 1
                _st[_o:_o + _z] = (V[104] & ((1 << (_z << 3)) - 1)).to_bytes(_z, "little")
                V[105] = 0
                V[106] = 0
            else:
                PRIMS[0](V)
        elif _cd in _CH_OP_HELPER:
            _nm = _CH_OP_NAMES[_cd]
            _oc = PRIMS[3]
            _oc[_nm] = _oc.get(_nm, 0) + 1
            _r, _sl, _if = channel_step(_CH_OP_HELPER[_cd], 1, PRIMS[4], V[103].to_bytes(16, "little"), V[104].to_bytes(8, "little") if _cd == 2 else None, V[102])
            if _if is not None:
                _sh = PRIMS[5].packet
                if _sh is not None:
                    _sh.redirect_ifindex = _if
            V[105] = ((_r) & 0xffffffffffffffff)
            V[106] = 0
        else:
            PRIMS[0](V)
        if V[105] != _s39 or V[106] != _s40:
            if not PQ[7] and V[44]:
                PQ[7] = 1
                PEND.append(7)
            if not PQ[12] and V[59]:
                PQ[12] = 1
                PEND.append(12)
        NQ[45] = 1
    else:
        if V[105]:
            V[105] = 0
            if not PQ[7] and V[44]:
                PQ[7] = 1
                PEND.append(7)
            if not PQ[12] and V[59]:
                PQ[12] = 1
                PEND.append(12)
        if V[106]:
            V[106] = 0
            if not PQ[7] and V[44]:
                PQ[7] = 1
                PEND.append(7)
            if not PQ[12] and V[59]:
                PQ[12] = 1
                PEND.append(12)

def _e46(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r2] ehdl_firewall:1546
    V[11] = (~V[119] & 1)

def _e47(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e49

def _e48(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e49

def _e49(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r2] ehdl_firewall:1547
    V[8] = (V[118] & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff)
    # [conc r2] ehdl_firewall:1548
    V[9] = (V[118] >> 512 & 0xffff)
    # [conc r2] ehdl_firewall:1550
    V[10] = (((V[118] >> 545 & 0xffffffff) if (V[118] >> 544 & 1) == 1 else 0)) & 0xffffffff

def _e50(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e53

def _e51(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e53

def _e52(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r3] ehdl_firewall:1288
    _o41 = V[28]
    _v42 = _o41 & 0x1ffffffffffffffffffffffffffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 | ((V[21]) & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff)
    if _v42 != _o41:
        V[28] = _v42
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e53(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r3] ehdl_firewall:1284
    _v43 = ((1 if V[22] < ((0x2a) & 0xffff) else 0)) & 1
    if V[23] != _v43:
        V[23] = _v43
        NQ[55] = 1
    # [conc r3] ehdl_firewall:1285
    _v44 = ((2 if V[22] < ((0x2a) & 0xffff) else 0)) & 0xffffffff
    if V[24] != _v44:
        V[24] = _v44
        NQ[56] = 1
    # [conc r3] ehdl_firewall:1289
    _o45 = V[28]
    _v46 = _o45 & 0x1ffffffffffffffffffffffffffff0000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((V[22]) & 0xffff) << 512)
    if _v46 != _o45:
        V[28] = _v46
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e54(V, NQ, PEND, PQ, PRIMS, ACT):
    # [prim r3] firewall_map_1.atomic
    if V[107]:
        ACT[1] += 1
        _s47 = V[114]
        _o = V[110] - 0x41000000
        _z = V[109]
        _st = PRIMS[2]
        if 0 <= _o < 0x1000000 and _o + _z <= len(_st):
            _old = int.from_bytes(_st[_o:_o + _z], "little")
            try:
                _new = atomic_step(V[108], _old, V[111], V[112], (1 << (_z << 3)) - 1)
            except VmError:
                PRIMS[1](V)
            else:
                _oc = PRIMS[3]
                _oc["atomic"] = _oc.get("atomic", 0) + 1
                _st[_o:_o + _z] = _new.to_bytes(_z, "little")
                V[113] = ((_old) & 0xffffffffffffffff)
                V[114] = 0
        else:
            PRIMS[1](V)
        if V[114] != _s47:
            if not PQ[16] and V[71]:
                PQ[16] = 1
                PEND.append(16)
        NQ[54] = 1
    else:
        V[113] = 0
        if V[114]:
            V[114] = 0
            if not PQ[16] and V[71]:
                PQ[16] = 1
                PEND.append(16)

def _e55(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r4] ehdl_firewall:1291
    _o48 = V[28]
    _v49 = _o48 & 0x1fffffffffffffffffffffffeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((V[23]) & 1) << 544)
    if _v49 != _o48:
        V[28] = _v49
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e56(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r4] ehdl_firewall:1292
    _o50 = V[28]
    _v51 = _o50 & 0x1fffffffffffffffe00000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((V[24]) & 0xffffffff) << 545)
    if _v51 != _o50:
        V[28] = _v51
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e57(V, NQ, PEND, PQ, PRIMS, ACT):
    # [tie r4] firewall_map_1.tie
    V[116] = 0

def _f0(V, NQ, PEND, PQ):
    t25 = V[25]
    if V[26] == 1:
        t25 = V[21]
    V[25] = t25

def _f1(V, NQ, PEND, PQ):
    t29 = V[29]
    t30 = V[30]
    t31 = V[31]
    if (V[2] == 1) or (V[83] == 1):
        t29 = 0
    else:
        t29 = V[26]
        t30 = V[27]
        t31 = V[28] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[28] << 64) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[26] == 1) and ((V[27] & 1) == 1)) and ((V[28] >> 544 & 1) == 0):
            if (V[28] >> 512 & 0xffff) < ((0xe) & 0xffff):
                t31 = t31 & 0x1fffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t31 = t31 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[28] >> 96 & 0xffff) << 577)
    if V[29] != t29 or V[30] != t30 or V[31] != t31:
        V[29] = t29
        V[30] = t30
        V[31] = t31
        if not PQ[2]:
            PQ[2] = 1
            PEND.append(2)

def _f2(V, NQ, PEND, PQ):
    t32 = V[32]
    t33 = V[33]
    t34 = V[34]
    if (V[2] == 1) or (V[83] == 1):
        t32 = 0
    else:
        t32 = V[29]
        t33 = V[30]
        t34 = V[31] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[31] >> 64) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[29] == 1) and ((V[30] & 1) == 1)) and ((V[31] >> 544 & 1) == 0):
            if (V[31] >> 577 & 0xffffffffffffffff) != 8:
                t33 = t33 & 0xffffffbf | 0x40
            else:
                t33 = t33 & 0xfffffffd | 2
    if V[32] != t32 or V[33] != t33 or V[34] != t34:
        V[32] = t32
        V[33] = t33
        V[34] = t34
        if not PQ[3]:
            PQ[3] = 1
            PEND.append(3)

def _f3(V, NQ, PEND, PQ):
    t35 = V[35]
    t36 = V[36]
    t37 = V[37]
    if (V[2] == 1) or (V[83] == 1):
        t35 = 0
    else:
        t35 = V[32]
        t36 = V[33]
        t37 = V[34] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[34] << 64) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[32] == 1) and ((V[33] >> 1 & 1) == 1)) and ((V[34] >> 544 & 1) == 0):
            if (V[34] >> 512 & 0xffff) < ((0x18) & 0xffff):
                t37 = t37 & 0x1fffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t37 = t37 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[34] >> 184 & 0xff) << 577)
    if V[35] != t35 or V[36] != t36 or V[37] != t37:
        V[35] = t35
        V[36] = t36
        V[37] = t37
        if not PQ[4]:
            PQ[4] = 1
            PEND.append(4)

def _f4(V, NQ, PEND, PQ):
    t38 = V[38]
    t39 = V[39]
    t40 = V[40]
    if (V[2] == 1) or (V[83] == 1):
        t38 = 0
    else:
        t38 = V[35]
        t39 = V[36]
        t40 = V[37] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[37] >> 64) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[35] == 1) and ((V[36] >> 1 & 1) == 1)) and ((V[37] >> 544 & 1) == 0):
            if (V[37] >> 577 & 0xffffffffffffffff) != 0x11:
                t39 = t39 & 0xffffffbf | 0x40
            else:
                t39 = t39 & 0xfffffffb | 4
    if V[38] != t38 or V[39] != t39 or V[40] != t40:
        V[38] = t38
        V[39] = t39
        V[40] = t40
        if not PQ[5]:
            PQ[5] = 1
            PEND.append(5)

def _f5(V, NQ, PEND, PQ):
    t41 = V[41]
    t42 = V[42]
    t43 = V[43]
    if (V[2] == 1) or (V[83] == 1):
        t41 = 0
    else:
        t41 = V[38]
        t42 = V[39]
        t43 = V[40] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[40] << 384) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[38] == 1) and ((V[39] >> 2 & 1) == 1)) and ((V[40] >> 544 & 1) == 0):
            if (V[40] >> 512 & 0xffff) < ((0x1e) & 0xffff):
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[40] >> 208 & 0xffffffff) << 705)
        if (((V[38] == 1) and ((V[39] >> 2 & 1) == 1)) and ((V[40] >> 544 & 1) == 0)) and ((0 if (V[40] >> 512 & 0xffff) < ((0x1e) & 0xffff) else 1)):
            if (V[40] >> 512 & 0xffff) < ((0x22) & 0xffff):
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[40] >> 240 & 0xffffffff) << 769)
        if ((((V[38] == 1) and ((V[39] >> 2 & 1) == 1)) and ((V[40] >> 544 & 1) == 0)) and ((0 if (V[40] >> 512 & 0xffff) < ((0x1e) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1)):
            if (V[40] >> 512 & 0xffff) < ((0x24) & 0xffff):
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[40] >> 272 & 0xffff) << 833)
        if (((((V[38] == 1) and ((V[39] >> 2 & 1) == 1)) and ((V[40] >> 544 & 1) == 0)) and ((0 if (V[40] >> 512 & 0xffff) < ((0x1e) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x24) & 0xffff) else 1)):
            if (V[40] >> 512 & 0xffff) < ((0x26) & 0xffff):
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[40] >> 288 & 0xffff) << 897)
        if ((((((V[38] == 1) and ((V[39] >> 2 & 1) == 1)) and ((V[40] >> 544 & 1) == 0)) and ((0 if (V[40] >> 512 & 0xffff) < ((0x1e) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x24) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x26) & 0xffff) else 1)):
            t43 = t43 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((((((V[38] == 1) and ((V[39] >> 2 & 1) == 1)) and ((V[40] >> 544 & 1) == 0)) and ((0 if (V[40] >> 512 & 0xffff) < ((0x1e) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x24) & 0xffff) else 1))) and ((0 if (V[40] >> 512 & 0xffff) < ((0x26) & 0xffff) else 1)):
            t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x600000020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[38] == 1) and ((V[39] >> 6 & 1) == 1)) and ((V[40] >> 544 & 1) == 0):
            t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x4000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[41] != t41 or V[42] != t42 or V[43] != t43:
        V[41] = t41
        V[42] = t42
        V[43] = t43
        if not PQ[6]:
            PQ[6] = 1
            PEND.append(6)

def _f6(V, NQ, PEND, PQ):
    t44 = V[44]
    t45 = V[45]
    t46 = V[46]
    if (V[2] == 1) or (V[83] == 1):
        t44 = 0
    else:
        t44 = V[41]
        t45 = V[42]
        t46 = V[43] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[43] >> 64) & 0x1fffffffffffffffffffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 | (V[43] >> 256) & 0x1fffffffffffffffe00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[41] == 1) and ((V[42] >> 2 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1fffffffffffffffffffffffe00000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[43] >> 705 & 0xffffffffffffffff)) & 0xffffffff) << 769)
        if ((V[41] == 1) and ((V[42] >> 2 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1fffffffffffffffe00000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[43] >> 769 & 0xffffffffffffffff)) & 0xffffffff) << 801)
        if ((V[41] == 1) and ((V[42] >> 2 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1fffffffffffe0001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[43] >> 833 & 0xffffffffffffffff)) & 0xffff) << 833)
        if ((V[41] == 1) and ((V[42] >> 2 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1fffffffe0001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[43] >> 897 & 0xffffffffffffffff)) & 0xffff) << 849)
        if ((V[41] == 1) and ((V[42] >> 2 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[43] >> 1025 & 0xffffffffffffffff)) & 0xffffffff) << 865)
        if ((V[41] == 1) and ((V[42] >> 2 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x4004000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[41] == 1) and ((V[42] >> 2 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((0x200200 + 0xfffffffffffffff0) & 0xffffffffffffffff) << 641)
        if ((V[41] == 1) and ((V[42] >> 6 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            t46 = t46 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[43] >> 577 & 0xffffffffffffffff)) & 0xffffffff) << 545)
    if V[44] != t44 or V[45] != t45 or V[46] != t46:
        V[44] = t44
        V[45] = t45
        V[46] = t46
        NQ[13] = 1
        if not PQ[7]:
            PQ[7] = 1
            PEND.append(7)

def _f7(V, NQ, PEND, PQ):
    t47 = V[47]
    t48 = V[48]
    t49 = V[49]
    if (V[2] == 1) or (V[83] == 1):
        t47 = 0
    else:
        t47 = V[44]
        t48 = V[45]
        t49 = V[46] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[46] >> 64) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 | (V[46] >> 160) & 0x1fffffffe00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[44] == 1) and ((V[45] >> 2 & 1) == 1)) and ((V[46] >> 544 & 1) == 0):
            if V[106] == 1:
                t49 = t49 & 0x1fffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t49 = t49 & 0x1fffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[105] << 577) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[47] != t47 or V[48] != t48 or V[49] != t49:
        V[47] = t47
        V[48] = t48
        V[49] = t49
        if not PQ[8]:
            PQ[8] = 1
            PEND.append(8)

def _f8(V, NQ, PEND, PQ):
    t50 = V[50]
    t51 = V[51]
    t52 = V[52]
    if (V[2] == 1) or (V[83] == 1):
        t50 = 0
    else:
        t50 = V[47]
        t51 = V[48]
        t52 = V[49]
    if V[50] != t50 or V[51] != t51 or V[52] != t52:
        V[50] = t50
        V[51] = t51
        V[52] = t52
        if not PQ[9]:
            PQ[9] = 1
            PEND.append(9)

def _f9(V, NQ, PEND, PQ):
    t53 = V[53]
    t54 = V[54]
    t55 = V[55]
    if (V[2] == 1) or (V[83] == 1):
        t53 = 0
    else:
        t53 = V[50]
        t54 = V[51]
        t55 = V[52]
        if ((V[50] == 1) and ((V[51] >> 2 & 1) == 1)) and ((V[52] >> 544 & 1) == 0):
            if (V[52] >> 577 & 0xffffffffffffffff) != 0:
                t54 = t54 & 0xffffffdf | 0x20
            else:
                t54 = t54 & 0xfffffff7 | 8
    if V[53] != t53 or V[54] != t54 or V[55] != t55:
        V[53] = t53
        V[54] = t54
        V[55] = t55
        if not PQ[10]:
            PQ[10] = 1
            PEND.append(10)

def _f10(V, NQ, PEND, PQ):
    t56 = V[56]
    t57 = V[57]
    t58 = V[58]
    if (V[2] == 1) or (V[83] == 1):
        t56 = 0
    else:
        t56 = V[53]
        t57 = V[54]
        t58 = V[55] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[55] << 320) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 | (V[55] << 416) & 0x1fffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[53] == 1) and ((V[54] >> 3 & 1) == 1)) and ((V[55] >> 544 & 1) == 0):
            if (V[55] >> 512 & 0xffff) < ((0x22) & 0xffff):
                t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[55] >> 240 & 0xffffffff) << 705)
        if (((V[53] == 1) and ((V[54] >> 3 & 1) == 1)) and ((V[55] >> 544 & 1) == 0)) and ((0 if (V[55] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1)):
            if (V[55] >> 512 & 0xffff) < ((0x1e) & 0xffff):
                t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[55] >> 208 & 0xffffffff) << 769)
        if ((((V[53] == 1) and ((V[54] >> 3 & 1) == 1)) and ((V[55] >> 544 & 1) == 0)) and ((0 if (V[55] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1))) and ((0 if (V[55] >> 512 & 0xffff) < ((0x1e) & 0xffff) else 1)):
            if (V[55] >> 512 & 0xffff) < ((0x26) & 0xffff):
                t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[55] >> 288 & 0xffff) << 833)
        if (((((V[53] == 1) and ((V[54] >> 3 & 1) == 1)) and ((V[55] >> 544 & 1) == 0)) and ((0 if (V[55] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1))) and ((0 if (V[55] >> 512 & 0xffff) < ((0x1e) & 0xffff) else 1))) and ((0 if (V[55] >> 512 & 0xffff) < ((0x26) & 0xffff) else 1)):
            if (V[55] >> 512 & 0xffff) < ((0x24) & 0xffff):
                t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[55] >> 272 & 0xffff) << 897)
        if ((((((V[53] == 1) and ((V[54] >> 3 & 1) == 1)) and ((V[55] >> 544 & 1) == 0)) and ((0 if (V[55] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1))) and ((0 if (V[55] >> 512 & 0xffff) < ((0x1e) & 0xffff) else 1))) and ((0 if (V[55] >> 512 & 0xffff) < ((0x26) & 0xffff) else 1))) and ((0 if (V[55] >> 512 & 0xffff) < ((0x24) & 0xffff) else 1)):
            t58 = t58 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x600000020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[56] != t56 or V[57] != t57 or V[58] != t58:
        V[56] = t56
        V[57] = t57
        V[58] = t58
        if not PQ[11]:
            PQ[11] = 1
            PEND.append(11)

def _f11(V, NQ, PEND, PQ):
    t59 = V[59]
    t60 = V[60]
    t61 = V[61]
    if (V[2] == 1) or (V[83] == 1):
        t59 = 0
    else:
        t59 = V[56]
        t60 = V[57]
        t61 = V[58] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[58] >> 256) & 0x1fffffffffffffffffffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            t61 = t61 & 0x1fffffffffffffffffffffffe00000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[58] >> 705 & 0xffffffffffffffff)) & 0xffffffff) << 769)
        if ((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            t61 = t61 & 0x1fffffffffffffffe00000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[58] >> 769 & 0xffffffffffffffff)) & 0xffffffff) << 801)
        if ((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            t61 = t61 & 0x1fffffffffffe0001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[58] >> 833 & 0xffffffffffffffff)) & 0xffff) << 833)
        if ((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            t61 = t61 & 0x1fffffffe0001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[58] >> 897 & 0xffffffffffffffff)) & 0xffff) << 849)
        if ((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            t61 = t61 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x40040000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            t61 = t61 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((0x200200 + 0xfffffffffffffff0) & 0xffffffffffffffff) << 705)
    if V[59] != t59 or V[60] != t60 or V[61] != t61:
        V[59] = t59
        V[60] = t60
        V[61] = t61
        NQ[18] = 1
        if not PQ[12]:
            PQ[12] = 1
            PEND.append(12)

def _f12(V, NQ, PEND, PQ):
    t62 = V[62]
    t63 = V[63]
    t64 = V[64]
    if (V[2] == 1) or (V[83] == 1):
        t62 = 0
    else:
        t62 = V[59]
        t63 = V[60]
        t64 = V[61] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[59] == 1) and ((V[60] >> 3 & 1) == 1)) and ((V[61] >> 544 & 1) == 0):
            if V[106] == 1:
                t64 = t64 & 0x1fffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t64 = t64 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[105] << 577) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[62] != t62 or V[63] != t63 or V[64] != t64:
        V[62] = t62
        V[63] = t63
        V[64] = t64
        if not PQ[13]:
            PQ[13] = 1
            PEND.append(13)

def _f13(V, NQ, PEND, PQ):
    t65 = V[65]
    t66 = V[66]
    t67 = V[67]
    if (V[2] == 1) or (V[83] == 1):
        t65 = 0
    else:
        t65 = V[62]
        t66 = V[63]
        t67 = V[64]
    if V[65] != t65 or V[66] != t66 or V[67] != t67:
        V[65] = t65
        V[66] = t66
        V[67] = t67
        if not PQ[14]:
            PQ[14] = 1
            PEND.append(14)

def _f14(V, NQ, PEND, PQ):
    t68 = V[68]
    t69 = V[69]
    t70 = V[70]
    if (V[2] == 1) or (V[83] == 1):
        t68 = 0
    else:
        t68 = V[65]
        t69 = V[66]
        t70 = V[67]
        if ((V[65] == 1) and ((V[66] >> 3 & 1) == 1)) and ((V[67] >> 544 & 1) == 0):
            if (V[67] >> 577 & 0xffffffffffffffff) != 0:
                t69 = t69 & 0xffffffdf | 0x20
            else:
                t69 = t69 & 0xffffffef | 0x10
    if V[68] != t68 or V[69] != t69 or V[70] != t70:
        V[68] = t68
        V[69] = t69
        V[70] = t70
        if not PQ[15]:
            PQ[15] = 1
            PEND.append(15)

def _f15(V, NQ, PEND, PQ):
    t71 = V[71]
    t72 = V[72]
    t73 = V[73]
    if (V[2] == 1) or (V[83] == 1):
        t71 = 0
    else:
        t71 = V[68]
        t72 = V[69]
        t73 = V[70] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[68] == 1) and ((V[69] >> 4 & 1) == 1)) and ((V[70] >> 544 & 1) == 0):
            t73 = t73 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x2000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[68] == 1) and ((V[69] >> 5 & 1) == 1)) and ((V[70] >> 544 & 1) == 0):
            t73 = t73 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x20000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[71] != t71 or V[72] != t72 or V[73] != t73:
        V[71] = t71
        V[72] = t72
        V[73] = t73
        NQ[24] = 1
        if not PQ[16]:
            PQ[16] = 1
            PEND.append(16)

def _f16(V, NQ, PEND, PQ):
    t74 = V[74]
    t75 = V[75]
    t76 = V[76]
    if (V[2] == 1) or (V[83] == 1):
        t74 = 0
    else:
        t74 = V[71]
        t75 = V[72]
        t76 = V[73] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[71] == 1) and ((V[72] >> 4 & 1) == 1)) and ((V[73] >> 544 & 1) == 0):
            t76 = t76 & 0x1fffffffeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            t76 = t76 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[73] >> 577 & 0xffffffffffffffff)) & 0xffffffff) << 545)
        if ((V[71] == 1) and ((V[72] >> 5 & 1) == 1)) and ((V[73] >> 544 & 1) == 0):
            if V[114] == 1:
                t76 = t76 & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[74] != t74 or V[75] != t75 or V[76] != t76:
        V[74] = t74
        V[75] = t75
        V[76] = t76
        if not PQ[17]:
            PQ[17] = 1
            PEND.append(17)

def _f17(V, NQ, PEND, PQ):
    t77 = V[77]
    t78 = V[78]
    t79 = V[79]
    if (V[2] == 1) or (V[83] == 1):
        t77 = 0
    else:
        t77 = V[74]
        t78 = V[75]
        t79 = V[76] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[74] == 1) and ((V[75] >> 5 & 1) == 1)) and ((V[76] >> 544 & 1) == 0):
            t79 = t79 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x6000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[77] != t77 or V[78] != t78 or V[79] != t79:
        V[77] = t77
        V[78] = t78
        V[79] = t79
        if not PQ[18]:
            PQ[18] = 1
            PEND.append(18)

def _f18(V, NQ, PEND, PQ):
    t80 = V[80]
    t81 = V[81]
    t82 = V[82]
    if (V[2] == 1) or (V[83] == 1):
        t80 = 0
    else:
        t80 = V[77]
        t81 = V[78]
        t82 = V[79] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[77] == 1) and ((V[78] >> 5 & 1) == 1)) and ((V[79] >> 544 & 1) == 0):
            t82 = t82 & 0x1fffffffeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            t82 = t82 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[79] >> 577 & 0xffffffffffffffff)) & 0xffffffff) << 545)
    if V[80] != t80:
        V[80] = t80
        NQ[41] = 1
    V[81] = t81
    if V[82] != t82:
        V[82] = t82
        NQ[27] = 1

_EVAL = (_e0, _e1, _e2, _e3, _e4, _e5, _e6, _e7, _e8, _e9, _e10, _e11, _e12, _e13, _e14, _e15, _e16, _e17, _e18, _e19, _e20, _e21, _e22, _e23, _e24, _e25, _e26, _e27, _e28, _e29, _e30, _e31, _e32, _e33, _e34, _e35, _e36, _e37, _e38, _e39, _e40, _e41, _e42, _e43, _e44, _e45, _e46, _e47, _e48, _e49, _e50, _e51, _e52, _e53, _e54, _e55, _e56, _e57)
_PFUSED = (_f0, _f1, _f2, _f3, _f4, _f5, _f6, _f7, _f8, _f9, _f10, _f11, _f12, _f13, _f14, _f15, _f16, _f17, _f18)
_READERS = {
    2: ((), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)),
    3: ((4,), ()),
    4: ((4,), ()),
    5: ((29,), ()),
    17: ((29,), ()),
    18: ((43,), ()),
    19: ((44,), ()),
    21: ((52,), (0,)),
    22: ((53,), ()),
    23: ((55,), ()),
    24: ((56,), ()),
    26: ((), (0, 1)),
    27: ((), (1,)),
    28: ((), (1,)),
    29: ((), (2,)),
    30: ((), (2,)),
    31: ((), (2,)),
    32: ((), (3,)),
    33: ((), (3,)),
    34: ((), (3,)),
    35: ((), (4,)),
    36: ((), (4,)),
    37: ((), (4,)),
    38: ((), (5,)),
    39: ((), (5,)),
    40: ((), (5,)),
    41: ((), (6,)),
    42: ((), (6,)),
    43: ((), (6,)),
    44: ((13,), (7,)),
    45: ((13,), (7,)),
    46: ((13,), (7,)),
    47: ((), (8,)),
    48: ((), (8,)),
    49: ((), (8,)),
    50: ((), (9,)),
    51: ((), (9,)),
    52: ((), (9,)),
    53: ((), (10,)),
    54: ((), (10,)),
    55: ((), (10,)),
    56: ((), (11,)),
    57: ((), (11,)),
    58: ((), (11,)),
    59: ((18,), (12,)),
    60: ((18,), (12,)),
    61: ((18,), (12,)),
    62: ((), (13,)),
    63: ((), (13,)),
    64: ((), (13,)),
    65: ((), (14,)),
    66: ((), (14,)),
    67: ((), (14,)),
    68: ((), (15,)),
    69: ((), (15,)),
    70: ((), (15,)),
    71: ((24,), (16,)),
    72: ((24,), (16,)),
    73: ((24,), (16,)),
    74: ((), (17,)),
    75: ((), (17,)),
    76: ((), (17,)),
    77: ((), (18,)),
    78: ((), (18,)),
    79: ((), (18,)),
    80: ((41,), ()),
    82: ((27,), ()),
    83: ((), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)),
    84: ((34,), ()),
    85: ((34,), ()),
    86: ((34,), ()),
    87: ((34,), ()),
    88: ((34,), ()),
    89: ((34,), ()),
    90: ((34,), ()),
    91: ((34,), ()),
    92: ((34,), ()),
    93: ((34,), ()),
    94: ((40,), ()),
    95: ((40,), ()),
    96: ((40,), ()),
    97: ((40,), ()),
    98: ((40,), ()),
    99: ((40,), ()),
    100: ((45,), ()),
    101: ((45,), ()),
    102: ((45,), ()),
    103: ((45,), ()),
    104: ((45,), ()),
    105: ((), (7, 12)),
    106: ((), (7, 12)),
    107: ((54,), ()),
    108: ((54,), ()),
    109: ((54,), ()),
    110: ((54,), ()),
    111: ((54,), ()),
    112: ((54,), ()),
    114: ((), (16,)),
    117: ((41,), ()),
    118: ((49,), ()),
    119: ((46,), ()),
}
_PRIO = (0, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)

def _mark(net, NQ, PEND, PQ):
    e = _READERS.get(net)
    if e is None:
        return
    for k in e[0]:
        NQ[k] = 1
    for p in e[1]:
        if not PQ[p]:
            PQ[p] = 1
            PEND.append(p)

def _settle(V, NQ, PEND, PQ, PRIMS, ACT, ev=_EVAL):
    nc = 0
    find = NQ.find
    pos = find(1)
    while pos >= 0:
        NQ[pos] = 0
        ev[pos](V, NQ, PEND, PQ, PRIMS, ACT)
        nc += 1
        pos = find(1, pos + 1)
    return nc

def _edge(V, NQ, PEND, PQ, pu=_PFUSED, prio=_PRIO):
    pr = 0
    n = len(PEND)
    if n == 1:
        pr += 1
        k = PEND.pop()
        PQ[k] = 0
        pu[k](V, NQ, PEND, PQ)
    elif n == 2:
        pr += 2
        b = PEND.pop()
        a = PEND.pop()
        if prio[a] > prio[b]:
            a, b = b, a
        PQ[a] = 0
        PQ[b] = 0
        pu[a](V, NQ, PEND, PQ)
        pu[b](V, NQ, PEND, PQ)
    elif n:
        pr += n
        cur = sorted(PEND, key=prio.__getitem__)
        for k in cur:
            PQ[k] = 0
        del PEND[:]
        for k in cur:
            pu[k](V, NQ, PEND, PQ)
    return pr

def _run(V, NQ, PEND, PQ, PRIMS, ACT, limit,
         ev=_EVAL, pu=_PFUSED, prio=_PRIO):
    # Fused cycles: settle, stop on m_axis_tvalid (edge
    # still pending for that cycle), else clock edge.
    nc = 0
    pr = 0
    find = NQ.find
    for done in range(limit):
        pos = find(1)
        while pos >= 0:
            NQ[pos] = 0
            ev[pos](V, NQ, PEND, PQ, PRIMS, ACT)
            nc += 1
            pos = find(1, pos + 1)
        if V[11]:
            return (done, 1, nc, pr)
        n = len(PEND)
        if n == 1:
            pr += 1
            k = PEND.pop()
            PQ[k] = 0
            pu[k](V, NQ, PEND, PQ)
        elif n == 2:
            pr += 2
            b = PEND.pop()
            a = PEND.pop()
            if prio[a] > prio[b]:
                a, b = b, a
            PQ[a] = 0
            PQ[b] = 0
            pu[a](V, NQ, PEND, PQ)
            pu[b](V, NQ, PEND, PQ)
        elif n:
            pr += n
            cur = sorted(PEND, key=prio.__getitem__)
            for k in cur:
                PQ[k] = 0
            del PEND[:]
            for k in cur:
                pu[k](V, NQ, PEND, PQ)
    return (limit, 0, nc, pr)

def _frame(V, NQ, PEND, PQ, PRIMS, ACT, span, data, tlen):
    # Inject one s_axis beat (marks inlined per port), run the
    # inject cycle, drop tvalid, run the rest of the window.
    _v52 = (1) & 1
    if V[5] != _v52:
        V[5] = _v52
        NQ[29] = 1
    V[6] = (1) & 1
    _v53 = (data) & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
    if V[3] != _v53:
        V[3] = _v53
        NQ[4] = 1
    _v54 = (tlen) & 0xffff
    if V[4] != _v54:
        V[4] = _v54
        NQ[4] = 1
    done, hit, nc, pr = _run(V, NQ, PEND, PQ, PRIMS, ACT, 1)
    if hit:
        return (0, 1, nc, pr)
    if V[5]:
        V[5] = 0
        NQ[29] = 1
    done, hit, nc2, pr2 = _run(V, NQ, PEND, PQ, PRIMS, ACT,
                               span - 1)
    return (done + 1, hit, nc + nc2, pr + pr2)

_GEN_VERSION = 7
_N_NODES = 58
_N_PROCS = 19
_PRIM_NODE_IDS = (45, 54)
_PRIM_LABELS = ('firewall_map_1.ch0', 'firewall_map_1.atomic')
_BIND = (('storage', 45), ('counts', 45), ('map', 45), ('context', 45), ('find', 45))

