"""Generated RTL evaluation schedule for 'router_rmw'.

RTL_CODEGEN_VERSION = 7; regenerated whenever the netlist or the
generator changes (repro.rtl.codegen). Event-driven: the dirty bytearray NQ
doubles as the queue — levelized indices mean marks always land ahead of the
scan, so settle is a single NQ.find(1) sweep; gated primitives stay live
while requested by re-marking their own slot.
nodes=95 procs=29 nets=189 ranks=5 fused=40->15
"""

from repro.rtl.codegen import _CH_OP_HELPER, _CH_OP_NAMES, _bswap16, channel_step

def _e0(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:1988
    V[14] = (1) & 1

def _e1(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:1989
    V[15] = 0

def _e2(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:1990
    V[16] = 0

def _e3(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:1991
    V[7] = (1) & 1

def _e4(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:1992
    _o1 = V[17]
    _v2 = _o1 & 0x1ffffffffffff000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 | ((((V[3] << 16) | V[4])) & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff)
    if _v2 != _o1:
        V[17] = _v2
        NQ[64] = 1

def _e5(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:1993
    _o3 = V[17]
    _v4 = _o3 & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
    if _v4 != _o3:
        V[17] = _v4
        NQ[64] = 1

def _e6(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:2004
    _v5 = (1) & 0xffffffff
    if V[27] != _v5:
        V[27] = _v5
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e7(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:2007
    _o6 = V[28]
    _v7 = _o6 & 0x1ffffffffffffffffffffffff0000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
    if _v7 != _o6:
        V[28] = _v7
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e8(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:2010
    _o8 = V[28]
    _v9 = _o8 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((0x100100) & 0xffffffffffffffff) << 577)
    if _v9 != _o8:
        V[28] = _v9
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e9(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:2019
    V[166] = 0

def _e10(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:2020
    V[176] = 0

def _e11(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e14

def _e12(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s008:531
    _v10 = (1) & 0xff
    if V[115] != _v10:
        V[115] = _v10
        NQ[70] = 1

def _e13(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s008:532
    if V[116]:
        V[116] = 0
        NQ[70] = 1

def _e14(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s008:530
    _v11 = ((1 if ((V[47] == 1) and ((V[48] >> 2 & 1) == 1)) and ((V[49] >> 544 & 1) == 0) else 0)) & 1
    if V[114] != _v11:
        V[114] = _v11
        NQ[70] = 1
    # [conc r0] ehdl_router_rmw/s008:533
    _v12 = (V[49] >> 769 & 0xffffffff)
    if V[117] != _v12:
        V[117] = _v12
        NQ[70] = 1

def _e15(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s008:534
    if V[118]:
        V[118] = 0
        NQ[70] = 1

def _e16(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e18

def _e17(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s012:752
    _v13 = (0x44) & 0xff
    if V[120] != _v13:
        V[120] = _v13
        NQ[70] = 1

def _e18(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s012:751
    _v14 = ((1 if ((V[59] == 1) and ((V[60] >> 3 & 1) == 1)) and ((V[61] >> 544 & 1) == 0) else 0)) & 1
    if V[119] != _v14:
        V[119] = _v14
        NQ[70] = 1
    # [conc r0] ehdl_router_rmw/s012:753
    _v15 = (((V[61] >> 833 & 0xffffffffffffffff) + 0) & 0xffffffffffffffff)
    if V[121] != _v15:
        V[121] = _v15
        NQ[70] = 1

def _e19(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s012:754
    if V[122]:
        V[122] = 0
        NQ[70] = 1

def _e20(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s012:755
    if V[123]:
        V[123] = 0
        NQ[70] = 1

def _e21(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e23

def _e22(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s013:827
    _v16 = (0x24) & 0xff
    if V[125] != _v16:
        V[125] = _v16
        NQ[70] = 1

def _e23(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s013:826
    _v17 = ((1 if (((V[62] == 1) and ((V[63] >> 3 & 1) == 1)) and ((V[64] >> 544 & 1) == 0)) and ((0 if (V[64] >> 512 & 0xffff) < ((4) & 0xffff) else 1)) else 0)) & 1
    if V[124] != _v17:
        V[124] = _v17
        NQ[70] = 1
    # [conc r0] ehdl_router_rmw/s013:828
    _v18 = (((V[64] >> 833 & 0xffffffffffffffff) + 4) & 0xffffffffffffffff)
    if V[126] != _v18:
        V[126] = _v18
        NQ[70] = 1

def _e24(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s013:829
    if V[127]:
        V[127] = 0
        NQ[70] = 1

def _e25(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s013:830
    if V[128]:
        V[128] = 0
        NQ[70] = 1

def _e26(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e28

def _e27(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s014:915
    _v19 = (0x44) & 0xff
    if V[130] != _v19:
        V[130] = _v19
        NQ[70] = 1

def _e28(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s014:914
    _v20 = ((1 if (((V[65] == 1) and ((V[66] >> 3 & 1) == 1)) and ((V[67] >> 544 & 1) == 0)) and ((0 if (V[67] >> 512 & 0xffff) < ((6) & 0xffff) else 1)) else 0)) & 1
    if V[129] != _v20:
        V[129] = _v20
        NQ[70] = 1
    # [conc r0] ehdl_router_rmw/s014:916
    _v21 = (((V[67] >> 897 & 0xffffffffffffffff) + 6) & 0xffffffffffffffff)
    if V[131] != _v21:
        V[131] = _v21
        NQ[70] = 1

def _e29(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s014:917
    if V[132]:
        V[132] = 0
        NQ[70] = 1

def _e30(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s014:918
    if V[133]:
        V[133] = 0
        NQ[70] = 1

def _e31(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e33

def _e32(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s015:995
    _v22 = (0x24) & 0xff
    if V[135] != _v22:
        V[135] = _v22
        NQ[70] = 1

def _e33(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s015:994
    _v23 = ((1 if (((V[68] == 1) and ((V[69] >> 3 & 1) == 1)) and ((V[70] >> 544 & 1) == 0)) and ((0 if (V[70] >> 512 & 0xffff) < ((0xa) & 0xffff) else 1)) else 0)) & 1
    if V[134] != _v23:
        V[134] = _v23
        NQ[70] = 1
    # [conc r0] ehdl_router_rmw/s015:996
    _v24 = (((V[70] >> 833 & 0xffffffffffffffff) + 0xa) & 0xffffffffffffffff)
    if V[136] != _v24:
        V[136] = _v24
        NQ[70] = 1

def _e34(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s015:997
    if V[137]:
        V[137] = 0
        NQ[70] = 1

def _e35(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s015:998
    if V[138]:
        V[138] = 0
        NQ[70] = 1

def _e36(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e39

def _e37(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s020:1324
    _v25 = (1) & 0xff
    if V[140] != _v25:
        V[140] = _v25
        NQ[75] = 1

def _e38(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s020:1325
    if V[141]:
        V[141] = 0
        NQ[75] = 1

def _e39(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s020:1323
    _v26 = ((1 if ((V[83] == 1) and ((V[84] >> 3 & 1) == 1)) and ((V[85] >> 544 & 1) == 0) else 0)) & 1
    if V[139] != _v26:
        V[139] = _v26
        NQ[75] = 1
    # [conc r0] ehdl_router_rmw/s020:1326
    _v27 = (V[85] >> 769 & 0xffffffff)
    if V[142] != _v27:
        V[142] = _v27
        NQ[75] = 1

def _e40(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s020:1327
    if V[143]:
        V[143] = 0
        NQ[75] = 1

def _e41(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e43

def _e42(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s023:1479
    _v28 = (0x84) & 0xff
    if V[145] != _v28:
        V[145] = _v28
        NQ[75] = 1

def _e43(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s023:1478
    _v29 = ((1 if ((V[92] == 1) and ((V[93] >> 4 & 1) == 1)) and ((V[94] >> 544 & 1) == 0) else 0)) & 1
    if V[144] != _v29:
        V[144] = _v29
        NQ[75] = 1
    # [conc r0] ehdl_router_rmw/s023:1480
    _v30 = (((V[94] >> 577 & 0xffffffffffffffff) + 0) & 0xffffffffffffffff)
    if V[146] != _v30:
        V[146] = _v30
        NQ[75] = 1

def _e44(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s023:1481
    if V[147]:
        V[147] = 0
        NQ[75] = 1

def _e45(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s023:1482
    if V[148]:
        V[148] = 0
        NQ[75] = 1

def _e46(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e50

def _e47(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s025:1590
    _v31 = (0x85) & 0xff
    if V[150] != _v31:
        V[150] = _v31
        NQ[75] = 1

def _e48(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e50

def _e49(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s025:1592
    if V[152]:
        V[152] = 0
        NQ[75] = 1

def _e50(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s025:1589
    _v32 = ((1 if ((V[98] == 1) and ((V[99] >> 4 & 1) == 1)) and ((V[100] >> 544 & 1) == 0) else 0)) & 1
    if V[149] != _v32:
        V[149] = _v32
        NQ[75] = 1
    # [conc r0] ehdl_router_rmw/s025:1591
    _v33 = (((V[100] >> 577 & 0xffffffffffffffff) + 0) & 0xffffffffffffffff)
    if V[151] != _v33:
        V[151] = _v33
        NQ[75] = 1
    # [conc r0] ehdl_router_rmw/s025:1593
    _v34 = (V[100] >> 641 & 0xffffffffffffffff)
    if V[153] != _v34:
        V[153] = _v34
        NQ[75] = 1

def _e51(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e53

def _e52(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s026:1652
    _v35 = (0x44) & 0xff
    if V[155] != _v35:
        V[155] = _v35
        NQ[70] = 1

def _e53(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s026:1651
    _v36 = ((1 if ((V[101] == 1) and ((V[102] >> 5 & 1) == 1)) and ((V[103] >> 544 & 1) == 0) else 0)) & 1
    if V[154] != _v36:
        V[154] = _v36
        NQ[70] = 1
    # [conc r0] ehdl_router_rmw/s026:1653
    _v37 = (((V[103] >> 577 & 0xffffffffffffffff) + 0xc) & 0xffffffffffffffff)
    if V[156] != _v37:
        V[156] = _v37
        NQ[70] = 1

def _e54(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s026:1654
    if V[157]:
        V[157] = 0
        NQ[70] = 1

def _e55(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s026:1655
    if V[158]:
        V[158] = 0
        NQ[70] = 1

def _e56(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e58

def _e57(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e58

def _e58(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s027:1718
    _v38 = ((1 if ((V[104] == 1) and ((V[105] >> 5 & 1) == 1)) and ((V[106] >> 544 & 1) == 0) else 0)) & 1
    if V[182] != _v38:
        V[182] = _v38
        NQ[65] = 1
    # [conc r0] ehdl_router_rmw/s027:1719
    _v39 = (V[106] >> 577 & 0xffffffffffffffff)
    if V[183] != _v39:
        V[183] = _v39
        NQ[65] = 1
    # [conc r0] ehdl_router_rmw/s027:1720
    _v40 = (V[106] >> 641 & 0xffffffffffffffff)
    if V[184] != _v40:
        V[184] = _v40
        NQ[65] = 1

def _e59(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s027:1721
    if V[185]:
        V[185] = 0
        NQ[65] = 1

def _e60(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s027:1722
    if V[186]:
        V[186] = 0
        NQ[65] = 1

def _e61(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw/s027:1723
    if V[187]:
        V[187] = 0
        NQ[65] = 1

def _e62(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:2406
    _v41 = V[112]
    if V[178] != _v41:
        V[178] = _v41
        NQ[76] = 1

def _e63(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r0] ehdl_router_rmw:2415
    V[12] = (1) & 1

def _e64(V, NQ, PEND, PQ, PRIMS, ACT):
    # [fifo r1] ehdl_async_fifo
    _v42 = V[17]
    if V[18] != _v42:
        V[18] = _v42
        NQ[78] = 1
    _v43 = ((0 if V[5] else 1)) & 1
    if V[19] != _v43:
        V[19] = _v43
        NQ[79] = 1
    V[20] = 0

def _e65(V, NQ, PEND, PQ, PRIMS, ACT):
    # [prim r1] ehdl_helper_23
    if V[182]:
        ACT[0] += 1
        _s44 = V[188]
        _sh = PRIMS[3].packet
        if _sh is None:
            PRIMS[0](V)
        else:
            _oc = PRIMS[4]
            _oc["helper:bpf_redirect"] = _oc.get("helper:bpf_redirect", 0) + 1
            _sh.redirect_ifindex = (V[183] & 0xffffffff)
            V[188] = 4
        if V[188] != _s44:
            if not PQ[27] and V[104]:
                PQ[27] = 1
                PEND.append(27)
        NQ[65] = 1
    else:
        if V[188]:
            V[188] = 0
            if not PQ[27] and V[104]:
                PQ[27] = 1
                PEND.append(27)

def _e66(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e70

def _e67(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e70

def _e68(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e70

def _e69(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e70

def _e70(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r1] ehdl_router_rmw:2364
    _v45 = ((((((V[114] | V[119]) | V[124]) | V[129]) | V[134]) | V[154])) & 1
    if V[159] != _v45:
        V[159] = _v45
        NQ[80] = 1
    # [conc r1] ehdl_router_rmw:2365
    _v46 = ((V[115] if V[114] == 1 else (V[120] if V[119] == 1 else (V[125] if V[124] == 1 else (V[130] if V[129] == 1 else (V[135] if V[134] == 1 else (V[155] if V[154] == 1 else 0))))))) & 0xff
    if V[160] != _v46:
        V[160] = _v46
        NQ[80] = 1
    # [conc r1] ehdl_router_rmw:2366
    _v47 = ((V[116] if V[114] == 1 else (V[121] if V[119] == 1 else (V[126] if V[124] == 1 else (V[131] if V[129] == 1 else (V[136] if V[134] == 1 else (V[156] if V[154] == 1 else 0))))))) & 0xffffffffffffffff
    if V[161] != _v47:
        V[161] = _v47
        NQ[80] = 1
    # [conc r1] ehdl_router_rmw:2367
    _v48 = ((V[117] if V[114] == 1 else (V[122] if V[119] == 1 else (V[127] if V[124] == 1 else (V[132] if V[129] == 1 else (V[137] if V[134] == 1 else (V[157] if V[154] == 1 else 0))))))) & 0xffffffff
    if V[162] != _v48:
        V[162] = _v48
        NQ[80] = 1
    # [conc r1] ehdl_router_rmw:2368
    _v49 = ((V[118] if V[114] == 1 else (V[123] if V[119] == 1 else (V[128] if V[124] == 1 else (V[133] if V[129] == 1 else (V[138] if V[134] == 1 else (V[158] if V[154] == 1 else 0))))))) & 0xffffffffffffffffffffffffffffffff
    if V[163] != _v49:
        V[163] = _v49
        NQ[80] = 1

def _e71(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e75

def _e72(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e75

def _e73(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e75

def _e74(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e75

def _e75(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r1] ehdl_router_rmw:2384
    _v50 = (((V[139] | V[144]) | V[149])) & 1
    if V[168] != _v50:
        V[168] = _v50
        NQ[81] = 1
    # [conc r1] ehdl_router_rmw:2385
    _v51 = ((V[140] if V[139] == 1 else (V[145] if V[144] == 1 else (V[150] if V[149] == 1 else 0)))) & 0xff
    if V[169] != _v51:
        V[169] = _v51
        NQ[81] = 1
    # [conc r1] ehdl_router_rmw:2386
    _v52 = ((V[141] if V[139] == 1 else (V[146] if V[144] == 1 else (V[151] if V[149] == 1 else 0)))) & 0xffffffffffffffff
    if V[170] != _v52:
        V[170] = _v52
        NQ[81] = 1
    # [conc r1] ehdl_router_rmw:2387
    _v53 = ((V[142] if V[139] == 1 else (V[147] if V[144] == 1 else (V[152] if V[149] == 1 else 0)))) & 0xffffffff
    if V[171] != _v53:
        V[171] = _v53
        NQ[81] = 1
    # [conc r1] ehdl_router_rmw:2388
    _v54 = ((V[143] if V[139] == 1 else (V[148] if V[144] == 1 else (V[153] if V[149] == 1 else 0)))) & 0xffffffffffffffff
    if V[172] != _v54:
        V[172] = _v54
        NQ[81] = 1

def _e76(V, NQ, PEND, PQ, PRIMS, ACT):
    # [fifo r1] ehdl_async_fifo
    _v55 = V[178]
    if V[179] != _v55:
        V[179] = _v55
        NQ[85] = 1
    _v56 = ((0 if V[110] else 1)) & 1
    if V[180] != _v56:
        V[180] = _v56
        NQ[82] = 1
    V[181] = 0

def _e77(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e78

def _e78(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r2] ehdl_router_rmw:1999
    _v57 = (V[18] >> 16 & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff)
    if V[21] != _v57:
        V[21] = _v57
        NQ[88] = 1
        if not PQ[0] and V[26]:
            PQ[0] = 1
            PEND.append(0)
    # [conc r2] ehdl_router_rmw:2000
    _v58 = (V[18] & 0xffff)
    if V[22] != _v58:
        V[22] = _v58
        NQ[89] = 1

def _e79(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r2] ehdl_router_rmw:2003
    _v59 = (~V[19] & 1)
    if V[26] != _v59:
        V[26] = _v59
        if not PQ[0]:
            PQ[0] = 1
            PEND.append(0)
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e80(V, NQ, PEND, PQ, PRIMS, ACT):
    # [prim r2] router_rmw_map_1.ch0
    if V[159]:
        ACT[1] += 1
        _s60 = V[164]
        _s61 = V[165]
        _op = V[160]
        _cd = _op & 15
        if _cd == 4:
            _o = V[161] - 0x41000000
            _z = _op >> 4
            _st = PRIMS[5]
            if 0 <= _o < 0x1000000 and _o + _z <= len(_st):
                _oc = PRIMS[4]
                _oc["load"] = _oc.get("load", 0) + 1
                V[164] = ((int.from_bytes(_st[_o:_o + _z], "little")) & 0xffffffffffffffff)
                V[165] = 0
            else:
                PRIMS[1](V)
        elif _cd == 1:
            _oc = PRIMS[4]
            _oc["lookup"] = _oc.get("lookup", 0) + 1
            _sl = PRIMS[7](V[162].to_bytes(4, "little"))
            V[164] = ((0 if _sl is None else 0x41000000 + _sl * 16) & 0xffffffffffffffff)
            V[165] = 0
        elif _cd == 5:
            _o = V[161] - 0x41000000
            _z = _op >> 4
            _st = PRIMS[5]
            if 0 <= _o < 0x1000000 and _o + _z <= len(_st):
                _oc = PRIMS[4]
                _oc["store"] = _oc.get("store", 0) + 1
                _st[_o:_o + _z] = (V[163] & ((1 << (_z << 3)) - 1)).to_bytes(_z, "little")
                V[164] = 0
                V[165] = 0
            else:
                PRIMS[1](V)
        elif _cd in _CH_OP_HELPER:
            _nm = _CH_OP_NAMES[_cd]
            _oc = PRIMS[4]
            _oc[_nm] = _oc.get(_nm, 0) + 1
            _r, _sl, _if = channel_step(_CH_OP_HELPER[_cd], 1, PRIMS[6], V[162].to_bytes(4, "little"), V[163].to_bytes(16, "little") if _cd == 2 else None, V[161])
            if _if is not None:
                _sh = PRIMS[3].packet
                if _sh is not None:
                    _sh.redirect_ifindex = _if
            V[164] = ((_r) & 0xffffffffffffffff)
            V[165] = 0
        else:
            PRIMS[1](V)
        if V[164] != _s60 or V[165] != _s61:
            if not PQ[8] and V[47]:
                PQ[8] = 1
                PEND.append(8)
            if not PQ[12] and V[59]:
                PQ[12] = 1
                PEND.append(12)
            if not PQ[13] and V[62]:
                PQ[13] = 1
                PEND.append(13)
            if not PQ[14] and V[65]:
                PQ[14] = 1
                PEND.append(14)
            if not PQ[15] and V[68]:
                PQ[15] = 1
                PEND.append(15)
            if not PQ[26] and V[101]:
                PQ[26] = 1
                PEND.append(26)
        NQ[80] = 1
    else:
        if V[164]:
            V[164] = 0
            if not PQ[8] and V[47]:
                PQ[8] = 1
                PEND.append(8)
            if not PQ[12] and V[59]:
                PQ[12] = 1
                PEND.append(12)
            if not PQ[13] and V[62]:
                PQ[13] = 1
                PEND.append(13)
            if not PQ[14] and V[65]:
                PQ[14] = 1
                PEND.append(14)
            if not PQ[15] and V[68]:
                PQ[15] = 1
                PEND.append(15)
            if not PQ[26] and V[101]:
                PQ[26] = 1
                PEND.append(26)
        if V[165]:
            V[165] = 0
            if not PQ[8] and V[47]:
                PQ[8] = 1
                PEND.append(8)
            if not PQ[12] and V[59]:
                PQ[12] = 1
                PEND.append(12)
            if not PQ[13] and V[62]:
                PQ[13] = 1
                PEND.append(13)
            if not PQ[14] and V[65]:
                PQ[14] = 1
                PEND.append(14)
            if not PQ[15] and V[68]:
                PQ[15] = 1
                PEND.append(15)
            if not PQ[26] and V[101]:
                PQ[26] = 1
                PEND.append(26)

def _e81(V, NQ, PEND, PQ, PRIMS, ACT):
    # [prim r2] router_rmw_map_2.ch0
    if V[168]:
        ACT[2] += 1
        _s62 = V[173]
        _s63 = V[174]
        _op = V[169]
        _cd = _op & 15
        if _cd == 4:
            _o = V[170] - 0x42000000
            _z = _op >> 4
            _st = PRIMS[8]
            if 0 <= _o < 0x1000000 and _o + _z <= len(_st):
                _oc = PRIMS[4]
                _oc["load"] = _oc.get("load", 0) + 1
                V[173] = ((int.from_bytes(_st[_o:_o + _z], "little")) & 0xffffffffffffffff)
                V[174] = 0
            else:
                PRIMS[2](V)
        elif _cd == 1:
            _oc = PRIMS[4]
            _oc["lookup"] = _oc.get("lookup", 0) + 1
            _sl = PRIMS[10](V[171].to_bytes(4, "little"))
            V[173] = ((0 if _sl is None else 0x42000000 + _sl * 8) & 0xffffffffffffffff)
            V[174] = 0
        elif _cd == 5:
            _o = V[170] - 0x42000000
            _z = _op >> 4
            _st = PRIMS[8]
            if 0 <= _o < 0x1000000 and _o + _z <= len(_st):
                _oc = PRIMS[4]
                _oc["store"] = _oc.get("store", 0) + 1
                _st[_o:_o + _z] = (V[172] & ((1 << (_z << 3)) - 1)).to_bytes(_z, "little")
                V[173] = 0
                V[174] = 0
            else:
                PRIMS[2](V)
        elif _cd in _CH_OP_HELPER:
            _nm = _CH_OP_NAMES[_cd]
            _oc = PRIMS[4]
            _oc[_nm] = _oc.get(_nm, 0) + 1
            _r, _sl, _if = channel_step(_CH_OP_HELPER[_cd], 2, PRIMS[9], V[171].to_bytes(4, "little"), V[172].to_bytes(8, "little") if _cd == 2 else None, V[170])
            if _if is not None:
                _sh = PRIMS[3].packet
                if _sh is not None:
                    _sh.redirect_ifindex = _if
            V[173] = ((_r) & 0xffffffffffffffff)
            V[174] = 0
        else:
            PRIMS[2](V)
        if V[173] != _s62:
            if not PQ[20] and V[83]:
                PQ[20] = 1
                PEND.append(20)
            if not PQ[23] and V[92]:
                PQ[23] = 1
                PEND.append(23)
        if V[174] != _s63:
            if not PQ[20] and V[83]:
                PQ[20] = 1
                PEND.append(20)
            if not PQ[23] and V[92]:
                PQ[23] = 1
                PEND.append(23)
            if not PQ[25] and V[98]:
                PQ[25] = 1
                PEND.append(25)
        NQ[81] = 1
    else:
        if V[173]:
            V[173] = 0
            if not PQ[20] and V[83]:
                PQ[20] = 1
                PEND.append(20)
            if not PQ[23] and V[92]:
                PQ[23] = 1
                PEND.append(23)
        if V[174]:
            V[174] = 0
            if not PQ[20] and V[83]:
                PQ[20] = 1
                PEND.append(20)
            if not PQ[23] and V[92]:
                PQ[23] = 1
                PEND.append(23)
            if not PQ[25] and V[98]:
                PQ[25] = 1
                PEND.append(25)

def _e82(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r2] ehdl_router_rmw:2412
    V[11] = (~V[180] & 1)

def _e83(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e85

def _e84(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e85

def _e85(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r2] ehdl_router_rmw:2413
    V[8] = (V[179] & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff)
    # [conc r2] ehdl_router_rmw:2414
    V[9] = (V[179] >> 512 & 0xffff)
    # [conc r2] ehdl_router_rmw:2416
    V[10] = (((V[179] >> 545 & 0xffffffff) if (V[179] >> 544 & 1) == 1 else 0)) & 0xffffffff

def _e86(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e89

def _e87(V, NQ, PEND, PQ, PRIMS, ACT):
    pass  # fused into _e89

def _e88(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r3] ehdl_router_rmw:2005
    _o64 = V[28]
    _v65 = _o64 & 0x1ffffffffffffffffffffffffffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000 | ((V[21]) & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff)
    if _v65 != _o64:
        V[28] = _v65
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e89(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r3] ehdl_router_rmw:2001
    _v66 = ((1 if V[22] < ((0x22) & 0xffff) else 0)) & 1
    if V[23] != _v66:
        V[23] = _v66
        NQ[92] = 1
    # [conc r3] ehdl_router_rmw:2002
    _v67 = ((2 if V[22] < ((0x22) & 0xffff) else 0)) & 0xffffffff
    if V[24] != _v67:
        V[24] = _v67
        NQ[93] = 1
    # [conc r3] ehdl_router_rmw:2006
    _o68 = V[28]
    _v69 = _o68 & 0x1ffffffffffffffffffffffffffff0000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((V[22]) & 0xffff) << 512)
    if _v69 != _o68:
        V[28] = _v69
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e90(V, NQ, PEND, PQ, PRIMS, ACT):
    # [tie r3] router_rmw_map_1.tie
    V[167] = 0

def _e91(V, NQ, PEND, PQ, PRIMS, ACT):
    # [tie r3] router_rmw_map_2.tie
    if V[175]:
        V[175] = 0
        NQ[94] = 1
    V[177] = 0

def _e92(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r4] ehdl_router_rmw:2008
    _o70 = V[28]
    _v71 = _o70 & 0x1fffffffffffffffffffffffeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((V[23]) & 1) << 544)
    if _v71 != _o70:
        V[28] = _v71
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e93(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r4] ehdl_router_rmw:2009
    _o72 = V[28]
    _v73 = _o72 & 0x1fffffffffffffffe00000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((V[24]) & 0xffffffff) << 545)
    if _v73 != _o72:
        V[28] = _v73
        if not PQ[1]:
            PQ[1] = 1
            PEND.append(1)

def _e94(V, NQ, PEND, PQ, PRIMS, ACT):
    # [conc r4] ehdl_router_rmw:2405
    _v74 = V[175]
    if V[113] != _v74:
        V[113] = _v74
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
        if not PQ[19]:
            PQ[19] = 1
            PEND.append(19)
        if not PQ[20]:
            PQ[20] = 1
            PEND.append(20)
        if not PQ[21]:
            PQ[21] = 1
            PEND.append(21)
        if not PQ[22]:
            PQ[22] = 1
            PEND.append(22)
        if not PQ[23]:
            PQ[23] = 1
            PEND.append(23)
        if not PQ[24]:
            PQ[24] = 1
            PEND.append(24)
        if not PQ[25]:
            PQ[25] = 1
            PEND.append(25)
        if not PQ[26]:
            PQ[26] = 1
            PEND.append(26)
        if not PQ[27]:
            PQ[27] = 1
            PEND.append(27)
        if not PQ[28]:
            PQ[28] = 1
            PEND.append(28)

def _f0(V, NQ, PEND, PQ):
    t25 = V[25]
    if V[26] == 1:
        t25 = V[21]
    V[25] = t25

def _f1(V, NQ, PEND, PQ):
    t29 = V[29]
    t30 = V[30]
    t31 = V[31]
    if (V[2] == 1) or (V[113] == 1):
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
    if (V[2] == 1) or (V[113] == 1):
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
    if (V[2] == 1) or (V[113] == 1):
        t35 = 0
    else:
        t35 = V[32]
        t36 = V[33]
        t37 = V[34] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[34] << 64) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[32] == 1) and ((V[33] >> 1 & 1) == 1)) and ((V[34] >> 544 & 1) == 0):
            if (V[34] >> 512 & 0xffff) < ((0x17) & 0xffff):
                t37 = t37 & 0x1fffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t37 = t37 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[34] >> 176 & 0xff) << 577)
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
    if (V[2] == 1) or (V[113] == 1):
        t38 = 0
    else:
        t38 = V[35]
        t39 = V[36]
        t40 = V[37] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[37] >> 64) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[35] == 1) and ((V[36] >> 1 & 1) == 1)) and ((V[37] >> 544 & 1) == 0):
            if (V[37] >> 577 & 0xffffffffffffffff) <= 1:
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
    if (V[2] == 1) or (V[113] == 1):
        t41 = 0
    else:
        t41 = V[38]
        t42 = V[39]
        t43 = V[40] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[40] << 128) & 0x1fffffffffffffffe00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[38] == 1) and ((V[39] >> 2 & 1) == 1)) and ((V[40] >> 544 & 1) == 0):
            if (V[40] >> 512 & 0xffff) < ((0x22) & 0xffff):
                t43 = t43 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t43 = t43 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[40] >> 240 & 0xffffffff) << 641)
        if (((V[38] == 1) and ((V[39] >> 2 & 1) == 1)) and ((V[40] >> 544 & 1) == 0)) and ((0 if (V[40] >> 512 & 0xffff) < ((0x22) & 0xffff) else 1)):
            t43 = t43 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x60000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
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
    if (V[2] == 1) or (V[113] == 1):
        t44 = 0
    else:
        t44 = V[41]
        t45 = V[42]
        t46 = V[43]
        if ((V[41] == 1) and ((V[42] >> 2 & 1) == 1)) and ((V[43] >> 544 & 1) == 0):
            t46 = t46 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((V[43] >> 641 & 0xffffffffffffffff) & 0xffffff) << 641)
    if V[44] != t44 or V[45] != t45 or V[46] != t46:
        V[44] = t44
        V[45] = t45
        V[46] = t46
        if not PQ[7]:
            PQ[7] = 1
            PEND.append(7)

def _f7(V, NQ, PEND, PQ):
    t47 = V[47]
    t48 = V[48]
    t49 = V[49]
    if (V[2] == 1) or (V[113] == 1):
        t47 = 0
    else:
        t47 = V[44]
        t48 = V[45]
        t49 = V[46] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[44] == 1) and ((V[45] >> 2 & 1) == 1)) and ((V[46] >> 544 & 1) == 0):
            t49 = t49 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[46] >> 641 & 0xffffffffffffffff)) & 0xffffffff) << 769)
        if ((V[44] == 1) and ((V[45] >> 2 & 1) == 1)) and ((V[46] >> 544 & 1) == 0):
            t49 = t49 & 0x1fffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x4004000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[44] == 1) and ((V[45] >> 2 & 1) == 1)) and ((V[46] >> 544 & 1) == 0):
            t49 = t49 & 0x1fffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((0x200200 + 0xfffffffffffffffc) & 0xffffffffffffffff) << 641)
    if V[47] != t47 or V[48] != t48 or V[49] != t49:
        V[47] = t47
        V[48] = t48
        V[49] = t49
        NQ[14] = 1
        if not PQ[8]:
            PQ[8] = 1
            PEND.append(8)

def _f8(V, NQ, PEND, PQ):
    t50 = V[50]
    t51 = V[51]
    t52 = V[52]
    if (V[2] == 1) or (V[113] == 1):
        t50 = 0
    else:
        t50 = V[47]
        t51 = V[48]
        t52 = V[49] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[49] >> 64) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[47] == 1) and ((V[48] >> 2 & 1) == 1)) and ((V[49] >> 544 & 1) == 0):
            if V[165] == 1:
                t52 = t52 & 0x1fffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t52 = t52 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[164] << 577) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
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
    if (V[2] == 1) or (V[113] == 1):
        t53 = 0
    else:
        t53 = V[50]
        t54 = V[51]
        t55 = V[52]
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
    if (V[2] == 1) or (V[113] == 1):
        t56 = 0
    else:
        t56 = V[53]
        t57 = V[54]
        t58 = V[55]
        if ((V[53] == 1) and ((V[54] >> 2 & 1) == 1)) and ((V[55] >> 544 & 1) == 0):
            if (V[55] >> 577 & 0xffffffffffffffff) == 0:
                t57 = t57 & 0xffffffbf | 0x40
            else:
                t57 = t57 & 0xfffffff7 | 8
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
    if (V[2] == 1) or (V[113] == 1):
        t59 = 0
    else:
        t59 = V[56]
        t60 = V[57]
        t61 = V[58] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[58] << 128) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            t61 = t61 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[58] << 256) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            if (V[58] >> 512 & 0xffff) < ((0x1a) & 0xffff):
                t61 = t61 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t61 = t61 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[58] >> 192 & 0xffff) << 705)
        if (((V[56] == 1) and ((V[57] >> 3 & 1) == 1)) and ((V[58] >> 544 & 1) == 0)) and ((0 if (V[58] >> 512 & 0xffff) < ((0x1a) & 0xffff) else 1)):
            t61 = t61 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x600000040000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[56] == 1) and ((V[57] >> 6 & 1) == 1)) and ((V[58] >> 544 & 1) == 0):
            t61 = t61 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x4000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
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
    if (V[2] == 1) or (V[113] == 1):
        t62 = 0
    else:
        t62 = V[59]
        t63 = V[60]
        t64 = V[61] & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe00000000000000000000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[61] >> 64) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[59] == 1) and ((V[60] >> 3 & 1) == 1)) and ((V[61] >> 544 & 1) == 0):
            if V[165] == 1:
                t64 = t64 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t64 = t64 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[164] << 641) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if (((V[59] == 1) and ((V[60] >> 3 & 1) == 1)) and ((V[61] >> 544 & 1) == 0)) and ((0 if V[165] == 1 else 1)):
            t64 = t64 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((_bswap16((V[61] >> 705 & 0xffffffffffffffff))) & 0xffffffffffffffff) << 705)
        if ((V[59] == 1) and ((V[60] >> 6 & 1) == 1)) and ((V[61] >> 544 & 1) == 0):
            t64 = t64 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            t64 = t64 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[61] >> 577 & 0xffffffffffffffff)) & 0xffffffff) << 545)
    if V[62] != t62 or V[63] != t63 or V[64] != t64:
        V[62] = t62
        V[63] = t63
        V[64] = t64
        NQ[23] = 1
        if not PQ[13]:
            PQ[13] = 1
            PEND.append(13)

def _f13(V, NQ, PEND, PQ):
    t65 = V[65]
    t66 = V[66]
    t67 = V[67]
    if (V[2] == 1) or (V[113] == 1):
        t65 = 0
    else:
        t65 = V[62]
        t66 = V[63]
        t67 = V[64] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[64] << 64) & 0x1fffffffffffffffffffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[62] == 1) and ((V[63] >> 3 & 1) == 1)) and ((V[64] >> 544 & 1) == 0):
            if (V[64] >> 512 & 0xffff) < ((4) & 0xffff):
                t67 = t67 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t67 = t67 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff00000000 | (((V[64] >> 641 & 0xffffffffffffffff)) & 0xffffffff)
        if (((V[62] == 1) and ((V[63] >> 3 & 1) == 1)) and ((V[64] >> 544 & 1) == 0)) and ((0 if (V[64] >> 512 & 0xffff) < ((4) & 0xffff) else 1)):
            if V[165] == 1:
                t67 = t67 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t67 = t67 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[164] << 641) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((((V[62] == 1) and ((V[63] >> 3 & 1) == 1)) and ((V[64] >> 544 & 1) == 0)) and ((0 if (V[64] >> 512 & 0xffff) < ((4) & 0xffff) else 1))) and ((0 if V[165] == 1 else 1)):
            t67 = t67 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[64] >> 705 & 0xffffffffffffffff) + 0x100) & 0xffffffffffffffff) << 705)
        if ((((V[62] == 1) and ((V[63] >> 3 & 1) == 1)) and ((V[64] >> 544 & 1) == 0)) and ((0 if (V[64] >> 512 & 0xffff) < ((4) & 0xffff) else 1))) and ((0 if V[165] == 1 else 1)):
            t67 = t67 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[64] >> 705 & 0xffffffffffffffff) + 0x100) & 0xffffffffffffffff) << 769)
        if ((((V[62] == 1) and ((V[63] >> 3 & 1) == 1)) and ((V[64] >> 544 & 1) == 0)) and ((0 if (V[64] >> 512 & 0xffff) < ((4) & 0xffff) else 1))) and ((0 if V[165] == 1 else 1)):
            t67 = t67 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((((V[64] >> 705 & 0xffffffffffffffff) + 0x100) & 0xffffffffffffffff) & 0xffff) << 705)
    if V[65] != t65 or V[66] != t66 or V[67] != t67:
        V[65] = t65
        V[66] = t66
        V[67] = t67
        NQ[28] = 1
        if not PQ[14]:
            PQ[14] = 1
            PEND.append(14)

def _f14(V, NQ, PEND, PQ):
    t68 = V[68]
    t69 = V[69]
    t70 = V[70]
    if (V[2] == 1) or (V[113] == 1):
        t68 = 0
    else:
        t68 = V[65]
        t69 = V[66]
        t70 = V[67] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[67] >> 64) & 0x1fffffffffffffffffffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[65] == 1) and ((V[66] >> 3 & 1) == 1)) and ((V[67] >> 544 & 1) == 0):
            if (V[67] >> 512 & 0xffff) < ((6) & 0xffff):
                t70 = t70 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t70 = t70 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff0000ffffffff | ((((V[67] >> 641 & 0xffffffffffffffff)) & 0xffff) << 32)
        if (((V[65] == 1) and ((V[66] >> 3 & 1) == 1)) and ((V[67] >> 544 & 1) == 0)) and ((0 if (V[67] >> 512 & 0xffff) < ((6) & 0xffff) else 1)):
            if V[165] == 1:
                t70 = t70 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t70 = t70 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[164] << 641) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((((V[65] == 1) and ((V[66] >> 3 & 1) == 1)) and ((V[67] >> 544 & 1) == 0)) and ((0 if (V[67] >> 512 & 0xffff) < ((6) & 0xffff) else 1))) and ((0 if V[165] == 1 else 1)):
            t70 = t70 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[67] >> 705 & 0xffffffffffffffff) + ((V[67] >> 769 & 0xffffffffffffffff) >> ((0x10) & 0x3f))) & 0xffffffffffffffff) << 705)
    if V[68] != t68 or V[69] != t69 or V[70] != t70:
        V[68] = t68
        V[69] = t69
        V[70] = t70
        NQ[33] = 1
        if not PQ[15]:
            PQ[15] = 1
            PEND.append(15)

def _f15(V, NQ, PEND, PQ):
    t71 = V[71]
    t72 = V[72]
    t73 = V[73]
    if (V[2] == 1) or (V[113] == 1):
        t71 = 0
    else:
        t71 = V[68]
        t72 = V[69]
        t73 = V[70] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[70] << 64) & 0x1fffffffffffffffffffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[68] == 1) and ((V[69] >> 3 & 1) == 1)) and ((V[70] >> 544 & 1) == 0):
            if (V[70] >> 512 & 0xffff) < ((0xa) & 0xffff):
                t73 = t73 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t73 = t73 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff00000000ffffffffffff | ((((V[70] >> 641 & 0xffffffffffffffff)) & 0xffffffff) << 48)
        if (((V[68] == 1) and ((V[69] >> 3 & 1) == 1)) and ((V[70] >> 544 & 1) == 0)) and ((0 if (V[70] >> 512 & 0xffff) < ((0xa) & 0xffff) else 1)):
            if V[165] == 1:
                t73 = t73 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t73 = t73 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[164] << 641) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((((V[68] == 1) and ((V[69] >> 3 & 1) == 1)) and ((V[70] >> 544 & 1) == 0)) and ((0 if (V[70] >> 512 & 0xffff) < ((0xa) & 0xffff) else 1))) and ((0 if V[165] == 1 else 1)):
            t73 = t73 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[70] << 64) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((((V[68] == 1) and ((V[69] >> 3 & 1) == 1)) and ((V[70] >> 544 & 1) == 0)) and ((0 if (V[70] >> 512 & 0xffff) < ((0xa) & 0xffff) else 1))) and ((0 if V[165] == 1 else 1)):
            t73 = t73 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((((V[70] >> 705 & 0xffffffffffffffff) >> ((0x10) & 0x3f))) & 0xffffffffffffffff) << 769)
        if ((((V[68] == 1) and ((V[69] >> 3 & 1) == 1)) and ((V[70] >> 544 & 1) == 0)) and ((0 if (V[70] >> 512 & 0xffff) < ((0xa) & 0xffff) else 1))) and ((0 if V[165] == 1 else 1)):
            t73 = t73 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((V[70] >> 705 & 0xffffffffffffffff) & 0xffff) << 705)
    if V[71] != t71 or V[72] != t72 or V[73] != t73:
        V[71] = t71
        V[72] = t72
        V[73] = t73
        if not PQ[16]:
            PQ[16] = 1
            PEND.append(16)

def _f16(V, NQ, PEND, PQ):
    t74 = V[74]
    t75 = V[75]
    t76 = V[76]
    if (V[2] == 1) or (V[113] == 1):
        t74 = 0
    else:
        t74 = V[71]
        t75 = V[72]
        t76 = V[73] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[73] >> 64) & 0x1fffffffffffffffffffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[71] == 1) and ((V[72] >> 3 & 1) == 1)) and ((V[73] >> 544 & 1) == 0):
            if (V[73] >> 512 & 0xffff) < ((0xc) & 0xffff):
                t76 = t76 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t76 = t76 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff0000ffffffffffffffffffff | ((((V[73] >> 641 & 0xffffffffffffffff)) & 0xffff) << 80)
        if (((V[71] == 1) and ((V[72] >> 3 & 1) == 1)) and ((V[73] >> 544 & 1) == 0)) and ((0 if (V[73] >> 512 & 0xffff) < ((0xc) & 0xffff) else 1)):
            if (V[73] >> 512 & 0xffff) < ((0x17) & 0xffff):
                t76 = t76 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t76 = t76 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((V[73] >> 176 & 0xff) << 641)
        if ((((V[71] == 1) and ((V[72] >> 3 & 1) == 1)) and ((V[73] >> 544 & 1) == 0)) and ((0 if (V[73] >> 512 & 0xffff) < ((0xc) & 0xffff) else 1))) and ((0 if (V[73] >> 512 & 0xffff) < ((0x17) & 0xffff) else 1)):
            t76 = t76 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[73] >> 705 & 0xffffffffffffffff) + (V[73] >> 769 & 0xffffffffffffffff)) & 0xffffffffffffffff) << 705)
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
    if (V[2] == 1) or (V[113] == 1):
        t77 = 0
    else:
        t77 = V[74]
        t78 = V[75]
        t79 = V[76]
        if ((V[74] == 1) and ((V[75] >> 3 & 1) == 1)) and ((V[76] >> 544 & 1) == 0):
            t79 = t79 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[76] >> 641 & 0xffffffffffffffff) + 0xffffffffffffffff) & 0xffffffffffffffff) << 641)
        if ((V[74] == 1) and ((V[75] >> 3 & 1) == 1)) and ((V[76] >> 544 & 1) == 0):
            t79 = t79 & 0x1fffffffffffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((_bswap16((V[76] >> 705 & 0xffffffffffffffff))) & 0xffffffffffffffff) << 705)
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
    if (V[2] == 1) or (V[113] == 1):
        t80 = 0
    else:
        t80 = V[77]
        t81 = V[78]
        t82 = V[79] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[79] >> 128) & 0x1fffffffffffffffe00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[77] == 1) and ((V[78] >> 3 & 1) == 1)) and ((V[79] >> 544 & 1) == 0):
            if (V[79] >> 512 & 0xffff) < ((0x17) & 0xffff):
                t82 = t82 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t82 = t82 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff00ffffffffffffffffffffffffffffffffffffffffffff | ((((V[79] >> 641 & 0xffffffffffffffff)) & 0xff) << 176)
        if (((V[77] == 1) and ((V[78] >> 3 & 1) == 1)) and ((V[79] >> 544 & 1) == 0)) and ((0 if (V[79] >> 512 & 0xffff) < ((0x17) & 0xffff) else 1)):
            if (V[79] >> 512 & 0xffff) < ((0x1a) & 0xffff):
                t82 = t82 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t82 = t82 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff0000ffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[79] >> 705 & 0xffffffffffffffff)) & 0xffff) << 192)
        if ((((V[77] == 1) and ((V[78] >> 3 & 1) == 1)) and ((V[79] >> 544 & 1) == 0)) and ((0 if (V[79] >> 512 & 0xffff) < ((0x17) & 0xffff) else 1))) and ((0 if (V[79] >> 512 & 0xffff) < ((0x1a) & 0xffff) else 1)):
            t82 = t82 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
    if V[80] != t80 or V[81] != t81 or V[82] != t82:
        V[80] = t80
        V[81] = t81
        V[82] = t82
        if not PQ[19]:
            PQ[19] = 1
            PEND.append(19)

def _f19(V, NQ, PEND, PQ):
    t83 = V[83]
    t84 = V[84]
    t85 = V[85]
    if (V[2] == 1) or (V[113] == 1):
        t83 = 0
    else:
        t83 = V[80]
        t84 = V[81]
        t85 = V[82] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[80] == 1) and ((V[81] >> 3 & 1) == 1)) and ((V[82] >> 544 & 1) == 0):
            t85 = t85 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[82] >> 641 & 0xffffffffffffffff)) & 0xffffffff) << 769)
        if ((V[80] == 1) and ((V[81] >> 3 & 1) == 1)) and ((V[82] >> 544 & 1) == 0):
            t85 = t85 & 0x1fffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x4004000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[80] == 1) and ((V[81] >> 3 & 1) == 1)) and ((V[82] >> 544 & 1) == 0):
            t85 = t85 & 0x1fffffffffffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (((0x200200 + 0xfffffffffffffff8) & 0xffffffffffffffff) << 641)
    if V[83] != t83 or V[84] != t84 or V[85] != t85:
        V[83] = t83
        V[84] = t84
        V[85] = t85
        NQ[39] = 1
        if not PQ[20]:
            PQ[20] = 1
            PEND.append(20)

def _f20(V, NQ, PEND, PQ):
    t86 = V[86]
    t87 = V[87]
    t88 = V[88]
    if (V[2] == 1) or (V[113] == 1):
        t86 = 0
    else:
        t86 = V[83]
        t87 = V[84]
        t88 = V[85] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[85] >> 64) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[83] == 1) and ((V[84] >> 3 & 1) == 1)) and ((V[85] >> 544 & 1) == 0):
            if V[174] == 1:
                t88 = t88 & 0x1fffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t88 = t88 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[173] << 577) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[86] != t86 or V[87] != t87 or V[88] != t88:
        V[86] = t86
        V[87] = t87
        V[88] = t88
        if not PQ[21]:
            PQ[21] = 1
            PEND.append(21)

def _f21(V, NQ, PEND, PQ):
    t89 = V[89]
    t90 = V[90]
    t91 = V[91]
    if (V[2] == 1) or (V[113] == 1):
        t89 = 0
    else:
        t89 = V[86]
        t90 = V[87]
        t91 = V[88]
    if V[89] != t89 or V[90] != t90 or V[91] != t91:
        V[89] = t89
        V[90] = t90
        V[91] = t91
        if not PQ[22]:
            PQ[22] = 1
            PEND.append(22)

def _f22(V, NQ, PEND, PQ):
    t92 = V[92]
    t93 = V[93]
    t94 = V[94]
    if (V[2] == 1) or (V[113] == 1):
        t92 = 0
    else:
        t92 = V[89]
        t93 = V[90]
        t94 = V[91]
        if ((V[89] == 1) and ((V[90] >> 3 & 1) == 1)) and ((V[91] >> 544 & 1) == 0):
            if (V[91] >> 577 & 0xffffffffffffffff) == 0:
                t93 = t93 & 0xffffffdf | 0x20
            else:
                t93 = t93 & 0xffffffef | 0x10
    if V[92] != t92 or V[93] != t93 or V[94] != t94:
        V[92] = t92
        V[93] = t93
        V[94] = t94
        NQ[43] = 1
        if not PQ[23]:
            PQ[23] = 1
            PEND.append(23)

def _f23(V, NQ, PEND, PQ):
    t95 = V[95]
    t96 = V[96]
    t97 = V[97]
    if (V[2] == 1) or (V[113] == 1):
        t95 = 0
    else:
        t95 = V[92]
        t96 = V[93]
        t97 = V[94] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[94] << 64) & 0x1fffffffffffffffe00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[92] == 1) and ((V[93] >> 4 & 1) == 1)) and ((V[94] >> 544 & 1) == 0):
            if V[174] == 1:
                t97 = t97 & 0x1fffffffffffffffffffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t97 = t97 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[173] << 641) & 0x1fffffffffffffffe0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[95] != t95 or V[96] != t96 or V[97] != t97:
        V[95] = t95
        V[96] = t96
        V[97] = t97
        if not PQ[24]:
            PQ[24] = 1
            PEND.append(24)

def _f24(V, NQ, PEND, PQ):
    t98 = V[98]
    t99 = V[99]
    t100 = V[100]
    if (V[2] == 1) or (V[113] == 1):
        t98 = 0
    else:
        t98 = V[95]
        t99 = V[96]
        t100 = V[97]
        if ((V[95] == 1) and ((V[96] >> 4 & 1) == 1)) and ((V[97] >> 544 & 1) == 0):
            t100 = t100 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[97] >> 641 & 0xffffffffffffffff) + 1) & 0xffffffffffffffff) << 641)
    if V[98] != t98 or V[99] != t99 or V[100] != t100:
        V[98] = t98
        V[99] = t99
        V[100] = t100
        NQ[50] = 1
        if not PQ[25]:
            PQ[25] = 1
            PEND.append(25)

def _f25(V, NQ, PEND, PQ):
    t101 = V[101]
    t102 = V[102]
    t103 = V[103]
    if (V[2] == 1) or (V[113] == 1):
        t101 = 0
    else:
        t101 = V[98]
        t102 = V[99]
        t103 = V[100] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[100] >> 128) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if ((V[98] == 1) and ((V[99] >> 4 & 1) == 1)) and ((V[100] >> 544 & 1) == 0):
            if V[174] == 1:
                t103 = t103 & 0x1fffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t102 = t102 & 0xffffffdf | 0x20
    if V[101] != t101 or V[102] != t102 or V[103] != t103:
        V[101] = t101
        V[102] = t102
        V[103] = t103
        NQ[53] = 1
        if not PQ[26]:
            PQ[26] = 1
            PEND.append(26)

def _f26(V, NQ, PEND, PQ):
    t104 = V[104]
    t105 = V[105]
    t106 = V[106]
    if (V[2] == 1) or (V[113] == 1):
        t104 = 0
    else:
        t104 = V[101]
        t105 = V[102]
        t106 = V[103] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[101] == 1) and ((V[102] >> 5 & 1) == 1)) and ((V[103] >> 544 & 1) == 0):
            if V[165] == 1:
                t106 = t106 & 0x1fffffffffffffffffffffffffffffffe00000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x30000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            else:
                t106 = t106 & 0x1fffffffffffffffe0000000000000001ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[164] << 577) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
        if (((V[101] == 1) and ((V[102] >> 5 & 1) == 1)) and ((V[103] >> 544 & 1) == 0)) and ((0 if V[165] == 1 else 1)):
            t106 = t106 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
    if V[104] != t104 or V[105] != t105 or V[106] != t106:
        V[104] = t104
        V[105] = t105
        V[106] = t106
        NQ[58] = 1
        if not PQ[27]:
            PQ[27] = 1
            PEND.append(27)

def _f27(V, NQ, PEND, PQ):
    t107 = V[107]
    t108 = V[108]
    t109 = V[109]
    if (V[2] == 1) or (V[113] == 1):
        t107 = 0
    else:
        t107 = V[104]
        t108 = V[105]
        t109 = V[106] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[104] == 1) and ((V[105] >> 5 & 1) == 1)) and ((V[106] >> 544 & 1) == 0):
            t109 = t109 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | (V[188] << 577) & 0x1fffffffffffffffe000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    if V[107] != t107 or V[108] != t108 or V[109] != t109:
        V[107] = t107
        V[108] = t108
        V[109] = t109
        if not PQ[28]:
            PQ[28] = 1
            PEND.append(28)

def _f28(V, NQ, PEND, PQ):
    t110 = V[110]
    t111 = V[111]
    t112 = V[112]
    if (V[2] == 1) or (V[113] == 1):
        t110 = 0
    else:
        t110 = V[107]
        t111 = V[108]
        t112 = V[109] & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
        if ((V[107] == 1) and ((V[108] >> 5 & 1) == 1)) and ((V[109] >> 544 & 1) == 0):
            t112 = t112 & 0x1fffffffeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | 0x10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
            t112 = t112 & 0x1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff | ((((V[109] >> 577 & 0xffffffffffffffff)) & 0xffffffff) << 545)
    if V[110] != t110:
        V[110] = t110
        NQ[76] = 1
    V[111] = t111
    if V[112] != t112:
        V[112] = t112
        NQ[62] = 1

_EVAL = (_e0, _e1, _e2, _e3, _e4, _e5, _e6, _e7, _e8, _e9, _e10, _e11, _e12, _e13, _e14, _e15, _e16, _e17, _e18, _e19, _e20, _e21, _e22, _e23, _e24, _e25, _e26, _e27, _e28, _e29, _e30, _e31, _e32, _e33, _e34, _e35, _e36, _e37, _e38, _e39, _e40, _e41, _e42, _e43, _e44, _e45, _e46, _e47, _e48, _e49, _e50, _e51, _e52, _e53, _e54, _e55, _e56, _e57, _e58, _e59, _e60, _e61, _e62, _e63, _e64, _e65, _e66, _e67, _e68, _e69, _e70, _e71, _e72, _e73, _e74, _e75, _e76, _e77, _e78, _e79, _e80, _e81, _e82, _e83, _e84, _e85, _e86, _e87, _e88, _e89, _e90, _e91, _e92, _e93, _e94)
_PFUSED = (_f0, _f1, _f2, _f3, _f4, _f5, _f6, _f7, _f8, _f9, _f10, _f11, _f12, _f13, _f14, _f15, _f16, _f17, _f18, _f19, _f20, _f21, _f22, _f23, _f24, _f25, _f26, _f27, _f28)
_READERS = {
    2: ((), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28)),
    3: ((4,), ()),
    4: ((4,), ()),
    5: ((64,), ()),
    17: ((64,), ()),
    18: ((78,), ()),
    19: ((79,), ()),
    21: ((88,), (0,)),
    22: ((89,), ()),
    23: ((92,), ()),
    24: ((93,), ()),
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
    44: ((), (7,)),
    45: ((), (7,)),
    46: ((), (7,)),
    47: ((14,), (8,)),
    48: ((14,), (8,)),
    49: ((14,), (8,)),
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
    62: ((23,), (13,)),
    63: ((23,), (13,)),
    64: ((23,), (13,)),
    65: ((28,), (14,)),
    66: ((28,), (14,)),
    67: ((28,), (14,)),
    68: ((33,), (15,)),
    69: ((33,), (15,)),
    70: ((33,), (15,)),
    71: ((), (16,)),
    72: ((), (16,)),
    73: ((), (16,)),
    74: ((), (17,)),
    75: ((), (17,)),
    76: ((), (17,)),
    77: ((), (18,)),
    78: ((), (18,)),
    79: ((), (18,)),
    80: ((), (19,)),
    81: ((), (19,)),
    82: ((), (19,)),
    83: ((39,), (20,)),
    84: ((39,), (20,)),
    85: ((39,), (20,)),
    86: ((), (21,)),
    87: ((), (21,)),
    88: ((), (21,)),
    89: ((), (22,)),
    90: ((), (22,)),
    91: ((), (22,)),
    92: ((43,), (23,)),
    93: ((43,), (23,)),
    94: ((43,), (23,)),
    95: ((), (24,)),
    96: ((), (24,)),
    97: ((), (24,)),
    98: ((50,), (25,)),
    99: ((50,), (25,)),
    100: ((50,), (25,)),
    101: ((53,), (26,)),
    102: ((53,), (26,)),
    103: ((53,), (26,)),
    104: ((58,), (27,)),
    105: ((58,), (27,)),
    106: ((58,), (27,)),
    107: ((), (28,)),
    108: ((), (28,)),
    109: ((), (28,)),
    110: ((76,), ()),
    112: ((62,), ()),
    113: ((), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28)),
    114: ((70,), ()),
    115: ((70,), ()),
    116: ((70,), ()),
    117: ((70,), ()),
    118: ((70,), ()),
    119: ((70,), ()),
    120: ((70,), ()),
    121: ((70,), ()),
    122: ((70,), ()),
    123: ((70,), ()),
    124: ((70,), ()),
    125: ((70,), ()),
    126: ((70,), ()),
    127: ((70,), ()),
    128: ((70,), ()),
    129: ((70,), ()),
    130: ((70,), ()),
    131: ((70,), ()),
    132: ((70,), ()),
    133: ((70,), ()),
    134: ((70,), ()),
    135: ((70,), ()),
    136: ((70,), ()),
    137: ((70,), ()),
    138: ((70,), ()),
    139: ((75,), ()),
    140: ((75,), ()),
    141: ((75,), ()),
    142: ((75,), ()),
    143: ((75,), ()),
    144: ((75,), ()),
    145: ((75,), ()),
    146: ((75,), ()),
    147: ((75,), ()),
    148: ((75,), ()),
    149: ((75,), ()),
    150: ((75,), ()),
    151: ((75,), ()),
    152: ((75,), ()),
    153: ((75,), ()),
    154: ((70,), ()),
    155: ((70,), ()),
    156: ((70,), ()),
    157: ((70,), ()),
    158: ((70,), ()),
    159: ((80,), ()),
    160: ((80,), ()),
    161: ((80,), ()),
    162: ((80,), ()),
    163: ((80,), ()),
    164: ((), (8, 12, 13, 14, 15, 26)),
    165: ((), (8, 12, 13, 14, 15, 26)),
    168: ((81,), ()),
    169: ((81,), ()),
    170: ((81,), ()),
    171: ((81,), ()),
    172: ((81,), ()),
    173: ((), (20, 23)),
    174: ((), (20, 23, 25)),
    175: ((94,), ()),
    178: ((76,), ()),
    179: ((85,), ()),
    180: ((82,), ()),
    182: ((65,), ()),
    183: ((65,), ()),
    184: ((65,), ()),
    185: ((65,), ()),
    186: ((65,), ()),
    187: ((65,), ()),
    188: ((), (27,)),
}
_PRIO = (0, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)

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
    _v75 = (1) & 1
    if V[5] != _v75:
        V[5] = _v75
        NQ[64] = 1
    V[6] = (1) & 1
    _v76 = (data) & 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
    if V[3] != _v76:
        V[3] = _v76
        NQ[4] = 1
    _v77 = (tlen) & 0xffff
    if V[4] != _v77:
        V[4] = _v77
        NQ[4] = 1
    done, hit, nc, pr = _run(V, NQ, PEND, PQ, PRIMS, ACT, 1)
    if hit:
        return (0, 1, nc, pr)
    if V[5]:
        V[5] = 0
        NQ[64] = 1
    done, hit, nc2, pr2 = _run(V, NQ, PEND, PQ, PRIMS, ACT,
                               span - 1)
    return (done + 1, hit, nc + nc2, pr + pr2)

_GEN_VERSION = 7
_N_NODES = 95
_N_PROCS = 29
_PRIM_NODE_IDS = (65, 80, 81)
_PRIM_LABELS = ('ehdl_helper_23', 'router_rmw_map_1.ch0', 'router_rmw_map_2.ch0')
_BIND = (('context', 65), ('counts', 65), ('storage', 80), ('map', 80), ('find', 80), ('storage', 81), ('map', 81), ('find', 81))

