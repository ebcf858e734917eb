"""Tests of the repro.workloads subsystem (spec, sampler, generators)."""

import dataclasses
import gc
import hashlib
import random
import weakref
from array import array

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.net.flows import (
    TrafficGenerator,
    TrafficSpec,
    flow_at,
    zipf_weights,
)
from repro.net.packet import parse_five_tuple, udp_packet
from repro.serve.feeder import Feeder, FeedSpec, parse_feed_spec
from repro.workloads import (
    WORKLOADS,
    WorkloadSpec,
    ZipfSampler,
    ipv4_template,
    make_sampler,
    make_workload,
    parse_workload_spec,
    workload_names,
)
from repro.workloads.generators import FRAME_MEMO_MAX, Ipv4Template
from repro.workloads.zipf import MAX_TABLES


class TestSpecParsing:
    def test_defaults(self):
        spec = parse_workload_spec("udp-zipf")
        assert spec.kind == "udp-zipf"
        assert spec.packets == 10_000
        assert spec.distribution == "zipf"

    def test_fields_and_aliases(self):
        spec = parse_workload_spec(
            "tcp-handshake:packets=500,flows=1000000,dist=uniform,"
            "size=128,seed=7"
        )
        assert spec.packets == 500
        assert spec.flows == 1_000_000
        assert spec.distribution == "uniform"
        assert spec.packet_size == 128
        assert spec.seed == 7

    def test_generator_params_ride_in_params(self):
        spec = parse_workload_spec("flow-churn:churn=0.25,packets=10")
        assert spec.param_float("churn", 0.0) == 0.25
        assert spec.packets == 10

    def test_describe_roundtrips(self):
        spec = parse_workload_spec("tunnel-encap:packets=50,vnis=4")
        again = parse_workload_spec(spec.describe())
        assert again == spec

    def test_bad_option_rejected(self):
        with pytest.raises(ValueError, match="not key=value"):
            parse_workload_spec("udp-zipf:packets")

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            parse_workload_spec("udp-zipf:dist=pareto")

    def test_unknown_kind_error_enumerates_names(self):
        with pytest.raises(ValueError) as err:
            make_workload(WorkloadSpec(kind="nope"))
        for name in workload_names():
            assert name in str(err.value)

    # Each used to be a struct.error / ZeroDivisionError from inside a
    # generator, or silently generated garbage.
    @pytest.mark.parametrize("text,option,accepted", [
        ("udp-zipf:size=70000", "size=70000", "1..65499"),
        ("udp-zipf:size=0", "size=0", "1..65499"),
        ("udp-zipf:exponent=nan", "exponent=nan", "0.0..10.0"),
        ("udp-zipf:exponent=-1", "exponent=-1.0", "0.0..10.0"),
        ("tunnel-encap:vnis=0", "vnis=0", "1..16777216"),
        ("flow-churn:churn=-1", "churn=-1.0", ">= 0.0"),
        ("flow-churn:churn=inf", "churn=inf", ">= 0.0"),
        ("syn-flood:dport=70000", "dport=70000", "0..65535"),
    ])
    def test_out_of_range_option_is_a_typed_error(self, text, option,
                                                  accepted):
        with pytest.raises(ValueError) as err:
            make_workload(parse_workload_spec(text)).frames()
        assert option in str(err.value) and accepted in str(err.value)
        # ... and at the serving daemon's parse boundary
        kind, _, rest = text.partition(":")
        with pytest.raises(ValueError, match=option.partition("=")[0]):
            parse_feed_spec(f"workload:{kind},{rest}")

    def test_synth_feed_size_is_checked_at_parse(self):
        with pytest.raises(ValueError, match=r"size=70000.*1\.\.65499"):
            parse_feed_spec("synth:size=70000")
        # a FeedSpec built in code fails before the first frame
        with pytest.raises(ValueError, match="size=70000"):
            Feeder(FeedSpec(source="synth", packet_size=70000)).frames()

    def test_largest_size_builds_for_every_ipv4_kind(self):
        for kind in ("udp-zipf", "flow-churn", "tunnel-encap"):
            spec = parse_workload_spec(f"{kind}:size=65499,packets=1")
            assert len(make_workload(spec).materialize()[0]) >= 65499


class TestZipfSampler:
    def test_matches_random_choices(self):
        # The inverse-CDF sampler must make the exact draws
        # random.choices would: that is what keeps the feeder's and
        # generator's streams identical to the pre-refactor ones.
        n, s = 1000, 1.1
        weights = zipf_weights(n, s)
        cum = []
        total = 0.0
        for w in weights:
            total += w
            cum.append(total)
        rng1 = random.Random(42)
        rng2 = random.Random(42)
        sampler = ZipfSampler(n, s)
        expected = []
        got = []
        for _ in range(500):
            expected.append(rng1.choices(range(n), cum_weights=cum, k=1)[0])
            got.append(sampler.sample(rng2))
        assert got == expected

    def test_million_flow_table_is_cheap(self):
        sampler = ZipfSampler(1_000_000, 1.0)
        rng = random.Random(1)
        ranks = [sampler.sample(rng) for _ in range(100)]
        assert all(0 <= r < 1_000_000 for r in ranks)
        # Zipf: rank 0 must dominate a uniform draw's hit rate
        assert ranks.count(0) >= 1
        # The table, bit for bit: every Zipfian trace in the tree (and
        # every replay-verified serve journal) is a function of it.
        assert hashlib.sha256(
            array("d", sampler._cum).tobytes()).hexdigest() == \
            "476bc882cc5b87eccd556acac923a2c1dc94f5cb078352633d52ed9189903d00"
        # 8 bytes a flow, not a list of a million float objects
        assert sampler._cum.itemsize * len(sampler._cum) == 8_000_000

    def test_uniform_sampler(self):
        sampler = make_sampler(100, "uniform", 1.0)
        a = [sampler.sample(random.Random(5)) for _ in range(3)]
        b = [sampler.sample(random.Random(5)) for _ in range(3)]
        assert a == b

    def test_samplers_of_one_population_share_the_table(self):
        assert ZipfSampler(5000, 1.1)._cum is ZipfSampler(5000, 1.1)._cum
        assert ZipfSampler(5000, 1.1)._cum is not ZipfSampler(5000, 1.2)._cum

    def test_at_most_four_tables_stay_alive(self):
        tables = [weakref.ref(ZipfSampler(n, 0.9)._cum)
                  for n in range(100, 106)]
        gc.collect()
        alive = [ref() for ref in tables if ref() is not None]
        assert len(alive) == MAX_TABLES == 4
        # the survivors are the most recent, still shared
        assert alive[-1] is ZipfSampler(105, 0.9)._cum

    @pytest.mark.parametrize("distribution", ["zipf", "uniform"])
    def test_ranks_stream_is_repeated_sample(self, distribution):
        sampler = make_sampler(3000, distribution, 1.3)
        rng = random.Random(11)
        expected = [sampler.sample(rng) for _ in range(400)]
        ranks = sampler.ranks(random.Random(11))
        assert [next(ranks) for _ in range(400)] == expected


# sha256 over (2-byte length, frame) of `<kind>:flows=1000,packets=2000`.
_FRAME_DIGESTS = {
    ("flow-churn", 1): "49ae36b8880ba82ec7d74096606a29f6f81327f151c9f62f099f060eb6d88b67",
    ("flow-churn", 7): "6859d4f9a2882e93436cd00f0db324e027396794ecb2095c761b3336421a93e5",
    ("syn-flood", 1): "12ef8dd1d28cc1bbb44bbcf7317f3a5d90d8c0642cd63172ea447000f0641599",
    ("syn-flood", 7): "37362216bb41c77ad6c7a108c25023b0d98c57d578e571114575ad81cbe7fe8e",
    ("tcp-handshake", 1): "d469219a0b0a15d3a3f0e831e30a360246974232cb1b26e233c81e6b60d4880e",
    ("tcp-handshake", 7): "bb77bcce9ee21c08caa050de2914c9e7bfe049d953838f9d25217cc616380c62",
    ("tunnel-encap", 1): "ba29442cdec23c71204e9940e4a7e81984148db2b9e869f51fb16ff88cae6e04",
    ("tunnel-encap", 7): "9e33bf3963306ce45725f5e5612e1d88e635852fd46ff50fabaac9bdf55da3f0",
    ("udp-zipf", 1): "9b598cc0fa7a1d1d285fffcd76922b3ae1bc718153a86fc8e3a3bec05e685c29",
    ("udp-zipf", 7): "da79a7a2bcec3c3baad51908ce7cb873a624bcf8eb8ffcc5eb877367515f03b4",
    ("udp6-nat64", 1): "a66904648a683f09343419fddb829c4e103ad7188e7d905dbbeaf8d3fbb1755b",
    ("udp6-nat64", 7): "5241ef64bed81e247697666180da0c93e6ad3a706b3387705b5e000ffb723216",
}


class TestFrameDigests:
    """Golden frame sequences per (kind, seed): a generator change that
    moves one byte of one frame moves every EXPERIMENTS.md table and
    every replay-verified journal built on it, so it must show here."""

    def test_every_kind_is_pinned(self):
        assert {kind for kind, _seed in _FRAME_DIGESTS} == set(WORKLOADS)

    @pytest.mark.parametrize("kind,seed", sorted(_FRAME_DIGESTS))
    def test_frame_sequence_digest(self, kind, seed):
        spec = dataclasses.replace(
            parse_workload_spec(f"{kind}:flows=1000,packets=2000"),
            seed=seed)
        digest = hashlib.sha256()
        for frame in make_workload(spec).frames():
            digest.update(len(frame).to_bytes(2, "big"))
            digest.update(frame)
        assert digest.hexdigest() == _FRAME_DIGESTS[(kind, seed)]


# sha256 over (2-byte length, frame) of the serving feeder's
# `synth:packets=2000,flows=1000,dist=<dist>,seed=<seed>`, captured
# while the feeder still had its own synthesis path (commit df5d6ec).
_SYNTH_FEED_DIGESTS = {
    ("zipf", 1): "9b598cc0fa7a1d1d285fffcd76922b3ae1bc718153a86fc8e3a3bec05e685c29",
    ("zipf", 7): "da79a7a2bcec3c3baad51908ce7cb873a624bcf8eb8ffcc5eb877367515f03b4",
    ("uniform", 1): "1a840d552de9de57ddfef9bf4a3537236ba18baedc1412fd614095dcaceba870",
    ("uniform", 7): "77c3134e513fc43b475176f83fff4894fdf4695b62eec18ef5f4dd5ba0592fad",
}


@pytest.mark.parametrize("dist,seed", sorted(_SYNTH_FEED_DIGESTS))
def test_synth_feed_digest(dist, seed):
    feeder = Feeder(parse_feed_spec(
        f"synth:packets=2000,flows=1000,dist={dist},seed={seed}"))
    digest = hashlib.sha256()
    for frame in feeder.frames():
        digest.update(len(frame).to_bytes(2, "big"))
        digest.update(frame)
    assert digest.hexdigest() == _SYNTH_FEED_DIGESTS[(dist, seed)]


_L4 = 34  # Ethernet + option-less IPv4


def _oracle_frame(index, size):
    """Flow ``index``'s frame built the long way: the general packet
    builder over ``flow_at``, L4 checksum cleared."""
    flow = flow_at(index)
    frame = bytearray(udp_packet(
        src_ip=flow.src_ip, dst_ip=flow.dst_ip, sport=flow.sport,
        dport=flow.dport, size=size))
    frame[_L4 + 6:_L4 + 8] = b"\x00\x00"
    return bytes(frame)


def _ip_header_sum(frame):
    """The folded one's-complement sum of the IPv4 header, and how
    many folds it took."""
    total = sum(int.from_bytes(frame[off:off + 2], "big")
                for off in range(14, _L4, 2))
    folds = 0
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
        folds += 1
    return total, folds


def _double_carry_index(size):
    """An index whose header sum, checksum field still zero, carries
    out of 16 bits again after the first fold."""
    for index in range(0x10000):
        frame = bytearray(_oracle_frame(index, size))
        frame[24:26] = b"\x00\x00"
        if _ip_header_sum(frame)[1] == 2:
            return index


class TestIpv4Template:
    """The frame kernel against an independent oracle."""

    @pytest.mark.parametrize("size", [60, 64, 128, 1500])
    @given(index=st.integers(0, 1 << 40))
    @example(index=0)
    @example(index=0xFFFFFD)    # last source address before the wrap
    @example(index=0xFFFFFE)    # ... the wrap
    @example(index=0xFFFFFF)
    @example(index=59999)       # same for the source port
    @example(index=60000)
    @example(index=253)         # and the destination /24
    @example(index=254)
    def test_frame_is_udp_packet_of_flow_at(self, size, index):
        frame = Ipv4Template(size).frame(index)
        assert frame == _oracle_frame(index, size)
        assert _ip_header_sum(frame)[0] == 0xFFFF

    @pytest.mark.parametrize("size", [60, 64, 128, 1500])
    def test_checksum_that_carries_twice(self, size):
        index = _double_carry_index(size)
        frame = Ipv4Template(size).frame(index)
        assert frame == _oracle_frame(index, size)
        assert _ip_header_sum(frame)[0] == 0xFFFF

    @given(flows=st.integers(1, 50), churn=st.floats(0.0, 400.0),
           seed=st.integers(0, 99))
    def test_flow_churn_offsets_past_the_population(self, flows, churn,
                                                    seed):
        spec = WorkloadSpec(kind="flow-churn", packets=30, flows=flows,
                            seed=seed, params=(("churn", repr(churn)),))
        sampler, rng = ZipfSampler(flows, 1.0), random.Random(seed)
        assert make_workload(spec).materialize() == [
            _oracle_frame(sampler.sample(rng) + int(i * churn), 64)
            for i in range(30)]

    def test_tunnel_encap_inner_frame(self):
        spec = WorkloadSpec(kind="tunnel-encap", packets=40, flows=300,
                            packet_size=128, seed=5)
        sampler, rng = ZipfSampler(300, 1.0), random.Random(5)
        for frame in make_workload(spec).frames():
            assert frame[50:] == _oracle_frame(sampler.sample(rng), 128)

    def test_memo_stays_within_its_bound(self):
        template = Ipv4Template(64)
        assert template.memo_max == FRAME_MEMO_MAX == 1 << 16
        template.memo_max = 8
        for index in range(100):
            assert template.frame(index % 37) == _oracle_frame(index % 37, 64)
            assert len(template.memo) <= 8
        # big frames hit the byte bound first (8 MiB)
        assert Ipv4Template(1500).memo_max == (8 << 20) // 1500

    def test_pass_after_a_clear_is_byte_identical(self):
        workload = make_workload(WorkloadSpec(packets=500, flows=200))
        first = workload.materialize()
        ipv4_template(64).memo.clear()
        second = workload.materialize()
        assert first == second
        assert not any(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("kind", ["udp-zipf", "flow-churn"])
    def test_recurring_flow_is_one_shared_object(self, kind):
        spec = WorkloadSpec(kind=kind, packets=2000, flows=100_000)
        frames = make_workload(spec).materialize()
        assert len(set(frames)) < len(frames)  # the trace has repeats
        assert len({id(f) for f in frames}) == len(set(frames))
        # ... across passes and workload instances too
        again = make_workload(spec).materialize()
        assert all(a is b for a, b in zip(frames, again))


class TestGenerators:
    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    def test_restartable_and_deterministic(self, kind):
        spec = WorkloadSpec(kind=kind, packets=50, flows=1000)
        wl = make_workload(spec)
        first = wl.materialize()
        second = wl.materialize()
        assert first == second
        assert len(first) == 50
        # a distinct instance from the same spec agrees too
        assert make_workload(spec).materialize() == first

    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    def test_seed_changes_stream(self, kind):
        a = make_workload(WorkloadSpec(kind=kind, packets=50)).materialize()
        b = make_workload(
            WorkloadSpec(kind=kind, packets=50, seed=2)
        ).materialize()
        assert a != b

    def test_udp_zipf_matches_synth_feed(self):
        # udp-zipf over N flows is the serving feeder's synth: source —
        # one arithmetic, shared by construction.
        wl = make_workload(WorkloadSpec(kind="udp-zipf", packets=40,
                                        flows=500, seed=3))
        feed = Feeder(parse_feed_spec(
            "synth:packets=40,flows=500,dist=zipf,seed=3"))
        assert wl.materialize() == list(feed.frames())

    def test_tcp_handshake_lifecycle(self):
        wl = make_workload(WorkloadSpec(
            kind="tcp-handshake", packets=200, flows=1,
            params=(("data_packets", "2"),),
        ))
        frames = wl.materialize()
        flags = [f[47] for f in frames]
        # one flow: SYN, ACK, 2x PSH/ACK, FIN/ACK, then repeat
        assert flags[:5] == [0x02, 0x10, 0x18, 0x18, 0x11]
        assert flags[5:10] == flags[:5]
        # new connection, new ISN
        isn0 = int.from_bytes(frames[0][38:42], "big")
        isn1 = int.from_bytes(frames[5][38:42], "big")
        assert isn0 != isn1

    def test_tunnel_encap_shape(self):
        wl = make_workload(WorkloadSpec(kind="tunnel-encap", packets=30,
                                        flows=100,
                                        params=(("vnis", "4"),)))
        for frame in wl.materialize():
            tup = parse_five_tuple(frame)
            assert tup.dport == 4789
            assert frame[42] == 0x08  # VXLAN I flag
            vni = int.from_bytes(frame[46:49], "big")
            assert 0 <= vni < 4
            # inner frame is a full Ethernet/IPv4/UDP packet
            inner = frame[50:]
            assert parse_five_tuple(inner).proto == 17

    def test_flow_churn_slides_population(self):
        wl = make_workload(WorkloadSpec(
            kind="flow-churn", packets=400, flows=10, seed=1,
            params=(("churn", "1.0"),),
        ))
        frames = wl.materialize()
        first_srcs = {bytes(f[26:30]) for f in frames[:50]}
        last_srcs = {bytes(f[26:30]) for f in frames[-50:]}
        # with churn=1.0 over 400 packets and 10 ranks, the early and
        # late populations must be disjoint
        assert not (first_srcs & last_srcs)

    def test_syn_flood_spoofs_sources(self):
        wl = make_workload(WorkloadSpec(kind="syn-flood", packets=100))
        frames = wl.materialize()
        assert all(f[47] == 0x02 for f in frames)
        dsts = {bytes(f[30:34]) for f in frames}
        assert len(dsts) == 1  # one victim
        srcs = {bytes(f[26:30]) for f in frames}
        assert len(srcs) > 90  # spoofed sources do not revisit

    def test_udp6_nat64_targets_well_known_prefix(self):
        wl = make_workload(WorkloadSpec(kind="udp6-nat64", packets=30,
                                        flows=100))
        for frame in wl.materialize():
            assert frame[12:14] == b"\x86\xdd"
            assert frame[38:42] == bytes.fromhex("0064ff9b")
            assert frame[42:50] == bytes(8)


class TestFeederWorkloadSource:
    def test_workload_feed_parses_and_runs(self):
        feed = parse_feed_spec("workload:tcp-handshake,packets=20,flows=50")
        assert feed.source == "workload"
        assert feed.packets == 20
        assert feed.flows == 50
        frames = list(Feeder(feed).frames())
        assert len(frames) == 20
        assert frames == list(Feeder(feed).frames())  # restartable

    def test_workload_feed_matches_generator(self):
        feed = parse_feed_spec("workload:flow-churn,packets=25,churn=0.2")
        wl = make_workload(parse_workload_spec("flow-churn:packets=25,churn=0.2"))
        assert list(Feeder(feed).frames()) == wl.materialize()

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_feed_spec("workload:bogus,packets=5")
        assert "tcp-handshake" in str(err.value)

    def test_describe_preserves_workload(self):
        feed = parse_feed_spec("workload:syn-flood,packets=9,dport=443")
        assert feed.describe().startswith("workload:syn-flood:")
        assert "dport=443" in feed.describe()


class TestTrafficGeneratorDedup:
    def test_generator_zipf_uses_shared_sampler(self):
        # TrafficGenerator must draw identical Zipf picks to the shared
        # sampler (dedup satellite: one Zipf implementation).
        gen = TrafficGenerator(TrafficSpec(
            n_flows=200, distribution="zipf", seed=9))
        sampler = ZipfSampler(200, 1.0)
        rng = random.Random(9)
        expected = [sampler.sample(rng) for _ in range(50)]
        got = [gen.flows.index(gen.pick_flow()) for _ in range(50)]
        assert got == expected
