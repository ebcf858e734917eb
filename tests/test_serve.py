"""Serving daemon tests: control plane, hot-swap determinism, the soak.

The acceptance test at the bottom is the ISSUE's soak harness: Zipfian
traffic over a million-flow population with mid-stream hot-swaps and
runtime map writes, proven bit-identical against the offline segmented
replay of the journal.
"""

import threading

import pytest

from repro.apps import firewall, toy_counter
from repro.hwsim.sim import SimError
from repro.net.flows import flow_at
from repro.net.packet import udp_packet
from repro.serve import (
    CtlClient,
    CtlError,
    FeedSpec,
    Feeder,
    NicDaemon,
    ProgramSpec,
    ServeConfig,
    ServeError,
    ServeServer,
    carry_maps,
    parse_feed_spec,
    segmented_replay,
    verify_replay,
)
from repro.serve.protocol import (
    MAX_LINE,
    ProtocolError,
    decode,
    encode,
    validate_request,
)


def two_slot_config(**overrides):
    """toy_counter default slot + firewall slot steered at IPv4."""
    settings = dict(
        programs=[ProgramSpec("bg", toy_counter.build()),
                  ProgramSpec("fw", firewall.build(), ethertype=0x0800)],
        feed=FeedSpec(source="synth", packets=4096, flows=512,
                      distribution="zipf", seed=7),
        engine="codegen", batch_size=512, exit_when_drained=True,
    )
    settings.update(overrides)
    return ServeConfig(**settings)


class TestProtocol:
    def test_round_trip(self):
        message = {"id": 3, "op": "swap", "name": "fw", "keep_maps": True}
        assert decode(encode(message)) == message

    def test_reject_non_object(self):
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            decode(b"not json")

    def test_reject_oversized(self):
        with pytest.raises(ProtocolError):
            encode({"id": 1, "op": "ping", "blob": "x" * MAX_LINE})

    def test_validate_request(self):
        assert validate_request({"op": "ping"}) == "ping"
        with pytest.raises(ProtocolError):
            validate_request({"op": "reboot"})
        with pytest.raises(ProtocolError):
            validate_request({"id": 1})


class TestFeedSpec:
    def test_parse_gen(self):
        spec = parse_feed_spec("gen:packets=200,flows=10,dist=zipf,seed=5")
        assert spec.source == "gen"
        assert (spec.packets, spec.flows, spec.seed) == (200, 10, 5)
        assert spec.distribution == "zipf"

    def test_parse_synth_with_exponent(self):
        spec = parse_feed_spec("synth:flows=0x100,exponent=1.2")
        assert spec.source == "synth"
        assert spec.flows == 256
        assert spec.zipf_exponent == 1.2

    def test_parse_pcap(self):
        assert parse_feed_spec("pcap:/tmp/x.pcap").path == "/tmp/x.pcap"
        assert parse_feed_spec("/tmp/y.pcap").source == "pcap"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_feed_spec("dpdk:packets=1")
        with pytest.raises(ValueError):
            parse_feed_spec("gen:bogus=1")
        with pytest.raises(ValueError):
            parse_feed_spec("gen:packets")
        with pytest.raises(ValueError):
            parse_feed_spec("gen:dist=pareto")

    def test_describe_round_trips(self):
        spec = parse_feed_spec("synth:packets=9,flows=3,dist=zipf")
        assert parse_feed_spec(spec.describe()) == spec


class TestFeeder:
    def test_deterministic_restart(self):
        feeder = Feeder(FeedSpec(source="synth", packets=300, flows=50,
                                 distribution="zipf", seed=3))
        first = [bytes(f) for f in feeder.frames()]
        second = [bytes(f) for f in feeder.frames()]
        assert first == second
        assert len(first) == 300

    def test_synth_matches_flow_enumeration(self):
        feeder = Feeder(FeedSpec(source="synth", packets=64, flows=4,
                                 seed=1))
        for frame in feeder.frames():
            src = int.from_bytes(frame[26:30], "big")
            sport = int.from_bytes(frame[34:36], "big")
            index = sport - 1024
            assert 0 <= index < 4
            assert src == flow_at(index).src_ip

    def test_synth_ip_checksum_valid(self):
        feeder = Feeder(FeedSpec(source="synth", packets=8, flows=8))
        for frame in feeder.frames():
            total = sum(
                int.from_bytes(frame[off:off + 2], "big")
                for off in range(14, 34, 2)
            )
            while total >> 16:
                total = (total & 0xFFFF) + (total >> 16)
            assert total == 0xFFFF

    def test_batches_cut(self):
        feeder = Feeder(FeedSpec(source="gen", packets=70, flows=5))
        batches = list(feeder.batches(32))
        assert [len(b) for b in batches] == [32, 32, 6]

    def test_pcap_feed(self, tmp_path):
        from repro.net.pcap import write_pcap

        frames = [udp_packet(sport=1000 + i) for i in range(5)]
        path = tmp_path / "t.pcap"
        write_pcap(str(path), [(i * 1e-6, f) for i, f in enumerate(frames)])
        feeder = Feeder(parse_feed_spec(str(path)))
        assert [bytes(f) for f in feeder.frames()] == frames

    def test_zero_length_pcap_record_is_served(self, tmp_path):
        # an empty record is a frame like any other: the engines give it
        # its entry-check verdict, the feed does not die on it
        from repro.net.pcap import write_pcap

        frame = toy_counter.packet_for_key(1)
        path = tmp_path / "hole.pcap"
        write_pcap(str(path), [(0, frame), (1000, b""), (2000, frame)])
        config = ServeConfig(
            programs=[ProgramSpec("bg", toy_counter.build())],
            feed=parse_feed_spec("pcap:" + str(path)),
            engine="codegen", batch_size=8, exit_when_drained=True,
        )
        daemon = NicDaemon(config)
        report = daemon.run()
        assert report["frames"] == 3
        assert report["quarantined"] == []
        incarnation = report["programs"]["bg"]["incarnations"][0]
        assert incarnation["actions"] == {"DROP": 1, "TX": 2}
        offline = segmented_replay(config, report, daemon.program_table)
        assert verify_replay(report, offline) == []


class TestCarryMaps:
    def test_carries_matching_entries(self):
        prog = firewall.build()
        from repro.ebpf.maps import MapSet

        old = MapSet(prog.maps)
        key = firewall.flow_key(flow_at(0))
        old.by_name("flows").update(key, b"\x05" + bytes(7))
        fresh = carry_maps(old, firewall.build())
        assert fresh.by_name("flows").lookup(key) == b"\x05" + bytes(7)

    def test_shape_mismatch_keeps_fresh_map(self):
        from repro.ebpf.maps import MapSet

        old = MapSet(firewall.build().maps)
        old.by_name("flows").update(firewall.flow_key(flow_at(0)), bytes(8))
        fresh = carry_maps(old, toy_counter.build())  # no 'flows' map
        assert all(m.entry_count() == 0 or m.name != "flows"
                   for m in fresh.maps.values())

    @staticmethod
    def _prog_with(map_type, key_size=4, value_size=8, max_entries=4,
                   banks=1):
        from repro.ebpf.asm import assemble_program
        from repro.ebpf.isa import MapSpec

        spec = MapSpec("conns", map_type, key_size=key_size,
                       value_size=value_size, max_entries=max_entries,
                       banks=banks)
        return assemble_program("r0 = 2\nexit", maps={"conns": spec})

    def test_lru_carry_preserves_eviction_order(self):
        from repro.ebpf.maps import MapSet

        old = MapSet(self._prog_with("lru_hash").maps)
        conns = old.by_name("conns")
        keys = [i.to_bytes(4, "little") for i in range(1, 5)]
        for key in keys:
            conns.update(key, bytes(8))
        conns.lookup(keys[0])  # touch: recency now k2, k3, k4, k1
        fresh = carry_maps(old, self._prog_with("lru_hash"))
        carried = fresh.by_name("conns")
        assert carried.lru_keys() == conns.lru_keys()
        # the carried recency order governs eviction: a fifth insert
        # must evict k2, not k1
        carried.update((9).to_bytes(4, "little"), bytes(8))
        assert carried.lookup(keys[1]) is None
        assert carried.lookup(keys[0]) is not None

    def test_banked_carry_preserves_every_banks_eviction_order(self):
        from repro.ebpf.maps import MapSet, bank_of

        banked = self._prog_with("lru_hash", max_entries=8, banks=4)
        old = MapSet(banked.maps)
        conns = old.by_name("conns")
        keys = [i.to_bytes(4, "little") for i in range(1, 13)]
        for key in keys:
            conns.update(key, key + bytes(4))
        conns.lookup(keys[-1])
        fresh = carry_maps(old, banked)
        carried = fresh.by_name("conns")
        # bank by bank, oldest first within each
        assert carried.lru_keys() == conns.lru_keys() == sorted(
            conns.lru_keys(), key=lambda key: bank_of(key, 4))
        assert list(carried.items()) == list(conns.items())
        # each bank evicts its own oldest entry, in both maps
        before = conns.evictions, carried.evictions
        for key in (b"\xaa" * 4, b"\xbb" * 4, b"\xcc" * 4):
            conns.update(key, bytes(8))
            carried.update(key, bytes(8))
        assert carried.lru_keys() == conns.lru_keys()
        assert (conns.evictions - before[0]
                == carried.evictions - before[1] > 0)

    def test_bank_count_mismatch_refuses_carry(self):
        from repro.ebpf.maps import MapSet

        # the same entries under another bank count would need a recency
        # order between banks that never existed
        for old_banks, new_banks in ((1, 4), (4, 1), (4, 2)):
            old = MapSet(self._prog_with("lru_hash", max_entries=8,
                                         banks=old_banks).maps)
            old.by_name("conns").update(bytes(4), bytes(8))
            fresh = carry_maps(old, self._prog_with(
                "lru_hash", max_entries=8, banks=new_banks))
            assert fresh.by_name("conns").entry_count() == 0

    def test_kind_mismatch_refuses_carry(self):
        from repro.ebpf.maps import MapSet

        # same name, same geometry, different map kind — carrying hash
        # entries into an LRU map would fabricate a recency order
        for old_kind, new_kind in (("hash", "lru_hash"),
                                   ("lru_hash", "hash")):
            old = MapSet(self._prog_with(old_kind).maps)
            old.by_name("conns").update(bytes(4), bytes(8))
            fresh = carry_maps(old, self._prog_with(new_kind))
            assert fresh.by_name("conns").entry_count() == 0

    def test_capacity_overflow_keeps_the_fresh_map_empty(self):
        from repro.ebpf.maps import MapSet

        # the new map fills up halfway through the copy: it is left as
        # it was made, not holding a prefix of the old entries
        old = MapSet(self._prog_with("hash", max_entries=8).maps)
        for key in range(6):
            old.by_name("conns").update(key.to_bytes(4, "little"), bytes(8))
        fresh = carry_maps(old, self._prog_with("hash", max_entries=4))
        conns = fresh.by_name("conns")
        assert conns.entry_count() == 0 and not conns.storage

    def test_geometry_mismatch_refuses_carry(self):
        from repro.ebpf.maps import MapSet

        old = MapSet(self._prog_with("lru_hash").maps)
        old.by_name("conns").update(bytes(4), bytes(8))
        fresh = carry_maps(old, self._prog_with("lru_hash", value_size=16))
        assert fresh.by_name("conns").entry_count() == 0


class TestBoundarySemantics:
    def test_map_write_at_boundary_zero_seen_by_first_batch(self):
        config = two_slot_config()
        daemon = NicDaemon(config)
        key = firewall.flow_key(flow_at(0))
        pending = daemon.schedule(0, {
            "op": "map_update", "program": "fw", "map": "flows",
            "key": key.hex(), "value": "00" * 8,
        })
        report = daemon.run()
        assert pending.error is None
        fw = report["programs"]["fw"]["incarnations"][0]
        # flow 0 is the hottest Zipf flow; with the allow entry installed
        # before any traffic, some of its packets must have been TXed
        assert fw["actions"].get("TX", 0) > 0
        assert report["journal"][0] == {
            "batch": 0, "op": "map_update", "name": "fw", "map": "flows",
            "key": key.hex(), "value": "00" * 8,
        }

    def test_swap_lands_exactly_at_scheduled_boundary(self):
        config = two_slot_config()
        daemon = NicDaemon(config)
        daemon.schedule(3, {"op": "swap", "name": "fw",
                            "program": toy_counter.build()})
        report = daemon.run()
        incarnations = report["programs"]["fw"]["incarnations"]
        assert [i["program"] for i in incarnations] == [
            "firewall", "toy_counter"
        ]
        assert incarnations[1]["from_batch"] == 3
        # every frame in this feed is IPv4 -> steered at fw, so the
        # packet split must equal the batch split exactly
        assert incarnations[0]["packets"] == 3 * config.batch_size
        assert incarnations[0]["packets"] + incarnations[1]["packets"] == 4096
        assert report["journal"][-1]["op"] == "swap"
        assert report["journal"][-1]["batch"] == 3

    def test_keep_maps_survives_swap(self):
        config = two_slot_config()
        daemon = NicDaemon(config)
        key = firewall.flow_key(flow_at(0))
        daemon.schedule(0, {"op": "map_update", "program": "fw",
                            "map": "flows", "key": key.hex(),
                            "value": "00" * 8})
        daemon.schedule(4, {"op": "swap", "name": "fw",
                            "program": firewall.build(),
                            "keep_maps": True})
        report = daemon.run()
        flows = report["maps"]["fw"]["flows"]
        assert key.hex() in flows
        second = report["programs"]["fw"]["incarnations"][1]
        assert second["actions"].get("TX", 0) > 0  # allow entry survived

    def test_swap_without_keep_maps_resets_state(self):
        config = two_slot_config()
        daemon = NicDaemon(config)
        key = firewall.flow_key(flow_at(0))
        daemon.schedule(0, {"op": "map_update", "program": "fw",
                            "map": "flows", "key": key.hex(),
                            "value": "00" * 8})
        daemon.schedule(4, {"op": "swap", "name": "fw",
                            "program": firewall.build()})
        report = daemon.run()
        assert report["maps"]["fw"]["flows"] == {}
        second = report["programs"]["fw"]["incarnations"][1]
        assert second["actions"].get("TX", 0) == 0

    def test_unload_falls_back_to_default_slot(self):
        config = two_slot_config()
        daemon = NicDaemon(config)
        daemon.schedule(2, {"op": "unload", "name": "fw"})
        report = daemon.run()
        assert "fw" in report["retired"]
        bg = report["programs"]["bg"]["incarnations"][0]
        # after the unload every IPv4 frame falls back to slot 0
        assert bg["packets"] == 4096 - 2 * config.batch_size

    def test_load_then_steer(self):
        config = two_slot_config()
        daemon = NicDaemon(config)
        daemon.schedule(2, {"op": "load", "name": "fw2",
                            "program": firewall.build(),
                            "ethertype": 0x0800})
        report = daemon.run()
        fw2 = report["programs"]["fw2"]["incarnations"][0]
        assert fw2["from_batch"] == 2
        assert fw2["packets"] == 4096 - 2 * config.batch_size

    def test_boundary_replay_identity(self):
        config = two_slot_config()
        daemon = NicDaemon(config)
        key = firewall.flow_key(flow_at(1))
        daemon.schedule(0, {"op": "map_update", "program": "fw",
                            "map": "flows", "key": key.hex(),
                            "value": "00" * 8})
        daemon.schedule(2, {"op": "map_delete", "program": "fw",
                            "map": "flows", "key": key.hex()})
        daemon.schedule(5, {"op": "swap", "name": "fw",
                            "program": firewall.build(),
                            "keep_maps": True})
        report = daemon.run()
        offline = segmented_replay(config, report, daemon.program_table)
        assert verify_replay(report, offline) == []


class TestQuarantine:
    def _daemon_with_poisoned_fw(self, fail_on_call=2):
        config = two_slot_config()
        daemon = NicDaemon(config)
        sim = daemon.nic._sim_for(1)
        original = sim.run_packets
        calls = {"n": 0}

        def poisoned(frames, **kwargs):
            calls["n"] += 1
            if calls["n"] == fail_on_call:
                raise SimError("injected fault")
            return original(frames, **kwargs)

        sim.run_packets = poisoned
        return config, daemon

    def test_simerror_quarantines_not_fatal(self):
        config, daemon = self._daemon_with_poisoned_fw()
        report = daemon.run()
        assert report["quarantined"] == ["fw"]
        fw = report["programs"]["fw"]
        assert fw["state"] == "quarantined"
        # failed batch + all later batches are counted, not executed
        assert fw["quarantined_frames"] == 4096 - config.batch_size
        events = [e for e in report["journal"] if e.get("event")]
        assert events == [{"batch": 2, "event": "quarantine",
                           "name": "fw", "error": events[0]["error"]}]
        assert "injected fault" in events[0]["error"]
        # the other slot kept serving every batch
        assert report["batches"] == 8

    def test_quarantine_metrics(self):
        from repro import telemetry

        with telemetry.scoped() as registry:
            _config, daemon = self._daemon_with_poisoned_fw()
            daemon.registry = registry
            daemon.run()
            names = {
                (m["name"], tuple(sorted(m.get("labels", {}).items())))
                for m in registry.snapshot()["metrics"]
            }
        assert ("ehdl_serve_quarantined_total",
                (("program", "fw"),)) in names
        assert ("ehdl_serve_quarantined_frames_total",
                (("program", "fw"),)) in names

    def test_replay_excludes_quarantined_program(self):
        config, daemon = self._daemon_with_poisoned_fw()
        report = daemon.run()
        offline = segmented_replay(config, report, daemon.program_table)
        assert verify_replay(report, offline) == []

    def test_swap_revives_quarantined_slot(self):
        config, daemon = self._daemon_with_poisoned_fw(fail_on_call=1)
        daemon.schedule(4, {"op": "swap", "name": "fw",
                            "program": firewall.build()})
        report = daemon.run()
        assert report["quarantined"] == []
        incarnations = report["programs"]["fw"]["incarnations"]
        assert incarnations[-1]["packets"] == 4 * config.batch_size


class TestControlErrors:
    def test_unknown_program(self):
        daemon = NicDaemon(two_slot_config())
        with pytest.raises(ServeError):
            daemon.handle({"op": "map_lookup", "program": "nope",
                           "map": "flows", "key": 0})

    def test_unknown_map(self):
        daemon = NicDaemon(two_slot_config())
        with pytest.raises(ServeError):
            daemon.handle({"op": "map_lookup", "program": "fw",
                           "map": "nope", "key": 0})

    def test_wrong_key_width(self):
        daemon = NicDaemon(two_slot_config())
        with pytest.raises(ServeError):
            daemon.handle({"op": "map_lookup", "program": "fw",
                           "map": "flows", "key": "aabb"})

    def test_duplicate_slot_names_rejected(self):
        with pytest.raises(ServeError):
            NicDaemon(two_slot_config(programs=[
                ProgramSpec("x", toy_counter.build()),
                ProgramSpec("x", firewall.build()),
            ]))


class TestServerSocket:
    def test_end_to_end_over_unix_socket(self, tmp_path):
        config = two_slot_config(
            feed=FeedSpec(source="synth", packets=200_000, flows=64),
            batch_size=256, exit_when_drained=False,
        )
        daemon = NicDaemon(config)
        socket_path = str(tmp_path / "serve.sock")
        result = {}

        def serve():
            result["report"] = daemon.run()

        thread = threading.Thread(target=serve, daemon=True)
        with ServeServer(daemon, socket_path):
            thread.start()
            with CtlClient.wait_for(socket_path, timeout=10) as ctl:
                pong = ctl.call("ping")
                assert pong["pong"] is True and pong["protocol"] == 1
                key = firewall.flow_key(flow_at(2))
                updated = ctl.call("map_update", program="fw", map="flows",
                                   key=key.hex(), value="00" * 8)
                assert updated["key"] == key.hex()
                looked = ctl.call("map_lookup", program="fw", map="flows",
                                  key=key.hex())
                # the data plane keeps counting this flow between our
                # calls, so assert presence, not the exact counter value
                assert looked["value"] is not None
                items = ctl.call("map_items", program="fw", map="flows")
                assert key.hex() in [k for k, _v in items["items"]]
                swap = ctl.call("swap", name="fw",
                                program="app:toy_counter")
                assert swap["program"] == "toy_counter"
                status = ctl.call("status")
                assert status["steering"] == {"0x0800": "fw"}
                assert {p["name"] for p in status["programs"]} == {"bg", "fw"}
                with pytest.raises(CtlError):
                    ctl.call("swap", name="missing", program="app:firewall")
                metrics = ctl.call("metrics")
                assert any(m["name"] == "ehdl_serve_swaps_total"
                           for m in metrics["metrics"])
                stopping = ctl.call("shutdown")
                assert stopping["stopping"] is True
            thread.join(timeout=30)
        assert not thread.is_alive()
        report = result["report"]
        assert report["programs"]["fw"]["swaps"] == 1
        journal_ops = [e.get("op") for e in report["journal"]]
        assert journal_ops[-1] == "shutdown"
        assert "swap" in journal_ops and "map_update" in journal_ops

    def test_malformed_line_gets_error_response(self, tmp_path):
        import json
        import socket as socketlib

        daemon = NicDaemon(two_slot_config())
        socket_path = str(tmp_path / "serve.sock")
        with ServeServer(daemon, socket_path):
            client = socketlib.socket(socketlib.AF_UNIX,
                                      socketlib.SOCK_STREAM)
            client.connect(socket_path)
            client.sendall(b"this is not json\n")
            line = client.makefile().readline()
            client.close()
        response = json.loads(line)
        assert response["ok"] is False


class TestCli:
    def test_serve_cli_with_replay_verification(self, capsys, tmp_path):
        import json

        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main([
            "serve",
            "--program", "bg=app:toy_counter",
            "--program", "fw=app:firewall",
            "--steer", "fw=0x0800",
            "--feed", "gen:packets=1500,flows=40,dist=zipf,seed=2",
            "--batch-size", "256",
            "--exit-when-drained",
            "--verify-replay",
            "--report-out", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        report = json.loads(report_path.read_text())
        assert report["divergences"] == []
        assert report["frames"] == 1500

    def test_serve_rejects_bad_program_syntax(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--program", "no-equals-sign",
                  "--exit-when-drained"])

    def test_ctl_unreachable_daemon(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["ctl", "--socket", str(tmp_path / "none.sock"),
                     "--timeout", "0.2", "ping"])
        assert code == 2


class TestSoak:
    """The acceptance soak: a million-flow Zipfian stream, mid-stream
    hot-swaps and map writes, bit-identical to the offline replay."""

    def test_million_flow_soak_with_hot_swaps(self):
        config = two_slot_config(
            feed=FeedSpec(source="synth", packets=30_000,
                          flows=1_000_000, distribution="zipf", seed=11),
            batch_size=1024,
        )
        daemon = NicDaemon(config)
        scheduled = []
        for i in range(4):  # seed allow-entries for the 4 hottest flows
            key = firewall.flow_key(flow_at(i))
            scheduled.append(daemon.schedule(0, {
                "op": "map_update", "program": "fw", "map": "flows",
                "key": key.hex(), "value": "00" * 8,
            }))
        # a same-program upgrade keeping its flow table, a cross-program
        # swap, and a default-slot swap: three mid-stream switchovers
        scheduled.append(daemon.schedule(5, {
            "op": "swap", "name": "fw", "program": firewall.build(),
            "keep_maps": True,
        }))
        scheduled.append(daemon.schedule(12, {
            "op": "swap", "name": "fw", "program": toy_counter.build(),
        }))
        scheduled.append(daemon.schedule(20, {
            "op": "swap", "name": "bg", "program": toy_counter.build(),
        }))
        report = daemon.run()
        assert [p.error for p in scheduled] == [None] * len(scheduled)

        # >= 3 mid-stream hot-swaps actually landed
        swaps = [e for e in report["journal"] if e.get("op") == "swap"]
        assert len(swaps) == 3
        assert [e["batch"] for e in swaps] == [5, 12, 20]
        assert report["epoch"] == 3

        # zero dropped frames across every swap: every offered frame is
        # accounted to exactly one incarnation of one slot
        accounted = sum(
            incarnation["packets"]
            for program in report["programs"].values()
            for incarnation in program["incarnations"]
        )
        assert accounted == report["frames"] == 30_000
        assert report["quarantined"] == []

        # the keep_maps upgrade at batch 5 preserved the seeded allow
        # entries: the second firewall incarnation still TXes them
        incarnations = report["programs"]["fw"]["incarnations"]
        assert [i["program"] for i in incarnations] == [
            "firewall", "firewall", "toy_counter"
        ]
        assert incarnations[0]["actions"].get("TX", 0) > 0
        assert incarnations[1]["actions"].get("TX", 0) > 0

        # bit-identical against the offline segmented replay: action
        # counts per incarnation, cycles, and final map state
        offline = segmented_replay(config, report, daemon.program_table)
        divergences = verify_replay(report, offline)
        assert divergences == []

        # swap latency telemetry flowed through the registry
        assert len(report["swap_latencies_us"]) == 3
        assert all(lat > 0 for lat in report["swap_latencies_us"])
