"""The campaign service: declarative campaign expansion, single-flight
scheduling, and the server/client protocol end-to-end — every distinct spec
simulated exactly once across concurrent clients, results bit-identical to
SerialRunner.
"""

import asyncio
import copy
import json
import threading

import pytest

from repro import cli
from repro.api import (
    ExperimentSettings,
    ResultStore,
    SerialRunner,
    config_from_fields,
    spec_grid,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.service import (
    Campaign,
    CampaignServer,
    ServiceClient,
    ServiceError,
    SpecScheduler,
    expand_campaign,
)
from repro.system.config import CoreType, SystemConfig, Topology

TINY = ExperimentSettings(num_instructions=1500, seed=11)

GRID = spec_grid(
    ["astar", "mcf"],
    ["memleak", "addrcheck"],
    [SystemConfig()],
    TINY,
)


class TestConfigFromFields:
    def test_empty_is_default(self):
        assert config_from_fields({}) == SystemConfig()

    def test_aliases(self):
        config = config_from_fields(
            {"core_type": "inorder", "topology": "two-core"}
        )
        assert config.core_type is CoreType.INORDER
        assert config.topology is Topology.TWO_CORE

    def test_enum_values_accepted(self):
        config = config_from_fields({"core_type": CoreType.OOO2.value})
        assert config.core_type is CoreType.OOO2

    def test_plain_fields(self):
        config = config_from_fields(
            {"fade_enabled": False, "fsq_capacity": 32}
        )
        assert config.fade_enabled is False and config.fsq_capacity == 32

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="fade_enbaled"):
            config_from_fields({"fade_enbaled": True})

    def test_unknown_alias_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_fields({"core_type": "quantum"})


class TestCampaignExpansion:
    def test_grid_matches_spec_grid(self):
        specs = expand_campaign(
            {
                "settings": {"instructions": 1500, "seed": 11},
                "grid": {
                    "benchmarks": ["astar", "mcf"],
                    "monitors": ["memleak", "addrcheck"],
                    "configs": [{}],
                },
            }
        )
        assert [s.to_dict() for s in specs] == [s.to_dict() for s in GRID]

    def test_explicit_specs_inherit_settings(self):
        specs = expand_campaign(
            {
                "settings": {"instructions": 1500, "seed": 11},
                "specs": [{"benchmark": "gcc", "monitor": "memcheck"}],
            }
        )
        assert len(specs) == 1
        assert specs[0].settings == ExperimentSettings(
            num_instructions=1500, seed=11
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="grids"):
            expand_campaign({"grids": {}})

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError, match="zero specs"):
            expand_campaign({"name": "empty"})

    def test_grid_needs_benchmarks_and_monitors(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            expand_campaign({"grid": {"benchmarks": ["astar"]}})

    def test_bad_settings_field(self):
        with pytest.raises(ConfigurationError, match="speed"):
            expand_campaign(
                {"settings": {"speed": 9}, "grid": {
                    "benchmarks": ["astar"], "monitors": ["memleak"]}}
            )

    def test_invalid_settings_rejected(self):
        with pytest.raises(ConfigurationError, match="num_instructions"):
            expand_campaign(
                {"settings": {"num_instructions": 0}, "grid": {
                    "benchmarks": ["astar"], "monitors": ["memleak"]}}
            )

    def test_json_campaign_file_roundtrip(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps(
                {
                    "name": "mini",
                    "settings": {"instructions": 1500, "seed": 11},
                    "grid": {
                        "benchmarks": ["astar"],
                        "monitors": ["memleak"],
                        "configs": [{}, {"fade_enabled": False}],
                    },
                }
            )
        )
        campaign = Campaign.load(path)
        assert campaign.name == "mini" and len(campaign.specs) == 2
        assert "mini" in campaign.describe()

    def test_campaign_run_in_process(self, tmp_path):
        campaign = Campaign(name="t", specs=list(GRID[:2]))
        results = campaign.run(store=ResultStore(tmp_path / "c"))
        reference = SerialRunner().run(GRID[:2])
        assert results.to_dict() == reference.to_dict()


class TestSpecScheduler:
    def run_async(self, coroutine):
        return asyncio.run(coroutine)

    def test_single_flight_dedup(self):
        scheduler = SpecScheduler(use_processes=False)

        async def main():
            outcomes = await asyncio.gather(
                *[scheduler.execute(GRID[0]) for _ in range(3)]
            )
            return outcomes

        outcomes = self.run_async(main())
        statuses = sorted(o.status for o in outcomes)
        assert statuses == ["coalesced", "coalesced", "computed"]
        digests = {
            json.dumps(o.result.to_dict(), sort_keys=True) for o in outcomes
        }
        assert len(digests) == 1  # All waiters got the same result object.
        assert scheduler.stats()["computed"] == 1
        scheduler.shutdown()

    def test_warm_from_store(self, tmp_path):
        store = ResultStore(tmp_path / "sched.db")
        scheduler = SpecScheduler(store=store, use_processes=False)

        async def main():
            first = await scheduler.execute(GRID[0])
            second = await scheduler.execute(GRID[0])
            return first, second

        first, second = self.run_async(main())
        assert first.status == "computed" and second.status == "warm"
        assert first.result.to_dict() == second.result.to_dict()
        scheduler.shutdown()

    def test_non_finite_result_is_an_error_not_stored(
        self, tmp_path, monkeypatch
    ):
        reference = SerialRunner().run_one(GRID[0])

        def broken(spec, cache):
            result = copy.deepcopy(reference)
            result.cycles = float("nan")
            return result

        monkeypatch.setattr("repro.service.scheduler.execute_spec", broken)
        store = ResultStore(tmp_path / "sched.db")
        scheduler = SpecScheduler(store=store, use_processes=False)
        with pytest.raises(SimulationError, match="'cycles'"):
            self.run_async(scheduler.execute(GRID[0]))
        stats = scheduler.stats()
        assert stats["errors"] == 1 and stats["computed"] == 0
        assert store.get(GRID[0]) is None
        scheduler.shutdown()

    def test_matches_serial_runner(self):
        scheduler = SpecScheduler(use_processes=False)

        async def main():
            return [await scheduler.execute(spec) for spec in GRID[:2]]

        outcomes = self.run_async(main())
        reference = SerialRunner().run(GRID[:2])
        for outcome, expected in zip(outcomes, reference.results):
            assert outcome.result.to_dict() == expected.to_dict()
        scheduler.shutdown()


@pytest.fixture
def server(tmp_path):
    """A background campaign server on a Unix socket with a SQLite store
    (thread scheduler: tests must not pay fork-pool startup)."""
    store = ResultStore(tmp_path / "server.db")
    instance = CampaignServer(
        store=store,
        socket_path=str(tmp_path / "server.sock"),
        scheduler=SpecScheduler(store=store, use_processes=False),
    )
    address = instance.start_background()
    yield instance, address
    instance.stop_background()


class TestServerEndToEnd:
    def test_health_and_stats(self, server):
        _, address = server
        client = ServiceClient(address)
        health = client.health()
        assert health["ok"] is True and health["service"] == "repro"
        stats = client.stats()
        assert stats["store"]["backend"] == "sqlite"
        assert stats["server"]["specs_received"] == 0

    def test_results_match_serial_runner(self, server):
        _, address = server
        results = ServiceClient(address).run_specs(GRID)
        reference = SerialRunner().run(GRID)
        assert json.dumps(results.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )

    def test_two_concurrent_clients_dedup(self, server):
        """The tentpole guarantee: two clients submitting the same batch
        concurrently — every distinct spec simulated exactly once."""
        instance, address = server
        outputs = {}

        def submit(name):
            outputs[name] = ServiceClient(address).run_specs(GRID)

        threads = [
            threading.Thread(target=submit, args=(name,))
            for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert json.dumps(
            outputs["a"].to_dict(), sort_keys=True
        ) == json.dumps(outputs["b"].to_dict(), sort_keys=True)
        stats = instance.scheduler.stats()
        assert stats["specs_received"] == 2 * len(GRID)
        assert stats["computed"] == len(GRID)  # Exactly once per spec.
        assert stats["warm_hits"] + stats["coalesced"] == len(GRID)

    def test_resubmission_is_all_warm(self, server):
        instance, address = server
        client = ServiceClient(address)
        client.run_specs(GRID[:2])
        events = list(client.submit(GRID[:2], results=False))
        statuses = [e["status"] for e in events if e["event"] == "spec"]
        assert statuses == ["warm", "warm"]
        assert all("result" not in e for e in events)  # results=False honoured
        done = [e for e in events if e["event"] == "done"]
        assert done and done[0]["statuses"] == {"warm": 2}

    def test_error_event_does_not_abort_batch(self, server):
        _, address = server
        client = ServiceClient(address)
        bad = GRID[0].to_dict()
        bad["monitor"] = "no-such-monitor"
        events = list(
            client.submit([GRID[0]])
        )  # Warm up the good spec first? No — mixed batch below.
        body = {"specs": [GRID[1].to_dict(), bad]}
        raw = json.dumps(body).encode()
        status, stream = client._request("POST", "/run", raw)
        assert status == 200
        with stream:
            events = [json.loads(line) for line in stream if line.strip()]
        spec_events = {e["index"]: e for e in events if e["event"] == "spec"}
        assert spec_events[0]["status"] in ("computed", "warm", "coalesced")
        assert spec_events[1]["status"] == "error"
        assert "no-such-monitor" in spec_events[1]["error"]
        done = [e for e in events if e["event"] == "done"][0]
        assert done["total"] == 2 and done["statuses"]["error"] == 1

    def test_invalid_settings_are_an_error_event_not_a_stored_result(
        self, server
    ):
        instance, address = server
        bad = GRID[0].to_dict()
        bad["settings"] = {**TINY.to_dict(), "warmup_fraction": 1.5}
        raw = json.dumps({"specs": [bad]}).encode()
        status, stream = ServiceClient(address)._request("POST", "/run", raw)
        assert status == 200
        with stream:
            events = [json.loads(line) for line in stream if line.strip()]
        spec_events = [e for e in events if e["event"] == "spec"]
        assert spec_events[0]["status"] == "error"
        assert "warmup_fraction" in spec_events[0]["error"]
        assert instance.scheduler.stats()["computed"] == 0

    @pytest.mark.parametrize(
        "field, value", [("benchmark", "nosuch"), ("monitor", "nosuchmon")]
    )
    def test_unknown_name_is_an_error_event_not_a_stored_result(
        self, server, field, value
    ):
        instance, address = server
        bad = {**GRID[0].to_dict(), field: value}
        raw = json.dumps({"specs": [bad]}).encode()
        status, stream = ServiceClient(address)._request("POST", "/run", raw)
        assert status == 200
        with stream:
            events = [json.loads(line) for line in stream if line.strip()]
        spec_events = [e for e in events if e["event"] == "spec"]
        assert spec_events[0]["status"] == "error"
        assert f"RunSpec.{field}: unknown {field} {value!r}" in (
            spec_events[0]["error"]
        )
        assert instance.scheduler.stats()["computed"] == 0
        assert len(instance.store) == 0

    def test_non_finite_result_is_an_error_event(self, server, monkeypatch):
        instance, address = server
        reference = SerialRunner().run_one(GRID[0])

        def broken(spec, cache):
            result = copy.deepcopy(reference)
            result.cycles = float("inf")
            return result

        monkeypatch.setattr("repro.service.scheduler.execute_spec", broken)
        raw = json.dumps({"specs": [GRID[0].to_dict()]}).encode()
        status, stream = ServiceClient(address)._request("POST", "/run", raw)
        assert status == 200
        with stream:
            events = [json.loads(line) for line in stream if line.strip()]
        spec_events = [e for e in events if e["event"] == "spec"]
        assert spec_events[0]["status"] == "error"
        assert "'cycles'" in spec_events[0]["error"]
        assert instance.store.get(GRID[0]) is None

    def test_run_specs_raises_on_error(self, server):
        _, address = server
        from repro.api import register_monitor
        from repro.monitors import MONITOR_REGISTRY
        from repro.monitors.memleak import MemLeak

        # A client-side extension the server does not have: the spec is
        # valid where it was built and rejected where it is run.
        register_monitor("no-such-monitor", MemLeak)
        try:
            bad = GRID[0].replace(monitor="no-such-monitor")
        finally:
            MONITOR_REGISTRY.unregister("no-such-monitor")
        with pytest.raises(ServiceError, match="no-such-monitor"):
            ServiceClient(address).run_specs([bad])

    def test_unknown_route_404(self, server):
        _, address = server
        with pytest.raises(ServiceError, match="404|no route"):
            ServiceClient(address)._request_json("GET", "/nope")

    def test_bad_run_body_400(self, server):
        _, address = server
        with pytest.raises(ServiceError, match="400"):
            ServiceClient(address)._request_json(
                "POST", "/run", b'{"specs": 7}'
            )

    def test_campaign_run_against_server(self, server, tmp_path):
        _, address = server
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps(
                {
                    "settings": {"instructions": 1500, "seed": 11},
                    "grid": {
                        "benchmarks": ["astar"],
                        "monitors": ["memleak"],
                    },
                }
            )
        )
        results = Campaign.load(path).run(server=address)
        reference = SerialRunner().run(
            spec_grid(["astar"], ["memleak"], [SystemConfig()], TINY)
        )
        assert results.to_dict() == reference.to_dict()


class TestClientAddresses:
    def test_bad_addresses_rejected(self):
        for address in ("ftp://x", "http://host:notaport", "plainhost"):
            with pytest.raises(ServiceError, match="address"):
                ServiceClient(address)

    def test_tcp_server_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "tcp.db")
        instance = CampaignServer(
            store=store,
            port=0,
            scheduler=SpecScheduler(store=store, use_processes=False),
        )
        address = instance.start_background()
        try:
            assert address.startswith("http://127.0.0.1:")
            results = ServiceClient(address).run_specs(GRID[:1])
            reference = SerialRunner().run(GRID[:1])
            assert results.to_dict() == reference.to_dict()
        finally:
            instance.stop_background()

    def test_shutdown_route_stops_server(self, tmp_path):
        instance = CampaignServer(
            socket_path=str(tmp_path / "stop.sock"),
            scheduler=SpecScheduler(use_processes=False),
        )
        address = instance.start_background()
        client = ServiceClient(address, timeout=30.0)
        assert client.shutdown_server() == {"stopping": True}
        instance._thread.join(timeout=30)
        assert not instance._thread.is_alive()


class TestCliCampaign:
    def test_campaign_show_and_run(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-mini",
                    "settings": {"instructions": 1200, "seed": 3},
                    "grid": {
                        "benchmarks": ["astar"],
                        "monitors": ["memleak"],
                        "configs": [{}, {"fade_enabled": False}],
                    },
                }
            )
        )
        assert cli.main(["campaign", "show", str(path)]) == 0
        shown = capsys.readouterr().out
        assert "cli-mini" in shown and "2 spec(s)" in shown
        assert cli.main(["campaign", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "astar" in out and "memleak" in out

    def test_campaign_bad_file_is_error_exit(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["campaign", "show", str(path)]) == 2
        assert "error" in capsys.readouterr().err
