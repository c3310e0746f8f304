"""What a warm ``/run`` puts on the wire and reads from the store.

The server streams a warm hit's result as the text the store holds and
encodes a computed result once; these tests pin that the bytes it sends
and stores are exactly what encoding each event and entry afresh gives,
on both store backends; that each spec reads the store once; that a warm
batch leaves in one write; and that the ``server.stream`` fault probe
still sees one ordinal per line, in order.
"""

import asyncio
import copy
import json

import pytest

from repro.api import ExperimentSettings, ResultStore, SerialRunner, spec_grid
from repro.api.store import content_key
from repro.faults import FaultEvent, FaultPlan, install_plan, uninstall_plan
from repro.service import CampaignServer, ServiceClient
from repro.service.scheduler import SpecScheduler
from repro.system.config import SystemConfig

TINY = ExperimentSettings(num_instructions=1500, seed=11)

GRID = spec_grid(
    ["astar", "mcf"],
    ["memleak", "addrcheck"],
    [SystemConfig()],
    TINY,
)

BACKENDS = {"json": "store", "sqlite": "store.db"}


@pytest.fixture(autouse=True)
def _clean_injector():
    uninstall_plan()
    yield
    uninstall_plan()


@pytest.fixture(scope="module")
def reference():
    """Each GRID spec's content key → its locally computed result."""
    results = SerialRunner().run(GRID).results
    return {content_key(spec): result for spec, result in zip(GRID, results)}


@pytest.fixture(params=sorted(BACKENDS))
def server(request, tmp_path):
    store = ResultStore(tmp_path / BACKENDS[request.param])
    instance = CampaignServer(
        store=store,
        socket_path=str(tmp_path / "server.sock"),
        scheduler=SpecScheduler(store=store, workers=1),
    )
    address = instance.start_background()
    yield instance, address
    instance.stop_background()


def post_run(address, specs, results=True):
    """The raw NDJSON body of one ``/run`` (a truncated last line too)."""
    raw = json.dumps({
        "specs": [spec.to_dict() for spec in specs], "results": results,
    }).encode()
    status, stream = ServiceClient(address)._request("POST", "/run", raw)
    assert status == 200
    with stream:
        return stream.read().decode()


def spec_line(index, spec, status, reference, results=True):
    """A spec event encoded afresh, its result from ``to_dict()``."""
    key = content_key(spec)
    event = {"event": "spec", "index": index, "key": key, "status": status}
    if results:
        event["result"] = reference[key].to_dict()
    return json.dumps(event, sort_keys=True) + "\n"


def event_line(event):
    return json.dumps(event, sort_keys=True) + "\n"


def server_stats(address):
    return ServiceClient(address).stats()


class TestWireBytes:
    def test_every_answer_is_its_fresh_encoding(self, server, reference):
        """Computed, coalesced (a repeat in the batch) and warm lines are
        byte-identical to ``json.dumps(event, sort_keys=True)``."""
        _, address = server
        batch = [GRID[0], GRID[1], GRID[0]]
        body = post_run(address, batch)
        lines = body.splitlines(keepends=True)
        assert lines[0] == event_line({"event": "accepted", "count": 3})
        assert lines[-1] == event_line({
            "event": "done", "total": 3,
            "statuses": {"computed": 2, "coalesced": 1},
        })
        spec_lines = lines[1:-1]
        statuses = {}
        for line in spec_lines:
            event = json.loads(line)
            statuses[event["index"]] = event["status"]
            assert line == spec_line(
                event["index"], batch[event["index"]], event["status"],
                reference,
            )
        assert sorted(statuses.values()) == [
            "coalesced", "computed", "computed",
        ]
        # Warm: one write, in submission order, from the stored text.
        assert post_run(address, batch) == "".join(
            [event_line({"event": "accepted", "count": 3})]
            + [spec_line(i, spec, "warm", reference)
               for i, spec in enumerate(batch)]
            + [event_line({"event": "done", "total": 3,
                           "statuses": {"warm": 3}})]
        )

    def test_results_false_lines_are_unchanged(self, server, reference):
        _, address = server
        post_run(address, GRID[:1])
        body = post_run(address, GRID[:2], results=False)
        lines = body.splitlines(keepends=True)
        statuses = {0: "warm", 1: "computed"}
        for line in lines[1:-1]:
            index = json.loads(line)["index"]
            assert line == spec_line(
                index, GRID[index], statuses[index], reference,
                results=False,
            )

    def test_stored_payload_is_its_fresh_encoding(self, server, reference):
        instance, address = server
        post_run(address, GRID[:2])
        for spec in GRID[:2]:
            key = content_key(spec)
            stored = instance.store._backend.read(key)
            if isinstance(stored, bytes):
                stored = stored.decode()
            assert stored == json.dumps(
                {"key": key, "spec": spec.to_dict(),
                 "result": reference[key].to_dict()},
                sort_keys=True, allow_nan=False,
            )

    def test_non_finite_result_is_an_error_never_stored(
        self, server, monkeypatch
    ):
        instance, address = server
        clean = SerialRunner().run_one(GRID[0])

        def broken(spec, cache):
            result = copy.deepcopy(clean)
            result.baseline_cycles = float("nan")
            return result

        monkeypatch.setattr("repro.api.runner.execute_spec", broken)
        lines = post_run(address, GRID[:1]).splitlines()
        event = json.loads(lines[1])
        assert event["status"] == "error"
        assert "'baseline_cycles'" in event["error"]
        assert instance.store.lookup(content_key(GRID[0])) is None
        assert len(instance.store) == 0


class TestOneStoreRead:
    def test_cold_then_warm_batches(self, server):
        instance, address = server
        store = instance.store
        # A cold batch with a repeat: each submitted spec misses once.
        batch = [GRID[0], GRID[1], GRID[2], GRID[0]]
        post_run(address, batch)
        assert (store.hits, store.misses) == (0, len(batch))
        stats = server_stats(address)["server"]
        assert (stats["specs_received"], stats["warm_hits"],
                stats["coalesced"], stats["computed"]) == (4, 0, 1, 3)
        # An all-warm batch: one hit per spec, no miss.
        post_run(address, batch)
        assert (store.hits, store.misses) == (len(batch), len(batch))
        stats = server_stats(address)["server"]
        assert (stats["specs_received"], stats["warm_hits"],
                stats["coalesced"], stats["computed"]) == (8, 4, 1, 3)

    def test_warm_batch_leaves_in_one_write(self, server, monkeypatch):
        _, address = server
        post_run(address, GRID)
        writes = []
        original = asyncio.StreamWriter.write

        def counted(writer, data):
            writes.append(len(data))
            return original(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counted)
        body = post_run(address, GRID)
        assert len(writes) == 1
        # The head and the whole body went out together.
        assert writes[0] > len(body)


class TestFaultOrdinals:
    @staticmethod
    def plan(ordinal):
        return FaultPlan(
            events=(FaultEvent(
                "e0", "server_disconnect", "server.stream", at=ordinal
            ),),
            seed=0,
        )

    def test_disconnect_truncates_the_kth_line(self, server, reference):
        """On an all-warm batch the k-th probe of the site cuts the k-th
        line in half (``accepted`` is the first; plan ordinals count from
        0); the lines before it arrive whole."""
        _, address = server
        batch = GRID[:3]
        post_run(address, batch)
        whole = post_run(address, batch).splitlines(keepends=True)
        assert len(whole) == len(batch) + 2
        computed = server_stats(address)["server"]["computed"]
        for line in range(1, len(whole) + 1):
            install_plan(self.plan(line - 1))
            cut = whole[line - 1]
            assert post_run(address, batch) == (
                "".join(whole[: line - 1]) + cut[: max(1, len(cut) // 2)]
            )
            install_plan(self.plan(line - 1))
            results = ServiceClient(address).run_specs(batch)
            for spec, result in zip(batch, results.results):
                assert result.to_dict() == (
                    reference[content_key(spec)].to_dict()
                )
            uninstall_plan()
        assert server_stats(address)["server"]["computed"] == computed
