"""A thin synchronous client for the campaign server.

:class:`ServiceClient` speaks the server's JSON/NDJSON protocol over a
plain socket (TCP ``http://host:port`` or ``unix:///path``), with no
third-party dependencies.  It offers three altitudes:

* :meth:`submit` — the streaming primitive: yield raw protocol events
  (``accepted`` / ``spec`` / ``done``) as the server emits them, in
  completion order.  The shape progress UIs and the smoke scripts build on.
* :meth:`run_specs` — the runner-shaped call: submit a batch, collect the
  stream, and return a :class:`~repro.api.ResultSet` in *spec order* —
  byte-identical to what :class:`~repro.api.SerialRunner` would produce
  for the same specs (the server contract).  Raises :class:`ServiceError`
  if any spec errored.
* :meth:`health` / :meth:`stats` / :meth:`shutdown_server` — control.

A dropped or truncated stream raises
:class:`~repro.common.errors.ServiceDisconnected` (carrying the events
that did arrive) from :meth:`submit`; :meth:`run_specs` catches it and
**reconnects**, resubmitting only the specs whose results never arrived.
Resubmission is idempotent: the server's content-keyed dedup plus the warm
store turn an already-finished spec into a cache hit, so a resumed
campaign neither loses nor recomputes completed work.

The client is stateless between calls (one connection per request), so one
instance can be shared freely across threads.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.api.results import ResultSet, RunRecord
from repro.api.spec import RunSpec
from repro.common.errors import ServiceDisconnected
from repro.faults.retry import RECONNECT_POLICY, RetryPolicy
from repro.system.results import RunResult


class ServiceError(RuntimeError):
    """The server answered, but with an error (HTTP or per-spec)."""


def _parse_address(address: str) -> Tuple[str, object]:
    """("unix", path) or ("tcp", (host, port)) from a service address."""
    if address.startswith("unix://"):
        return "unix", address[len("unix://"):]
    if address.startswith("http://"):
        rest = address[len("http://"):].rstrip("/")
        host, _, port_text = rest.partition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ServiceError(
                f"bad service address {address!r}: expected "
                "http://host:port or unix:///path"
            ) from None
        return "tcp", (host, port)
    raise ServiceError(
        f"bad service address {address!r}: expected http://host:port "
        "or unix:///path"
    )


class ServiceClient:
    """One campaign-server endpoint, callable from any thread."""

    def __init__(self, address: str, timeout: float = 600.0) -> None:
        self.address = address
        self.timeout = timeout
        self._family, self._target = _parse_address(address)

    # ------------------------------------------------------------ transport

    def _connect(self) -> socket.socket:
        if self._family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self._target)
        else:
            sock = socket.create_connection(
                self._target, timeout=self.timeout
            )
        return sock

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, "socket.SocketIO"]:
        """Send one request; return (status, response stream positioned
        after the headers).  The caller owns closing the stream."""
        sock = self._connect()
        try:
            payload = body or b""
            host = (
                f"{self._target[0]}:{self._target[1]}"
                if self._family == "tcp"
                else "localhost"
            )
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1")
            sock.sendall(head + payload)
            stream = sock.makefile("rb")
        except OSError as error:
            sock.close()
            raise ServiceError(
                f"cannot reach campaign server at {self.address}: {error}"
            ) from None
        sock.close()  # The makefile stream keeps the connection alive.
        status_line = stream.readline().decode("latin-1")
        parts = status_line.split()
        if len(parts) < 2 or not parts[1].isdigit():
            stream.close()
            raise ServiceError(
                f"malformed response from {self.address}: {status_line!r}"
            )
        status = int(parts[1])
        while True:  # Skip headers; bodies are EOF-delimited.
            line = stream.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        return status, stream

    def _request_json(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> object:
        status, stream = self._request(method, path, body)
        with stream:
            text = stream.read().decode()
        try:
            payload = json.loads(text)
        except ValueError:
            raise ServiceError(
                f"non-JSON response from {self.address}: {text[:200]!r}"
            ) from None
        if status != 200:
            raise ServiceError(f"HTTP {status} from {self.address}: {payload}")
        return payload

    # -------------------------------------------------------------- control

    def health(self) -> Dict[str, object]:
        return self._request_json("GET", "/health")

    def stats(self) -> Dict[str, object]:
        return self._request_json("GET", "/stats")

    def shutdown_server(self) -> Dict[str, object]:
        return self._request_json("POST", "/shutdown")

    # ------------------------------------------------------------ campaigns

    def submit(
        self, specs: Iterable[RunSpec], results: bool = True
    ) -> Iterator[Dict[str, object]]:
        """Submit a batch and yield protocol events as they stream back.

        ``results=False`` asks the server to omit result payloads — the
        cheap mode for dedup/stats probes over large batches.

        A connection cut mid-stream — a truncated NDJSON line, an
        unparseable record, or a transport error — raises
        :class:`~repro.common.errors.ServiceDisconnected` whose
        ``completed`` dict maps batch index → the ``spec`` events that
        *did* arrive, so callers can resume with just the rest.
        """
        body = json.dumps(
            {
                "specs": [spec.to_dict() for spec in specs],
                "results": results,
            }
        ).encode()
        status, stream = self._request("POST", "/run", body)
        if status != 200:
            with stream:
                detail = stream.read().decode(errors="replace")
            raise ServiceError(
                f"HTTP {status} from {self.address}: {detail[:200]}"
            )
        completed: Dict[int, Dict[str, object]] = {}
        try:
            for raw in stream:
                stripped = raw.strip()
                if not stripped:
                    continue
                if not raw.endswith(b"\n"):
                    # EOF landed mid-record: the server (or the wire) died
                    # while writing this line.
                    raise ServiceDisconnected(
                        f"connection to {self.address} dropped mid-stream "
                        f"(truncated NDJSON record)",
                        completed=completed,
                    )
                try:
                    event = json.loads(stripped)
                except ValueError:
                    raise ServiceDisconnected(
                        f"connection to {self.address} dropped mid-stream "
                        f"(unparseable NDJSON record)",
                        completed=completed,
                    ) from None
                if event.get("event") == "spec":
                    completed[int(event["index"])] = event
                yield event
        except OSError as error:
            raise ServiceDisconnected(
                f"connection to {self.address} dropped mid-stream: {error}",
                completed=completed,
            ) from None
        finally:
            stream.close()

    def run_specs(
        self,
        specs: Iterable[RunSpec],
        reconnect: bool = True,
        reconnect_policy: RetryPolicy = RECONNECT_POLICY,
    ) -> ResultSet:
        """Run a batch on the server; results in spec order, bit-identical
        to local execution of the same specs.

        When the stream drops mid-campaign (``reconnect=True``, the
        default) the client reconnects with backoff and resubmits **only
        the incomplete specs** — completed results are kept, and the
        server answers resubmitted-but-finished specs from its warm store
        (idempotent resume).  ``reconnect=False`` restores the old
        fail-fast behaviour."""
        spec_list = list(specs)
        outcomes: List[Optional[RunResult]] = [None] * len(spec_list)
        errors: Dict[int, str] = {}
        remaining = list(range(len(spec_list)))
        attempt = 0
        while True:
            attempt += 1
            remap = list(remaining)
            disconnect: Optional[ServiceDisconnected] = None
            done = False
            try:
                done = self._collect_events(
                    spec_list, remap, outcomes, errors
                )
            except ServiceDisconnected as error:
                disconnect = error
            remaining = [
                index
                for index in remaining
                if outcomes[index] is None and index not in errors
            ]
            if disconnect is None and errors:
                raise ServiceError(
                    f"{len(errors)} spec(s) failed on the server:\n  "
                    + "\n  ".join(errors[index] for index in sorted(errors))
                )
            if disconnect is None and done and not remaining:
                return ResultSet(
                    RunRecord(spec, result)
                    for spec, result in zip(spec_list, outcomes)
                )
            # Dropped mid-stream, or the stream ended cleanly but short:
            # reconnect and resume with just the incomplete specs.
            if not reconnect or attempt >= reconnect_policy.attempts:
                detail = (
                    str(disconnect)
                    if disconnect is not None
                    else "server stopped or connection dropped mid-campaign"
                )
                raise ServiceError(
                    f"incomplete result stream from {self.address} after "
                    f"{attempt} attempt(s), {len(remaining)} spec(s) "
                    f"unresolved: {detail}"
                )
            time.sleep(reconnect_policy.delay(attempt))

    def _collect_events(
        self,
        spec_list: Sequence[RunSpec],
        remap: Sequence[int],
        outcomes: List[Optional[RunResult]],
        errors: Dict[int, str],
    ) -> bool:
        """Stream one (re)submission of ``[spec_list[i] for i in remap]``,
        folding events into ``outcomes``/``errors`` under the *original*
        indices as they arrive — so a disconnect loses nothing already
        received.  Returns True when the ``done`` event arrived."""
        done = False
        for event in self.submit(
            [spec_list[index] for index in remap], results=True
        ):
            if event.get("event") != "spec":
                done = done or event.get("event") == "done"
                continue
            index = remap[int(event["index"])]
            if event["status"] == "error":
                errors[index] = (
                    f"spec {index} "
                    f"({spec_list[index].describe()}): {event['error']}"
                )
            else:
                outcomes[index] = RunResult.from_dict(event["result"])
        return done
