"""``repro serve`` — the asyncio campaign server.

A deliberately small HTTP/1.1 implementation over asyncio streams (the
repo adds no third-party dependencies), listening on localhost TCP or a
Unix socket.  The protocol is JSON in, NDJSON out:

* ``GET /health`` → ``{"ok": true, "service": "repro", "version": 1}``.
* ``GET /stats`` → ``{"server": {...scheduler counters...}, "store":
  {...ResultStore.stats() with per-shard counts...} | null}`` — the same
  shape ``repro cache stats --json`` prints.
* ``POST /run`` with body ``{"specs": [RunSpec.to_dict(), ...],
  "results": true}`` → a streamed ``application/x-ndjson`` response:
  one ``{"event": "accepted", "count": N}`` line, then per spec — in
  *completion* order, each tagged with its submission ``index`` — a
  ``{"event": "spec", "index": i, "status": "warm|coalesced|computed",
  "key": ..., "result": {...}}`` line (``"results": false`` omits the
  result payloads for stats-only clients), then a final
  ``{"event": "done", "total": N, "statuses": {...}}`` line.  Specs that
  fail (unknown monitor, invalid config) produce
  ``{"event": "spec", "index": i, "status": "error", "error": ...}``
  and never abort the batch.
* ``POST /shutdown`` → acknowledges, then stops the server (the service
  binds localhost/Unix-socket only and has no authentication — it is
  single-user infrastructure, not an internet-facing daemon).

The response body is EOF-delimited (``Connection: close``), so clients
just read lines until the stream ends — no chunked-encoding parsing.

Deduplication lives in :class:`~repro.service.scheduler.SpecScheduler`:
identical specs across any number of concurrent ``/run`` requests are
simulated once and answered everywhere, and re-submissions after
completion are served from the shared store without simulating at all.
A client that disconnects mid-stream only cancels its own event streaming;
computations it shares with other clients keep running.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
from typing import Dict, Optional, Set

from repro.api.spec import RunSpec
from repro.api.store import ResultStore
from repro.faults.injector import active_injector, probe

from repro.service.scheduler import SpecOutcome, SpecScheduler

#: Protocol version, reported by /health and bumped on breaking changes.
PROTOCOL_VERSION = 1

#: Upper bound on request head + body sizes — the server is localhost-only,
#: but a runaway client should get a clean 400, not an OOM.
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 256 * 1024 * 1024


class CampaignServer:
    """One server instance: a listener, a scheduler, an optional store."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        scheduler: Optional[SpecScheduler] = None,
    ) -> None:
        self.store = store
        self.scheduler = scheduler or SpecScheduler(
            store=store, workers=workers
        )
        self.host = host
        self.port = port
        self.socket_path = str(socket_path) if socket_path else None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: Set[asyncio.Task] = set()

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> str:
        """The client-facing address (``http://host:port`` or
        ``unix://path``); valid after :meth:`start`."""
        if self.socket_path is not None:
            return f"unix://{self.socket_path}"
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        self._stop_event = asyncio.Event()
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            # port=0 means "pick one": record what the OS chose.
            sockets = self._server.sockets or ()
            if sockets:
                self.port = sockets[0].getsockname()[1]

    async def stop(self, drain_timeout: float = 30.0) -> None:
        """Graceful teardown: stop accepting, let in-flight connections
        finish streaming (bounded by ``drain_timeout``), join the worker
        pool so no fork worker is orphaned, release the store, and unlink
        the Unix socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = {task for task in self._connections if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=drain_timeout)
            for task in pending:
                if not task.done():
                    task.cancel()
        self.scheduler.shutdown(wait=True)
        if self.store is not None:
            self.store.close()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    # ------------------------------------------------- background (threads)

    def start_background(self) -> str:
        """Run the server on a daemon thread with its own event loop and
        return its address — the embedding used by tests, benchmarks and
        ``examples/service_client.py``.  Call :meth:`stop_background` when
        done."""
        started = threading.Event()
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._thread_loop = loop

            async def main() -> None:
                await self.start()
                started.set()
                await self._stop_event.wait()
                await self.stop()

            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30.0):
            raise RuntimeError("campaign server failed to start within 30s")
        return self.address

    def stop_background(self, timeout: float = 30.0) -> None:
        loop = getattr(self, "_thread_loop", None)
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.request_stop)
        thread = getattr(self, "_thread", None)
        if thread is not None:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------- protocol

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:  # Tracked so stop() can drain streams.
            self._connections.add(task)
        try:
            request = await self._read_request(reader)
            if request is None:
                await self._respond_json(
                    writer, 400, {"error": "malformed request"}
                )
                return
            method, path, body = request
            if method == "GET" and path == "/health":
                # "degraded" is informational, not fatal: the scheduler is
                # on its thread fallback (slower, still correct) and will
                # try a fresh process pool after its cooldown.
                await self._respond_json(
                    writer,
                    200,
                    {"ok": True, "service": "repro",
                     "version": PROTOCOL_VERSION,
                     "status": (
                         "degraded" if self.scheduler.degraded else "ok"
                     )},
                )
            elif method == "GET" and path == "/stats":
                await self._respond_json(writer, 200, self._stats())
            elif method == "POST" and path == "/run":
                await self._handle_run(writer, body)
            elif method == "POST" and path == "/shutdown":
                await self._respond_json(writer, 200, {"stopping": True})
                self.request_stop()
            else:
                await self._respond_json(
                    writer, 404, {"error": f"no route {method} {path}"}
                )
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass  # Client went away; nothing to answer.
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                # Fork-pool workers inherit this connection's fd, so merely
                # closing our copy would never FIN the stream (the workers'
                # copies keep it open).  shutdown() closes the *connection*
                # regardless of how many processes hold the descriptor —
                # without it, clients wait for EOF forever.
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    sock.shutdown(socket.SHUT_WR)
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """(method, path, body) or None on a malformed/oversized request."""
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return None
            method, path = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            header_bytes = 0
            while True:
                line = await reader.readline()
                header_bytes += len(line)
                if header_bytes > _MAX_HEADER_BYTES:
                    return None
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length < 0 or length > _MAX_BODY_BYTES:
                return None
            body = await reader.readexactly(length) if length else b""
            return method, path, body
        except (ValueError, asyncio.IncompleteReadError, UnicodeDecodeError):
            return None

    def _stats(self) -> Dict[str, object]:
        injector = active_injector()
        return {
            "server": self.scheduler.stats(),
            "store": self.store.stats() if self.store is not None else None,
            # Fault-injection visibility: None in normal operation, the
            # plan/fired summary while a chaos plan is installed.
            "faults": injector.summary() if injector is not None else None,
        }

    # ------------------------------------------------------------- routing

    async def _handle_run(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            data = json.loads(body.decode())
            raw_specs = data["specs"]
            if not isinstance(raw_specs, list):
                raise TypeError("'specs' must be a list")
            include_results = bool(data.get("results", True))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
            await self._respond_json(
                writer, 400, {"error": f"bad /run body: {error}"}
            )
            return
        await self._write_head(
            writer, 200, "application/x-ndjson", stream=True
        )
        await self._write_line(
            writer, {"event": "accepted", "count": len(raw_specs)}
        )
        statuses: Dict[str, int] = {}
        tasks = [
            asyncio.ensure_future(self._spec_event(index, raw, include_results))
            for index, raw in enumerate(raw_specs)
        ]
        try:
            for future in asyncio.as_completed(tasks):
                event = await future
                statuses[event["status"]] = statuses.get(event["status"], 0) + 1
                await self._write_line(writer, event)
            await self._write_line(
                writer,
                {"event": "done", "total": len(raw_specs),
                 "statuses": statuses},
            )
        finally:
            # A disconnect cancels *this client's* waiters only; shared
            # computations continue in the scheduler for other clients.
            for task in tasks:
                task.cancel()

    async def _spec_event(
        self, index: int, raw_spec: object, include_results: bool
    ) -> Dict[str, object]:
        """One spec, one NDJSON event — errors become events, not aborts."""
        try:
            spec = RunSpec.from_dict(raw_spec)
            outcome: SpecOutcome = await self.scheduler.execute(spec)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            return {
                "event": "spec",
                "index": index,
                "status": "error",
                "error": f"{type(error).__name__}: {error}",
            }
        event: Dict[str, object] = {
            "event": "spec",
            "index": index,
            "status": outcome.status,
            "key": outcome.key,
        }
        if include_results:
            event["result"] = outcome.result.to_dict()
        return event

    # -------------------------------------------------------------- writing

    async def _write_head(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        stream: bool = False,
        content_length: Optional[int] = None,
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "OK"
        )
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if not stream and content_length is not None:
            head.append(f"Content-Length: {content_length}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()

    async def _write_line(
        self, writer: asyncio.StreamWriter, event: Dict[str, object]
    ) -> None:
        payload = json.dumps(event, sort_keys=True) + "\n"
        fault = probe("server.stream")
        if fault is not None and fault.kind == "server_disconnect":
            # Cut the connection mid-line: flush a newline-less prefix so
            # the client sees a truncated NDJSON record, then let the
            # connection teardown (SHUT_WR in _handle_connection) deliver
            # the EOF.  The spec events this stream never carried are
            # recomputed idempotently when the client reconnects.
            writer.write(payload[: max(1, len(payload) // 2)].encode())
            await writer.drain()
            raise ConnectionResetError(
                "injected fault: connection dropped mid-stream"
            )
        writer.write(payload.encode())
        await writer.drain()

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, payload: object
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        await self._write_head(
            writer, status, "application/json", content_length=len(body)
        )
        writer.write(body)
        await writer.drain()
