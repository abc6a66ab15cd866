"""Length-prefixed RPC between the router and shard processes.

Wire format, chosen for debuggability over cleverness: every frame is a
fixed 13-byte header — ``!QBI`` request id (8 bytes) + frame kind
(1 byte) + payload length (4 bytes) — followed by the body. Two frame
kinds exist:

- ``KIND_PICKLE`` (0): the body is a pickled object. Requests carry
  ``(op, payload)`` tuples — or ``(op, payload, trace_ctx)`` when the
  caller is inside a sampled trace: the optional third element is a
  picklable :class:`~repro.obs.trace.TraceContext` the shard resumes
  with ``TRACER.continue_from``, which is how one trace id spans the
  router and shard processes. Receivers accept both shapes, so an
  untraced stream is byte-identical to the pre-tracing wire format.
  Replies carry ``("ok", result)`` or ``("err", message)``.
- ``KIND_RAW_RESPONSE`` (1): an OK reply whose payload is raw bytes —
  a fixed ``!qdB`` meta block (served version, handler latency, trace
  flags) followed by the payload verbatim. Shards use
  this to forward encoded-tile pack slices to the router without a
  pickle round-trip: the payload ``memoryview`` is written straight
  from the mmap to the socket and never copied into a pickle buffer.
  The flags byte's bit 0 says the shard handled the request inside the
  propagated trace (the full context never needs to travel back — the
  router minted it); it surfaces as ``Response.trace_sampled``.

The request id is echoed back in the reply header, so a router that
timed out on a slow shard and moved on can recognise and discard the
late reply instead of mis-attributing it to the next request — without
that, one slow reply would desynchronise the connection forever.

The client end is :class:`PipelinedConnection` — many requests in
flight on one socket. Senders serialize on a send lock; a dedicated
reader thread hands every reply to the ``done`` callback its request
registered, matched by the echoed id, so replies may legally arrive out
of order (the shard side answers ``serve`` ops as its worker pool
finishes them). The completion is the event: the router's callback
feeds it to its protocol core, and its deadlines are the router's own.
A blocking :meth:`PipelinedConnection.call` that times out abandons its
id, so the late reply is dropped by the reader (``late_discards``)
without desynchronising anyone else.

Failure taxonomy (what the router's failover logic keys on):

- :class:`ShardTimeout` — the reply did not arrive inside the call
  timeout. The shard may be slow or wedged; the request may or may not
  have been applied (ambiguity the router must resolve before retrying
  a write).
- :class:`ShardDead` — the peer closed the socket or the read hit a
  reset: the process is gone. Reads fail over to a replica; writes are
  re-driven against a restarted primary rebuilt from the journal.
- :class:`RpcError` — the shard handled the request and raised; the
  error travelled back cleanly (no failover, the shard is healthy).
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.serve.api import Response, Status

_HEADER = struct.Struct("!QBI")

KIND_PICKLE = 0
KIND_RAW_RESPONSE = 1

#: meta block of a raw response: served version (signed — REJECTED/SHED
#: carry −1), handler latency in seconds, trace flags (bit 0: handled
#: inside the request's propagated trace)
_RAW_META = struct.Struct("!qdB")

_TRACE_FLAG_SAMPLED = 1


class RpcError(Exception):
    """The remote handler raised; the shard itself is healthy."""


class ShardDead(Exception):
    """The shard process is gone (EOF / reset on its socket)."""


class ShardTimeout(Exception):
    """No reply within the call timeout; the shard may be wedged."""


def send_frame(sock: socket.socket, request_id: int, body: Any) -> None:
    """Pickle ``body`` and write one framed message."""
    raw = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        sock.sendall(_HEADER.pack(request_id, KIND_PICKLE, len(raw)) + raw)
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise ShardDead(f"send failed: {exc}") from None


def send_raw_response(sock: socket.socket, request_id: int,
                      response: Response, sampled: bool = False) -> None:
    """Write one OK reply whose payload ships as raw bytes.

    The payload (``bytes``/``bytearray``/``memoryview`` — e.g. a pack
    mmap slice) is written directly after the meta block, so a zero-copy
    tile view goes mmap → socket without ever entering a pickle buffer.
    ``sampled`` sets the meta block's trace flag: the request travelled
    with a sampled :class:`~repro.obs.trace.TraceContext` and shard-side
    spans exist for it.
    """
    payload = memoryview(response.payload)
    flags = _TRACE_FLAG_SAMPLED if sampled else 0
    meta = _RAW_META.pack(response.version, response.latency_s, flags)
    try:
        sock.sendall(_HEADER.pack(request_id, KIND_RAW_RESPONSE,
                                  _RAW_META.size + payload.nbytes) + meta)
        sock.sendall(payload)
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise ShardDead(f"send failed: {exc}") from None


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionResetError, OSError) as exc:
            raise ShardDead(f"recv failed: {exc}") from None
        if not chunk:
            raise ShardDead("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[int, Any]:
    """Read one framed message; returns ``(request_id, body)``.

    Raw-response frames are decoded into the same ``("ok", Response)``
    shape a pickled reply carries, so callers handle both uniformly.
    """
    request_id, kind, length = _HEADER.unpack(_recv_exact(sock,
                                                          _HEADER.size))
    raw = _recv_exact(sock, length)
    if kind == KIND_RAW_RESPONSE:
        if length < _RAW_META.size:
            raise ShardDead(f"short raw frame ({length} bytes)")
        version, latency_s, flags = _RAW_META.unpack(raw[:_RAW_META.size])
        response = Response(
            Status.OK, payload=raw[_RAW_META.size:], version=version,
            latency_s=latency_s)
        response.trace_sampled = bool(flags & _TRACE_FLAG_SAMPLED)
        return request_id, ("ok", response)
    if kind != KIND_PICKLE:
        raise ShardDead(f"unknown frame kind {kind}")
    return request_id, pickle.loads(raw)


class PipelinedConnection:
    """The router's end of one shard socket: many requests in flight.

    :meth:`call_async` registers its ``done`` callback under a fresh
    request id and sends under the send lock; the reader thread runs
    each callback with its reply, matched by the echoed id, and never
    sends. EOF/reset kills the reader, which fails **all** pending
    callbacks with :class:`ShardDead` — the kill-mid-pipeline case;
    ``("err", …)`` replies fail their own callback with
    :class:`RpcError`. Deadlines are the caller's: the blocking
    :meth:`call` raises :class:`ShardTimeout` past ``timeout_s`` and
    abandons its id, and a reply with no callback is dropped (counted in
    ``late_discards``), so one slow request never desynchronises the
    stream.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._pending: Dict[int, Callable[[Any, Any], None]] = {}
        self._next_id = 1
        self._dead: Optional[Exception] = None
        self.late_discards = 0
        self._reader = threading.Thread(target=self._read_loop,
                                        name="rpc-reader", daemon=True)
        self._reader.start()

    def call_async(self, op: str, payload: Any, trace_ctx: Any,
                   done: Callable[[Any, Any], None]) -> int:
        """Send one request, answered ``done(value, None)`` or
        ``done(None, error)`` exactly once; returns its id."""
        with self._lock:
            dead = self._dead
            request_id = self._next_id
            self._next_id += 1
            if dead is None:
                self._pending[request_id] = done
        if dead is not None:
            done(None, ShardDead(str(dead)))
            return request_id
        body = (op, payload) if trace_ctx is None \
            else (op, payload, trace_ctx)
        try:
            with self._send_lock:
                send_frame(self._sock, request_id, body)
        except ShardDead as exc:
            with self._lock:
                pending = self._pending.pop(request_id, None)
            if pending is not None:  # else the reader failed it already
                pending(None, exc)
        return request_id

    def call(self, op: str, payload: Any = None,
             timeout_s: Optional[float] = None,
             trace_ctx: Any = None) -> Any:
        landed = threading.Event()
        outcome = []

        def done(value: Any, error: Optional[BaseException]) -> None:
            outcome.append((value, error))
            landed.set()

        request_id = self.call_async(op, payload, trace_ctx, done)
        if not landed.wait(timeout_s):
            # Abandon the id; the reader drops the late reply.
            with self._lock:
                self._pending.pop(request_id, None)
            raise ShardTimeout(f"no reply to {op!r} within {timeout_s}s")
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    def _read_loop(self) -> None:
        while True:
            try:
                reply_id, (status, result) = recv_frame(self._sock)
            except Exception as exc:
                dead = exc if isinstance(exc, ShardDead) \
                    else ShardDead(f"reader failed: {exc}")
                with self._lock:
                    if self._dead is None:
                        self._dead = dead
                    pending = list(self._pending.values())
                    self._pending.clear()
                for done in pending:
                    done(None, ShardDead(str(dead)))
                return
            with self._lock:
                done = self._pending.pop(reply_id, None)
            if done is None:
                self.late_discards += 1
            elif status == "err":
                done(None, RpcError(str(result)))
            else:
                done(result, None)

    def close(self) -> None:
        with self._lock:
            if self._dead is None:
                self._dead = ShardDead("connection closed")
        try:
            self._sock.close()
        except OSError:
            pass


def serve_connection(sock: socket.socket, dispatch,
                     async_dispatch=None) -> None:
    """Shard-side loop: read frames, dispatch, reply until EOF.

    ``dispatch(op, payload)`` returns the result or raises; exceptions
    are shipped back as ``("err", message)`` so a handler bug never
    kills the shard loop. A dispatch that calls ``os._exit`` (the
    injected-crash fault) simply never replies.

    ``async_dispatch(op, payload)``, when given, may return a ``Future``
    instead of a result — the reply is sent from the future's callback
    when it resolves, while this loop keeps reading. That is the
    shard-side half of RPC pipelining: ``serve`` ops overlap in the
    worker pool and are answered out of order; replies from callbacks
    and from this loop serialize on one send lock. An ``async_dispatch``
    returning ``None`` falls back to the synchronous path.

    Traced requests arrive as ``(op, payload, trace_ctx)`` 3-tuples; the
    context is handed to the dispatcher as a third positional argument
    (dispatchers that support tracing declare ``trace_ctx=None``).
    Untraced 2-tuples keep calling the two-argument form, so simple
    test dispatchers keep working unchanged.
    """
    sock.settimeout(None)
    send_lock = threading.Lock()

    def send_result(request_id: int, result: Any,
                    sampled: bool = False) -> bool:
        try:
            with send_lock:
                if isinstance(result, Response) \
                        and result.status is Status.OK \
                        and isinstance(result.payload,
                                       (bytes, bytearray, memoryview)):
                    send_raw_response(sock, request_id, result,
                                      sampled=sampled)
                else:
                    send_frame(sock, request_id, ("ok", result))
            return True
        except (ShardDead, OSError):
            return False

    def send_error(request_id: int, exc: BaseException) -> bool:
        try:
            with send_lock:
                send_frame(sock, request_id,
                           ("err", f"{type(exc).__name__}: {exc}"))
            return True
        except (ShardDead, OSError):
            return False

    while True:
        try:
            request_id, body = recv_frame(sock)
        except ShardDead:
            return
        if len(body) == 3:
            op, payload, trace_ctx = body
        else:
            op, payload = body
            trace_ctx = None
        sampled = trace_ctx is not None
        if op == "shutdown":
            try:
                with send_lock:
                    send_frame(sock, request_id, ("ok", None))
            except ShardDead:
                pass
            return
        args = (op, payload) if trace_ctx is None else (op, payload, trace_ctx)
        if async_dispatch is not None:
            try:
                future = async_dispatch(*args)
            except Exception as exc:
                if not send_error(request_id, exc):
                    return
                continue
            if future is not None:
                def _finish(fut, request_id=request_id, sampled=sampled):
                    exc = fut.exception()
                    if exc is not None:
                        send_error(request_id, exc)
                    else:
                        send_result(request_id, fut.result(),
                                    sampled=sampled)
                future.add_done_callback(_finish)
                continue
        try:
            result = dispatch(*args)
        except Exception as exc:  # ship the failure, keep serving
            if not send_error(request_id, exc):
                return
            continue
        if not send_result(request_id, result, sampled=sampled):
            return
