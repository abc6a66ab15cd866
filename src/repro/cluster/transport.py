"""Shard transports: the same :class:`ShardBackend` behind two wire levels.

Both expose ``call_async(op, payload, trace_ctx, done)``, which answers
``done(value, None)`` or ``done(None, error)`` exactly once, on
whichever thread completes the call, plus ``kill()`` and ``close()``;
the router shell issues every ``Send`` effect through ``call_async``
and enforces the deadlines itself. :class:`LocalShard` dispatches
in-process (unit tests, doc tooling); :class:`ProcessShard` forks a
child that serves a pipelined socketpair.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from typing import Any, Callable, Optional

from repro.cluster.rpc import (PipelinedConnection, RpcError, ShardDead,
                               ShardTimeout)
from repro.cluster.shard import ShardBackend, ShardConfig, shard_main


class LocalShard:
    """In-process transport: direct dispatch, no sockets, no fork.

    Used by unit tests and doc tooling where process isolation is not
    the point. A ``serve`` completes from its worker-pool future, so a
    scatter's calls overlap; other ops, and ``slow``-injected delays
    (there is no receive loop to stall), run inline through
    :meth:`call`, so timeout-driven chaos runs on :class:`ProcessShard`.
    """

    def __init__(self, config: ShardConfig) -> None:
        self._backend = ShardBackend(config).start()
        self._dead = False

    def call_async(self, op: str, payload: Any, trace_ctx: Any,
                   done: Callable[[Any, Any], None]) -> None:
        try:
            if op == "serve" and not self._dead:
                def landed(future) -> None:
                    error = future.exception()
                    done(None if error else future.result(), error)

                self._backend.dispatch_async(
                    op, payload, trace_ctx).add_done_callback(landed)
                return
            value = self.call(op, payload, trace_ctx=trace_ctx)
        except Exception as exc:
            done(None, exc)
            return
        done(value, None)

    def call(self, op: str, payload: Any = None,
             timeout_s: Optional[float] = None,
             trace_ctx: Any = None) -> Any:
        if self._dead:
            raise ShardDead("shard was killed")
        if op == "telemetry":
            # Same-process spans/events already land in the router's
            # recorder/log; an empty batch keeps the harvester uniform.
            return {"spans": [], "events": [], "dropped": 0,
                    "clock": time.monotonic()}
        return self._backend.dispatch(op, payload, trace_ctx)

    def kill(self) -> None:
        if not self._dead:
            self._dead = True
            self._backend.stop()

    def close(self) -> None:
        self.kill()


class ProcessShard:
    """Forked shard process behind a pipelined socketpair connection.

    Any number of router threads may have calls in flight on the one
    socket at once; the shard answers ``serve`` ops out of order as its
    worker pool finishes them (see :class:`PipelinedConnection`).
    """

    def __init__(self, config: ShardConfig) -> None:
        parent, child = socket.socketpair()
        self._proc = multiprocessing.get_context("fork").Process(
            target=shard_main, args=(config, child), daemon=True,
            name=f"{config.name}-{config.index}")
        self._proc.start()
        # Close our copy of the child end immediately: EOF detection on
        # shard death depends on the child end living only in the child.
        child.close()
        self._conn = PipelinedConnection(parent)
        # Guards the Process object: two threads may kill one shard (an
        # injected crash beside the restart that replaces it).
        self._proc_lock = threading.Lock()

    def call_async(self, op: str, payload: Any, trace_ctx: Any,
                   done: Callable[[Any, Any], None]) -> None:
        self._conn.call_async(op, payload, trace_ctx, done)

    def kill(self) -> None:
        """Kill and join the child, then close its ``Process`` — which
        otherwise holds the sentinel pipe open until garbage collection."""
        try:
            with self._proc_lock:
                if self._proc.is_alive():
                    self._proc.kill()
                self._proc.join(timeout=5.0)
                self._proc.close()
        except ValueError:
            pass  # already closed, or still running past the timeout
        finally:
            self._conn.close()

    def close(self) -> None:
        try:  # a dead or killed shard fails the call at once
            self._conn.call("shutdown", timeout_s=2.0)
            self._proc.join(timeout=2.0)
        except (ShardDead, ShardTimeout, RpcError, ValueError):
            pass  # ValueError: a concurrent kill() closed the Process
        self.kill()

