"""Shard transports: the same :class:`ShardBackend` behind two wire levels.

Both expose ``call(op, payload, timeout_s, trace_ctx)``, ``kill()`` and
``close()``; the router shell runs every ``Send`` effect through one.
:class:`LocalShard` dispatches in-process (unit tests, doc tooling);
:class:`ProcessShard` forks a child that serves a pipelined socketpair
and also counts ``late_discards`` and ``pending`` calls.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from typing import Any, Optional

from repro.cluster.rpc import (PipelinedConnection, RpcError, ShardDead,
                               ShardTimeout)
from repro.cluster.shard import ShardBackend, ShardConfig, shard_main


class LocalShard:
    """In-process transport: direct dispatch, no sockets, no fork.

    Used by unit tests and doc tooling where process isolation is not
    the point. Concurrent calls are naturally pipelined (each caller
    thread dispatches straight into the thread-safe backend), but
    ``slow``-injected delays block the caller (there is no receive loop
    to time out), so timeout-driven chaos runs on :class:`ProcessShard`.
    """

    def __init__(self, config: ShardConfig) -> None:
        self._backend = ShardBackend(config).start()
        self._dead = False

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

    def call(self, op: str, payload: Any = None,
             timeout_s: Optional[float] = None,
             trace_ctx: Any = None) -> Any:
        return self._conn.call(op, payload, timeout_s,
                               trace_ctx=trace_ctx)

    @property
    def late_discards(self) -> int:
        """Replies the reader dropped because their caller timed out."""
        return self._conn.late_discards

    @property
    def pending(self) -> int:
        """Requests awaiting a reply in the reader's in-flight table."""
        return self._conn.inflight

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

