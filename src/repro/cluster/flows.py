"""A sans-I/O runtime for concurrent generator flows.

A flow is a generator that yields what it waits for and is resumed with
the outcome: an outgoing message (anything with a ``seq``) is resumed by
:meth:`FlowRunner._resume` with the reply, or has the failure thrown in
at the ``yield``; :class:`All` runs child flows concurrently; a yielded
:class:`Gate` parks the flow until the gate is handed to it. Nothing
here blocks or does I/O: each event steps every runnable flow until it
waits again and returns the effects produced, for a shell to run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, NamedTuple, Optional, Tuple

Flow = Generator[Any, Any, Any]


class Respond(NamedTuple):
    """Operation ``op`` answered ``value`` or raised ``error``."""

    op: Any
    value: Any
    error: Optional[BaseException]


class Discard(NamedTuple):
    """An outcome for ``seq``, which nothing awaits (late or repeated)."""

    seq: int


class All(NamedTuple):
    """Yielded by a flow: run ``flows`` concurrently, then resume with
    their results in order (a flow that raised answers ``failure(exc)``
    of the runner)."""

    flows: List[Flow]


class Gate:
    """A mutex between flows (``yield from runner._acquire(gate)``), or
    a latch that :meth:`FlowRunner._wake_all` opens for every waiter."""

    def __init__(self) -> None:
        self.held = False
        self.waiters: Deque["_Task"] = deque()


class _Task:
    __slots__ = ("op", "flow", "parent", "slot", "results", "pending")

    def __init__(self, op: Any, flow: Flow, parent: Optional["_Task"] = None,
                 slot: int = 0) -> None:
        self.op, self.flow, self.parent, self.slot = op, flow, parent, slot
        self.results: List[Any] = []
        self.pending = 0


class FlowRunner:
    """Steps flows; subclasses start them and emit their own effects
    into ``_out`` while a flow runs (``_task`` is the flow being run)."""

    def __init__(self) -> None:
        self._waiting = {}  # seq -> (the task awaiting it, what it sent)
        self._ready: Deque[Tuple[_Task, Any, Any]] = deque()
        self._out: List[Any] = []
        self._task: Optional[_Task] = None

    def failure(self, error: BaseException) -> Any:
        """What a child flow that raised ``error`` answers its parent."""
        raise NotImplementedError

    def _start(self, op: Any, flow: Flow) -> List[Any]:
        self._ready.append((_Task(op, flow), None, None))
        return self._drain()

    def _resume(self, seq: int, value: Any,
                error: Optional[BaseException]) -> List[Any]:
        task, _ = self._waiting.pop(seq, (None, None))
        if task is None:
            return [Discard(seq)]
        self._ready.append((task, value, error))
        return self._drain()

    def _drain(self) -> List[Any]:
        while self._ready:
            task, value, error = self._ready.popleft()
            self._task = task
            try:
                if error is not None:
                    item = task.flow.throw(error)
                else:
                    item = task.flow.send(value)
            except StopIteration as stop:
                self._finish(task, stop.value, None)
                continue
            except Exception as exc:
                self._finish(task, None, exc)
                continue
            finally:
                self._task = None
            if type(item) is All:
                task.results = [None] * len(item.flows)
                task.pending = len(item.flows)
                if not item.flows:
                    self._ready.append((task, [], None))
                for slot, flow in enumerate(item.flows):
                    self._ready.append(
                        (_Task(task.op, flow, task, slot), None, None))
            elif type(item) is Gate:  # held: park until handed over
                item.waiters.append(task)
            else:
                self._waiting[item.seq] = (task, item)
                self._out.append(item)
        out, self._out = self._out, []
        return out

    def _finish(self, task: _Task, value: Any,
                error: Optional[BaseException]) -> None:
        parent = task.parent
        if parent is None:
            self._out.append(Respond(task.op, value, error))
            return
        parent.results[task.slot] = \
            value if error is None else self.failure(error)
        parent.pending -= 1
        if parent.pending == 0:
            self._ready.append((parent, parent.results, None))

    def _acquire(self, gate: Gate) -> Flow:
        if gate.held:
            yield gate  # resumed holding it
        else:
            gate.held = True

    def _wake_all(self, gate: Gate) -> None:
        self._ready.extend((task, None, None) for task in gate.waiters)
        gate.waiters.clear()

    def _release(self, gate: Gate) -> None:
        if gate.waiters:
            self._ready.append((gate.waiters.popleft(), None, None))
        else:
            gate.held = False
