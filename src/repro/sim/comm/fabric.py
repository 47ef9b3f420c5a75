"""Inter-tile communication fabric (paper §II-C and §VII-A).

Two mechanisms:

* **generic messages** — ``send``/``recv`` pairs. The Interleaver "buffers
  all send instructions issued"; a ``recv`` matches the oldest buffered
  message from its source tile. Message buffers are unbounded (the paper's
  generic model); timing comes from the comm latency of the sender.

* **DAE queues** — the bounded communication queues of the Decoupled
  Access/Execute case study: a *load queue* (access → execute) and a
  *store-value queue* (execute → access) per DAE pair, with configurable
  capacity (Table II: 512 entries, 1-cycle latency). Producers stall when
  full; consumers stall when empty — this back-pressure is what lets the
  access slice run ahead by exactly the queue depth, acting as a
  non-speculative "perfect prefetcher".

The fabric is timing-only: tokens carry availability cycles, not values
(values were resolved during trace generation).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

from ..config import ConfigError

#: called with the cycle at which a waiting operation may complete
Wakeup = Callable[[int], None]


class CommFabric:
    def __init__(self, dae_queue_capacity: int = 512, injector=None):
        if dae_queue_capacity <= 0:
            raise ConfigError(
                f"DAE queue capacity must be positive, got "
                f"{dae_queue_capacity} (a zero-capacity queue can never "
                f"pass a token and deadlocks both slices)")
        self.dae_queue_capacity = dae_queue_capacity
        #: optional FaultInjector consulted on every send
        self.injector = injector
        #: event handlers (repro.telemetry.observer), empty when unwatched
        self.observers = ()
        self.messages_sent = 0
        self.dropped_messages = 0
        self.delayed_messages = 0
        #: (src, dst) -> availability cycles of buffered messages
        self._messages: Dict[Tuple[int, int], Deque[int]] = {}
        #: (src, dst) -> waiting recv wakeups
        self._recv_waiters: Dict[Tuple[int, int], Deque[Wakeup]] = {}
        #: queue name -> availability cycles of queued tokens
        self._queues: Dict[str, Deque[int]] = {}
        #: queue name -> tokens reserved by in-flight produces
        self._reserved: Dict[str, int] = {}
        self._empty_waiters: Dict[str, Deque[Wakeup]] = {}
        self._full_waiters: Dict[str, Deque[Wakeup]] = {}
        #: peak occupancy per queue, for stats/tests
        self.peak_occupancy: Dict[str, int] = {}
        #: (group, generation) -> (waiting wakeups, arrival cycles)
        self._barriers: Dict[Tuple[str, int], tuple] = {}
        #: completed barrier generations per group (stats)
        self.barriers_released: Dict[str, int] = {}

    # -- generic messages ------------------------------------------------
    def send(self, src: int, dst: int, available_cycle: int) -> None:
        """Deposit a message that becomes visible at ``available_cycle``."""
        self.messages_sent += 1
        if self.injector is not None:
            action, extra = self.injector.message_action(
                src, dst, available_cycle)
            if action == "drop":
                # the message vanishes; a receiver blocked on it is caught
                # by deadlock detection or the watchdog
                self.dropped_messages += 1
                for observer in self.observers:
                    observer.fabric_drop(src, dst, available_cycle)
                return
            if action == "delay":
                self.delayed_messages += 1
                available_cycle += extra
        for observer in self.observers:
            observer.fabric_send(src, dst, available_cycle)
        key = (src, dst)
        waiters = self._recv_waiters.get(key)
        if waiters:
            waiters.popleft()(available_cycle)
            return
        self._messages.setdefault(key, deque()).append(available_cycle)

    def try_recv(self, src: int, dst: int, cycle: int,
                 wakeup: Wakeup) -> bool:
        """Attempt to consume a message; on failure, register ``wakeup``.

        Returns True (and does NOT call wakeup) if a message visible at or
        before ``cycle`` was consumed.
        """
        key = (src, dst)
        buffered = self._messages.get(key)
        if buffered:
            available = buffered.popleft()
            # span: the message's wait in the buffer until this recv, or
            # the recv's wait for a message in flight
            for observer in self.observers:
                observer.fabric_message(src, dst, min(available, cycle),
                                        max(available, cycle))
            if available <= cycle:
                return True
            # message in flight: complete when it becomes visible
            wakeup(available)
            return False
        for observer in self.observers:
            observer.recv_wait(src, dst)
        self._recv_waiters.setdefault(key, deque()).append(wakeup)
        return False

    # -- DAE queues --------------------------------------------------------
    def queue_occupancy(self, name: str) -> int:
        return len(self._queues.get(name, ())) + self._reserved.get(name, 0)

    def queue_try_produce(self, name: str, available_cycle: int,
                          wakeup_when_space: Wakeup) -> bool:
        """Reserve a slot and deposit a token visible at ``available_cycle``.

        If the queue is at capacity, registers ``wakeup_when_space`` and
        returns False; the producer retries when a consumer pops.
        """
        if self.queue_occupancy(name) >= self.dae_queue_capacity:
            for observer in self.observers:
                observer.queue_full(name, available_cycle)
            self._full_waiters.setdefault(name, deque()).append(
                wakeup_when_space)
            return False
        waiters = self._empty_waiters.get(name)
        if waiters:
            # a consumer is already waiting: hand the token over directly
            waiters.popleft()(available_cycle)
            return True
        queue = self._queues.setdefault(name, deque())
        queue.append(available_cycle)
        occupancy = self.queue_occupancy(name)
        if occupancy > self.peak_occupancy.get(name, 0):
            self.peak_occupancy[name] = occupancy
        for observer in self.observers:
            observer.queue_depth(name, available_cycle, occupancy)
        return True

    def queue_try_consume(self, name: str, cycle: int,
                          wakeup_when_token: Wakeup) -> bool:
        """Attempt to pop a token visible at or before ``cycle``."""
        queue = self._queues.get(name)
        if queue and queue[0] <= cycle:
            queue.popleft()
            self._notify_space(name, cycle)
            for observer in self.observers:
                observer.queue_depth(name, cycle, self.queue_occupancy(name))
            return True
        if queue:
            available = queue.popleft()
            self._notify_space(name, available)
            for observer in self.observers:
                observer.queue_depth(name, available,
                                     self.queue_occupancy(name))
            wakeup_when_token(available)
            return False
        for observer in self.observers:
            observer.queue_empty(name, cycle)
        self._empty_waiters.setdefault(name, deque()).append(
            wakeup_when_token)
        return False

    def _notify_space(self, name: str, cycle: int) -> None:
        waiters = self._full_waiters.get(name)
        if waiters:
            waiters.popleft()(cycle)

    # -- decoupled-load support (DeSC terminal load buffer) -----------------
    def queue_try_reserve(self, name: str, wakeup_when_space: Wakeup) -> bool:
        """Reserve a slot for an in-flight decoupled load; the token is
        deposited later by :meth:`queue_deposit_reserved` when the memory
        response arrives."""
        if self.queue_occupancy(name) >= self.dae_queue_capacity:
            self._full_waiters.setdefault(name, deque()).append(
                wakeup_when_space)
            return False
        self._reserved[name] = self._reserved.get(name, 0) + 1
        occupancy = self.queue_occupancy(name)
        if occupancy > self.peak_occupancy.get(name, 0):
            self.peak_occupancy[name] = occupancy
        return True

    def queue_deposit_reserved(self, name: str, available_cycle: int) -> None:
        """Convert a reservation into a visible token."""
        reserved = self._reserved.get(name, 0)
        if reserved <= 0:
            raise ValueError(f"deposit without reservation on queue {name!r}")
        self._reserved[name] = reserved - 1
        waiters = self._empty_waiters.get(name)
        if waiters:
            # hand the token straight to the waiting consumer; occupancy
            # dropped, so a blocked producer can move up too
            waiters.popleft()(available_cycle)
            self._notify_space(name, available_cycle)
            return
        self._queues.setdefault(name, deque()).append(available_cycle)

    # -- barriers ----------------------------------------------------------
    def barrier_arrive(self, group: str, size: int, generation: int,
                       cycle: int, wakeup: Wakeup) -> bool:
        """Arrive at barrier ``generation`` of ``group``.

        Returns True for the last arriver (whose operation completes now);
        earlier arrivers' ``wakeup`` fires when the barrier releases.
        """
        key = (group, generation)
        waiters, arrivals = self._barriers.setdefault(key, ([], []))
        arrivals.append(cycle)
        if len(arrivals) >= size:
            for observer in self.observers:
                observer.barrier_release(group, generation, arrivals, cycle)
            for waiter in waiters:
                waiter(cycle)
            del self._barriers[key]
            self.barriers_released[group] = \
                self.barriers_released.get(group, 0) + 1
            return True
        waiters.append(wakeup)
        return False

    # ------------------------------------------------------------------
    def pending_messages(self) -> int:
        return sum(len(q) for q in self._messages.values())

    def diagnostics(self) -> Dict[str, object]:
        """Occupancy/waiter snapshot for deadlock diagnostics."""
        names = set(self._queues) | set(self._reserved)
        return {
            "pending_messages": self.pending_messages(),
            "queue_occupancy": {name: self.queue_occupancy(name)
                                for name in sorted(names)},
            "recv_waiters": sum(len(w) for w in self._recv_waiters.values()),
            "empty_waiters": sum(len(w)
                                 for w in self._empty_waiters.values()),
            "full_waiters": sum(len(w) for w in self._full_waiters.values()),
            "barriers_open": len(self._barriers),
            "dropped_messages": self.dropped_messages,
            "delayed_messages": self.delayed_messages,
        }
