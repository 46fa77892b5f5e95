"""The single-cycle simulation loop.

Per-cycle order of operations (matching the paper's single-cycle
simulator):

1. deliver due events — packet arrivals, credit returns, ejections;
2. routing algorithm tick (PB refreshes its broadcast flags here);
3. traffic generation — new packets join their node's source queue;
4. injection — every free node moves the head of its source queue into
   the router's injection buffer (the injection wire serializes one
   phit per cycle, so a node injects at most one packet every
   ``packet_size`` cycles);
5. allocation — every router with waiting head packets runs the
   iterative separable allocator; grants execute immediately;
6. progress watchdog — if packets exist but nothing has moved for
   ``deadlock_cycles``, a :class:`DeadlockError` is raised (the
   baselines' VC order and OFAR's escape ring must prevent this; the
   Fig. 9 reduced-resource study disables neither but shows throughput
   collapse *before* deadlock).
"""

from __future__ import annotations

import random
from bisect import insort
from collections import deque

from repro.engine.config import SimulationConfig
from repro.engine.metrics import Metrics
from repro.network.network import Network
from repro.network.packet import Packet
from repro.routing import make_routing
from repro.routing.base import RoutingAlgorithm
from repro.traffic.generators import TrafficGenerator


class DeadlockError(RuntimeError):
    """No packet moved for ``deadlock_cycles`` while traffic was pending."""

    def __init__(self, cycle: int, outstanding: int) -> None:
        super().__init__(
            f"no movement since cycle {cycle}: {outstanding} packets stuck in the network"
        )
        self.cycle = cycle
        self.outstanding = outstanding


class Simulator:
    """Drives one :class:`~repro.network.network.Network` instance."""

    def __init__(
        self,
        config: SimulationConfig,
        generator: TrafficGenerator | None = None,
        record_send_latency: bool = False,
        send_bucket: int = 1,
        record_per_source: bool = False,
        record_per_job: bool = False,
    ) -> None:
        self.config = config
        self.network = Network(config)
        self.rng = random.Random(config.seed)
        self.routing = make_routing(self.network, self.rng)
        self.metrics = Metrics(
            num_nodes=self.network.topo.num_nodes,
            packet_size=config.packet_size,
            record_send_latency=record_send_latency,
            send_bucket=send_bucket,
            record_per_source=record_per_source,
            record_per_job=record_per_job,
        )
        self.network.on_eject = self.metrics.on_eject
        self.generator = generator
        self.cycle = 0
        self._pid = 0
        topo = self.network.topo
        num_nodes = topo.num_nodes
        # node -> attached router / group tables (packet-header fills).
        self._node_router = [topo.node_router(n) for n in range(num_nodes)]
        self._node_group = [topo.node_group(n) for n in range(num_nodes)]
        self._source_queues: list[deque[Packet]] = [deque() for _ in range(num_nodes)]
        self._node_busy = [0] * num_nodes
        # Nodes with a non-empty source queue.  ``_active_order`` is the
        # same membership kept incrementally sorted (bisect insertion)
        # so the injection sweep never re-sorts the set per cycle.
        self._active_nodes: set[int] = set()
        self._active_order: list[int] = []
        self._progress_marker = -1
        self._progress_cycle = 0
        # Whether the routing algorithm has a real per-cycle tick (only
        # PB broadcasts); skipping the no-op saves a call per cycle.
        self._routing_ticks = type(self.routing).tick is not RoutingAlgorithm.tick
        # Total packets created (≥ injected: source queues buffer excess).
        self.created_packets = 0
        # Optional TelemetrySampler (repro.telemetry); None costs one
        # attribute check per cycle — the whole price of having the hook.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Packet creation / injection
    # ------------------------------------------------------------------
    def create_packet(
        self, src: int, dst: int, cycle: int | None = None, job: int = -1
    ) -> Packet:
        """Queue a new packet at node ``src`` (used by generators and tests).

        ``job`` tags the packet with the multi-job workload job index
        that created it (-1 = single-tenant traffic); per-job metrics
        and link attribution key off the tag.
        """
        if src == dst:
            raise ValueError("source and destination nodes must differ")
        if cycle is None:
            cycle = self.cycle
        node_router = self._node_router
        node_group = self._node_group
        pkt = Packet(
            self._pid,
            src,
            dst,
            self.config.packet_size,
            cycle,
            node_router[dst],
            node_group[dst],
            node_group[src],
        )
        self._pid += 1
        self._source_queues[src].append(pkt)
        active = self._active_nodes
        if src not in active:
            active.add(src)
            insort(self._active_order, src)
        self.created_packets += 1
        metrics = self.metrics
        metrics.generated_packets += 1  # Metrics.on_generate(1)
        if job >= 0:
            pkt.job = job
            if metrics.record_per_job:
                metrics.on_job_generate(job)
        return pkt

    def _inject(self, cycle: int) -> None:
        """Move source-queue heads into router injection buffers."""
        done: list[int] = []
        busy = self._node_busy
        queues = self._source_queues
        try_inject = self.network.try_inject
        # Skip the injection-time hook entirely for algorithms that do
        # not override the base no-op (MIN, OFAR): one call per node per
        # cycle adds up.
        on_inject = (
            self.routing.on_inject
            if type(self.routing).on_inject is not RoutingAlgorithm.on_inject
            else None
        )
        metrics = self.metrics
        record_jobs = metrics.record_per_job
        size = self.config.packet_size
        for node in self._active_order:
            if busy[node] > cycle:
                continue
            queue = queues[node]
            pkt = queue[0]
            # The injection-time decision (VAL/UGAL/PB) is re-taken on
            # every attempt so it sees current queue state.
            if on_inject is not None:
                on_inject(pkt)
            if try_inject(pkt, cycle):
                queue.popleft()
                busy[node] = cycle + size
                metrics.injected_packets += 1  # Metrics.on_inject
                if record_jobs and pkt.job >= 0:
                    metrics.on_job_inject(pkt.job)
                if not queue:
                    done.append(node)
        if done:
            active = self._active_nodes
            order = self._active_order
            for node in done:
                active.discard(node)
                order.remove(node)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one cycle."""
        cycle = self.cycle
        network = self.network
        network.process_events(cycle)
        routing = self.routing
        if self._routing_ticks:
            routing.tick(cycle)
        generator = self.generator
        if generator is not None:
            if generator.emits_jobs:
                # Multi-job composite: (src, dst, job) triples.
                for src, dst, job in generator.packets_for_cycle(cycle):
                    self.create_packet(src, dst, cycle, job)
            else:
                for src, dst in generator.packets_for_cycle(cycle):
                    self.create_packet(src, dst, cycle)
        if self._active_order:
            self._inject(cycle)
        # Active-set allocation sweep: only routers holding a head
        # packet, in router-id order (a snapshot — grants may drain a
        # router out of the set mid-sweep).  Routers whose heads are all
        # behind busy read slots go to sleep until the earliest release.
        routers = network.routers
        maybe_sleep = network.maybe_sleep_router
        for rid in tuple(network._active_routers):
            rt = routers[rid]
            rt.allocate(cycle, routing, network)
            if rt.scheduled:
                maybe_sleep(rt, cycle)
        # Progress watchdog.
        marker = network.movements + network.injected_packets + network.ejected_packets
        if marker != self._progress_marker:
            self._progress_marker = marker
            self._progress_cycle = cycle
        elif (
            self.outstanding_packets() > 0
            and cycle - self._progress_cycle > self.config.deadlock_cycles
        ):
            raise DeadlockError(self._progress_cycle, self.outstanding_packets())
        # Telemetry observes the settled end-of-cycle state; the sampler
        # only reads, so a telemetered run is bit-identical to a plain one.
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_cycle(cycle)
        self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Advance ``cycles`` cycles."""
        for _ in range(cycles):
            self.step()

    def outstanding_packets(self) -> int:
        """Packets created but not yet fully ejected."""
        return self.created_packets - self.network.ejected_packets

    def run_until_drained(self, max_cycles: int) -> int:
        """Run until the generator (if any) finishes and every created
        packet is ejected; returns the cycle of the last ejection
        (``network.last_eject_cycle``; -1 when nothing was ever ejected,
        e.g. on a fresh simulator that is already drained).

        Endless generators (steady Bernoulli) never finish: the run hits
        ``max_cycles`` and raises :class:`TimeoutError`.
        """
        deadline = self.cycle + max_cycles

        def active() -> bool:
            if self.generator is not None and not self.generator.finished(self.cycle):
                return True
            return self.outstanding_packets() > 0

        while active():
            if self.cycle >= deadline:
                raise TimeoutError(
                    f"{self.outstanding_packets()} packets still outstanding "
                    f"after {max_cycles} cycles"
                )
            self.step()
        # The actual last-ejection cycle — NOT ``self.cycle - 1``, which
        # would be stale (or -1) when the network was already drained on
        # entry and the loop body never ran.
        completion = self.network.last_eject_cycle
        # Flush in-flight credit returns so the network is fully settled
        # (every credit counter back at capacity).
        while self.network.has_pending_events() and self.cycle < deadline:
            self.step()
        return completion

    # ------------------------------------------------------------------
    def warm_up(self, cycles: int) -> None:
        """Run ``cycles`` and then reset the measurement window."""
        self.run(cycles)
        self.metrics.reset(self.cycle)

    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """Cycle-granularity content hash of the complete mutable state.

        Equal digests at equal cycles mean behaviorally identical
        simulators: two deterministic runs of the same spec agree at
        every cycle, and the first differing cycle localizes a
        determinism break (``repro snapshot bisect`` automates the
        search).  Telemetry is excluded — observation never perturbs.
        """
        # Local import: repro.snapshot sits above the engine layer.
        from repro.snapshot.codec import state_digest

        return state_digest(self)
