"""The snapshot codec: complete simulator state to/from plain JSON.

:func:`encode_state` walks one live :class:`~repro.engine.simulator.
Simulator` and produces a versioned, JSON-serializable dict covering
*every* piece of mutable state the engine's future behavior depends on:

- router input buffers (packet FIFOs + phit occupancy), per-port read
  slots, the insertion-ordered pending-key sets, the sleep/scheduled
  flags, lazily created LRS arbiters and the per-channel credit /
  serialization / attribution state;
- the event wheel — arrivals, credit returns, ejections and the wake
  events of sleeping routers, bucket by bucket in FIFO order;
- every in-flight packet (full header, keyed by pid);
- the injection backlog (source queues, node busy times) and the
  derived active-node / active-router sets;
- ``Simulator.rng`` plus every traffic-generator RNG stream (pattern
  RNGs — deduplicated, the MIX patterns share one object — numpy
  Bernoulli streams, per-job generators of a
  :class:`~repro.workloads.composite.CompositeTraffic`);
- routing-algorithm state (PB's broadcast flag table; the other
  algorithms keep only pure topology memos, which recompute
  identically);
- metrics accumulators and, when attached, the telemetry sampler's
  ring buffer and window baselines.

:func:`apply_state` is the exact inverse: given a *freshly built*
structurally identical simulator, it overlays the state so that the
restored run continues bit-for-bit like the original would have —
same grants, same RNG draws, same LoadPoint bytes.

:func:`state_digest` hashes the canonical JSON form (telemetry,
caller extras and the embedded spec excluded, so observation and
provenance never change the digest) — equal digests at equal cycles
mean behaviorally identical simulators, which is what the
``repro snapshot bisect`` debugger exploits.

Derived state is *not* serialized, by design: buffer occupancy
(recomputed from packet sizes), the active-node order (non-empty
source queues), the active-router list (the scheduled flags),
``Router.pending`` membership would be derivable but its *insertion
order* is behaviorally significant, so the ordered key list is stored;
per-cycle memos (``congestion_cache``, the routing layer's pure
topology caches) reset cold and recompute identical values.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator

#: Version of the snapshot layout; bumped on any incompatible change.
SNAPSHOT_FORMAT = 1

#: Top-level sections excluded from :func:`state_digest`: telemetry is
#: observation (never perturbs), extras and spec are caller provenance.
DIGEST_EXCLUDE = ("telemetry", "extras", "spec")


class SnapshotError(RuntimeError):
    """A snapshot could not be encoded, decoded or applied."""


# Every Packet slot, in declaration order; the per-packet record is the
# corresponding value list.
_PACKET_FIELDS = Packet.__slots__

_METRIC_INTS = (
    "window_start",
    "generated_packets",
    "injected_packets",
    "ejected_packets",
    "ejected_phits",
    "latency_sum",
    "network_latency_sum",
    "hops_sum",
    "local_hops_sum",
    "global_hops_sum",
    "ring_hops_sum",
    "ring_packets",
    "local_misroutes",
    "global_misroutes",
    "max_latency",
)

_JOB_METRIC_INTS = (
    "generated",
    "injected",
    "ejected",
    "ejected_phits",
    "latency_sum",
    "network_latency_sum",
    "hops_sum",
    "local_hops_sum",
    "global_hops_sum",
    "ring_packets",
    "local_misroutes",
    "global_misroutes",
)

_NETWORK_COUNTERS = (
    "injected_packets",
    "ejected_packets",
    "injected_phits",
    "ejected_phits",
    "in_flight_packets",
    "movements",
    "last_eject_cycle",
    "ring_entries",
    "ring_moves",
    "ring_packets",
    "ring_entry_stalls",
    "local_misroutes",
    "global_misroutes",
)


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
def _rng_state(rng) -> list:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _set_rng_state(rng, state) -> None:
    rng.setstate((state[0], tuple(state[1]), state[2]))


def _np_state(gen) -> dict:
    return gen.bit_generator.state


def _set_np_state(gen, state) -> None:
    gen.bit_generator.state = state


def _walk_pattern_rngs(pattern):
    """The pattern's RNG, then (for MIX) its components' — which share
    the same object by construction; callers deduplicate by id."""
    yield pattern.rng
    for sub in getattr(pattern, "_patterns", ()):
        yield from _walk_pattern_rngs(sub)


def _walk_generator(gen):
    """Yield ("py", Random) / ("np", numpy Generator) / ("flag",
    BurstTraffic) in a deterministic order mirroring construction.

    Capture and apply both walk this way over structurally identical
    generators, so the n-th yielded stream is the same logical stream
    on both sides.
    """
    from repro.traffic.generators import (
        BernoulliTraffic,
        BurstTraffic,
        TransientTraffic,
    )
    from repro.workloads.composite import CompositeTraffic

    if isinstance(gen, CompositeTraffic):
        for job in gen.jobs:
            yield from _walk_generator(job.generator)
    elif isinstance(gen, TransientTraffic):
        for _, pattern in gen.phases:
            for rng in _walk_pattern_rngs(pattern):
                yield ("py", rng)
        yield ("np", gen._bernoulli._np_rng)
    elif isinstance(gen, BernoulliTraffic):
        for rng in _walk_pattern_rngs(gen.pattern):
            yield ("py", rng)
        yield ("np", gen._np_rng)
    elif isinstance(gen, BurstTraffic):
        for rng in _walk_pattern_rngs(gen.pattern):
            yield ("py", rng)
        yield ("flag", gen)
    else:
        raise SnapshotError(
            f"cannot snapshot generator type {type(gen).__name__}"
        )


def _encode_generator(gen):
    if gen is None:
        return None
    py: list = []
    nps: list = []
    flags: list = []
    seen: set[int] = set()
    for kind, obj in _walk_generator(gen):
        if kind == "py":
            if id(obj) not in seen:
                seen.add(id(obj))
                py.append(_rng_state(obj))
        elif kind == "np":
            if id(obj) not in seen:
                seen.add(id(obj))
                nps.append(_np_state(obj))
        else:  # flag
            flags.append(bool(obj._emitted))
    return {"py": py, "np": nps, "flags": flags}


def _apply_generator(gen, state) -> None:
    if state is None:
        if gen is not None:
            raise SnapshotError("snapshot has no generator state but the "
                                "target simulator has a generator")
        return
    if gen is None:
        raise SnapshotError("snapshot carries generator state but the "
                            "target simulator has none")
    py = iter(state["py"])
    nps = iter(state["np"])
    flags = iter(state["flags"])
    seen: set[int] = set()
    try:
        for kind, obj in _walk_generator(gen):
            if kind == "py":
                if id(obj) not in seen:
                    seen.add(id(obj))
                    _set_rng_state(obj, next(py))
            elif kind == "np":
                if id(obj) not in seen:
                    seen.add(id(obj))
                    _set_np_state(obj, next(nps))
            else:
                obj._emitted = next(flags)
    except StopIteration:
        raise SnapshotError(
            "generator structure mismatch: the snapshot holds fewer RNG "
            "streams than the target generator"
        ) from None
    for leftover in (py, nps, flags):
        if next(leftover, None) is not None:
            raise SnapshotError(
                "generator structure mismatch: the snapshot holds more RNG "
                "streams than the target generator"
            )


# ----------------------------------------------------------------------
# Routing-algorithm state
# ----------------------------------------------------------------------
def _encode_routing(routing) -> dict:
    from repro.routing.piggyback import PiggybackRouting

    if isinstance(routing, PiggybackRouting):
        return {
            "pb_flags": [1 if f else 0 for f in routing._flags],
            "pb_last_update": routing._last_update,
        }
    # MIN / VAL / UGAL / PAR / OFAR carry no mutable state beyond pure
    # topology memos (recomputed identically) and draws from the shared
    # simulator RNG (covered by the "rng" section).
    return {}


def _apply_routing(routing, state: dict) -> None:
    from repro.routing.piggyback import PiggybackRouting

    if isinstance(routing, PiggybackRouting):
        if "pb_flags" not in state:
            raise SnapshotError("snapshot lacks PB flag state")
        routing._flags = [bool(f) for f in state["pb_flags"]]
        routing._last_update = state["pb_last_update"]
    elif state:
        raise SnapshotError(
            f"snapshot carries routing state {sorted(state)} the target "
            f"algorithm {type(routing).__name__} cannot accept"
        )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _encode_metrics(m) -> dict:
    out = {name: getattr(m, name) for name in _METRIC_INTS}
    # Int-keyed dicts become pair lists in *iteration* order: insertion
    # order is part of the state (e.g. float-summation order downstream).
    out["send_latency"] = [[k, list(v)] for k, v in m.send_latency.items()]
    out["latency_histogram"] = [[k, v] for k, v in m.latency_histogram.items()]
    out["source_counts"] = [[k, v] for k, v in m.source_counts.items()]
    out["job_stats"] = [
        [
            job,
            {
                **{name: getattr(js, name) for name in _JOB_METRIC_INTS},
                "latency_histogram": [[k, v] for k, v in js.latency_histogram.items()],
            },
        ]
        for job, js in m.job_stats.items()
    ]
    return out


def _apply_metrics(m, state: dict) -> None:
    from repro.engine.metrics import JobMetrics

    for name in _METRIC_INTS:
        setattr(m, name, state[name])
    m.send_latency = {k: list(v) for k, v in state["send_latency"]}
    m.latency_histogram = {k: v for k, v in state["latency_histogram"]}
    m.source_counts = {k: v for k, v in state["source_counts"]}
    job_stats = {}
    for job, rec in state["job_stats"]:
        js = JobMetrics(**{name: rec[name] for name in _JOB_METRIC_INTS})
        js.latency_histogram = {k: v for k, v in rec["latency_histogram"]}
        job_stats[job] = js
    m.job_stats = job_stats


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def _encode_telemetry(sampler) -> dict:
    return {
        "config": sampler.config.to_jsonable(),
        "start_cycle": sampler.start_cycle,
        "dropped": sampler.dropped,
        "samples": [s.to_jsonable() for s in sampler._samples],
        "base": [[kind, list(vals)] for kind, vals in sampler._base.items()],
        "c0": sampler._c0,
        "w0": sampler._w0,
        "next": sampler._next,
        "lat_hist": [[k, v] for k, v in sampler._lat_hist.items()],
        "lat_sum": sampler._lat_sum,
        "lat_count": sampler._lat_count,
        "job_flow": [[j, list(v)] for j, v in sampler._job_flow.items()],
    }


def _apply_telemetry(sim, state: dict):
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.sampler import TelemetrySample, TelemetrySampler

    sampler = TelemetrySampler(sim, TelemetryConfig.from_jsonable(state["config"]))
    # attach() rebuilds the per-channel lists deterministically from the
    # (already restored) network and chains the ejection hook; the saved
    # window baselines then overwrite the attach-time ones.
    sampler.attach()
    sampler.start_cycle = state["start_cycle"]
    sampler.dropped = state["dropped"]
    sampler._samples.extend(
        TelemetrySample.from_jsonable(s) for s in state["samples"]
    )
    for kind, vals in state["base"]:
        sampler._base[kind][:] = vals
    sampler._c0 = dict(state["c0"])
    sampler._w0 = state["w0"]
    sampler._next = state["next"]
    sampler._lat_hist = {k: v for k, v in state["lat_hist"]}
    sampler._lat_sum = state["lat_sum"]
    sampler._lat_count = state["lat_count"]
    sampler._job_flow = {j: list(v) for j, v in state["job_flow"]}
    return sampler


def _encode_arbiters(arbiters: dict) -> list:
    return [
        [port, arb._clock, [[key, t] for key, t in arb._last_grant.items()]]
        for port, arb in arbiters.items()
    ]


def _apply_arbiters(state: list) -> dict:
    from repro.network.arbiter import LRSArbiter

    out = {}
    for port, clock, grants in state:
        arb = LRSArbiter()
        arb._clock = clock
        arb._last_grant = {key: t for key, t in grants}
        out[port] = arb
    return out


# ----------------------------------------------------------------------
# The codec proper
# ----------------------------------------------------------------------
def encode_state(sim: "Simulator", extras=None, spec=None) -> dict:
    """Serialize the complete mutable state of ``sim`` to a JSON-safe
    dict.

    ``extras`` is an optional caller-owned JSON-able dict carried
    verbatim (e.g. the workload runner's per-channel attribution
    baseline); ``spec`` an optional :class:`~repro.engine.runspec.
    RunSpec` recorded so :meth:`Snapshot.fork` can rebuild the
    simulator without outside help.  Neither enters the digest.
    """
    net = sim.network
    packets: dict[int, list] = {}

    def reg(pkt: Packet) -> int:
        rec = packets.get(pkt.pid)
        if rec is None:
            packets[pkt.pid] = [getattr(pkt, f) for f in _PACKET_FIELDS]
        return pkt.pid

    source_queues = [
        [node, [reg(p) for p in queue]]
        for node, queue in enumerate(sim._source_queues)
        if queue
    ]

    routers = []
    chan_ids: dict[int, tuple[int, int]] = {}
    for rt in net.routers:
        bufs = [
            [port, vc, [reg(p) for p in buf._fifo]]
            for port, vcs in enumerate(rt.in_bufs)
            for vc, buf in enumerate(vcs)
            if buf._fifo
        ]
        channels = []
        for ch in rt.out:
            if ch is None:
                channels.append(None)
                continue
            chan_ids[id(ch)] = (rt.rid, ch.port)
            channels.append([
                list(ch.credits),
                ch.busy_until,
                ch.sent_phits,
                [[j, p] for j, p in ch.job_phits.items()],
                bool(ch.failed),
            ])
        routers.append({
            "bufs": bufs,
            "in_busy": [list(slots) for slots in rt.in_busy],
            # Ordered key list: pending *iteration order* drives the
            # allocator's request order, so it is state, not derivable.
            "pending": [[p, v] for p, v in rt.pending],
            "scheduled": bool(rt.scheduled),
            "in_arb": _encode_arbiters(rt._in_arbiters),
            "out_arb": _encode_arbiters(rt._out_arbiters),
            "channels": channels,
        })

    events = []
    for cyc in sorted(net._events._buckets):
        bucket = []
        for ev in net._events._buckets[cyc]:
            tag = ev[0]
            if tag == 0:  # arrival: (tag, rt, buf, (port, vc), pkt)
                _, rt, _buf, key, pkt = ev
                bucket.append([0, rt.rid, key[0], key[1], reg(pkt)])
            elif tag == 1:  # credit: (tag, upstream channel, vc, amount)
                _, ch, vc, amount = ev
                rid, port = chan_ids[id(ch)]
                bucket.append([1, rid, port, vc, amount])
            elif tag == 2:  # eject: (tag, pkt, due cycle)
                bucket.append([2, reg(ev[1]), ev[2]])
            else:  # wake: (tag, rt)
                bucket.append([3, ev[1].rid])
        events.append([cyc, bucket])

    state = {
        "format": SNAPSHOT_FORMAT,
        "config": json.loads(sim.config.to_json()),
        "cycle": sim.cycle,
        "pid": sim._pid,
        "created_packets": sim.created_packets,
        "progress_marker": sim._progress_marker,
        "progress_cycle": sim._progress_cycle,
        "rng": _rng_state(sim.rng),
        "packets": [[pid, rec] for pid, rec in sorted(packets.items())],
        "source_queues": source_queues,
        "node_busy": list(sim._node_busy),
        "metrics": _encode_metrics(sim.metrics),
        "network": {
            "counters": {name: getattr(net, name) for name in _NETWORK_COUNTERS},
            "disabled_rings": sorted(net.disabled_rings),
            "fault_disabled_rings": sorted(net._fault_disabled_rings),
            "routers": routers,
        },
        "events": events,
        "routing": _encode_routing(sim.routing),
        "generator": _encode_generator(sim.generator),
        "telemetry": (
            _encode_telemetry(sim.telemetry) if sim.telemetry is not None else None
        ),
    }
    if spec is not None:
        state["spec"] = spec.to_jsonable()
    if extras is not None:
        state["extras"] = extras
    return state


def apply_state(sim: "Simulator", state: dict) -> "Simulator":
    """Overlay ``state`` onto a *freshly built*, structurally identical
    simulator (same config, same generator construction, no cycles run,
    no telemetry attached).  Returns ``sim``.
    """
    if state.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"unsupported snapshot format {state.get('format')!r} "
            f"(this codec reads format {SNAPSHOT_FORMAT})"
        )
    if sim.cycle != 0 or sim.network.injected_packets != 0:
        raise SnapshotError(
            "restore target must be a freshly built simulator "
            f"(cycle={sim.cycle}, injected={sim.network.injected_packets})"
        )
    if json.loads(sim.config.to_json()) != state["config"]:
        raise SnapshotError(
            "config mismatch: the snapshot was captured under a different "
            "SimulationConfig than the restore target was built with"
        )
    net = sim.network

    pkts: dict[int, Packet] = {}
    for pid, rec in state["packets"]:
        pkt = Packet.__new__(Packet)
        for name, value in zip(_PACKET_FIELDS, rec):
            setattr(pkt, name, value)
        pkts[pid] = pkt

    sim.cycle = state["cycle"]
    sim._pid = state["pid"]
    sim.created_packets = state["created_packets"]
    sim._progress_marker = state["progress_marker"]
    sim._progress_cycle = state["progress_cycle"]
    _set_rng_state(sim.rng, state["rng"])

    for node, pids in state["source_queues"]:
        sim._source_queues[node].extend(pkts[pid] for pid in pids)
        sim._active_nodes.add(node)
        sim._active_order.append(node)
    sim._active_order.sort()
    sim._node_busy[:] = state["node_busy"]

    _apply_metrics(sim.metrics, state["metrics"])

    ns = state["network"]
    for name, value in ns["counters"].items():
        setattr(net, name, value)
    net.disabled_rings = set(ns["disabled_rings"])
    net._fault_disabled_rings = set(ns["fault_disabled_rings"])
    active: list[int] = []
    for rt, rs in zip(net.routers, ns["routers"]):
        for port, vc, pids in rs["bufs"]:
            buf = rt.in_bufs[port][vc]
            for pid in pids:
                pkt = pkts[pid]
                buf._fifo.append(pkt)
                buf.occupancy += pkt.size
        for slots, values in zip(rt.in_busy, rs["in_busy"]):
            slots[:] = values
        for p, v in rs["pending"]:
            rt.pending[(p, v)] = None
        rt.scheduled = rs["scheduled"]
        if rt.scheduled:
            active.append(rt.rid)
        rt._in_arbiters = _apply_arbiters(rs["in_arb"])
        rt._out_arbiters = _apply_arbiters(rs["out_arb"])
        rt.congestion_cache = (-1, 0.0)  # per-cycle memo: recomputes
        for ch, cs in zip(rt.out, rs["channels"]):
            if ch is None:
                if cs is not None:
                    raise SnapshotError("channel layout mismatch")
                continue
            credits, busy_until, sent_phits, job_phits, failed = cs
            ch.credits[:] = credits
            ch.busy_until = busy_until
            ch.sent_phits = sent_phits
            ch.job_phits = {j: p for j, p in job_phits}
            ch.failed = failed
    net._active_routers[:] = active  # built in rid order: already sorted

    wheel = net._events
    for cyc, bucket in state["events"]:
        for ev in bucket:
            tag = ev[0]
            if tag == 0:
                _, rid, port, vc, pid = ev
                rt = net.routers[rid]
                event = (0, rt, rt.in_bufs[port][vc], (port, vc), pkts[pid])
            elif tag == 1:
                _, rid, port, vc, amount = ev
                event = (1, net.routers[rid].out[port], vc, amount)
            elif tag == 2:
                event = (2, pkts[ev[1]], ev[2])
            else:
                event = (3, net.routers[ev[1]])
            wheel.schedule(cyc, event)

    _apply_routing(sim.routing, state["routing"])
    _apply_generator(sim.generator, state["generator"])
    if state["telemetry"] is not None:
        _apply_telemetry(sim, state["telemetry"])
    return sim


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest_of(state: dict) -> str:
    """Content hash of an encoded state (telemetry/extras/spec excluded)."""
    doc = {k: v for k, v in state.items() if k not in DIGEST_EXCLUDE}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def state_digest(sim: "Simulator") -> str:
    """Cycle-granularity content hash of a live simulator's state.

    Two deterministic runs of the same spec have equal digests at every
    cycle; the first cycle at which they differ localizes a divergence
    (see ``repro snapshot bisect`` and :func:`repro.snapshot.debug.
    first_divergence`).
    """
    return digest_of(encode_state(sim))
