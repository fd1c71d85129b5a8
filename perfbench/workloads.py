"""The benchmark's four workloads, each driven through the public APIs.

Every workload splits one trial into four steps so that the caller can
time set-up and replay apart and a test can tamper with the outputs
before they are checked:

* ``inputs(seed)`` makes every stamp, payload, request schedule, oracle
  value and fault window from the seed, before the simulation starts;
* ``setup(inputs)`` boots the cluster and wires the endpoints (host time
  reported as ``setup_s``);
* ``replay(state, inputs, pause)`` runs the measured operations (ops per
  host second give ``host_ops_per_s``), in slices of ``slice_ns`` of
  simulated time with ``pause()`` called between slices;
* ``check(inputs, state, raw)`` verifies the outputs and returns an
  :class:`Outcome`.  Failed operations are counted, never dropped.

An operation ("op") is one round trip on ``pingpong-4b``, one 64 KiB
synchronous send on ``stream-64k`` and one request on the KV workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.bench.microbench import VmmcPair
from repro.cluster import Cluster, TestbedConfig
from repro.faults import (FaultCampaign, FaultEvent, FaultInjector,
                          LINK_ERROR_BURST, PhaseSchedule, phase)
from repro.kv.hashing import HashRing
from repro.kv.store import (KVStore, PROC_GET, PROC_PUT, decode_get_reply,
                            decode_put_reply, encode_get_args,
                            encode_put_args)
from repro.kv.workload import (WorkloadSpec, generate_schedule,
                               read_your_writes_oracle)
from repro.obs.metrics import MetricsRegistry, observe
from repro.rpc.reliable import connect_reliable_rpc
from repro.rpc.sunrpc import RPCError
from repro.sim import Environment
from repro.vmmc.errors import RetriesExhausted

#: Simulated time allowed per op: a replay still running after this times
#: its op count is cut off, and its unfinished ops count as failed.
_STALL_NS_PER_OP = 1_000_000


@dataclass
class Outcome:
    """What one trial produced, after its outputs were checked."""

    ops: int
    failed: int
    #: Simulated latency of every completed op, in ns.
    latencies_ns: list[float]
    #: Payload bytes the op stream delivered, and the simulated span they
    #: took; their ratio is ``sim_mbps``.
    payload_bytes: int
    span_ns: int
    #: Failure descriptions, for the report (at most a few kept).
    errors: list[str] = field(default_factory=list)
    #: Deterministic counts the traced and untraced runs must share.
    counts: dict[str, Any] = field(default_factory=dict)


def _stamps(rng: np.random.Generator, n: int) -> list[int]:
    """``n`` seeded, non-zero 32-bit stamps; neighbours always differ
    (the low bit alternates), so a receiver can spin for a change."""
    high = rng.integers(1, 2 ** 31, size=n, dtype=np.int64)
    return [int(h) << 1 | (i & 1) for i, h in enumerate(high)]


def _u32(value: int) -> np.ndarray:
    return np.frombuffer(np.uint32(value).tobytes(), dtype=np.uint8)


def _next_stamp(ep, buffer, offset: int, previous: int):
    """Generator: spin on the word at ``offset`` until it differs from
    ``previous``; value is the new word.

    Same watch-then-check loop as
    :func:`repro.bench.microbench.spin_until_stamp`, but it returns
    whatever arrived instead of waiting for an expected value, so a wrong
    stamp is reported rather than waited on forever.
    """
    while True:
        watch = ep.watch(buffer, offset, 4)
        yield ep.membus.cacheline_fill()
        word = int(np.frombuffer(buffer.read(offset, 4).tobytes(),
                                 dtype=np.uint32)[0])
        if word != previous:
            return word
        yield watch


def _run_sliced(env: Environment, proc, limit_ns: int, slice_ns: int,
                pause) -> None:
    """Run until ``proc`` ends or ``limit_ns`` of simulated time pass, in
    slices of ``slice_ns``, calling ``pause()`` between slices.

    The benchmark times its host-speed reference in the pauses.  Slicing
    adds no events and changes no simulated result; a run goes on to the
    end of the slice in which ``proc`` ends.
    """
    end = env.now + limit_ns
    while not proc.processed and env.now < end:
        env.run(until=min(env.now + slice_ns, end))
        pause()


class PingPong:
    """Figure 2: 4-byte VMMC ping-pong, one message in flight, 2 nodes."""

    name = "pingpong-4b"
    size = 4
    round_trips = 2000
    slice_ns = 1_000_000
    #: Runs without a metrics registry, as the figure is produced.
    registry = False

    def inputs(self, seed: int) -> list[int]:
        return _stamps(np.random.default_rng(seed), self.round_trips)

    def config(self) -> TestbedConfig:
        return TestbedConfig()

    def setup(self, stamps: list[int]) -> VmmcPair:
        return VmmcPair(self.config())

    def replay(self, pair: VmmcPair, stamps: list[int], pause) -> dict:
        env = pair.env
        at_a: list[int] = []
        at_b: list[int] = []
        rtt_ns: list[int] = []

        def side_a():
            previous = 0
            for stamp in stamps:
                start = env.now
                pair.src_a.write(_u32(stamp))
                yield pair.ep_a.send(pair.src_a, pair.to_b, self.size)
                previous = yield from _next_stamp(pair.ep_a, pair.inbox_a,
                                                  0, previous)
                at_a.append(previous)
                rtt_ns.append(env.now - start)

        def side_b():
            previous = 0
            for _ in stamps:
                previous = yield from _next_stamp(pair.ep_b, pair.inbox_b,
                                                  0, previous)
                at_b.append(previous)
                pair.src_b.write(_u32(previous))
                yield pair.ep_b.send(pair.src_b, pair.to_a, self.size)

        done = env.process(side_a(), name="pingpong.a")
        env.process(side_b(), name="pingpong.b")
        _run_sliced(env, done, len(stamps) * _STALL_NS_PER_OP,
                    self.slice_ns, pause)
        return {"at_a": at_a, "at_b": at_b, "rtt_ns": rtt_ns}

    def check(self, stamps: list[int], pair: VmmcPair, raw: dict
              ) -> Outcome:
        """Each stamp must reach B, and come back to A, in sequence."""
        ok = sum(1 for i, stamp in enumerate(stamps)
                 if i < len(raw["at_a"]) and raw["at_a"][i] == stamp
                 and raw["at_b"][i] == stamp)
        failed = len(stamps) - ok
        errors = ([f"{failed} of {len(stamps)} round trips lost or out of "
                   f"sequence"] if failed else [])
        return Outcome(
            ops=len(stamps), failed=failed,
            # Figure 2 reports one-way latency: half a round trip.
            latencies_ns=[rtt / 2 for rtt in raw["rtt_ns"]],
            payload_bytes=2 * self.size * len(raw["rtt_ns"]),
            span_ns=sum(raw["rtt_ns"]), errors=errors)


@dataclass
class StreamInputs:
    pattern: np.ndarray
    stamps: list[int]


class Stream:
    """Figure 3: back-to-back synchronous 64 KiB sends, warm TLB."""

    name = "stream-64k"
    size = 64 * 1024
    sends = 400
    slice_ns = 5_000_000
    registry = False

    def inputs(self, seed: int) -> StreamInputs:
        rng = np.random.default_rng(seed)
        pattern = rng.integers(0, 256, size=self.size, dtype=np.uint8)
        return StreamInputs(pattern, _stamps(rng, self.sends))

    def config(self) -> TestbedConfig:
        return TestbedConfig()

    def setup(self, inputs: StreamInputs) -> VmmcPair:
        # VmmcPair warms the TLB with one full-size send each way.
        pair = VmmcPair(self.config(), buffer_bytes=self.size)
        pair.src_a.write(inputs.pattern)
        return pair

    def replay(self, pair: VmmcPair, inputs: StreamInputs, pause
               ) -> dict:
        env = pair.env
        last = self.size - 4
        send_ns: list[int] = []
        arrivals: list[int] = []
        arrival_ns: list[int] = []

        def sender():
            for stamp in inputs.stamps:
                # A synchronous send has returned, so the buffer is ours
                # to restamp (section 5.3 methodology).
                pair.src_a.write(_u32(stamp), offset=last)
                start = env.now
                yield pair.ep_a.send(pair.src_a, pair.to_b, self.size)
                send_ns.append(env.now - start)

        def receiver():
            previous = 0
            for _ in inputs.stamps:
                previous = yield from _next_stamp(pair.ep_b, pair.inbox_b,
                                                  last, previous)
                arrivals.append(previous)
                arrival_ns.append(env.now)

        env.process(sender(), name="stream.tx")
        done = env.process(receiver(), name="stream.rx")
        _run_sliced(env, done, len(inputs.stamps) * _STALL_NS_PER_OP,
                    self.slice_ns, pause)
        return {"send_ns": send_ns, "arrivals": arrivals,
                "arrival_ns": arrival_ns}

    def check(self, inputs: StreamInputs, pair: VmmcPair, raw: dict
              ) -> Outcome:
        """Every message must arrive, in order; the final one is compared
        byte for byte with what was sent."""
        stamps = inputs.stamps
        ok = [i < len(raw["arrivals"]) and raw["arrivals"][i] == stamp
              for i, stamp in enumerate(stamps)]
        errors = []
        if not all(ok):
            errors.append(f"{ok.count(False)} of {len(stamps)} messages "
                          f"missing or out of order")
        expected = inputs.pattern.copy()
        expected[-4:] = _u32(stamps[-1])
        received = pair.inbox_b.read(0, self.size)
        if ok[-1] and not np.array_equal(received, expected):
            ok[-1] = False
            bad = int(np.count_nonzero(received != expected))
            errors.append(f"final message differs in {bad} bytes")
        times = raw["arrival_ns"]
        # Figure 3's method: time from the first arrival to the last.
        return Outcome(
            ops=len(stamps), failed=ok.count(False),
            latencies_ns=list(raw["send_ns"]),
            payload_bytes=self.size * max(len(times) - 1, 0),
            span_ns=times[-1] - times[0] if len(times) > 1 else 0,
            errors=errors)


@dataclass
class KVInputs:
    schedule: list
    oracle: dict
    #: Index of the shard whose links the fault windows hit (or None).
    victim: int | None
    #: (start, duration) of each full-loss window, ns into the replay.
    windows: list[tuple[int, int]]


@dataclass
class KVState:
    cluster: Cluster
    ring: HashRing
    phases: PhaseSchedule
    injector: FaultInjector
    fault_proc: Any
    clients: dict[str, Any]
    servers: dict[str, Any]

    @property
    def env(self) -> Environment:
        return self.cluster.env


class KV:
    """The sharded KV tier: 4 shards, 1 front end, open-loop replay.

    Requests are fired at their scheduled arrivals (50 k requests/s,
    Zipf 0.9 over 512 keys, 80 % GETs, 64-byte values) whatever the
    service does; latency runs from the scheduled arrival.  With
    ``burst`` set, two full-loss error bursts hit one seeded shard's
    links mid-replay.
    """

    shards = 4
    spec = WorkloadSpec(requests=1200, nkeys=512, skew=0.9,
                        get_fraction=0.8, base_gap_ns=20_000, load="steady",
                        value_bytes=64)
    #: Length of each full-loss window: long enough to force timeouts,
    #: retransmits and window cuts on the victim's ordered channel.
    burst_ns = 2_000_000
    slice_ns = 300_000
    registry = True

    def __init__(self, name: str, burst: bool):
        self.name = name
        self.burst = burst

    def config(self) -> TestbedConfig:
        return TestbedConfig(nnodes=self.shards + 1, memory_mb=32)

    def inputs(self, seed: int) -> KVInputs:
        schedule = generate_schedule(self.spec, seed)
        victim, windows = None, []
        if self.burst:
            rng = random.Random(seed)
            span = schedule[-1].at_ns
            victim = rng.randrange(self.shards)
            # One window starting in each middle quarter of the replay.
            windows = [(int(span * rng.uniform(lo, lo + 0.1)), self.burst_ns)
                       for lo in (0.25, 0.5)]
        return KVInputs(schedule, read_your_writes_oracle(schedule),
                        victim, windows)

    def setup(self, inputs: KVInputs) -> KVState:
        env = Environment()
        # On for the whole trial, as `repro kv-bench` runs the tier;
        # installed before boot so that no emitter can miss it.
        MetricsRegistry().install(env)
        cluster = Cluster.build(self.config(), env=env)
        shard_nodes = [node.name for node in cluster.nodes[1:]]
        phases = PhaseSchedule(env)
        injector = FaultInjector(cluster)
        fault_proc = None
        if inputs.victim is not None:
            victim = shard_nodes[inputs.victim]
            events = tuple(
                FaultEvent(at_ns=phase("replay") + start,
                           kind=LINK_ERROR_BURST, target=link.name,
                           duration_ns=length, params={"rate": 1.0})
                for start, length in inputs.windows
                for link in cluster.fabric.links_of(victim))
            fault_proc = injector.run(
                FaultCampaign(name=f"{self.name}-{victim}", seed=0,
                              events=events), phases=phases)
        state = KVState(cluster, HashRing(shard_nodes), phases, injector,
                        fault_proc, {}, {})

        def wire():
            front = cluster.nodes[0]
            for j, name in enumerate(shard_nodes):
                _, cli_ep = front.attach_process(f"kv.cli.{name}")
                _, srv_ep = cluster.nodes[1 + j].attach_process(
                    f"kv.srv.{name}")
                client, server = yield connect_reliable_rpc(
                    cli_ep, srv_ep, f"kv.{name}",
                    KVStore(name).program())
                state.clients[name] = client
                state.servers[name] = server

        env.run(until=env.process(wire(), name="kv.wire"))
        return state

    def replay(self, state: KVState, inputs: KVInputs, pause) -> dict:
        env = state.env
        results: dict[int, tuple] = {}
        # Routed before the replay, as `repro kv-bench` does.
        shard_of = {req.index: state.ring.route(req.key)
                    for req in inputs.schedule}

        def request(req, arrival_ns):
            client = state.clients[shard_of[req.index]]
            try:
                if req.op == "put":
                    dec = yield client.call(
                        PROC_PUT, encode_put_args(req.key, req.value))
                    decode_put_reply(dec)
                    value = req.value
                else:
                    dec = yield client.call(PROC_GET,
                                            encode_get_args(req.key))
                    found, got, _version = decode_get_reply(dec)
                    value = got if found else None
            except (RetriesExhausted, RPCError) as exc:
                results[req.index] = ("typed-error", type(exc).__name__)
                return
            except Exception as exc:  # counted as failed, never dropped
                results[req.index] = ("untyped-error", repr(exc))
                return
            latency = env.now - arrival_ns
            observe(env, "kv.e2e_ns", latency)
            results[req.index] = ("ok", latency, value)

        def driver():
            # Open loop: every request fires at its scheduled arrival,
            # whatever the service is doing.
            state.phases.enter("replay")
            t0 = env.now
            pending = []
            for req in inputs.schedule:
                wait = t0 + req.at_ns - env.now
                if wait > 0:
                    yield env.timeout(wait)
                pending.append(env.process(request(req, t0 + req.at_ns),
                                           name=f"kv.req{req.index}"))
            for proc in pending:
                yield proc
            state.phases.enter("drain")

        limit = (inputs.schedule[-1].at_ns
                 + len(inputs.schedule) * _STALL_NS_PER_OP)
        _run_sliced(env, env.process(driver(), name="kv.driver"), limit,
                    self.slice_ns, pause)
        if state.fault_proc is not None:
            env.run(until=state.fault_proc)
        started = state.phases.started_at
        return {"results": results,
                "span_ns": started.get("drain", env.now) - started["replay"]}

    def check(self, inputs: KVInputs, state: KVState, raw: dict) -> Outcome:
        """Every request completes or fails with a typed error; every GET
        returns its read-your-writes oracle value."""
        failed, latencies, moved = 0, [], 0
        errors: list[str] = []
        for req in inputs.schedule:
            result = raw["results"].get(req.index)
            if result is None or result[0] != "ok":
                failed += 1
                errors.append(f"request {req.index}: "
                              f"{result[1] if result else 'never finished'}")
                continue
            _, latency, value = result
            if req.op == "get" and value != inputs.oracle[req.index]:
                failed += 1
                errors.append(f"GET {req.index} key {req.key}: "
                              f"read-your-writes violation")
                continue
            latencies.append(latency)
            moved += len(value or b"")
        return Outcome(ops=len(inputs.schedule), failed=failed,
                       latencies_ns=latencies, payload_bytes=moved,
                       span_ns=raw["span_ns"], errors=errors[:5],
                       counts=self.layer_counts(inputs, state))

    def layer_counts(self, inputs: KVInputs, state: KVState) -> dict:
        """Reliable-layer, fault and key-spread counts of one trial."""
        rel = {"messages_sent": 0, "messages_delivered": 0,
               "retransmits": 0, "timeouts": 0, "reimports": 0,
               "paced_ns": 0}
        for name in state.clients:
            for sender in (state.clients[name].sender,
                           state.servers[name].sender):
                stats = sender.stats.as_dict()
                for key in rel:
                    rel[key] += stats[key]
        routed = {name: 0 for name in state.clients}
        for req in inputs.schedule:
            routed[state.ring.route(req.key)] += 1
        keys: dict[int, int] = {}
        for req in inputs.schedule:
            keys[req.key] = keys.get(req.key, 0) + 1
        n = len(inputs.schedule)
        stats = state.injector.stats
        return {
            "rel": rel,
            "kv.imbalance": max(routed.values()) * len(routed) / n,
            "kv.hot_key_fraction": max(keys.values()) / n,
            "faults.raised": stats.faults_raised if stats else 0,
            "faults.fault_ns": (sum(stats.fault_ns_by_target.values())
                                if stats else 0),
        }


WORKLOADS = {
    wl.name: wl for wl in (PingPong(), Stream(), KV("kv-zipf", burst=False),
                           KV("kv-burst", burst=True))
}
