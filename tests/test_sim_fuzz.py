"""Seeded fuzz: random process/timeout/interrupt programs, pinned by digest.

Each seed generates a random program *spec* (numpy RNG, fixed by the
seed): a handful of processes whose op lists mix sleeps, shared-event
waits and fires, AND/OR combinators, process joins, and interrupts of
other live processes.  The spec is executed on the event kernel, logging
every observable step — start/end of each process, values received,
interrupt catches, timestamps and the events-processed counter — and
the sha256 of that log must equal the one committed in
``tests/golden_fuzz_digests.json``.

This is what locks in the same-timestamp FIFO tie-break: the programs
deliberately pile many events onto shared timestamps (delays are drawn
from a tiny quantized range), so any change to the ``(time, priority,
seq)`` total order shows up as a reordered log line and a new digest.

A kernel change that means to reorder events regenerates the file and
says why::

    PYTHONPATH=src python -c "import json; \\
        from tests.test_sim_fuzz import N_SEEDS, _digest, _execute, _generate_spec; \\
        digests = {str(s): _digest(_execute(_generate_spec(s))) \\
                   for s in range(N_SEEDS)}; \\
        open('tests/golden_fuzz_digests.json', 'w').write( \\
            json.dumps(digests, indent=2) + '\\n')"
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.sim import Environment, Interrupt

N_SEEDS = 40
OPS = ("sleep", "wait_shared", "fire_shared", "join", "interrupt",
       "all_of", "any_of")
GOLDEN = json.loads(
    (Path(__file__).with_name("golden_fuzz_digests.json")).read_text())


def _generate_spec(seed):
    """A random program: per-process op lists, all plain data."""
    rng = np.random.default_rng(seed)
    nprocs = int(rng.integers(3, 7))
    nshared = int(rng.integers(2, 5))
    spec = []
    for p in range(nprocs):
        ops = []
        for _ in range(int(rng.integers(4, 9))):
            kind = OPS[int(rng.integers(0, len(OPS)))]
            if kind == "sleep":
                # Tiny quantized delays: maximum same-timestamp pileup.
                ops.append(("sleep", int(rng.integers(0, 6))))
            elif kind == "wait_shared":
                ops.append(("wait_shared", int(rng.integers(0, nshared))))
            elif kind == "fire_shared":
                ops.append(("fire_shared", int(rng.integers(0, nshared)),
                            int(rng.integers(0, 100))))
            elif kind == "join":
                ops.append(("join", int(rng.integers(0, nprocs))))
            elif kind == "interrupt":
                ops.append(("interrupt", int(rng.integers(0, nprocs)),
                            int(rng.integers(0, 100))))
            else:  # all_of / any_of over two shared-event timeouts
                ops.append((kind, int(rng.integers(1, 6)),
                            int(rng.integers(1, 6))))
        spec.append(ops)
    return spec


def _execute(spec):
    """Run the spec; return the observable log."""
    env = Environment()
    log = []
    shared = {}
    procs = {}
    started = set()

    def get_shared(idx):
        if idx not in shared:
            shared[idx] = env.event()
        return shared[idx]

    def body(name, ops):
        started.add(name)
        log.append(("start", name, env.now))
        try:
            for op in ops:
                kind = op[0]
                if kind == "sleep":
                    yield env.timeout(op[1])
                elif kind == "wait_shared":
                    value = yield get_shared(op[1])
                    log.append(("got", name, env.now, value))
                elif kind == "fire_shared":
                    ev = get_shared(op[1])
                    if not ev.triggered:
                        ev.succeed(op[2])
                        log.append(("fired", name, env.now, op[1]))
                elif kind == "join":
                    target = f"p{op[1]}"
                    if target in procs and target != name:
                        value = yield procs[target]
                        log.append(("joined", name, env.now, target, value))
                elif kind == "interrupt":
                    target = f"p{op[1]}"
                    victim = procs.get(target)
                    if (target in started and target != name
                            and victim is not None and victim.is_alive):
                        victim.interrupt(op[2])
                        log.append(("poked", name, env.now, target))
                elif kind == "all_of":
                    result = yield (env.timeout(op[1], value="l")
                                    & env.timeout(op[2], value="r"))
                    log.append(("all", name, env.now,
                                sorted(result.values())))
                else:  # any_of
                    result = yield (env.timeout(op[1], value="l")
                                    | env.timeout(op[2], value="r"))
                    log.append(("any", name, env.now,
                                sorted(result.values())))
        except Interrupt as exc:
            log.append(("interrupted", name, env.now, exc.cause))
            return exc.cause
        log.append(("end", name, env.now))
        return name

    for i, ops in enumerate(spec):
        name = f"p{i}"
        procs[name] = env.process(body(name, ops), name=name)
    env.run()
    log.append(("final", env.now, env.events_processed))
    return log


def _digest(log):
    """sha256 of the log's JSON text (tuples serialise as lists)."""
    return hashlib.sha256(json.dumps(log).encode()).hexdigest()


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_random_program_matches_golden_digest(seed):
    assert _digest(_execute(_generate_spec(seed))) == GOLDEN[str(seed)]


def test_fuzz_covers_the_interesting_ops():
    # The generator must actually exercise interrupts, joins and
    # combinators across the seed range, or the suite proves nothing.
    kinds = set()
    for seed in range(N_SEEDS):
        log = _execute(_generate_spec(seed))
        kinds.update(entry[0] for entry in log)
    assert {"interrupted", "all", "any", "got", "fired",
            "joined"} <= kinds


def test_rerun_is_deterministic():
    spec = _generate_spec(123)
    assert _execute(spec) == _execute(spec)
