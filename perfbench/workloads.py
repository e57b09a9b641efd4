"""The three workloads.

Every workload function takes the run's :class:`Run` context plus its size
parameters (the defaults are the benchmark's sizes; the smoke tests pass
toy ones) and fills ``run.metrics`` — the end-to-end metrics when
``run.trace`` is false, the per-layer metrics when it is true.  All
program configuration stays at its defaults (``backend="auto"``
included); the seed is the only input the benchmark varies.

Timing on a shared host: on a 2-vCPU KVM guest the same operation on the
same input took twice as long from one minute to the next, as the
machine's other tenants came and went, and so did a fixed pure-Python
loop timed alongside it, while the ratio of the two stayed within a few
per cent.  So a workload interleaves that reference loop with its
operations and quotes times at reference speed: a wall measured in the
run times ``REF_S`` over the wall of the loop.  The operations are short
and many; ``op_p50_ms`` is the median of their walls at reference speed.
Raw walls, the tail and the throughput are printed beside the metrics.  README.md gives each workload's operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import layers
from tracer import Tracer

perf = time.perf_counter

#: Set-up repetitions whose median is the in-process part of ``setup_s``.
SETUP_REPEATS = 3
#: Fresh-process imports whose median is the import part of ``setup_s``;
#: they are spread over the timed loop, so that one slow stretch of the
#: host does not set them all.
IMPORT_PROBES = 5
#: Timed operations a workload runs at least, after one untimed warm-up.
MIN_OPS = 4
#: Scenario seeds a simulation workload cycles through, all drawn from
#: ``--seed``: a run averages over several placements, so one unlucky
#: topology does not set its figures.
SUBSEEDS = 8
#: Iterations of the reference loop, and its wall on the host that the
#: figures at reference speed are quoted for.
REF_ITERATIONS = 200_000
REF_S = 0.025


# ----------------------------------------------------------------------
# run context: metrics, failure accounting, fingerprints
# ----------------------------------------------------------------------
@dataclass
class Run:
    """One benchmark invocation's inputs and everything it reports."""

    seed: int
    seconds: float
    trace: bool
    #: wall of a fresh process importing the program (None: not measured)
    probe: Callable[[], float] | None = None
    import_walls: list[float] = field(default_factory=list)
    #: walls of the reference loop, interleaved with the operations
    ref_walls: list[float] = field(default_factory=list)
    #: fingerprints recorded for the default seed: "<scenario>/<check>" -> hex
    recorded: dict[str, str] = field(default_factory=dict)
    #: when set, fingerprints are written into ``recorded`` instead of checked
    record: bool = False
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: printed next to the metrics, not part of the result line
    info: dict[str, tuple[Any, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (check name, how it was checked, passed)
    checks: list[tuple[str, str, bool]] = field(default_factory=list)
    tracer: Tracer | None = None
    _first: dict[str, str] = field(default_factory=dict)

    def fingerprint(self, scenario: str, name: str, digest: str) -> bool:
        """Compare against the recorded value, else against the first repeat."""
        key = f"{scenario}/{name}"
        if self.record:
            self.recorded.setdefault(key, digest)
        first = self._first.setdefault(key, digest)
        if key in self.recorded:
            how, ok = "recorded", digest == self.recorded[key]
        else:
            how, ok = "repeat", digest == first
        self.checks.append((name, how, ok))
        return ok

    def check(self, scenario: str, name: str, digest: str) -> None:
        """A fingerprint whose mismatch counts as one failed operation."""
        self.fail_unless(self.fingerprint(scenario, name, digest))

    def fail_unless(self, ok: bool) -> None:
        if not ok:
            self.failed += 1

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def sha256_of(*parts: Any) -> str:
    """Digest of arrays (dtype, shape and bytes) and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process, in MiB.

    Children are left out: a child's peak counts the pages it shares
    with this process from the moment it is spawned, so the import
    probes and the city's pool workers would each report this process's
    size again.
    """
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest of p99/p90 with at least ten samples beyond it, else the max."""
    n = len(samples)
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return float(np.percentile(samples, q)), f"p{q}"
    return max(samples), "max"


def subseeds(seed: int) -> list[int]:
    """The scenario seeds of ``--seed``; distinct seeds never share one."""
    return [seed * SUBSEEDS + j for j in range(SUBSEEDS)]


def reference_loop() -> float:
    """Wall of a fixed pure-Python loop, independent of the program."""
    t0 = perf()
    counts: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        k = i % 977
        counts[k] = counts.get(k, 0) + i
    return perf() - t0


def pace(run: Run) -> float:
    """Time the reference loop once; returns its wall."""
    run.ref_walls.append(reference_loop())
    return run.ref_walls[-1]


def timed_setup(prepare: Callable[[], Any]) -> list[float]:
    """Walls of SETUP_REPEATS calls of ``prepare``."""
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        prepare()
        walls.append(perf() - t0)
    return walls


def probe_imports(run: Run, done: float) -> None:
    """Take the import probes due once a ``done`` share of the loop is over."""
    due = min(IMPORT_PROBES, math.ceil(IMPORT_PROBES * done))
    while run.probe is not None and len(run.import_walls) < due:
        run.import_walls.append(run.probe())


def timed_loop(
    run: Run, ops: list[Callable[[], float]]
) -> tuple[list[float], list[float]]:
    """One untimed warm-up call of ``ops[0]``, then the ops in turn, each
    after a reference loop, until their walls add up to ``run.seconds``
    (at least MIN_OPS, and two turns, so that every op repeats; whole
    turns).  Returns the walls of the ops
    and of the reference loop before each."""
    ops[0]()
    gc.collect()
    walls: list[float] = []
    refs: list[float] = []
    least = max(MIN_OPS, 2 * len(ops))
    while len(walls) < least or sum(walls) < run.seconds or len(walls) % len(ops):
        refs.append(pace(run))
        walls.append(ops[len(walls) % len(ops)]())
        gc.collect()
        probe_imports(run, sum(walls) / run.seconds)
    return walls, refs


def report(
    run: Run,
    setup: list[float],
    walls: list[float],
    refs: list[float],
    turn: int,
    units_per_op: int,
    unit: str,
) -> None:
    """End-to-end metrics from the set-up walls and the operation walls.

    Each operation wall is brought to reference speed by the reference
    loop timed just before it, and the import probes, spread over the
    run, by the run's median reference wall: both are interpreter work,
    which slows down with the loop.  The in-process set-up is reported
    as measured: ``service_churn``'s world boot is array work, which
    slowed down only a third as much as the loop, so dividing it by the
    loop would overcorrect.  The ops ran in turns of ``turn`` scenarios;
    ``op_p50_ms`` is the mean over the scenarios of each one's median.
    """
    probe_imports(run, 1.0)
    ref = statistics.median(run.ref_walls)
    import_s = statistics.median(run.import_walls) if run.import_walls else 0.0
    prepare_s = statistics.median(setup)
    scaled = [1000.0 * w * REF_S / r for w, r in zip(walls, refs)]
    ms = [w * 1000.0 for w in walls]
    high, label = tail(ms)
    run.metric("setup_s", import_s * REF_S / ref + prepare_s, "s")
    run.metric(
        "op_p50_ms",
        statistics.fmean(statistics.median(scaled[i::turn]) for i in range(turn)),
        "ms",
    )
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    run.info["reference_ms"] = (ref * 1000.0, f"ms (median of {len(run.ref_walls)})")
    run.info["setup.import_raw_s"] = (import_s, "s")
    run.info["setup.prepare_raw_s"] = (prepare_s, "s")
    run.info["ops"] = (len(walls), f"count (tail is {label})")
    run.info["op_p50_raw_ms"] = (statistics.median(ms), "ms")
    run.info[f"op_{label}_raw_ms"] = (high, "ms")
    run.info["throughput_raw_per_s"] = (
        units_per_op * len(walls) / sum(walls), f"{unit}/s"
    )


def traced_pair(run: Run, op: Callable[[], float], groups, root: str) -> None:
    """Run ``op`` untraced, traced, untraced; fill the per-layer metrics.

    The first run warms the process; the overhead ratio compares the
    traced run with the untraced run after it.
    """
    from repro.obs import Observability, activate

    op()
    gc.collect()
    tracer = run.tracer = Tracer()
    obs = Observability()
    with tracer.installed(*groups), activate(obs):
        with tracer.span(root, root=True):
            op()
    gc.collect()
    untraced = op()
    finish_trace(run, tracer, obs, tracer.total(root) / untraced)


def finish_trace(run: Run, tracer: Tracer, obs: Any, overhead: float) -> None:
    for name, value in layers.layer_metrics(tracer, obs, overhead).items():
        run.metric(name, value, layers.PER_LAYER_UNITS[name])


# ----------------------------------------------------------------------
# paper_sweep: Figs. 3/4 in the fixed Table I cell
# ----------------------------------------------------------------------
#: The Fig. 3/4 grid up to n=400.  The paper's full grid (to n=1000)
#: takes about 11 s a pass on a 2-vCPU guest, too long to repeat often
#: enough in one run for a steady median; n=1000 alone is half
#: of that pass.
SWEEP_SIZES = (50, 100, 200, 400)


def paper_sweep(run: Run, sizes: tuple[int, ...] = SWEEP_SIZES) -> None:
    from repro.core.config import PaperConfig
    from repro.experiments import scaling

    grid = ",".join(map(str, sizes))

    def sweep(seed: int) -> Callable[[], float]:
        scenario = f"paper_sweep/sizes={grid}/seed={seed}"

        def op() -> float:
            t0 = perf()
            result = scaling.run_scaling(sizes, (seed,))
            wall = perf() - t0
            for r in result.sweep.runs:
                bill = [r.converged, r.time_ms, r.messages, r.message_breakdown]
                name = f"bill/{r.algorithm}/n={r.n_devices}"
                same = run.fingerprint(scenario, name, sha256_of(bill))
                run.attempted += 1
                run.fail_unless(r.converged and same)
            return wall

        return op

    seeds = subseeds(run.seed)
    ops = [sweep(seed) for seed in seeds]
    if run.trace:
        traced_pair(
            run, ops[0], (layers.install_radio, layers.install_kernels),
            "op.paper_sweep",
        )
        return
    setup = timed_setup(
        lambda: [
            PaperConfig(seed=seed).with_devices(k, keep_density=False)
            for seed in seeds
            for k in sizes
        ]
    )
    walls, refs = timed_loop(run, ops)
    report(run, setup, walls, refs, len(ops), 2 * len(sizes), "simulation runs")


# ----------------------------------------------------------------------
# city_2x2: sharded run, process pool, halo exchange, reassembly
# ----------------------------------------------------------------------
def city_2x2(run: Run, n: int = 1024, workers: int = 2) -> None:
    import repro.shard.runner as runner
    from repro.core.config import PaperConfig
    from repro.shard import CityConfig

    seeds = subseeds(run.seed)

    def make_cities():
        return [
            CityConfig(PaperConfig(seed=seed).with_devices(n, keep_density=True), 2, 2)
            for seed in seeds
        ]

    def city_run(seed: int, city) -> Callable[[], float]:
        scenario = f"city_2x2/n={n}/seed={seed}"

        def op() -> float:
            t0 = perf()
            # looked up at call time so the traced run's wrapper is seen
            result = runner.run_city(city, algorithms=("st", "fst"), workers=workers)
            wall = perf() - t0
            same = run.fingerprint(scenario, "content_hash", result.content_hash)
            run.attempted += 1
            run.fail_unless(result.converged and same)
            return wall

        return op

    ops = [city_run(seed, city) for seed, city in zip(seeds, make_cities())]
    if run.trace:
        traced_pair(run, ops[0], (layers.install_shard,), "op.city_2x2")
        return
    setup = timed_setup(make_cities)
    walls, refs = timed_loop(run, ops)
    report(run, setup, walls, refs, len(ops), 1, "city runs")


# ----------------------------------------------------------------------
# service_churn: live churning world behind the app, as `repro serve` builds it
# ----------------------------------------------------------------------
#: Share of ``--seconds`` spent in the closed-loop phase; the rest is open loop.
CLOSED_SHARE = 0.7
#: Reads per world step, in the closed-loop rounds and the open loop alike.
READS_PER_STEP = 1000
#: Closed-loop rounds that a second world replays to check repeatability.
REPLAY_ROUNDS = 4
#: Closed-loop rounds per reference loop.
PACE_ROUNDS = 2
#: The world is the deployment `repro serve --seed 1` boots; the
#: benchmark's seed drives the traffic.  Every run therefore meets the
#: same churn schedule, so step times reflect the program rather than
#: which world a seed happened to draw.
WORLD_SEED = 1
STEP = ("step", "POST", "/world/step", b'{"steps": 1}')


def _boot(n: int):
    """World + app with the ops plane, flight recorder and request log."""
    from repro.core.config import PaperConfig
    from repro.obs import FlightRecorder
    from repro.obs.ops import OpsPlane
    from repro.service import (
        DiscoveryApp,
        RequestLog,
        ServiceClient,
        SteadyStateWorld,
        WorldConfig,
    )

    base = PaperConfig(seed=WORLD_SEED).with_devices(n, keep_density=True)
    world = SteadyStateWorld(WorldConfig(base=base))
    app = DiscoveryApp(
        world,
        ops=OpsPlane(flight=FlightRecorder()),
        request_log=RequestLog(max_entries=4096),  # `repro serve` default
    )
    return world, ServiceClient(app)


def _check_boot(run: Run, world, n: int) -> None:
    """Fingerprint the booted world: radio CSR and initial tree."""
    budget = world.network.sparse_budget
    csr = (
        (budget.indptr, budget.indices, budget.power_dbm)
        if budget is not None
        else (world.network.positions,)
    )
    digest = sha256_of(*csr, sorted(map(list, world.session.tree_edges)))
    run.check(f"service_churn/n={n}/world={WORLD_SEED}", "boot", digest)


def _read_requests(rng: np.random.Generator, n: int, count: int) -> list[tuple]:
    """``count`` reads: 90% /near, 5% /fragment, 5% /sync; random UEs."""
    kinds = rng.random(count)
    ues = rng.integers(0, n, size=count)
    out = []
    for u, ue in zip(kinds.tolist(), ues.tolist()):
        if u < 0.90:
            out.append(("near", "GET", f"/near/{ue}?limit=8", b""))
        elif u < 0.95:
            out.append(("fragment", "GET", f"/fragment/{ue}?limit=16", b""))
        else:
            out.append(("sync", "GET", "/sync", b""))
    return out


def _open_script(seed: int, n: int, seconds: float, qps: float, sps: float):
    """Due-ordered (due_s, kind, method, url, body) for the open-loop phase."""
    rng = np.random.default_rng([seed, 2])
    reads = _read_requests(rng, n, int(seconds * qps))
    script = [(i / qps,) + req for i, req in enumerate(reads)]
    script += [((j + 0.5) / sps,) + STEP for j in range(int(seconds * sps))]
    script.sort(key=lambda item: item[0])
    return script


def _status_ok(kind: str, status: int) -> bool:
    return status == 200 or (status == 404 and kind in ("near", "fragment"))


class _Digest:
    """Running digest of (status, body) over a request stream."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()

    def add(self, response) -> None:
        self.h.update(b"%d:%d:" % (response.status, len(response.body)))
        self.h.update(response.body)

    def hex(self) -> str:
        return self.h.hexdigest()


def _round(run: Run, client, round_: list[tuple]) -> tuple[float, float, str]:
    """Send one closed-loop round back to back.

    Returns its wall, the wall of its step and the digest of its
    responses; digest and status checks run after the clock stops.
    """
    request = client.request
    responses = []
    t0 = perf()
    for _kind, method, url, body in round_[:-1]:
        responses.append(request(method, url, body))
    t1 = perf()
    responses.append(request(*round_[-1][1:]))
    t2 = perf()
    digest = _Digest()
    for (kind, *_), response in zip(round_, responses):
        digest.add(response)
        run.fail_unless(_status_ok(kind, response.status))
    run.attempted += len(round_)
    return t2 - t0, t2 - t1, digest.hex()


def _open_loop(
    run: Run, client, script: list[tuple], sps: float, tracer: Tracer | None = None
) -> dict:
    """Send each request when due (or at once when late); time from due.

    With a tracer each request is its own operation root, so the idle
    wait between requests does not read as unattributed time.
    """
    digest = _Digest()
    query_lat, step_lat, lateness = [], [], []
    t0 = perf() + 0.01
    for due, kind, method, url, body in script:
        due += t0
        wait = due - perf()
        if wait > 0.002:
            time.sleep(wait - 0.001)
        while (now := perf()) < due:  # spin the rest: sleep overshoot reads as latency
            pass
        if tracer is None:
            response = client.request(method, url, body)
        else:
            with tracer.span("op.open", root=True):
                response = client.request(method, url, body)
        done = perf()
        lateness.append(now - due)
        (step_lat if kind == "step" else query_lat).append(done - due)
        digest.add(response)
        run.fail_unless(_status_ok(kind, response.status))
    run.attempted += len(script)
    # a backlog that grows over the phase is a failure: the last tenth of
    # requests may start no later than the first tenth plus one step period
    tenth = max(1, len(lateness) // 10)
    head = statistics.median(lateness[:tenth])
    end = statistics.median(lateness[-tenth:])
    run.fail_unless(end <= head + 1.0 / sps)
    run.info["open.lateness_end_ms"] = (end * 1000.0, "ms")
    return {"digest": digest.hex(), "query": query_lat, "step": step_lat}


def _replay(client, requests: list[tuple]) -> str:
    """Digest of the responses to ``requests`` sent back to back."""
    digest = _Digest()
    for item in requests:
        method, url, body = item[-3:]
        digest.add(client.request(method, url, body))
    return digest.hex()


def service_churn(run: Run, n: int = 10_000, qps: float = 2000.0) -> None:
    """Closed-loop rounds on one world, then an open loop on a second.

    A round is READS_PER_STEP reads then one ``POST /world/step``, the
    traffic mix of the open loop, so its wall moves with the read path
    and with the step path.  The second world first replays the opening
    rounds; a third replays those rounds and the open-loop script back
    to back, and every digest must match.
    """
    sps = qps / READS_PER_STEP
    scenario = f"service_churn/n={n}/seed={run.seed}"
    closed_s = CLOSED_SHARE * run.seconds
    reads = _read_requests(np.random.default_rng([run.seed, 1]), n, READS_PER_STEP)
    round_ = reads + [STEP]
    script = _open_script(run.seed, n, run.seconds - closed_s, qps, sps)
    open_name = f"open_script/{len(script)}"

    def opening(client) -> float:
        """REPLAY_ROUNDS rounds, each checked; returns their total wall."""
        total = 0.0
        for i in range(REPLAY_ROUNDS):
            wall, _, digest = _round(run, client, round_)
            run.check(scenario, f"round/{i}", digest)
            total += wall
        return total

    if run.trace:
        _traced_service(run, n, opening, script, open_name, sps, scenario)
        return

    boots: list[float] = []

    def boot():
        gc.collect()
        t0 = perf()
        world, client = _boot(n)
        boots.append(perf() - t0)
        _check_boot(run, world, n)
        return world, client

    # world A: the opening rounds (checked), then rounds until time is up
    world, client = boot()
    opening(client)
    walls, refs, steps = [], [], []
    while len(walls) < MIN_OPS or sum(walls) < closed_s:
        ref = pace(run) if len(walls) % PACE_ROUNDS == 0 else refs[-1]
        wall, step, _ = _round(run, client, round_)
        walls.append(wall)
        refs.append(ref)
        steps.append(step)
        probe_imports(run, sum(walls) / closed_s)
    del world, client

    # world B: the opening rounds again, then the open loop
    world, client = boot()
    opening(client)
    opened = _open_loop(run, client, script, sps)
    run.check(scenario, open_name, opened["digest"])
    del world, client

    # world C: the opening rounds and the script back to back
    world, client = boot()
    opening(client)
    run.check(scenario, open_name, _replay(client, script))
    del world, client
    gc.collect()

    report(run, boots, walls, refs, 1, len(round_), "requests")
    queries, label = opened["query"], tail(opened["query"])[1]
    run.info["round_step_p50_ms"] = (statistics.median(steps) * 1000.0, "ms")
    run.info["open.queries"] = (len(queries), f"count (tail is {label})")
    run.info["open.query_p50_ms"] = (statistics.median(queries) * 1000.0, "ms")
    run.info[f"open.query_{label}_ms"] = (tail(queries)[0] * 1000.0, "ms")
    for q in (50, 90) if opened["step"] else ():
        step_ms = float(np.percentile(opened["step"], q)) * 1000.0
        run.info[f"open.step_p{q}_ms"] = (step_ms, "ms")


def _traced_service(run, n, opening, script, open_name, sps, scenario) -> None:
    """Opening rounds untraced, then a traced boot, opening rounds and
    open loop.  The overhead ratio compares the opening rounds, which
    send the same requests to the same world state either way."""
    world, client = _boot(n)
    _check_boot(run, world, n)
    untraced = opening(client)
    del world, client
    gc.collect()

    tracer = run.tracer = Tracer()
    groups = (layers.install_radio, layers.install_kernels, layers.install_service)
    with tracer.installed(*groups):
        with tracer.span("op.boot", root=True):
            world, client = _boot(n)
        _check_boot(run, world, n)
        with tracer.span("op.rounds", root=True):
            traced = opening(client)
        opened = _open_loop(run, client, script, sps, tracer)
        run.check(scenario, open_name, opened["digest"])
    finish_trace(run, tracer, None, traced / untraced)


WORKLOADS: dict[str, Callable[..., None]] = {
    "paper_sweep": paper_sweep,
    "service_churn": service_churn,
    "city_2x2": city_2x2,
}
