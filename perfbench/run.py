"""The repository benchmark: offline replay and the detection service.

Run from the repository root::

    python3 perfbench/run.py --workload replay-pbzip2 --seed 1 --seconds 52 --trace 0
    python3 perfbench/smoke.py    # the benchmark's own test, small sizes

Every workload runs the same three phases on its own generated inputs,
so every end-to-end metric is defined on every workload:

* **set-up** (``setup_s``, median of ``SETUP_REPS``): build the input
  traces from ``--seed``, coalesce the offline trace's batched feed,
  spawn a ``repro-race serve --port 0`` daemon (through
  ``serve_launcher.py``) and wait for the WELCOME of a probe session;
  scaled to a reference host speed like the phases below.
* **offline replay**: rounds of ``replay()`` over the offline trace --
  ``dynamic`` and ``fasttrack-byte`` unbatched and ``dynamic`` batched
  -- timed by the program's own ``ReplayResult.wall_time`` and scaled
  to a reference host speed (see :class:`Speed`); each metric is the
  median over rounds.  ``dynamic`` over 2 shards in 2 processes runs
  once after the clock stops, for its check (its rate is per layer).
* **service**: rounds of a closed loop, two tenants on two client
  threads against the daemon subprocess; each client sends one batch
  and ``sync()``s until it is acked, then ``finish()``es.  Sync
  latencies of all rounds (at least ``MIN_SYNCS``) are pooled for
  p50/p99.  Each round's times are scaled to the reference host speed
  like the replays'.  ``peak_rss_mb`` is the daemon's ``VmHWM``.

Offline and service rounds alternate until ``--seconds`` is used.  After
the clock stops every output is checked: races and statistics must
match across dispatch modes and rounds, and each tenant's RESULT must
equal, in canonical JSON, a local uninterrupted replay of its events.
Deterministic counters (detector statistics, checkpoint and resume
counts, frames, coalescer compression) must repeat exactly in every
round; they are printed on a ``counters`` line with a digest so two
runs with one seed can be compared.

``fail_ratio`` (failed over attempted operations) is not a declared
metric, since it is 0 on every correct run; it is printed, and the
result line carries it as ``attempted`` and ``failed``.

``--trace 1`` reports per-layer metrics instead: one traced round of
each phase (spans from ``spans.py`` wrappers here and in the daemon
launcher, written to ``.perfbench-spans/``), then one untraced round of
each, whose difference is the tracing overhead.  The last stdout line is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is nonzero when any operation failed or diverged.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SPANS = os.path.join(ROOT, ".perfbench-spans")  # traced runs' span files
SETUP_REPS = 5
TENANTS = 2
MIN_SYNCS = 1000  # per run, so that p99 has ten samples beyond it
BATCH = 254  # events per sync
DETECTOR = "fasttrack-byte"  # the daemon's default detector
CHECKPOINT_EVERY = 2000  # the daemon's default cadence


@dataclass(frozen=True)
class Spec:
    """One workload: inputs, service shape and how ``--seconds`` splits.
    Why each workload was chosen is recorded in BENCHMARK.json."""

    offline: tuple  # (workload, scale)
    stream: tuple  # per-tenant (workload, scale)
    offline_share: float  # of --seconds, for offline rounds
    kill_every: int = 0  # checkpoint intervals between injected kills


WORKLOADS = {
    "replay-pbzip2": Spec(
        offline=("pbzip2", 5.0),
        stream=("pbzip2", 1.0),
        offline_share=0.4,
    ),
    "serve-recover": Spec(
        offline=("x264", 3.0),
        stream=("x264", 1.0),
        kill_every=4,
        offline_share=0.4,
    ),
}

#: Sizes for the benchmark's own smoke test (``--small``).
SMALL = {"pbzip2": 0.3, "x264": 0.7}  # x264 0.7: one kill per tenant

#: (metric, detector, replay keyword arguments), in round order.
MODES = (
    ("replay_eps.dynamic", "dynamic", {}),
    ("replay_eps.fasttrack-byte", "fasttrack-byte", {}),
    ("replay_batched_eps.dynamic", "dynamic", {"batched": True}),
    ("shard2_eps.dynamic", "dynamic", {"shards": 2, "shard_processes": 2}),
)
#: Timed in every round of an untraced run.  The sharded replay, whose
#: rate is per layer, runs once after the clock stops, for its check.
TIMED = MODES[:3]

#: ``shard2_eps.dynamic`` is reported per layer (``parallel.``): waiting
#: for the slower of two processes, its run-to-run spread on the 2-vCPU
#: host this was tuned on was 23-44% of its median, past any usable bound.
END_TO_END = {
    "setup_s": "s",
    "replay_eps.dynamic": "ev/s",
    "replay_eps.fasttrack-byte": "ev/s",
    "replay_batched_eps.dynamic": "ev/s",
    "ingest_eps": "ev/s",
    "sync_p50_ms": "ms",
    "sync_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

_KINDS = ("read", "write", "sync", "alloc", "finish")
_DETS = ("dynamic", "fasttrack-byte")
PER_LAYER = {
    "workloads.build_s": "s",
    "batch.coalesce_s": "s",
    "batch.compression_pct": "%",
    "vm.bare_s": "s",
    "vm.callbacks": "count",
    "vm.self_s": "s",
    **{f"detector.{k}_s.{d}": "s" for d in _DETS for k in _KINDS},
    **{f"detector.{k}_s.served": "s" for k in _KINDS[:4]},
    "detector.self_s": "s",
    **{f"detector.checked_accesses.{d}": "count" for d in _DETS},
    **{f"detector.same_epoch_pct.{d}": "%" for d in _DETS},
    **{f"detector.locations.{d}": "count" for d in _DETS},
    **{f"detector.memory_peak_bytes.{d}": "B" for d in _DETS},
    **{f"detector.max_vectors.{d}": "count" for d in _DETS},
    "detector.vc_allocs.fasttrack-byte": "count",
    "detector.groups_created.dynamic": "count",
    "detector.merges.dynamic": "count",
    "detector.splits.dynamic": "count",
    "detector.avg_sharing.dynamic": "ratio",
    "parallel.shard2_eps.dynamic": "ev/s",
    "parallel.plan_s": "s",
    "parallel.merge_s": "s",
    "parallel.wait_s": "s",
    "parallel.shard_events_skew": "ratio",
    "parallel.self_s": "s",
    "protocol.encode_s": "s",
    "protocol.decode_s": "s",
    "protocol.frames": "count",
    "protocol.bytes_per_event": "B/ev",
    "protocol.self_s": "s",
    "daemon.queue_wait_s": "s",
    "daemon.commit_to_ack_s": "s",
    "daemon.max_queue_bytes": "B",
    "daemon.pauses": "count",
    "tenant.dispatch_s": "s",
    "tenant.commit_s": "s",
    "tenant.chunks": "count",
    "tenant.resume_s": "s",
    "tenant.resumes": "count",
    "tenant.tail_redispatch_events": "count",
    "tenant.self_s": "s",
    "checkpoint.snapshot_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "B",
    "checkpoint.read_s": "s",
    "checkpoint.restore_s": "s",
    "checkpoint.reads": "count",
    "checkpoint.read_per_write": "ratio",
    "checkpoint.self_s": "s",
    "trace.overhead_pct.replay": "%",
    "trace.overhead_pct.service": "%",
}


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# outcome bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def op(self, n: int = 1) -> None:
        with self.lock:
            self.attempted += n

    def fail(self, why: str) -> None:
        with self.lock:
            self.failures.append(why)


# ----------------------------------------------------------------------
# the daemon under test
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro-race serve --port 0`` subprocess."""

    def __init__(self, index: int, traced: bool):
        self.report = os.path.join(WORK, f"daemon-{index}.json")
        self.log = open(os.path.join(WORK, f"daemon-{index}.log"), "wb")
        cmd = [
            sys.executable, "-u", os.path.join(HERE, "serve_launcher.py"),
            "--report", self.report,
        ]
        if traced:
            cmd.append("--spans")
        cmd += [
            "--", "serve", "--port", "0", "--detector", DETECTOR,
            "--checkpoint-every", str(CHECKPOINT_EVERY),
            "--checkpoint-root", os.path.join(WORK, f"ckpt-{index}"),
        ]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        # A daemon that never reports its port is killed, which ends the
        # readline below with EOF.
        timer = threading.Timer(60.0, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            timer.cancel()
            timer.join()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        hostport = line.split("listening on ", 1)[1].split()[0]
        host, port = hostport.rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self) -> dict:
        """SIGTERM (drain), wait, and return the launcher's exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        try:
            with open(self.report) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    offline: object  # Trace
    streams: List[object]  # one Trace per tenant


def _scale(name: str, scale: float, small: bool) -> float:
    return SMALL[name] if small else scale


def build_inputs(spec: Spec, seed: int, small: bool) -> Inputs:
    from repro.workloads.registry import get_workload

    wname, scale = spec.stream
    streams = [
        get_workload(wname).trace(
            scale=_scale(wname, scale, small), seed=2 * seed + i
        )
        for i in range(TENANTS)
    ]
    oname, oscale = spec.offline
    offline = get_workload(oname).trace(
        scale=_scale(oname, oscale, small), seed=seed
    )
    offline.coalesced()
    return Inputs(offline, streams)


def setup(spec: Spec, seed: int, small: bool, reps: int, traced: bool,
          speed: Speed):
    """``reps`` full set-ups; returns (inputs, live daemon, times), each
    time as (seconds as timed, :class:`Speed` factor)."""
    from repro.server.client import Detector

    times = []
    daemon = None
    for rep in range(reps):
        if daemon is not None:
            daemon.stop()
        inputs = None  # so two sets of inputs are never alive at once
        speed.last = speed.sample()
        t0 = time.perf_counter()
        inputs = build_inputs(spec, seed, small)
        daemon = Daemon(rep, traced)
        try:
            probe = Detector(DETECTOR, address=daemon.address,
                             tenant=f"probe-{rep}", timeout=60)
            times.append((time.perf_counter() - t0, speed.factor()))
            probe.finish()
        except BaseException:
            daemon.stop()
            raise
    return inputs, daemon, times


# ----------------------------------------------------------------------
# offline replay
# ----------------------------------------------------------------------
def _summary(result) -> dict:
    stats = {k: v for k, v in result.stats.items() if k != "shards"}
    return {"races": [r.as_list() for r in result.races], "stats": stats}


class Speed:
    """The host's speed next to each set-up, timed replay and service
    round.

    The shared host this runs on changes speed by up to 2x, in phases of
    seconds, and a replay is short next to a phase.  A fixed pure-Python
    loop shaped like shadow-memory dispatch (integer arithmetic, dict
    lookups, list updates; it holds no data beyond an 8,192-key table)
    is timed in this process before and after each of them;
    :meth:`factor` is the mean of the two over ``REF_S``, its time on an
    idle core of the 2-vCPU x86-64 VM this was tuned on.  Replay and
    ingest rates are multiplied by it, and set-up and sync times divided
    by it, so they read as at that speed.  ``REF_S``
    only sets the scale of the figures: a comparison of two commits on
    one host divides it out.  The loop is the benchmark's own, the same on
    every commit measured.
    """

    REF_S = 0.070

    def __init__(self) -> None:
        self.last = self.sample()

    @staticmethod
    def sample() -> float:
        """Seconds for two passes of the loop now."""
        t0 = time.perf_counter()
        for _ in range(2):
            table = {}
            for i in range(200_000):
                tid = (i >> 5) & 3
                key = ((i * 40503) & 0xFFFF) >> 3
                cell = table.get(key)
                if cell is None:
                    table[key] = [tid, i]
                elif cell[0] != tid:
                    cell[0] = tid
                    cell[1] = i
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Slowness of the replay that just ended, relative to REF_S."""
        before = self.last
        self.last = self.sample()
        return (before + self.last) / 2 / self.REF_S


@dataclass
class OfflineRound:
    results: Dict[str, object]  # metric -> ReplayResult
    #: (a sharded replay, which runs on every CPU, is not scaled)
    eps: Dict[str, float]  # metric -> events/s at the reference speed
    raw: Dict[str, float]  # metric -> events/s as timed


def offline_round(trace, speed: Speed, modes=MODES,
                  wrap_detector=None) -> OfflineRound:
    """One replay per mode."""
    from repro.detectors.registry import create_detector
    from repro.runtime import vm

    rnd = OfflineRound({}, {}, {})
    speed.sample()  # warm-up pass
    speed.last = speed.sample()
    try:
        for metric, name, kwargs in modes:
            sharded = "shards" in kwargs
            gc.collect()
            det = create_detector(name)
            if wrap_detector is not None and not sharded:
                wrap_detector(det, name)
            res = rnd.results[metric] = vm.replay(trace, det, **kwargs)
            del det
            rnd.raw[metric] = len(trace) / res.wall_time
            rnd.eps[metric] = (rnd.raw[metric] if sharded
                               else rnd.raw[metric] * speed.factor())
            if sharded:
                # The shard workers were forked: until each page of this
                # process has been written once more, writes fault
                # copy-on-write.  Touch the feeds untimed so the next
                # replay does not pay for that.
                for feed in (trace.events, trace.coalesced()):
                    for ev in feed:
                        for _field in ev:
                            pass
    finally:
        # Unlink the sharded replay's shared-memory feed rings now, on
        # every path, so none is left for the resource tracker.
        trace.release_shared()
    return rnd


def check_offline(rounds: List[OfflineRound], ledger: Ledger) -> None:
    """Every mode of one detector, in every round, must report the same
    races and statistics as the first round's unbatched replay."""
    refs = {}
    for metric, name, kwargs in MODES:
        if not kwargs:
            refs[name] = _canon(_summary(rounds[0].results[metric]))
    for i, rnd in enumerate(rounds):
        for metric, name, kwargs in MODES:
            if metric not in rnd.results:
                continue
            ledger.op()
            res = rnd.results[metric]
            if _canon(_summary(res)) != refs[name]:
                ledger.fail(f"round {i}: {metric} diverges from {name} "
                            "unbatched replay")
            elif "shards" in kwargs and (
                res.stats.get("shards", {}).get("effective") != 2
            ):
                ledger.fail(f"round {i}: {metric} did not run 2 shards")


def offline_counters(trace, rnd: OfflineRound) -> dict:
    out = {
        "events": len(trace),
        "coalesced": len(trace.coalesced()),
        "dispatched": {m: r.dispatched for m, r in rnd.results.items()},
    }
    for metric, name, kwargs in MODES:
        if not kwargs:
            out[name] = dict(rnd.results[metric].stats)
    return out


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def kill_points(spec: Spec, n: int) -> List[int]:
    if not spec.kill_every:
        return []
    step = spec.kill_every * CHECKPOINT_EVERY
    # Mid-interval, so each resume re-dispatches a tail.
    return list(range(step + CHECKPOINT_EVERY // 2 + 250, n, step))


def planned_kills(spec: Spec, inputs: Inputs) -> List[int]:
    return [len(kill_points(spec, len(s.events))) for s in inputs.streams]


class Tenant(threading.Thread):
    """One client thread: stream, sync after every batch, finish."""

    def __init__(self, address, name: str, events: List[tuple], spec: Spec,
                 ledger: Ledger):
        super().__init__(name=f"bench-{name}", daemon=True)
        self.address = address
        self.tenant = name
        self.events = events
        self.spec = spec
        self.ledger = ledger
        self.latencies_ms: List[float] = []
        self.acked = 0
        self.result: Optional[dict] = None
        self.client_races = 0

    def run(self) -> None:
        from repro.server.client import Detector

        batch = BATCH
        options = {}
        kills = kill_points(self.spec, len(self.events))
        if kills:
            options["kill_at"] = kills
        try:
            self.ledger.op()  # the HELLO
            client = Detector(DETECTOR, address=self.address,
                              tenant=self.tenant, batch_events=batch,
                              timeout=60, options=options)
            for pos in range(0, len(self.events), batch):
                self.ledger.op()
                t0 = time.perf_counter()
                client.feed(self.events[pos:pos + batch])
                client.sync()
                self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                self.acked = client.acked
            self.ledger.op()
            self.result = client.finish()
            self.client_races = len(client.races)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.ledger.fail(f"{self.tenant}: {type(exc).__name__}: {exc}")


@dataclass
class ServiceRound:
    wall_s: float
    events: int
    latencies_ms: List[float]
    results: List[Optional[dict]]
    client_races: List[int]
    frames: int
    stats: dict
    factor: float = 1.0  # host slowness during the round (see Speed)


def service_round(daemon: Daemon, streams, spec: Spec, label: str,
                  ledger: Ledger) -> ServiceRound:
    from repro.server.client import server_stats

    before = server_stats(daemon.address)
    tenants = [
        Tenant(daemon.address, f"{label}-t{i}", s.events, spec, ledger)
        for i, s in enumerate(streams)
    ]
    t0 = time.perf_counter()
    for t in tenants:
        t.start()
    for t in tenants:
        t.join()
    wall = time.perf_counter() - t0
    after = server_stats(daemon.address)
    return ServiceRound(
        wall_s=wall,
        events=sum(t.acked for t in tenants),
        latencies_ms=[x for t in tenants for x in t.latencies_ms],
        results=[t.result for t in tenants],
        client_races=[t.client_races for t in tenants],
        # less the STATS_REQ frame of the ``after`` probe itself
        frames=after["frames"] - before["frames"] - 1,
        stats=after,
    )


def baseline(events) -> dict:
    """The uninterrupted twin: local replay with the daemon's detector."""
    from repro.detectors.registry import create_detector
    from repro.runtime.trace import Trace
    from repro.runtime.vm import replay

    return _summary(replay(Trace(list(events)), create_detector(DETECTOR)))


def check_service(rounds: List[ServiceRound], baselines: List[dict],
                  kills: List[int], ledger: Ledger) -> None:
    """Each tenant's RESULT must equal its local uninterrupted replay,
    and every planned kill (``kills[i]`` for tenant ``i``) must have
    fired and been resumed from a checkpoint."""
    want = [_canon(b) for b in baselines]
    for r, rnd in enumerate(rounds):
        for i, res in enumerate(rnd.results):
            if res is None:
                continue  # the failure is already on the ledger
            ledger.op()
            got = _canon({"races": res["races"], "stats": res["stats"]})
            rec = res.get("recovery", {})
            if got != want[i]:
                ledger.fail(f"round {r} tenant {i}: RESULT diverges from "
                            "the local uninterrupted replay")
            elif rnd.client_races[i] != len(res["races"]):
                ledger.fail(f"round {r} tenant {i}: {rnd.client_races[i]} "
                            f"RACE frames for {len(res['races'])} races")
            elif not (rec.get("kills_fired") == rec.get("resumes")
                      == kills[i]):
                ledger.fail(f"round {r} tenant {i}: {kills[i]} kills "
                            f"planned, {rec.get('kills_fired')} fired, "
                            f"{rec.get('resumes')} resumed")


def service_counters(rnd: ServiceRound) -> dict:
    rec = [
        {k: v for k, v in (res or {}).get("recovery", {}).items()
         if k not in ("shadow_budget",)}
        for res in rnd.results
    ]
    return {
        "events": rnd.events,
        "syncs": len(rnd.latencies_ms),
        "frames": rnd.frames,
        "races": [len((res or {}).get("races", ())) for res in rnd.results],
        "recovery": rec,
    }


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def _interleave(seconds: float, offline_share: float, offline, service):
    """Alternate service and offline rounds for ``seconds`` so that both
    sample the whole run (the host's speed drifts in phases of seconds);
    offline rounds get about ``offline_share`` of the time.  Each kind
    runs at least once; no round starts that is expected to end late."""
    spent = {"service": 0.0, "offline": 0.0}
    last: Dict[str, float] = {}
    bodies = {"service": service, "offline": offline}
    start = time.perf_counter()
    while True:
        if len(last) < 2:
            kind = "offline" if "service" in last else "service"
        else:
            total = spent["service"] + spent["offline"]
            kind = ("offline" if spent["offline"] < offline_share * total
                    else "service")
            if time.perf_counter() - start + last[kind] > seconds:
                return
        t0 = time.perf_counter()
        bodies[kind]()
        last[kind] = time.perf_counter() - t0
        spent[kind] += last[kind]


def _median(xs) -> float:
    return float(statistics.median(xs))


def _quantile(xs: List[float], q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def _flag_repeats(kind: str, counters: List[dict], ledger: Ledger) -> None:
    for i, c in enumerate(counters[1:], 1):
        ledger.op()
        if _canon(c) != _canon(counters[0]):
            ledger.fail(f"{kind} counters of round {i} differ from round 0")


def service_metrics(rounds: List[ServiceRound],
                    scaled: bool = True) -> Dict[str, float]:
    """Ingest rate and pooled sync latency quantiles, each round's times
    divided by its :class:`Speed` factor unless ``scaled`` is false."""
    f = [r.factor if scaled else 1.0 for r in rounds]
    lat = [x / fi for r, fi in zip(rounds, f) for x in r.latencies_ms]
    return {
        "ingest_eps": sum(r.events for r in rounds)
        / sum(r.wall_s / fi for r, fi in zip(rounds, f)),
        "sync_p50_ms": _quantile(lat, 0.50),
        "sync_p99_ms": _quantile(lat, 0.99),
    }


def run_untraced(spec: Spec, args, ledger: Ledger):
    from serve_launcher import vm_hwm_kb

    speed = Speed()
    inputs, daemon, setup_times = setup(
        spec, args.seed, args.small, SETUP_REPS, False, speed
    )
    svc_rounds: List[ServiceRound] = []
    off_rounds: List[OfflineRound] = []

    def one_service():
        speed.last = speed.sample()
        rnd = service_round(daemon, inputs.streams, spec,
                            f"round{len(svc_rounds)}", ledger)
        rnd.factor = speed.factor()
        svc_rounds.append(rnd)

    try:
        _interleave(args.seconds, spec.offline_share,
                    lambda: off_rounds.append(
                        offline_round(inputs.offline, speed, TIMED)),
                    one_service)
        while sum(len(r.latencies_ms) for r in svc_rounds) < MIN_SYNCS:
            one_service()
    finally:
        reports = [daemon.stop()]
    # -- the clock has stopped: verify ------------------------------------
    sharded = offline_round(inputs.offline, speed, MODES[3:])
    check_offline(off_rounds + [sharded], ledger)
    baselines = [baseline(s.events) for s in inputs.streams]
    if args.tamper_baseline:
        baselines[0]["stats"]["tampered"] = True
    check_service(svc_rounds, baselines, planned_kills(spec, inputs),
                  ledger)
    off_counts = [offline_counters(inputs.offline, r) for r in off_rounds]
    svc_counts = [service_counters(r) for r in svc_rounds]
    _flag_repeats("offline", off_counts, ledger)
    _flag_repeats("service", svc_counts, ledger)

    metrics = {"setup_s": _median(t / f for t, f in setup_times)}
    metrics.update(
        {m: _median(r.eps[m] for r in off_rounds) for m, _n, _k in TIMED}
    )
    metrics.update(service_metrics(svc_rounds))
    # The daemon is the one process whose memory is all the program's;
    # this one's is mostly the benchmark's own inputs (see info).
    if "hwm_kb" not in reports[0]:
        ledger.fail("the daemon wrote no exit report")
    metrics["peak_rss_mb"] = reports[0].get("hwm_kb", 0) / 1024.0
    info = {
        "offline_rounds": len(off_rounds),
        "service_rounds": len(svc_rounds),
        "syncs": sum(len(r.latencies_ms) for r in svc_rounds),
        "syncs_beyond_p99": sum(
            1 for r in svc_rounds for x in r.latencies_ms
            if x / r.factor > metrics["sync_p99_ms"]
        ),
        "shard2_eps.dynamic": sharded.raw["shard2_eps.dynamic"],
        "bench_hwm_mb": vm_hwm_kb() / 1024.0,
        "replay_eps_as_timed": {
            m: _median(r.raw[m] for r in off_rounds) for m, _n, _k in TIMED
        },
        "service_as_timed": service_metrics(svc_rounds, scaled=False),
        "setup_s_as_timed": _median(t for t, _f in setup_times),
    }
    counters = {"offline": off_counts[0], "service": svc_counts[0]}
    return metrics, counters, info


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
_CALLBACK_KINDS = {
    "on_read": "read", "on_read_batch": "read",
    "on_write": "write", "on_write_batch": "write",
    "on_acquire": "sync", "on_release": "sync",
    "on_fork": "sync", "on_join": "sync",
    "on_alloc": "alloc", "on_free": "alloc",
    "finish": "finish",
}


def _detector_wrapper(tracer):
    """Charge each detector callback's time to ``detector.<kind>.<name>``
    (instance attributes, so ``replay()``'s bound lookups see them)."""
    perf = time.perf_counter

    def wrap_detector(det, name):
        for attr, kind in _CALLBACK_KINDS.items():
            orig = getattr(det, attr)
            label = f"detector.{kind}.{name}"

            def timed(*a, _orig=orig, _label=label):
                t0 = perf()
                try:
                    return _orig(*a)
                finally:
                    tracer.charge(_label, perf() - t0)

            setattr(det, attr, timed)

    return wrap_detector


def _install_bench_tracing(tracer) -> list:
    """Wrap the layer entry points this process calls; returns what to
    restore."""
    from spans import wrap

    from repro.perf import batch, parallel
    from repro.runtime import vm
    from repro.server import client, protocol
    from repro.workloads.base import Workload

    def encoded(blob, rows):
        tracer.count("protocol.bytes", len(blob))
        tracer.count("protocol.rows", len(rows))

    targets = [
        (Workload, "trace", "workloads.trace", None, None),
        (batch, "coalesce_events", "batch.coalesce", None, None),
        (vm, "replay", "vm.replay", lambda t, d, **_k: d.name, None),
        (vm, "bare_replay", "vm.bare", None, None),
        (parallel, "sharded_replay", "parallel.sharded_replay", None, None),
        (parallel, "plan_for", "parallel.plan", None, None),
        (parallel, "shard_feeds", "parallel.plan", None, None),
        (parallel, "merge_shards", "parallel.merge", None, None),
        (protocol, "encode_events", "protocol.encode", None, encoded),
        (client.Detector, "sync", "client.sync",
         lambda c: f"{c.tenant}@{len(c._journal)}", None),
    ]
    restore = []
    for owner, attr, name, rid, after in targets:
        orig = wrap(owner, attr, tracer, name, rid=rid, after=after)
        restore.append((owner, attr, orig))
    return restore


def _shard_skew(trace) -> float:
    from repro.detectors.registry import create_detector
    from repro.perf.parallel import plan_for, shard_feeds

    plan = plan_for(trace, 2, create_detector("dynamic"))
    sizes = [len(f[0]) for f in shard_feeds(trace, plan, False)]
    return max(sizes) / (sum(sizes) / len(sizes))


def run_traced(spec: Spec, args, ledger: Ledger):
    from spans import Tracer, summarize

    from repro.runtime import vm

    tracer = Tracer()
    restore = _install_bench_tracing(tracer)
    try:
        inputs, daemon, _times = setup(spec, args.seed, args.small, 1, True,
                                       Speed())
        try:
            svc_t = service_round(daemon, inputs.streams, spec, "traced",
                                  ledger)
        finally:
            daemon_doc = daemon.stop()
        off_t = offline_round(inputs.offline, Speed(),
                              wrap_detector=_detector_wrapper(tracer))
        vm.bare_replay(inputs.offline)
    finally:
        for owner, attr, orig in restore:
            setattr(owner, attr, orig)
    daemon = Daemon(1, False)
    try:
        svc_u = service_round(daemon, inputs.streams, spec, "plain", ledger)
    finally:
        daemon.stop()
    off_u = offline_round(inputs.offline, Speed())
    # -- the clock has stopped: verify ------------------------------------
    check_offline([off_t, off_u], ledger)
    baselines = [baseline(s.events) for s in inputs.streams]
    if args.tamper_baseline:
        baselines[0]["stats"]["tampered"] = True
    check_service([svc_t, svc_u], baselines, planned_kills(spec, inputs),
                  ledger)
    off_counts = [offline_counters(inputs.offline, r) for r in (off_t, off_u)]
    svc_counts = [service_counters(r) for r in (svc_t, svc_u)]
    _flag_repeats("offline", off_counts, ledger)
    _flag_repeats("service", svc_counts, ledger)
    skew = _shard_skew(inputs.offline)

    os.makedirs(SPANS, exist_ok=True)
    out = os.path.join(SPANS, f"{args.workload}-seed{args.seed}.json")
    with open(out, "w") as fh:
        json.dump({"bench": tracer.doc(), "daemon": daemon_doc}, fh)
    S = summarize([tracer.doc(), daemon_doc])

    def g(key: str) -> float:
        return float(S.get(key, 0.0))

    events = len(inputs.offline)
    m = {
        "workloads.build_s": g("workloads.trace_s"),
        "batch.coalesce_s": g("batch.coalesce_s"),
        "batch.compression_pct":
            100.0 * (1 - len(inputs.offline.coalesced()) / events),
        "vm.bare_s": g("vm.bare_s"),
        "vm.callbacks": sum(
            off_t.results[metric].dispatched for metric, _n, kw in MODES
            if "shards" not in kw
        ),
        "vm.self_s": g("vm.self_s"),
        "detector.self_s": g("detector.self_s"),
        "parallel.shard2_eps.dynamic": off_u.eps["shard2_eps.dynamic"],
        "parallel.plan_s": g("parallel.plan_s"),
        "parallel.merge_s": g("parallel.merge_s"),
        "parallel.wait_s": g("parallel.sharded_replay_s")
        - g("parallel.plan_s") - g("parallel.merge_s"),
        "parallel.shard_events_skew": skew,
        "parallel.self_s": g("parallel.self_s"),
        "protocol.encode_s": g("protocol.encode_s"),
        "protocol.decode_s": g("protocol.decode_s"),
        "protocol.frames": svc_t.frames,
        "protocol.bytes_per_event":
            g("protocol.bytes#") / max(g("protocol.rows#"), 1.0),
        "protocol.self_s": g("protocol.self_s"),
        "daemon.queue_wait_s": g("daemon.queue_wait_s"),
        "daemon.commit_to_ack_s": g("daemon.commit_to_ack_s"),
        "daemon.max_queue_bytes": svc_t.stats["max_queue_bytes"],
        "daemon.pauses": svc_t.stats["pauses"],
        "tenant.dispatch_s": g("tenant.dispatch_s"),
        "tenant.commit_s": g("tenant.commit_s"),
        "tenant.chunks": g("tenant.commit#"),
        "tenant.resume_s": g("tenant.resume_s"),
        "tenant.resumes": g("tenant.resume#"),
        "tenant.tail_redispatch_events": g("tenant.tail_redispatch_events#"),
        "tenant.self_s": g("tenant.self_s"),
        "checkpoint.snapshot_s": g("checkpoint.snapshot_s"),
        "checkpoint.write_s": g("checkpoint.write_s"),
        "checkpoint.writes": g("checkpoint.write#"),
        "checkpoint.bytes": g("checkpoint.bytes#"),
        "checkpoint.read_s": g("checkpoint.read_s"),
        "checkpoint.restore_s": g("checkpoint.restore_s"),
        "checkpoint.reads": g("checkpoint.read#"),
        "checkpoint.read_per_write":
            g("checkpoint.read#") / max(g("checkpoint.write#"), 1.0),
        "checkpoint.self_s": g("checkpoint.self_s"),
    }
    for kind in _KINDS:
        for det in _DETS:
            m[f"detector.{kind}_s.{det}"] = g(f"detector.{kind}.{det}_s")
        if kind != "finish":
            m[f"detector.{kind}_s.served"] = g(f"detector.{kind}.served_s")
    for det in _DETS:
        stats = off_t.results[f"replay_eps.{det}"].stats
        for key in ("checked_accesses", "same_epoch_pct", "locations",
                    "max_vectors"):
            m[f"detector.{key}.{det}"] = stats[key]
        m[f"detector.memory_peak_bytes.{det}"] = stats["memory"]["total_peak"]
    ft = off_t.results["replay_eps.fasttrack-byte"].stats
    dyn = off_t.results["replay_eps.dynamic"].stats
    m["detector.vc_allocs.fasttrack-byte"] = ft["vc_allocs"]
    for key in ("groups_created", "merges", "splits", "avg_sharing"):
        m[f"detector.{key}.dynamic"] = dyn[key]

    def wall(rnd):
        return sum(r.wall_time for r in rnd.results.values())

    m["trace.overhead_pct.replay"] = 100.0 * (wall(off_t) / wall(off_u) - 1)
    m["trace.overhead_pct.service"] = 100.0 * (svc_t.wall_s / svc_u.wall_s - 1)
    info = {"spans": len(tracer.spans) + len(daemon_doc.get("spans", ())),
            "span_file": os.path.relpath(out, ROOT)}
    counters = {"offline": off_counts[0], "service": svc_counts[0]}
    return m, counters, info


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _stop_resource_tracker() -> None:
    """End and reap the ``multiprocessing`` resource tracker that the
    sharded replay's shared memory started, if any.  Left alone it exits
    only after this process does, unwaited for."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smoke-test sizes (not comparable with full runs)")
    ap.add_argument("--tamper-baseline", action="store_true",
                    help="smoke-test hook: corrupt tenant 0's local "
                    "baseline so every served RESULT diverges")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    spec = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ledger = Ledger()
    # A SIGTERM unwinds through the ``finally`` blocks, so the daemon
    # subprocess is stopped and waited for on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        run = run_traced if args.trace else run_untraced
        metrics, counters, info = run(spec, args, ledger)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(WORK, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:>16.6g} {unit}")
    failed = min(len(ledger.failures), ledger.attempted)
    print(f"{'fail_ratio':36s} {failed / max(ledger.attempted, 1):>16.6g} "
          f"ratio ({failed}/{ledger.attempted})")
    for why in ledger.failures:
        print(f"FAILED: {why}")
    print("info " + _canon(info))
    digest = hashlib.sha256(_canon(counters).encode()).hexdigest()[:16]
    print(f"counters {digest} " + _canon(counters))
    print(_canon({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if ledger.failures else 0


if __name__ == "__main__":
    sys.exit(main())
