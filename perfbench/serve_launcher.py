"""Start ``repro-race serve`` with the benchmark's daemon-side tracing.

Usage::

    python perfbench/serve_launcher.py --report OUT.json [--spans] -- \
        serve --port 0 --checkpoint-root DIR

With ``--spans`` the launcher wraps the public functions the daemon
calls between wire and disk (``decode_events``, ``ack_frame``,
``TenantSession.dispatch_chunk/commit_chunk/resume``,
``write_checkpoint``/``read_checkpoint``, detector
``snapshot_state``/``restore_state`` and per-event ``dispatch_event``),
then hands off to ``repro.cli`` unchanged.  The ingest queue has no
public function, so its enqueue time is taken from
``RaceServer._enqueue``.  On exit (SIGTERM drains the daemon and
returns from the CLI) the launcher writes its peak RSS (``VmHWM``)
and, when tracing, every span to ``--report``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spans import Tracer, wrap  # noqa: E402

#: event op code (repro.runtime.events: READ, WRITE, ACQUIRE, RELEASE,
#: FORK, JOIN, ALLOC, FREE) -> detector callback kind
KIND = ("read", "write", "sync", "sync", "sync", "sync", "alloc", "alloc")


def install(tracer: Tracer, detector: str) -> None:
    from repro.detectors.registry import create_detector
    from repro.server import daemon, protocol, tenant

    perf = time.perf_counter
    Session = tenant.TenantSession

    def rid(session, rows=()):
        return f"{session.tenant}@{session.events_done + len(rows)}"

    # -- wire codec -------------------------------------------------------
    wrap(protocol, "decode_events", tracer, "protocol.decode")
    last_commit = [0.0]
    orig_ack = protocol.ack_frame

    def ack_frame(events_done, races):
        tracer.wait("daemon.commit_to_ack", perf() - last_commit[0])
        return orig_ack(events_done, races)

    protocol.ack_frame = ack_frame

    # -- ingest queue: enqueue time keyed by the request's end cursor -----
    enqueued = {}
    queued_rows = {}
    orig_enqueue = daemon.RaceServer._enqueue

    def _enqueue(self, st, item, nbytes):
        if isinstance(item, list):
            name = st.session.tenant
            end = queued_rows.get(name, st.session.events_done) + len(item)
            queued_rows[name] = end
            enqueued[f"{name}@{end}"] = perf()
        return orig_enqueue(self, st, item, nbytes)

    daemon.RaceServer._enqueue = _enqueue

    # -- tenant session ---------------------------------------------------
    orig_dispatch = Session.dispatch_chunk

    def dispatch_chunk(self, rows):
        key = rid(self, rows)
        t_enq = enqueued.pop(key, None)
        if t_enq is not None:
            tracer.wait("daemon.queue_wait", perf() - t_enq)
        span = tracer.begin("tenant.dispatch", key)
        try:
            return orig_dispatch(self, rows)
        finally:
            tracer.end(span)

    Session.dispatch_chunk = dispatch_chunk

    def committed(_result, *_args):
        last_commit[0] = perf()

    wrap(Session, "commit_chunk", tracer, "tenant.commit", rid=rid,
         after=committed)

    orig_resume = Session.resume

    def resume(self):
        done = self.events_done
        span = tracer.begin("tenant.resume", rid(self))
        try:
            cursor = orig_resume(self)
        finally:
            tracer.end(span)
        tracer.count("tenant.tail_redispatch_events", done - cursor)
        return cursor

    Session.resume = resume

    # -- checkpoints ------------------------------------------------------
    def wrote(manifest, *_args):
        tracer.count("checkpoint.bytes", int(manifest["payload_bytes"]))

    wrap(tenant, "write_checkpoint", tracer, "checkpoint.write", after=wrote)
    wrap(tenant, "read_checkpoint", tracer, "checkpoint.read")
    cls = type(create_detector(detector))
    wrap(cls, "snapshot_state", tracer, "checkpoint.snapshot")
    wrap(cls, "restore_state", tracer, "checkpoint.restore")

    # -- detector callbacks (per event, charged, not spanned) -------------
    orig_event = tenant.dispatch_event

    def dispatch_event(det, ev):
        t0 = perf()
        orig_event(det, ev)
        tracer.charge(f"detector.{KIND[ev[0]]}.served", perf() - t0)

    tenant.dispatch_event = dispatch_event


def vm_hwm_kb() -> int:
    """This process's peak resident set (``VmHWM``), in KiB.  Unlike
    ``ru_maxrss`` it starts afresh at exec, so it does not carry over
    the peak of the process that spawned this one."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def served_detector(cli_args) -> str:
    """The ``serve --detector`` name, whose snapshot/restore is traced."""
    if "--detector" in cli_args:
        return cli_args[cli_args.index("--detector") + 1]
    return "fasttrack-byte"  # the daemon's default


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--report", required=True)
    ap.add_argument("--spans", action="store_true")
    ap.add_argument("cli", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    tracer = Tracer()
    if args.spans:
        install(tracer, served_detector(cli_args))
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    tracer.dump(args.report, {"hwm_kb": vm_hwm_kb(), "traced": args.spans})
    return code


if __name__ == "__main__":
    sys.exit(main())
