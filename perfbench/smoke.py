"""Smoke test of the benchmark itself, at small sizes (about a minute).

Run from the repository root::

    python3 perfbench/smoke.py

Checks that

* every metric ``BENCHMARK.json`` declares is printed, with its unit,
  by an untraced and a traced run, and no undeclared one;
* the deterministic counters repeat across two runs with one seed;
* the kills ``serve-recover`` plans fire (and so the run's check that
  each was fired and resumed is exercised);
* a deliberately tampered baseline gives ``failed > 0`` and a nonzero
  exit;
* without the program's sources the benchmark exits nonzero and prints
  no result;
* no process the benchmark starts outlives it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def left_behind(sid: int) -> list:
    """Processes, zombies too, still in session ``sid``."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                comm, rest = fh.read().rsplit(")", 1)
        except OSError:
            continue  # ended while we looked
        state, _ppid, _pgrp, session = rest.split()[:4]
        if int(session) == sid:
            found.append(f"{pid} {comm.split('(', 1)[1]} {state}")
    return found


def bench(*extra, cwd=ROOT):
    """Run the benchmark in a session of its own; fail the smoke test if
    any process it started is still there once it has exited."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--seed", "3", "--seconds", "2", "--small", *extra]
    with subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        out, err = child.communicate(timeout=300)
    proc = subprocess.CompletedProcess(cmd, child.returncode, out, err)
    expect(not left_behind(child.pid),
           f"{' '.join(extra)}: no process outlives the run "
           f"({left_behind(child.pid)})", proc)
    lines = proc.stdout.strip().splitlines()
    counters = next((ln.split(" ", 2)[1:] for ln in lines
                     if ln.startswith("counters ")), [None, "{}"])
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, counters, proc


def expect(cond: bool, what: str, proc=None) -> None:
    if not cond:
        detail = f"\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}" if proc else ""
        raise SystemExit(f"smoke: FAILED: {what}{detail}")
    print(f"smoke: ok: {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]

    for trace, workload in ((0, names[0]), (1, names[-1])):
        code, res, _c, proc = bench("--workload", workload,
                                    "--trace", str(trace))
        expect(code == 0 and res is not None and res["correct"],
               f"{workload} --trace {trace} runs clean", proc)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == declared[trace],
               f"{workload} --trace {trace} prints every declared metric "
               "with its unit", proc)
        expect(res["failed"] == 0 and res["attempted"] > 0,
               f"{workload} --trace {trace} fail_ratio is 0", proc)

    runs = [bench("--workload", names[-1]) for _ in range(2)]
    digests = [c[0] for _code, _res, c, _p in runs]
    expect(all(code == 0 for code, *_ in runs) and digests[0] is not None
           and digests[0] == digests[1],
           f"counters repeat across two runs ({digests})", runs[1][3])
    kills = [rec["kills_fired"] for rec in
             json.loads(runs[0][2][1])["service"]["recovery"]]
    expect(all(k > 0 for k in kills),
           f"{names[-1]}: planned kills fire and are checked ({kills})",
           runs[0][3])

    code, res, _c, proc = bench("--workload", names[0], "--tamper-baseline")
    expect(code != 0 and res is not None and res["failed"] > 0
           and not res["correct"],
           "a tampered baseline fails the run (fail_ratio > 0)", proc)

    bare = os.path.join(ROOT, ".perfbench-smoke")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, res, _c, proc = bench("--workload", names[0], cwd=bare)
        expect(code != 0 and res is None,
               "without the program's sources: nonzero exit, no result",
               proc)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
