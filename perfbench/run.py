"""Modyn benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload criteo_online --seed 1 --seconds 15 --trace 0

Workloads: ``criteo_online``, ``cloc_online``, ``selection_pipeline``
(see ``workloads.py``). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (``layers.py``).
The last line of standard output is the result as one JSON object.

The run itself happens in ``worker.py``, started in a session of its
own. That session also holds the Spark JVM and Spark's Python workers;
when the worker has exited, every process left in the session is
stopped and waited for, so a run leaves nothing behind.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 160
REAP_TIMEOUT_S = 15


def _session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # after the command name: state, ppid, pgrp, session, ...
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _reap(sid: int) -> None:
    """Stop every process left in session ``sid`` and wait until none is."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    sig = signal.SIGTERM
    while members := _session_members(sid):
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for pid in members:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        _reap(proc.pid)
        proc.communicate()
        return 1
    finally:
        _reap(proc.pid)
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write("\n".join(lines) + "\n")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
