"""service_fig7: the fig7 matrix through a ``repro-serve`` subprocess.

A fresh server with two workers runs the quarter-scale fig7 cells cold
into an empty cache directory; a restarted server then gets the same
submission warm and must serve every cell from that cache.  There is
no preemption: signal timing would make the runs unsteady.

Host times are taken client-side, as a user of the service sees them:
each cell from its ``cell_started`` to its ``cell_done`` event, the job
from submit to ``job_done``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from harness import ROOT, program_env

WORKERS = 2
#: Seconds a server gets to come up, and to finish a job.
START_TIMEOUT = 60.0
JOB_TIMEOUT = 150.0


class Server:
    """One ``repro-serve start`` subprocess, always stopped on exit."""

    def __init__(self, socket_path: str, cache_dir: Path, log: Path):
        from repro.service.client import ServiceClient

        env = program_env()
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        self._log = open(log, "ab")
        started = time.perf_counter()
        # The socket path stays relative to the checkout root: absolute
        # paths of deep checkouts overflow the 108-byte sun_path limit.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "start",
             "--socket", socket_path, "--workers", str(WORKERS)],
            cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            # Own process group, so a failed shutdown can take the
            # workers down with the server.
            start_new_session=True,
        )
        self.client = ServiceClient(socket_path, timeout=JOB_TIMEOUT)
        try:
            self._wait_workers(started)
        except BaseException:
            self.stop()
            raise
        #: Spawn to every worker ready (the workload's ``setup_s``).
        self.ready_s = time.perf_counter() - started

    def _wait_workers(self, started: float) -> None:
        from repro.errors import ServiceError

        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro-serve exited with {self.proc.returncode}"
                )
            try:
                workers = self.client.status()["workers"]
                if len(workers) == WORKERS and all(w["idle"] for w in workers):
                    return
            except ServiceError:
                pass  # socket not bound yet
            if time.perf_counter() - started > START_TIMEOUT:
                raise RuntimeError("repro-serve workers never became ready")
            time.sleep(0.005)

    def stop(self) -> None:
        """Ask for a clean shutdown; kill the process group if it fails."""
        from repro.errors import ServiceError

        try:
            if self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=30)
        except (ServiceError, OSError, subprocess.TimeoutExpired):
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        finally:
            self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class JobRun:
    """One submission as the client saw it."""

    wall: float
    summary: dict
    #: Cell key -> client-observed cell_started -> cell_done seconds.
    cell_times: Dict[str, float] = field(default_factory=dict)
    #: Cell key -> worker-reported execution seconds.
    worker_wall: Dict[str, float] = field(default_factory=dict)
    #: Worker cell_done -> the same worker's next cell_started, seconds.
    dispatch_gaps: List[float] = field(default_factory=list)
    failed: Dict[str, str] = field(default_factory=dict)


def run_job(server: Server, params: dict) -> JobRun:
    """Submit the fig7 matrix and follow its event stream to job_done."""
    client = server.client
    started = time.perf_counter()
    job = client.submit(matrix="fig7", params=params)["job"]
    began: Dict[str, float] = {}
    last_done: Dict[int, float] = {}
    run = JobRun(wall=0.0, summary={})
    for event in client.watch(job):
        now = time.perf_counter()
        kind = event.get("event")
        if kind == "cell_started":
            began[event["key"]] = now
            worker = event["worker"]
            if worker in last_done:
                run.dispatch_gaps.append(now - last_done.pop(worker))
        elif kind == "cell_done":
            key = event["key"]
            if key in began:
                run.cell_times[key] = now - began[key]
            if event.get("wall") is not None:
                run.worker_wall[key] = event["wall"]
            if event.get("worker") is not None:
                last_done[event["worker"]] = now
        elif kind == "cell_failed":
            run.failed[event["key"]] = event.get("error", "failed")
        elif kind == "job_done":
            run.wall = now - started
            run.summary = event
    if not run.summary:
        raise RuntimeError(f"job {job} stream ended without job_done")
    return run


@dataclass
class Cycle:
    """One cold job on a fresh cache, then its warm resubmission."""

    cold: JobRun
    warm: JobRun
    cache_dir: Path
    #: Cell key -> (stats, core) as the server stored it (None if absent).
    stored: Dict[str, Optional[tuple]]


def run_cycle(cells, params: dict, socket_path: str, cache_dir: Path,
              log: Path, setups: List[float]) -> Cycle:
    """Cold job on a fresh server, warm job on a restarted one.

    Each server's spawn-to-ready time is appended to ``setups``.
    """
    with Server(socket_path, cache_dir, log) as server:
        setups.append(server.ready_s)
        cold = run_job(server, params)
    with Server(socket_path, cache_dir, log) as server:
        setups.append(server.ready_s)
        warm = run_job(server, params)
    return Cycle(cold, warm, cache_dir, cached_results(cells, cache_dir))


def cached_results(cells, cache_dir: Path) -> Dict[str, Optional[tuple]]:
    """Each cell's (stats, core) as the service stored it, by cell key."""
    from repro.experiments import runner

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        return {
            key: runner.cache_load(key)
            for key in (runner.cell_key(*cell) for cell in cells)
        }
    finally:
        if previous is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
