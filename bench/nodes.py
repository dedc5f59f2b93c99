"""Prover nodes as real ``python -m repro.service`` subprocesses.

The benchmark starts the program the way a deployment would — through its
CLI, at its defaults, with every ``REPRO_*`` knob scrubbed from the
environment — and owns the processes it starts: each runs in its own
process group and :meth:`Node.stop` kills the group and waits for it.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

ANNOUNCE = "REPRO-SERVICE LISTENING"
START_TIMEOUT = 60.0


def scrub_environment() -> List[str]:
    """Drop every REPRO_* variable from this process (children inherit
    the result); returns the names that were set."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    return dropped


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of a live process, from /proc (0.0 if gone)."""
    try:
        with open("/proc/%s/status" % (pid or "self")) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Node:
    """One prover node: started by the constructor, usable once
    :meth:`wait_ready` has read the address it announces."""

    def __init__(self, name: str):
        self.name = name
        self.peak_rss_mb = 0.0
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--host", "127.0.0.1",
             "--port", "0", "--node-name", name],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True, cwd=ROOT, start_new_session=True,
        )
        self.address: Tuple[str, int] = ("", 0)

    def wait_ready(self) -> None:
        ready, _, _ = select.select([self._proc.stdout], [], [], START_TIMEOUT)
        line = self._proc.stdout.readline() if ready else ""
        if not line.startswith(ANNOUNCE):
            raise RuntimeError(
                "node %r did not announce its port (rc=%r, said %r)"
                % (self.name, self._proc.poll(), line))
        _label, host, port = line.rsplit(None, 2)
        self.address = (host, int(port))

    def sample_rss(self) -> float:
        self.peak_rss_mb = max(self.peak_rss_mb, vm_hwm_mb(self._proc.pid))
        return self.peak_rss_mb

    def stop(self) -> None:
        """Record the node's peak RSS, kill its process group, reap it."""
        if self._proc.poll() is None:
            self.sample_rss()
            try:
                os.killpg(self._proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()


class Deployment:
    """What one workload talks to: an in-process SessionRegistry, one
    node, or three nodes behind a ClusterRouter thread (replication
    factor 2)."""

    CLUSTER_NODES = 3

    def __init__(self, transport: str):
        self.transport = transport
        self.registry = None
        self.nodes: List[Node] = []
        self.router = None
        self._peaks: Dict[str, float] = {}
        self.start()

    def start(self) -> None:
        if self.transport == "inproc":
            from repro.field.modular import DEFAULT_FIELD
            from repro.service import SessionRegistry

            self.registry = SessionRegistry(DEFAULT_FIELD)
            return
        count = self.CLUSTER_NODES if self.transport == "cluster" else 1
        try:
            for index in range(count):  # all nodes boot side by side
                self.nodes.append(Node("n%d" % index))
            for node in self.nodes:
                node.wait_ready()
            if self.transport == "cluster":
                from repro.field.modular import DEFAULT_FIELD
                from repro.service import ClusterNode, ClusterRouter

                self.router = ClusterRouter(
                    DEFAULT_FIELD,
                    [ClusterNode(n.name, *n.address) for n in self.nodes],
                    replication_factor=2,
                ).serve_in_thread()
        except BaseException:
            self.stop()
            raise

    @property
    def address(self) -> Tuple[str, int]:
        """Where clients dial: the router if there is one, else the node."""
        return self.router.address if self.router else self.nodes[0].address

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()
            self.router = None
        for node in self.nodes:
            node.stop()
            self._peaks[node.name] = max(self._peaks.get(node.name, 0.0),
                                         node.peak_rss_mb)
        self.nodes = []

    def restart(self) -> None:
        self.stop()
        self.start()

    def peak_rss_mb(self) -> float:
        """Σ over node names of the largest VmHWM any incarnation reached."""
        live = {n.name: n.sample_rss() for n in self.nodes}
        return sum(max(self._peaks.get(name, 0.0), live.get(name, 0.0))
                   for name in set(self._peaks) | set(live))
