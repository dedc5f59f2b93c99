"""``python -m repro.service`` — run one prover node as a real process.

The process announces its bound address on stdout as::

    REPRO-SERVICE LISTENING <host> <port>

(flushed immediately), which is what :class:`~repro.service.supervisor.
ProcessNodeManager` parses to learn where a ``--port 0`` node actually
landed.  With ``--snapshot`` the node restores the file at boot when it
exists and, given ``--snapshot-interval``, keeps re-persisting its
registry to the same path — so a SIGKILL at any instant loses at most
one interval of updates locally (the cluster's peer resync recovers the
rest; the snapshot write itself is atomic, see
``SessionRegistry.snapshot``).
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import os
import sys

from repro import obs
from repro.field.modular import DEFAULT_FIELD, PrimeField
from repro.service.registry import SessionRegistry
from repro.service.server import ProverServer


# The node keeps its heap.  With the datasets in arrays nothing long-lived
# sits at the top of the brk heap, so glibc trims it after every freed
# 32 KB-1 MB round temporary and faults it back in on the next: 28 minor
# faults per RANGE-SUM query at u = 2^12 without these two mallopt calls, 0
# with them (tests/test_service.py), and svc_analytic reads 497-520 q/s
# without against 611-625 with.  Raising the trim threshold switches off
# glibc's dynamic mmap threshold, hence the second: table-sized (1-8 MB)
# temporaries must keep coming from the heap.  Not configurable.
HEAP_TRIM_THRESHOLD = 1 << 30
HEAP_MMAP_THRESHOLD = 32 << 20


def keep_heap() -> None:
    """Apply the two thresholds (glibc only; silently skipped elsewhere)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, HEAP_TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
    mallopt(-3, HEAP_MMAP_THRESHOLD)  # M_MMAP_THRESHOLD


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a prover service node.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="listen address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port; 0 picks a free one (default)")
    parser.add_argument("--field-p", type=int, default=DEFAULT_FIELD.p,
                        help="prime field modulus (default 2^61 - 1)")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="registry snapshot file: restored at boot "
                             "if present, written by --snapshot-interval")
    parser.add_argument("--snapshot-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="persist the registry to --snapshot this "
                             "often (requires --snapshot)")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="admission-control cap on live sessions")
    parser.add_argument("--max-inflight-queries", type=int, default=None,
                        help="per-session cap on concurrently open queries")
    parser.add_argument("--max-universe", type=int,
                        default=SessionRegistry.DEFAULT_MAX_UNIVERSE,
                        help="largest dataset universe a HELLO may request")
    parser.add_argument("--rate-limit", type=float, nargs=2, default=None,
                        metavar=("RATE", "BURST"),
                        help="per-session token bucket (frames/sec, burst)")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="seconds a connection may sit silent")
    parser.add_argument("--node-name", default="",
                        help="observability tag stamped on this node's "
                             "spans, logs and H_STATS replies")
    parser.add_argument("--stats", type=int, default=None, metavar="PORT",
                        help="serve Prometheus-style metrics exposition "
                             "over HTTP on this port (0 picks a free one); "
                             "announced as REPRO-STATS LISTENING")
    return parser


def make_server(args: argparse.Namespace) -> ProverServer:
    field = (DEFAULT_FIELD if args.field_p == DEFAULT_FIELD.p
             else PrimeField(args.field_p))
    kwargs = dict(
        host=args.host,
        port=args.port,
        max_universe=args.max_universe,
        max_sessions=args.max_sessions,
        max_inflight_queries=args.max_inflight_queries,
        rate_limit=tuple(args.rate_limit) if args.rate_limit else None,
        idle_timeout=args.idle_timeout,
        node_name=args.node_name,
    )
    if args.snapshot and os.path.exists(args.snapshot):
        return ProverServer.from_snapshot(args.snapshot, field, **kwargs)
    return ProverServer(field, **kwargs)


async def _run(server: ProverServer, snapshot: str,
               interval: float, stats_port=None) -> None:
    await server.start()
    print("REPRO-SERVICE LISTENING %s %d" % (server.host, server.port),
          flush=True)
    if stats_port is not None:
        stats_server = await obs.start_stats_server(server.host,
                                                    stats_port)
        host, port = stats_server.sockets[0].getsockname()[:2]
        print("REPRO-STATS LISTENING %s %d" % (host, port), flush=True)
    if snapshot and interval:
        async def persist() -> None:
            while True:
                await asyncio.sleep(interval)
                # Runs between frames on the one loop: no half-applied
                # block can leak into the file.
                server.snapshot(snapshot)

        asyncio.ensure_future(persist())
    await server.serve_forever()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.snapshot_interval and not args.snapshot:
        print("--snapshot-interval requires --snapshot", file=sys.stderr)
        return 2
    if args.node_name:
        # Stamp the node id on every span and log line this process
        # emits (sinks stay env-configured: REPRO_TRACE / REPRO_LOG).
        obs.configure_tracing(node=args.node_name)
        obs.configure_logging(node=args.node_name)
    keep_heap()
    server = make_server(args)
    try:
        asyncio.run(_run(server, args.snapshot, args.snapshot_interval,
                         stats_port=args.stats))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
