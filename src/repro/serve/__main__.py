"""``python -m repro.serve`` — server, worker, submit, smoke.

Usage::

    python -m repro.serve server --port 8742 --cache-dir results/cache \\
        --journal-dir results/journal

    python -m repro.serve worker --connect http://host:8742 --slots 2

    python -m repro.serve submit --server http://host:8742 \\
        --threads 2 --schedulers traditional,2op_ooo --iq-sizes 8,16

    python -m repro.serve drain --server http://host:8742

    python -m repro.serve smoke --workers 2       # golden-match check

``smoke`` is the distributed analogue of ``python -m repro.exec
chaos-smoke``: it runs a small grid on a single host (the golden), then
cold and warm through a loopback cluster, and fails unless the cluster
results are byte-identical to the golden and the warm re-submission
simulates nothing. ``REPRO_CHAOS`` (including the ``net_*`` knobs)
applies to the cluster run, making this a one-command fault drill.

The server drains gracefully on SIGTERM (or ``drain``/the
``POST /v1/admin/drain`` endpoint): in-flight jobs get ``--drain-grace``
seconds to finish, the rest are journalled as ``interrupted``, and a
restarted server resumes them with zero re-simulation. See
"Drain, health and retry" in docs/distributed.md.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.exec.chaos import ChaosConfig
from repro.exec.pool import ExecutorConfig, execute_jobs


def _cmd_server(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.server import SweepServer

    server = SweepServer(
        host=args.host, port=args.port,
        cache_dir=args.cache_dir, journal_dir=args.journal_dir,
        retries=args.retries,
        timeout=args.timeout, heartbeat_grace=args.heartbeat_grace,
        chaos=ChaosConfig.from_env(),
        rotate_bytes=args.rotate_bytes,
        drain_grace=args.drain_grace,
    )

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        stopped = asyncio.Event()

        async def _drain_and_stop() -> None:
            summary = await server.drain()
            print(f"drained: {summary['finished']} job(s) finished, "
                  f"{summary['interrupted']} journalled as interrupted "
                  f"(resume by resubmitting against the same journal)")
            stopped.set()

        def _on_sigterm() -> None:
            # SIGTERM = graceful drain: finish in-flight work against
            # the grace deadline, journal the rest, then exit.
            if server.state == "serving":
                asyncio.ensure_future(_drain_and_stop())

        try:
            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        except (NotImplementedError, RuntimeError):  # repro: noqa[RPR007] — no signal support on this platform/thread; SIGTERM drain is then simply unavailable, ^C still works
            pass
        port = await server.start()
        print(f"sweep server listening on http://{args.host}:{port} "
              f"(cache={args.cache_dir or 'off'}, "
              f"journal={args.journal_dir or 'off'})")
        assert server._server is not None
        async with server._server:
            forever = asyncio.ensure_future(
                server._server.serve_forever())
            waiter = asyncio.ensure_future(stopped.wait())
            await asyncio.wait({forever, waiter},
                               return_when=asyncio.FIRST_COMPLETED)
            forever.cancel()
            waiter.cancel()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # repro: noqa[RPR007] — Ctrl-C is the
        pass                   # server's hard-stop path (SIGTERM drains)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.serve.worker import run_worker

    run_worker(args.connect, slots=args.slots, name=args.name,
               chaos=ChaosConfig.from_env())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import SweepClient

    client = SweepClient(args.server)
    grid = {
        "profile": args.profile,
        "threads": args.threads,
        "schedulers": args.schedulers.split(","),
        "iq_sizes": [int(q) for q in args.iq_sizes.split(",")],
        "max_insns": args.insns,
        "seed": args.seed,
    }
    reply = client.submit({"grid": grid})
    sweep_id = reply["sweep"]
    print(f"sweep {sweep_id}: {reply['total']} job(s), "
          f"status {reply['status']}"
          f"{' (attached to in-flight run)' if reply['attached'] else ''}")
    for event in client.stream_events(sweep_id):
        kind = event.get("event")
        if kind in ("cached", "resumed", "simulated", "failed"):
            print(f"  [{event['completed']}/{event['total']}] "
                  f"{kind}: {event['job'][:16]}")
    _, report = client.fetch_results(sweep_id)
    print(f"done: {report.simulated} simulated, {report.cached} cached, "
          f"{report.resumed} resumed, {report.failed} failed, "
          f"{report.retried} retried")
    return 1 if report.failed else 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from repro.serve.client import SweepClient

    client = SweepClient(args.server)
    summary = client.drain(args.grace)
    print(f"drained: {summary['finished']} job(s) finished, "
          f"{summary['interrupted']} journalled as interrupted")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    """Golden-match smoke across a loopback cluster (cold + warm)."""
    from repro.config.presets import small_machine
    from repro.exec.jobs import jobs_for_grid
    from repro.serve.client import SweepClient
    from repro.serve.cluster import LocalCluster
    from repro.workloads.mixes import TWO_THREAD_MIXES

    keyed = jobs_for_grid(
        TWO_THREAD_MIXES[:2], small_machine(),
        ("traditional", "2op_ooo"), (8, 16), args.insns, 0,
    )
    jobs = [job for _, job in keyed]
    golden, _ = execute_jobs(jobs, ExecutorConfig(jobs=1))

    chaos = ChaosConfig.from_env()
    with tempfile.TemporaryDirectory() as cache_dir, \
            tempfile.TemporaryDirectory() as journal_dir, \
            LocalCluster(
                workers=args.workers, cache_dir=cache_dir,
                journal_dir=journal_dir,
                # A dropped dispatch frame is only recovered by the
                # per-job deadline, so keep it tight: smoke jobs run in
                # well under a second each.
                retries=8, timeout=10.0, heartbeat_grace=2.0,
                chaos=chaos, respawn=chaos is not None,
            ) as cluster:
        client = SweepClient(cluster.url)
        cold, cold_report = client.execute(jobs)
        warm, warm_report = client.execute(jobs)

    if [p.result for p in cold] != [p.result for p in golden]:
        print("serve smoke FAILED: cluster results differ from the "
              "single-host golden run", file=sys.stderr)
        return 1
    if [p.result for p in warm] != [p.result for p in golden]:
        print("serve smoke FAILED: warm re-submission results differ "
              "from the golden run", file=sys.stderr)
        return 1
    if warm_report.simulated != 0:
        print(f"serve smoke FAILED: warm re-submission simulated "
              f"{warm_report.simulated} job(s); expected 0",
              file=sys.stderr)
        return 1
    faults = ""
    if chaos is not None:
        faults = (f" under chaos (seed={chaos.seed}, "
                  f"kill={chaos.kill_p:g}, net_drop={chaos.net_drop_p:g}, "
                  f"net_dup={chaos.net_dup_p:g}, "
                  f"net_delay={chaos.net_delay_p:g})")
    print(
        f"ok: {cold_report.total}-point grid on {args.workers} "
        f"worker(s){faults} — cold run simulated "
        f"{cold_report.simulated} ({cold_report.retried} retried), "
        f"warm re-submission simulated 0, both byte-identical to the "
        "single-host golden run"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="distributed sweep service "
                    "(see docs/distributed.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("server", help="run the sweep server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8742)
    p.add_argument("--cache-dir", default=None,
                   help="shared result-cache root (off when omitted)")
    p.add_argument("--journal-dir", default=None,
                   help="run-journal root (off when omitted; required "
                        "for resume)")
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-job deadline before re-dispatch, seconds")
    p.add_argument("--heartbeat-grace", type=float, default=5.0)
    p.add_argument("--rotate-bytes", type=int, default=4 * 1024 * 1024,
                   help="journal size-rotation threshold")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="seconds in-flight jobs get to finish on "
                        "drain/SIGTERM before being journalled as "
                        "interrupted")

    p = sub.add_parser("worker", help="attach a worker agent")
    p.add_argument("--connect", required=True,
                   help="server URL, e.g. http://host:8742")
    p.add_argument("--slots", type=int, default=1,
                   help="concurrent jobs this worker runs")
    p.add_argument("--name", default=None)

    p = sub.add_parser("submit", help="submit a grid and stream "
                                      "progress")
    p.add_argument("--server", required=True)
    p.add_argument("--profile", choices=["paper", "small", "tiny"],
                   default="small")
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--schedulers", default="traditional,2op_ooo")
    p.add_argument("--iq-sizes", default="8,16")
    p.add_argument("--insns", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("drain", help="gracefully drain a server")
    p.add_argument("--server", required=True)
    p.add_argument("--grace", type=float, default=None,
                   help="override the server's drain grace, seconds")

    p = sub.add_parser(
        "smoke",
        help="assert a loopback-cluster sweep matches the single-host "
             "golden run (cold and warm)",
    )
    p.add_argument("--insns", type=int, default=400)
    p.add_argument("--workers", type=int, default=2)

    args = parser.parse_args(argv)
    if args.command == "server":
        return _cmd_server(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "drain":
        return _cmd_drain(args)
    return _cmd_smoke(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
