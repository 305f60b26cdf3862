"""``python -m repro.exec`` — cache maintenance and the chaos smoke.

Usage::

    python -m repro.exec cache stats            # entries, corrupt, per kind
    python -m repro.exec cache verify           # integrity-sweep + quarantine
    python -m repro.exec cache clear            # drop entries, quarantine,
                                                # traces/ and warm/
    python -m repro.exec cache stats --dir X    # non-default root

    python -m repro.exec chaos-smoke            # chaos run == fault-free run
    REPRO_CHAOS="kill=0.3,corrupt=0.5,seed=7" python -m repro.exec chaos-smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.exec.cache import ResultCache, default_cache_dir
from repro.exec.chaos import ChaosConfig
from repro.exec.pool import ExecutionError, ExecutorConfig, execute_jobs


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"root:    {stats.root}")
        print(f"entries: {stats.entries}")
        print(f"bytes:   {stats.total_bytes}")
        print(f"corrupt: {stats.corrupt}")
        for kind, entries, size in stats.by_kind:
            print(f"kind {kind}: {entries} entr"
                  f"{'y' if entries == 1 else 'ies'}, {size} bytes")
        print(f"hits:    {stats.hits} (over {stats.runs} recorded run"
              f"{'' if stats.runs == 1 else 's'})")
        print(f"misses:  {stats.misses}")
        return 0
    if args.action == "verify":
        report = cache.verify()
        print(f"checked:     {report.checked}")
        print(f"ok:          {report.ok}")
        print(f"stale:       {report.stale}")
        print(f"quarantined: {report.quarantined}")
        return 1 if report.quarantined else 0
    removed = cache.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.root}")
    return 0


def _cmd_chaos_smoke(args: argparse.Namespace) -> int:
    """Golden-match smoke: a chaotic sweep must equal a fault-free one.

    The fault-free golden grid runs serially with no cache; the chaotic
    run gets worker kills/hangs, delivery faults and cache corruption
    (from ``REPRO_CHAOS`` when set, else a built-in default policy) on
    a worker farm with a tight watchdog. Any numerical difference is a
    robustness bug and fails CI.
    """
    from repro.config.presets import small_machine
    from repro.exec.jobs import jobs_for_grid
    from repro.workloads.mixes import TWO_THREAD_MIXES

    keyed = jobs_for_grid(
        TWO_THREAD_MIXES[:2], small_machine(),
        ("traditional", "2op_ooo"), (8, 16), args.insns, 0,
    )
    jobs = [job for _, job in keyed]

    golden, _ = execute_jobs(jobs, ExecutorConfig(jobs=1))

    chaos = ChaosConfig.from_env()
    if chaos is None:
        chaos = ChaosConfig(seed=7, kill_p=0.3, hang_p=0.05,
                            corrupt_p=0.5, delay_p=0.2, dup_p=0.2)
    with tempfile.TemporaryDirectory() as cache_dir, \
            tempfile.TemporaryDirectory() as journal_dir:
        executor = ExecutorConfig(
            jobs=2, cache_dir=cache_dir, journal_dir=journal_dir,
            retries=8, timeout=120.0, watchdog=1.0, chaos=chaos,
        )
        try:
            chaotic, report = execute_jobs(jobs, executor)
            # Warm rerun: reads back the (possibly corrupted) cache, so
            # quarantine + recompute is exercised too.
            warm, warm_report = execute_jobs(jobs, executor)
        except ExecutionError as exc:
            print(f"chaos smoke FAILED to complete:\n{exc}",
                  file=sys.stderr)
            return 1
        corrupt = ResultCache(cache_dir).stats().corrupt
    if (
        [p.result for p in chaotic] != [p.result for p in golden]
        or [p.result for p in warm] != [p.result for p in golden]
    ):
        print("chaos smoke FAILED: results differ from fault-free run",
              file=sys.stderr)
        return 1
    print(
        f"ok: {report.total}-point grid under chaos "
        f"(seed={chaos.seed}, kill={chaos.kill_p:g}, "
        f"hang={chaos.hang_p:g}, corrupt={chaos.corrupt_p:g}) — "
        f"{report.retried} faulty attempt(s) retried; warm rerun served "
        f"{warm_report.cached} from cache, quarantined {corrupt} corrupt "
        "entr(ies), recomputed the rest; results byte-identical"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="grid-execution maintenance: result cache, chaos "
                    "smoke (see docs/exec.md, docs/robustness.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cache", help="inspect, verify or clear the "
                                     "result cache")
    p.add_argument("action", choices=["stats", "verify", "clear"])
    p.add_argument("--dir", type=str, default=None,
                   help=f"cache root (default: {default_cache_dir()})")

    p = sub.add_parser(
        "chaos-smoke",
        help="assert a chaotic sweep matches the fault-free golden run",
    )
    p.add_argument("--insns", type=int, default=400,
                   help="instructions per thread in the smoke grid")

    args = parser.parse_args(argv)
    if args.command == "cache":
        return _cmd_cache(args)
    return _cmd_chaos_smoke(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
