"""Command-line entry point (``repro-smt``).

Examples::

    repro-smt classify                      # Tables 2-4 ILP classes
    repro-smt figure 1 --insns 10000        # regenerate Figure 1
    repro-smt figure 7 --mixes 6            # Figure 7 on 6 mixes
    repro-smt figure 3 --jobs 4 --cache     # parallel + incremental
    repro-smt stalls                        # §3 stall percentages
    repro-smt mix parser vortex --iq 64 --scheduler 2op_ooo
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.config.machine import SCHEDULER_KINDS
from repro.config.presets import paper_machine


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--insns", type=int, default=10_000,
                   help="committed instructions per thread (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="trace seed")
    p.add_argument("--mixes", type=int, default=None,
                   help="limit to the first N mixes of each table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-smt",
        description="SMT out-of-order dispatch reproduction "
                    "(Sharkey & Ponomarev, ICPP 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", choices=["1", "3", "4", "5", "6", "7", "8"])
    p.add_argument("--iq-sizes", type=int, nargs="+",
                   default=[32, 48, 64, 96, 128])
    p.add_argument("--csv", action="store_true",
                   help="emit the raw series as CSV instead of tables")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the grid (default: "
                        "$REPRO_JOBS or 1)")
    p.add_argument("--cache", action="store_true",
                   help="serve repeated grid points from the "
                        "content-addressed result cache (see docs/exec.md)")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="cache root (default: $REPRO_CACHE_DIR or "
                        "results/cache); implies --cache")
    p.add_argument("--journal", type=str, nargs="?", const="", default=None,
                   metavar="DIR",
                   help="append a crash-safe run journal per grid "
                        "(default dir: $REPRO_JOURNAL or results/journal; "
                        "see docs/robustness.md)")
    p.add_argument("--resume", action="store_true",
                   help="replay completed jobs from existing journals "
                        "instead of re-simulating them; implies --journal")
    _add_common(p)

    p = sub.add_parser("classify", help="single-thread ILP classification")
    p.add_argument("--insns", type=int, default=16_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("stalls", help="§3 all-threads-stalled statistics")
    p.add_argument("--iq", type=int, default=64)
    _add_common(p)

    p = sub.add_parser("hdi", help="§4 HDI statistics")
    p.add_argument("--iq", type=int, default=64)
    p.add_argument("--threads", type=int, default=2, choices=[2, 3, 4])
    _add_common(p)

    p = sub.add_parser("residency", help="§5 IQ residency statistics")
    p.add_argument("--iq", type=int, default=64)
    p.add_argument("--threads", type=int, default=2, choices=[2, 3, 4])
    _add_common(p)

    p = sub.add_parser("mix", help="simulate an ad-hoc mix")
    p.add_argument("benchmarks", nargs="+")
    p.add_argument("--iq", type=int, default=64)
    p.add_argument("--scheduler", choices=SCHEDULER_KINDS,
                   default="traditional")
    p.add_argument("--sanitize", action="store_true",
                   help="validate microarchitectural invariants during the "
                        "run (repro.analysis pipeline sanitizer)")
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "figure":
        from repro.exec import ExecutorConfig
        from repro.experiments.figures import FIGURE_DRIVERS
        from repro.experiments.plot import ascii_chart, to_csv
        from repro.experiments.report import render_figure

        executor = ExecutorConfig.from_env(default_cache=args.cache)
        if args.jobs is not None:
            executor = dataclasses.replace(executor, jobs=args.jobs)
        if args.cache_dir is not None:
            executor = executor.with_cache_dir(args.cache_dir)
        if args.journal is not None or args.resume:
            from repro.exec import default_journal_dir

            journal_dir = args.journal or default_journal_dir()
            executor = dataclasses.replace(
                executor, journal_dir=journal_dir, resume=args.resume
            )

        driver = FIGURE_DRIVERS[args.number]
        result = driver(
            max_insns=args.insns, seed=args.seed,
            iq_sizes=tuple(args.iq_sizes), max_mixes=args.mixes,
            progress=lambda line: print(line, file=sys.stderr),
            executor=executor,
        )
        if args.csv:
            print(to_csv(result))
        else:
            print(render_figure(result))
            if len(result.iq_sizes) > 1:
                print()
                print(ascii_chart(result))
        return 0

    if args.command == "classify":
        from repro.experiments.report import format_table
        from repro.trace.classify import classify_all

        rows = [
            (c.name, f"{c.ipc:.3f}", c.ilp_class, c.target_class,
             "ok" if c.matches_target else "MISMATCH")
            for c in classify_all(max_insns=args.insns, seed=args.seed)
        ]
        print(format_table(
            ["benchmark", "ipc", "measured", "target", "status"], rows
        ))
        return 0

    if args.command == "stalls":
        from repro.experiments.intext import dispatch_stall_stats
        from repro.experiments.report import render_dict

        stats = dispatch_stall_stats(
            iq_size=args.iq, max_insns=args.insns, seed=args.seed,
            max_mixes=args.mixes,
        )
        print(render_dict(
            f"all-threads 2OP-stalled cycle fraction @ {args.iq}-entry IQ "
            "(paper: 0.43 / 0.17 / 0.07)",
            {f"{k} threads": v for k, v in stats.items()},
        ))
        return 0

    if args.command == "hdi":
        from repro.experiments.intext import hdi_stats
        from repro.experiments.report import render_dict

        stats = hdi_stats(
            iq_size=args.iq, max_insns=args.insns, seed=args.seed,
            num_threads=args.threads, max_mixes=args.mixes,
        )
        print(render_dict(
            "HDI statistics (paper: hdi_fraction ~0.90, "
            "ndi-dependent ~0.10)",
            {
                "hdi_fraction": stats.hdi_fraction,
                "ooo_ndi_dependent_fraction":
                    stats.ooo_ndi_dependent_fraction,
                "ooo_dispatched_per_kinsn": stats.ooo_dispatched_per_kinsn,
            },
        ))
        return 0

    if args.command == "residency":
        from repro.experiments.intext import residency_stats
        from repro.experiments.report import render_dict

        stats = residency_stats(
            iq_size=args.iq, max_insns=args.insns, seed=args.seed,
            num_threads=args.threads, max_mixes=args.mixes,
        )
        print(render_dict(
            f"IQ residency @ {args.iq} entries, {args.threads} threads "
            "(paper 2T@64: 21cy traditional -> 15cy 2OP+OOO)",
            stats,
        ))
        return 0

    if args.command == "mix":
        from repro.experiments.runner import simulate_mix
        from repro.experiments.report import render_dict

        cfg = paper_machine(iq_size=args.iq, scheduler=args.scheduler,
                            sanitize=args.sanitize)
        result = simulate_mix(
            args.benchmarks, cfg, max_insns=args.insns, seed=args.seed
        )
        summary = {
            "throughput_ipc": result.throughput_ipc,
            **{
                f"ipc[{b}#{i}]": ipc
                for i, (b, ipc) in enumerate(
                    zip(result.benchmarks, result.per_thread_ipc)
                )
            },
            "cycles": result.cycles,
            "all_blocked_2op_fraction":
                result.extra("all_blocked_2op_fraction"),
            "mean_iq_residency": result.extra("mean_iq_residency"),
        }
        if args.sanitize:
            summary["sanitizer_checks"] = result.extra("sanitizer_checks")
        print(render_dict(
            f"{'+'.join(args.benchmarks)} @ {args.scheduler}/iq{args.iq}",
            summary,
        ))
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
