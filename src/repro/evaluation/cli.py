"""``ferrum-eval``: command-line driver for the paper's experiments.

Examples::

    ferrum-eval table1
    ferrum-eval fig10 --samples 1000
    ferrum-eval fig11 --scale 2
    ferrum-eval gap --samples 300 --workloads knn needle
    ferrum-eval telemetry --technique ferrum --jsonl faults.jsonl
    ferrum-eval telemetry --technique ferrum --converge
    ferrum-eval compose --workloads knn --cache-dir .ferrum-cache
    ferrum-eval compose --workloads knn --cache-dir .ferrum-cache \\
        --reinject sq_dist
    ferrum-eval serve --state-dir runs/night --workloads bfs knn \\
        --techniques ferrum hybrid --samples 1000
    ferrum-eval resume --state-dir runs/night
    ferrum-eval all --samples 100
"""

from __future__ import annotations

import argparse
import sys

from repro.evaluation import (
    render_fig10,
    render_fig11,
    render_gap,
    render_table1,
    render_table2,
    render_transform_time,
    run_crosslayer_gap,
    run_fig10,
    run_fig11,
    run_transform_time,
)
from repro.evaluation.report import render_fig10_outcomes
from repro.workloads import workload_names


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ferrum-eval",
        description="Regenerate the FERRUM paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=["table1", "table2", "fig10", "fig11", "transform-time",
                 "gap", "telemetry", "compose", "serve", "resume", "all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument("--samples", type=int, default=200,
                        help="faults per injection campaign (paper: 1000)")
    parser.add_argument("--seed", type=int, default=2024,
                        help="campaign RNG seed")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload problem-size multiplier")
    parser.add_argument("--workloads", nargs="*", choices=workload_names(),
                        default=None, help="subset of benchmarks")
    parser.add_argument("--outcomes", action="store_true",
                        help="with fig10: also print the outcome breakdown")
    parser.add_argument("--technique",
                        choices=["raw", "ir-eddi", "hybrid", "ferrum", "dme"],
                        default="ferrum",
                        help="with telemetry: which protection variant to "
                             "inject into")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="with telemetry: stream one JSON record per "
                             "fault to PATH")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="with compose: persist per-section results to "
                             "DIR so unchanged sections are never re-run")
    parser.add_argument("--reinject", nargs="*", default=[],
                        metavar="FUNCTION",
                        help="with compose: force these functions' sections "
                             "to re-execute even on a cache hit")
    parser.add_argument("--converge", action="store_true",
                        help="with telemetry/compose/serve: convergence "
                             "early-exit — stop each masked run at the "
                             "first golden-trail boundary its divergence "
                             "cone matches (identical results, fewer "
                             "executed instructions)")
    service = parser.add_argument_group(
        "durable campaign service (serve/resume)")
    service.add_argument("--state-dir", default=None, metavar="DIR",
                         help="journal + segments + results directory "
                              "(required for serve/resume)")
    service.add_argument("--techniques", nargs="*",
                         choices=["raw", "ir-eddi", "hybrid", "ferrum",
                                  "dme"],
                         default=["ferrum"],
                         help="with serve: protection variants to campaign")
    service.add_argument("--shard-size", type=int, default=200,
                         help="with serve: fault plans per durable shard")
    service.add_argument("--workers", type=int, default=2,
                         help="supervised worker processes "
                              "(0 = in-process sequential)")
    service.add_argument("--shard-timeout", type=float, default=300.0,
                         help="wall-clock seconds before a shard's worker "
                              "is killed and the shard requeued")
    service.add_argument("--max-failures", type=int, default=3,
                         help="failures before a shard is quarantined")
    service.add_argument("--requeue-quarantined", action="store_true",
                         help="with resume: give quarantined shards a "
                              "fresh set of attempts")
    service.add_argument("--no-fsync", action="store_true",
                         help="skip fsync on journal/segment writes "
                              "(faster; unsafe against power loss)")
    return parser


def _run_service(args: argparse.Namespace) -> int:
    from repro.faultinjection.service import (
        CampaignSpec,
        ServiceConfig,
        resume_campaign,
        serve_campaign,
    )

    if args.state_dir is None:
        print("error: serve/resume require --state-dir", file=sys.stderr)
        return 2
    config = ServiceConfig(
        workers=args.workers,
        shard_timeout=args.shard_timeout,
        max_failures=args.max_failures,
        requeue_quarantined=args.requeue_quarantined,
        fsync=not args.no_fsync,
        log=print,
    )
    if args.experiment == "serve":
        spec = CampaignSpec(
            workloads=tuple(args.workloads) if args.workloads
            else tuple(workload_names()),
            techniques=tuple(args.techniques),
            samples=args.samples,
            seed=args.seed,
            scale=args.scale,
            shard_size=args.shard_size,
            converge=args.converge,
        )
        report = serve_campaign(args.state_dir, spec, config)
    else:
        report = resume_campaign(args.state_dir, config)
    print(f"shards: {report.done_shards}/{report.shards} done "
          f"({report.executed_shards} executed now, "
          f"{report.adopted_segments} adopted)")
    for unit_id, path in sorted(report.results.items()):
        aggregate = report.aggregates[unit_id]
        print(f"  {unit_id}: {aggregate.records} records -> {path}")
    if report.quarantined:
        print(f"quarantined: {', '.join(report.quarantined)} "
              f"(see quarantine/ artifacts; rerun resume "
              f"--requeue-quarantined after fixing)")
    print(f"summary: {report.summary_path}")
    return 0 if report.complete else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    workloads = tuple(args.workloads) if args.workloads else None

    if args.experiment in ("serve", "resume"):
        return _run_service(args)
    if args.experiment in ("table1", "all"):
        print(render_table1())
        print()
    if args.experiment in ("table2", "all"):
        print(render_table2())
        print()
    if args.experiment in ("fig10", "all"):
        result = run_fig10(samples=args.samples, seed=args.seed,
                           scale=args.scale, workloads=workloads)
        print(render_fig10(result))
        print()
        from repro.evaluation.figures import render_fig10_chart

        print(render_fig10_chart(result))
        if args.outcomes:
            print()
            print(render_fig10_outcomes(result))
        print()
    if args.experiment in ("fig11", "all"):
        fig11 = run_fig11(scale=args.scale, workloads=workloads)
        print(render_fig11(fig11))
        print()
        from repro.evaluation.figures import render_fig11_chart

        print(render_fig11_chart(fig11))
        print()
    if args.experiment in ("transform-time", "all"):
        print(render_transform_time(
            run_transform_time(scale=args.scale, workloads=workloads)
        ))
        print()
    if args.experiment in ("gap", "all"):
        result = run_crosslayer_gap(samples=args.samples, seed=args.seed,
                                    scale=args.scale, workloads=workloads)
        print(render_gap(result))
        if args.experiment == "all":
            print()
    if args.experiment in ("telemetry", "all"):
        from repro.evaluation.experiments import run_telemetry
        from repro.evaluation.figures import render_latency_chart
        from repro.evaluation.report import (
            render_checkpoint_stats,
            render_convergence_stats,
            render_latency_table,
            render_origin_breakdown,
            render_site_map,
        )

        workload = workloads[0] if workloads else "kmeans"
        campaign = run_telemetry(
            workload=workload, technique=args.technique,
            samples=args.samples, seed=args.seed, scale=args.scale,
            jsonl_path=args.jsonl, converge=args.converge,
        )
        records = campaign.records
        print(f"Telemetry campaign: {workload} / {args.technique} — "
              + campaign.summary())
        print()
        print(render_origin_breakdown(records))
        print()
        print(render_site_map(records))
        print()
        print(render_latency_table(records))
        print()
        print(render_latency_chart(records))
        print()
        print(render_checkpoint_stats(campaign.checkpoint_stats))
        if args.converge:
            print()
            print(render_convergence_stats(campaign.convergence_stats))
        if args.jsonl:
            print(f"Wrote {len(records)} records to {args.jsonl}")
    if args.experiment == "compose":
        from repro.evaluation.experiments import run_compose
        from repro.evaluation.report import (
            render_compose_stats,
            render_convergence_stats,
            render_origin_breakdown,
        )

        workload = workloads[0] if workloads else "kmeans"
        campaign = run_compose(
            workload=workload, technique=args.technique,
            samples=args.samples, seed=args.seed, scale=args.scale,
            cache_dir=args.cache_dir, reinject=tuple(args.reinject),
            jsonl_path=args.jsonl, converge=args.converge,
        )
        print(f"Composed campaign: {workload} / {args.technique} — "
              + campaign.summary())
        print()
        print(render_compose_stats(campaign.compose_stats))
        if args.converge:
            print()
            print(render_convergence_stats(campaign.convergence_stats))
        print()
        print(render_origin_breakdown(campaign.records))
        if args.jsonl:
            print(f"Wrote {len(campaign.records)} records "
                  f"to {args.jsonl}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
