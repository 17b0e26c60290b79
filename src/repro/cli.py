"""``slackvm`` command-line interface.

Exposes the library's main workflows without writing Python:

* ``slackvm tables`` — print the catalog analysis (Tables I & II);
* ``slackvm generate`` — write a workload trace (JSON Lines);
* ``slackvm size`` — minimal-cluster sizing for a trace file;
* ``slackvm evaluate`` — dedicated-vs-SlackVM comparison for one mix;
* ``slackvm sweep`` — Figures 3 & 4 for a provider, optionally sharded
  over a process pool (``--workers``) with JSONL checkpointing and
  resume (``--out`` / ``--resume``); results are bit-identical for any
  worker count;
* ``slackvm shard`` — one workload through the sharded dispatcher
  (N vector-engine shards in worker processes), with optional
  inline-vs-pool byte-identity verification and speedup reporting;
* ``slackvm serve`` — the asyncio online placement service on virtual
  time: open-loop seeded traffic through a bounded admission queue
  into controller shard(s), emitting a JSON SLO report (placement
  latency p50/p99, queue depth, timeout and rejection rates);
* ``slackvm testbed`` — the Table IV / Fig. 2 isolation experiment;
* ``slackvm audit`` — differential replay of one workload through both
  engines (object + vectorized), reporting the first divergence and
  dumping decision records + metrics as JSON;
* ``slackvm lint`` — the ``repro.devtools.lint`` static analysis
  (everything after ``lint`` is handed to it verbatim).

Every subcommand is deterministic given ``--seed``.  The same CLI is
installed both as ``slackvm`` and as ``repro`` (and runs via
``python -m repro``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import (
    render_fig2,
    render_fig3,
    render_fig4,
    render_table1,
    render_table2,
    render_table4,
    table1_row,
    table2_row,
)
from repro.api import (
    RunSpec,
    build_config,
    build_machines,
    build_simulation,
    build_workload,
    evaluate,
)
from repro.core.errors import ReproError
from repro.hardware import SIM_WORKER, MachineSpec
from repro.runner import SweepSpec, derive_seeds, run_sweep
from repro.simulator import KERNELS, POLICIES, demand_lower_bound, minimal_cluster
from repro.workload import (
    DISTRIBUTIONS,
    PROVIDERS,
    load_trace,
    peak_population,
    save_trace,
)

__all__ = ["main", "build_parser"]


def _machine(text: str) -> MachineSpec:
    """Parse ``CPUS:MEM_GB`` (e.g. ``32:128``) into a machine spec."""
    try:
        cpus, mem = text.split(":")
        return MachineSpec(name="cli-pm", cpus=int(cpus), mem_gb=float(mem))
    except (ValueError, ReproError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected CPUS:MEM_GB (e.g. 32:128), got {text!r}: {exc}"
        ) from exc


def _mix(text: str):
    """Parse ``--mix``: a paper letter A-O or ``S1,S2,S3`` percent shares."""
    if text.upper() in DISTRIBUTIONS:
        return text.upper()
    try:
        s1, s2, s3 = (float(x) for x in text.split(","))
        return (s1, s2, s3)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid mix {text!r}: use a letter A-O or 'S1,S2,S3' shares"
        ) from None


#: The :class:`RunSpec`-shaped flags, declared once as ``flag: (spec
#: field, argparse options)``.  A subcommand takes the ones it needs,
#: with its own defaults, through ``_add_spec_args``; ``_run_spec``
#: maps whichever it took back onto spec fields.
_SPEC_FLAGS = {
    "provider": ("provider", dict(
        choices=sorted(PROVIDERS), help="provider catalog (default %(default)s)")),
    "mix": ("mix", dict(
        type=_mix,
        help=f"level mix, one of {'/'.join(DISTRIBUTIONS)} or S1,S2,S3 "
             "percent shares (default %(default)s)")),
    "population": ("target_population", dict(
        type=int, help="target concurrent VMs (default %(default)s)")),
    "seed": ("seed", dict(type=int, help="workload seed (default %(default)s)")),
    "hosts": ("num_hosts", dict(
        type=int,
        help="cluster size; 0 (default) auto-sizes from the demand lower "
             "bound with 15%% headroom")),
    "machine": (None, dict(
        type=_machine, help="host spec as CPUS:MEM_GB (default 32:128)")),
    "policy": ("policy", dict(
        choices=POLICIES, help="scheduling policy (default %(default)s)")),
    "kernel": ("kernel", dict(
        choices=KERNELS, help="placement kernel (default %(default)s)")),
    "shards": ("shards", dict(
        type=int, help="dispatcher shards; 1 is unsharded (default %(default)s)")),
    "router": ("router", dict(
        help="shard routing policy: hash or score (default %(default)s)")),
}


def _add_spec_args(parser: argparse.ArgumentParser, **defaults) -> None:
    """Add the shared flags named by ``defaults`` (flag name -> default)."""
    for flag, default in defaults.items():
        parser.add_argument(f"--{flag}", default=default, **_SPEC_FLAGS[flag][1])


def _run_spec(args: argparse.Namespace, **overrides) -> RunSpec:
    """The one ``args -> RunSpec`` mapping: every shared flag the
    subcommand declared, then ``overrides``."""
    given = vars(args)
    fields = {
        field: given[flag]
        for flag, (field, _) in _SPEC_FLAGS.items()
        if field is not None and flag in given
    }
    if "machine" in given:
        fields.update(host_cpus=args.machine.cpus, host_mem_gb=args.machine.mem_gb)
    return RunSpec(**{**fields, **overrides})


def _seeds(args: argparse.Namespace) -> tuple[int, ...]:
    """``--seed`` literally, or ``--num-seeds`` spawned from it."""
    if args.num_seeds > 1:
        return derive_seeds(args.seed, args.num_seeds)
    return (args.seed,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slackvm",
        description="SlackVM reproduction: pack VMs across oversubscription levels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print the catalog analysis (Tables I & II)")

    gen = sub.add_parser("generate", help="generate a workload trace (JSONL)")
    _add_spec_args(gen, provider="ovhcloud", mix="F", population=500, seed=0)
    gen.add_argument("-o", "--output", required=True, help="output trace path")

    size = sub.add_parser("size", help="size a minimal cluster for a trace")
    size.add_argument("trace", help="JSONL trace file")
    _add_spec_args(size, policy="progress", machine=SIM_WORKER)

    ev = sub.add_parser("evaluate",
                        help="compare dedicated clusters vs SlackVM for one mix")
    _add_spec_args(ev, provider="ovhcloud", mix="F", population=500, seed=42,
                   policy="progress", kernel="incremental", shards=1,
                   router="hash", machine=SIM_WORKER)

    sweep = sub.add_parser("sweep", help="run the Fig. 3/4 sweep for a provider")
    _add_spec_args(sweep, provider="ovhcloud", population=250, seed=42,
                   kernel="incremental", shards=1, router="hash")
    sweep.add_argument("--num-seeds", type=int, default=1,
                       help="average Fig. 4 over this many seeds derived "
                            "from --seed via SeedSequence.spawn (default 1: "
                            "use --seed literally)")
    sweep.add_argument("--mixes", default=None,
                       help="comma-separated mix subset (letters A-O, "
                            "'S1,S2,S3' triples need 'label:S1,S2,S3'); "
                            "default: all 15 distributions")
    sweep.add_argument("--workers", type=int, default=1,
                       help="shard cells over this many processes "
                            "(results are bit-identical for any count)")
    sweep.add_argument("--out", default=None,
                       help="JSONL checkpoint path; completed cells are "
                            "appended as they finish")
    sweep.add_argument("--resume", action="store_true",
                       help="skip cells already completed in --out "
                            "(failed cells are retried)")

    ov = sub.add_parser(
        "oversub",
        help="compare dynamic-oversubscription strategies "
             "(packing gain vs violation risk on a scarce cluster)",
    )
    _add_spec_args(ov, provider="azure", population=120, seed=42,
                   policy="progress", kernel="incremental", machine=SIM_WORKER)
    ov.add_argument("--strategies", default="static,percentile,doa,greedy",
                    help="comma-separated strategy subset "
                         "(static, percentile, doa, greedy)")
    ov.add_argument("--mixes", default="F",
                    help="comma-separated mixes (letters A-O or "
                         "'label:S1,S2,S3' triples)")
    ov.add_argument("--num-seeds", type=int, default=1,
                    help="run this many seeds derived from --seed "
                         "(default 1: use --seed literally)")
    ov.add_argument("--scarcity", type=float, default=0.5,
                    help="cluster size as a fraction of the workload's "
                         "demand lower bound (default 0.5: scarce)")
    ov.add_argument("--update-every", type=float, default=3600.0,
                    help="estimator update period, seconds (default 3600)")
    ov.add_argument("-o", "--out", default=None,
                    help="write the per-cell results as JSON")

    sh = sub.add_parser(
        "shard",
        help="run one workload through the sharded dispatcher "
             "(N vector-engine shards in worker processes)",
    )
    _add_spec_args(sh, provider="azure", mix="F", population=500, seed=42,
                   hosts=0, machine=SIM_WORKER, policy="progress",
                   kernel="incremental", shards=4, router="hash")
    sh.add_argument("--workers", type=int, default=0,
                    help="worker processes (default 0: one per shard; "
                         "1 runs every shard inline)")
    sh.add_argument("--trace", default=None,
                    help="replay a JSONL trace instead of generating one")
    sh.add_argument("--checkpoint", default=None,
                    help="JSONL shard checkpoint path")
    sh.add_argument("--resume", action="store_true",
                    help="skip shards already completed in --checkpoint")
    sh.add_argument("--verify", action="store_true",
                    help="re-run every shard inline (workers=1) and fail "
                         "unless the merged streams are byte-identical; "
                         "reports the pool-vs-inline speedup")
    sh.add_argument("--baseline", action="store_true",
                    help="also run the unsharded single-process engine "
                         "and report the sharded speedup over it")

    sv = sub.add_parser(
        "serve",
        help="run the online placement service on virtual time "
             "(open-loop traffic, bounded queue, SLO report)",
    )
    _add_spec_args(sv, provider="azure", mix="F", seed=0, machine=SIM_WORKER,
                   policy="progress", shards=1)
    sv.add_argument("--duration", type=float, default=30.0,
                    help="admission window, virtual seconds (default 30)")
    sv.add_argument("--rate", type=float, default=50.0,
                    help="mean arrival rate, requests per virtual second "
                         "(default 50)")
    sv.add_argument("--hosts", type=int, default=0,
                    help="fleet size; 0 auto-sizes from Little's law "
                         "(rate x mean lifetime at the catalog's mean "
                         "footprint, default)")
    sv.add_argument("--queue-bound", type=int, default=64,
                    help="admission queue bound; arrivals beyond it are "
                         "rejected (default 64)")
    sv.add_argument("--timeout", type=float, default=5.0,
                    help="request timeout, virtual seconds (default 5)")
    sv.add_argument("--mean-lifetime", type=float, default=20.0,
                    help="mean VM lifetime, virtual seconds (default 20)")
    sv.add_argument("--service-mean", type=float, default=0.005,
                    help="mean per-decision scheduler service time, "
                         "virtual seconds (default 0.005)")
    sv.add_argument("--diurnal", type=float, default=0.0,
                    help="diurnal rate-modulation amplitude in [0,1) "
                         "(default 0: flat)")
    sv.add_argument("--report", default=None,
                    help="write the JSON SLO report (includes the "
                         "decision log) to this path")

    tb = sub.add_parser("testbed",
                        help="run the Table IV / Fig. 2 isolation experiment")
    tb.add_argument("--duration", type=float, default=1800.0)
    tb.add_argument("--seed", type=int, default=2024)

    au = sub.add_parser(
        "audit",
        help="replay one workload through both engines and diff their "
             "placement decisions event-by-event",
    )
    _add_spec_args(au, policy="progress", provider="ovhcloud", mix="F", seed=7,
                   machine=SIM_WORKER)
    au.add_argument("--vms", dest="population", type=int, default=500,
                    help="target concurrent VMs of the generated workload")
    au.add_argument("--pms", dest="hosts", type=int, default=0,
                    help="cluster size; 0 sizes it from the demand lower "
                         "bound with 15%% headroom")
    au.add_argument("-o", "--output", default="slackvm_audit.json",
                    help="JSON dump path (metrics + decision records)")
    au.add_argument("--no-decisions", action="store_true",
                    help="omit the per-arrival decision records from the dump")

    sub.add_parser(
        "lint", add_help=False,
        help="determinism & simulation-safety static analysis "
             "(rules R001-R006; options: `lint --help`)",
    )
    return parser


def _split_mixes(text: str) -> tuple[str, ...]:
    """Split a ``--mixes`` list on commas.

    A ``label:S1`` token takes the next two tokens as its ``S2,S3``;
    a bare triple in a list is three (invalid) entries — it needs the
    ``label:`` form to say where it ends.
    """
    tokens = [t for t in text.split(",") if t]
    mixes = []
    while tokens:
        take = 3 if ":" in tokens[0] else 1
        mixes.append(",".join(tokens[:take]))
        del tokens[:take]
    return tuple(mixes)


def _cmd_tables(_args) -> None:
    t1 = {name: (r.mean_vcpus, r.mean_mem_gb)
          for name, r in ((n, table1_row(c)) for n, c in PROVIDERS.items())}
    print("Table I — mean vCPU & vRAM per VM")
    print(render_table1(t1))
    print()
    t2 = {name: table2_row(cat).ratios for name, cat in PROVIDERS.items()}
    print("Table II — M/C ratio per oversubscription level (GB/core)")
    print(render_table2(t2))


def _cmd_generate(args) -> None:
    workload = build_workload(_run_spec(args))
    save_trace(workload, args.output)
    print(f"wrote {len(workload)} VM lifecycles to {args.output} "
          f"(peak population {peak_population(workload)})")


def _cmd_size(args) -> None:
    workload = load_trace(args.trace)
    print(f"loaded {len(workload)} VM lifecycles "
          f"(peak population {peak_population(workload)})")
    lb = demand_lower_bound(workload, args.machine)
    sized = minimal_cluster(workload, args.machine, policy=args.policy)
    print(f"machine: {args.machine.cpus} CPUs / {args.machine.mem_gb:g} GB "
          f"(target ratio {args.machine.target_ratio:g})")
    print(f"lower bound: {lb} PMs")
    print(f"minimal cluster ({args.policy}): {sized.pms} PMs "
          f"({len(sized.probes)} probe simulations)")


def _cmd_evaluate(args) -> None:
    outcome = evaluate(_run_spec(args, workers=1))
    s1, s2, s3 = outcome.mix
    print(f"provider {outcome.provider}, mix {s1:g}/{s2:g}/{s3:g} "
          f"(1:1/2:1/3:1), {args.population} target VMs, seed {args.seed}")
    for ratio, pms in sorted(outcome.baseline_pms_per_level.items()):
        print(f"  dedicated {ratio:g}:1 cluster : {pms} PMs")
    print(f"  baseline total          : {outcome.baseline_pms} PMs")
    print(f"  SlackVM shared cluster  : {outcome.slackvm_pms} PMs")
    print(f"  savings                 : {outcome.savings_percent:.1f}%")


def _cmd_sweep(args) -> None:
    if args.resume and not args.out:
        raise SystemExit("--resume requires --out")
    spec = SweepSpec(
        providers=(args.provider,),
        mixes=_split_mixes(args.mixes) if args.mixes else tuple(DISTRIBUTIONS),
        seeds=_seeds(args),
        target_population=args.population,
        kernel=args.kernel,
        shards=args.shards,
        router=args.router,
    )
    progress = (lambda line: print(line, file=sys.stderr)) if args.workers > 1 else None
    sweep = run_sweep(spec, workers=args.workers, out=args.out,
                      resume=args.resume, progress=progress)
    if args.out:
        print(f"checkpoint: {args.out} ({len(sweep.executed)} cells run, "
              f"{len(sweep.skipped)} resumed, {sweep.elapsed_s:.1f}s "
              f"at {args.workers} worker(s))", file=sys.stderr)
    fig3, fig4 = sweep.fig3(), sweep.fig4()  # raise on a failed cell first
    print(f"Figure 3 — unallocated resources ({args.provider})")
    print(render_fig3(fig3))
    print()
    print(f"Figure 4 — PM savings % ({args.provider})")
    print(render_fig4(fig4, mixes=dict(spec.resolved_mixes)))


def _cmd_oversub(args) -> None:
    from repro.oversub.evaluate import OversubSweepSpec, run_oversub_sweep

    spec = OversubSweepSpec.from_run_spec(
        _run_spec(args, oversub_update_every=args.update_every),
        strategies=tuple(s for s in args.strategies.split(",") if s),
        mixes=_split_mixes(args.mixes),
        seeds=_seeds(args),
        scarcity=args.scarcity,
    )
    result = run_oversub_sweep(spec)
    print(f"Dynamic oversubscription — packing gain vs violation risk "
          f"({args.provider}, scarcity {args.scarcity:g})")
    print(result.table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dicts(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(result.cells)} cells to {args.out}", file=sys.stderr)


def _cmd_shard(args) -> int:
    from time import perf_counter

    from repro.simulator.conformance import result_stream

    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    spec = _run_spec(args, workers=args.workers)
    workload = load_trace(args.trace) if args.trace else build_workload(spec)
    machines = build_machines(spec, workload)
    config = build_config(spec, workload)

    def timed(run_spec, checkpoint=None, resume=False):
        sim = build_simulation(run_spec, machines, config=config)
        if checkpoint is not None:
            sim.checkpoint = checkpoint
            sim.resume = resume
        t0 = perf_counter()
        result = sim.run(list(workload))
        return result, perf_counter() - t0

    print(f"{len(workload)} VM lifecycles on {len(machines)} hosts "
          f"({args.machine.cpus} CPUs / {args.machine.mem_gb:g} GB), "
          f"{spec.shards} shard(s) via {spec.router} routing, "
          f"kernel {spec.kernel}")
    result, wall = timed(spec, checkpoint=args.checkpoint, resume=args.resume)
    events = len(result.timeline.times)
    print(f"sharded : {events} events in {wall:.2f}s "
          f"({events / wall:.0f} ev/s), {len(result.placements)} placed, "
          f"{len(result.rejections)} rejected, "
          f"{result.pooled_placements} pooled")

    rc = 0
    if args.verify:
        serial, serial_wall = timed(spec.replace(workers=1))
        identical = result_stream(serial) == result_stream(result)
        print(f"inline  : {events / serial_wall:.0f} ev/s "
              f"({serial_wall:.2f}s); streams "
              f"{'byte-identical' if identical else 'DIVERGED'}; "
              f"pool speedup {serial_wall / wall:.2f}x")
        if not identical:
            rc = 1
    if args.baseline:
        base, base_wall = timed(spec.replace(shards=1, workers=1))
        print(f"unsharded baseline: {len(base.timeline.times)} events in "
              f"{base_wall:.2f}s ({len(base.timeline.times) / base_wall:.0f} "
              f"ev/s); sharded speedup {base_wall / wall:.2f}x")
    return rc


def _cmd_serve(args) -> int:
    from repro.serving import ServiceSpec, serve

    spec = ServiceSpec(
        provider=args.provider,
        mix=args.mix,
        rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        mean_lifetime=args.mean_lifetime,
        diurnal_amplitude=args.diurnal,
        num_hosts=args.hosts,
        host_cpus=args.machine.cpus,
        host_mem_gb=args.machine.mem_gb,
        shards=args.shards,
        policy=args.policy,
        queue_bound=args.queue_bound,
        timeout_s=args.timeout,
        service_mean=args.service_mean,
    )
    report = serve(spec)
    print(report.summary())
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote SLO report to {args.report}")
    return 0


def _cmd_testbed(args) -> None:
    from repro.perfmodel import TestbedParams, run_testbed

    result = run_testbed(TestbedParams(duration=args.duration, seed=args.seed))
    print("Table IV — median p90 response times")
    print(render_table4(result.table4()))
    print()
    print("Figure 2 — p90 quartiles (ms)")
    print(render_fig2({
        "baseline": {k: v.quartiles_ms() for k, v in result.baseline.items()},
        "slackvm": {k: v.quartiles_ms() for k, v in result.slackvm.items()},
    }))


def _cmd_audit(args) -> int:
    from repro.obs.audit import audit_workload

    spec = _run_spec(args)
    workload = build_workload(spec)
    machines = build_machines(spec, workload)
    print(f"replaying {len(workload)} VM lifecycles "
          f"(peak population {peak_population(workload)}) on {len(machines)} PMs "
          f"(lower bound {demand_lower_bound(workload, args.machine)})")
    report = audit_workload(workload, machines, policy=args.policy)
    print(report.summary())
    payload = report.to_dict(include_decisions=not args.no_decisions)
    Path(args.output).write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"wrote metrics/decision dump to {args.output}")
    return 0 if report.ok else 1


_COMMANDS = {
    "tables": _cmd_tables,
    "generate": _cmd_generate,
    "size": _cmd_size,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "oversub": _cmd_oversub,
    "shard": _cmd_shard,
    "serve": _cmd_serve,
    "testbed": _cmd_testbed,
    "audit": _cmd_audit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.devtools.lint import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        rc = _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return rc or 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
