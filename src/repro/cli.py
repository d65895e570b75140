"""Command-line interface: ``python -m repro <artifact>``.

Regenerates any paper artifact from the shell::

    python -m repro table3
    python -m repro figure4 --patterns scatter --sizes 8,64,512
    python -m repro --jobs 8 figure4
    python -m repro figure5 --ports 64
    python -m repro compare --ports 64 --out benchmarks/results/compare_bakeoff.md
    python -m repro ablations --only a1,a4
    python -m repro faults --rates 0,1,4 --schemes dynamic-tdm,preload
    python -m repro multihop --bytes 512 --hops 1,2,4,8
    python -m repro trace figure4 --format chrome -o fig4.json
    python -m repro cache stats
    python -m repro schemes
    python -m repro soak --seconds 10 --seed 7
    python -m repro serve --port 7521

``--ports`` scales the system (the paper uses 128; smaller is faster),
``--seed`` changes the workload realisation, ``--csv`` switches figure
output to machine-readable CSV.  Sweeps fan out over ``--jobs`` worker
processes (default: every core; also ``$REPRO_JOBS``) and reuse cached
cell results from ``~/.cache/repro`` (``$REPRO_CACHE_DIR``); output is
bit-identical for any job count and cache state.  ``--no-cache`` runs
cold, ``--refresh`` recomputes and overwrites, ``--exec-stats`` prints
the executor telemetry to stderr.

Single-crossbar TDM runs always apply provably quiescent stretches of
slot and SL ticks in closed form, and circuit runs evaluate their SL
passes with the vectorised wavefront (:mod:`repro.sim.fastpath`; the old
``--fast`` flag is gone).  ``REPRO_STRICT=1`` runs every tick through the
event heap instead, with extra invariant checks: it is the reference,
and its output is byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .experiments.ablations import ABLATIONS, run_ablations
from .experiments.common import DEFAULT_SEED
from .experiments.compare import COMPARE_SCHEMES, COMPARE_SIZES, run_compare
from .experiments.faults import FAULT_RATES, run_faults
from .experiments.figure4 import MESSAGE_SIZES, run_figure4
from .experiments.figure5 import DETERMINISM_SWEEP, run_figure5
from .experiments.loadlatency import LOADS, run_load_latency
from .experiments.reporting import run_all
from .experiments.scaleout import (
    SCALEOUT_ENDPOINTS,
    SCALEOUT_SCHEMES,
    run_scaleout,
)
from .experiments.table3 import format_table3
from .metrics.report import format_table
from .networks.multihop import MultiHopModel
from .params import PAPER_PARAMS, SystemParams

__all__ = ["main"]


def _params(args: argparse.Namespace) -> SystemParams:
    return PAPER_PARAMS.with_overrides(n_ports=args.ports)


def _exec_opts(args: argparse.Namespace) -> dict:
    """The engine knobs every sweep subcommand forwards to map_cells."""
    return dict(
        jobs=args.jobs,
        cache=not args.no_cache,
        refresh=args.refresh,
        progress=sys.stderr.isatty(),
    )


def _emit_exec_stats(args: argparse.Namespace, *stats) -> None:
    if not args.exec_stats:
        return
    from .obs import format_exec_stats

    for s in stats:
        if s is not None:
            print(format_exec_stats(s), file=sys.stderr)


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _cmd_table3(args: argparse.Namespace) -> int:
    print(format_table3())
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    from .networks.registry import get_scheme, scheme_names

    rows = []
    for name in scheme_names():
        info = get_scheme(name)
        caps = info.capabilities
        feats = []
        if caps.tdm_modes:
            feats.append("tdm(" + ",".join(caps.tdm_modes) + ")")
        if caps.request_plane:
            feats.append("request-plane")
        if caps.fault_recovery:
            feats.append("fault-recovery")
        if caps.injection_window:
            feats.append("injection-window")
        if caps.preload:
            feats.append("preload")
        if caps.multi_switch:
            feats.append("multi-switch")
        rows.append(
            [
                name,
                ", ".join(info.aliases) if info.aliases else "-",
                " ".join(feats) if feats else "-",
                caps.description,
            ]
        )
    print(
        format_table(
            ["scheme", "aliases", "capabilities", "description"],
            rows,
            title="Registered switching schemes",
        )
    )
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    sizes = tuple(int(s) for s in _csv_list(args.sizes)) if args.sizes else MESSAGE_SIZES
    patterns = tuple(_csv_list(args.patterns)) if args.patterns else None
    schemes = tuple(_csv_list(args.schemes)) if args.schemes else None
    result = run_figure4(
        params=_params(args),
        sizes=sizes,
        patterns=patterns,
        schemes=schemes,
        seed=args.seed,
        **_exec_opts(args),
    )
    _emit_exec_stats(args, result.exec_stats)
    if args.csv:
        for pattern in result.series:
            print(f"# {pattern}")
            print(result.csv(pattern))
    else:
        print(result.format())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    sizes = (
        tuple(int(s) for s in _csv_list(args.sizes)) if args.sizes else COMPARE_SIZES
    )
    patterns = tuple(_csv_list(args.patterns)) if args.patterns else None
    schemes = tuple(_csv_list(args.schemes)) if args.schemes else None
    result = run_compare(
        params=_params(args),
        sizes=sizes,
        patterns=patterns,
        schemes=schemes,
        k=args.k,
        seed=args.seed,
        **_exec_opts(args),
    )
    _emit_exec_stats(args, result.exec_stats)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(result.markdown(), encoding="utf-8")
        print(f"wrote bake-off report ({len(result.points)} cells) to {args.out}")
    if args.csv:
        print(result.csv(), end="")
    elif not args.out:
        print(result.format())
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    determinism = (
        tuple(float(d) for d in _csv_list(args.determinism))
        if args.determinism
        else DETERMINISM_SWEEP
    )
    result = run_figure5(
        params=_params(args),
        determinism=determinism,
        messages_per_node=args.messages,
        seed=args.seed,
        **_exec_opts(args),
    )
    _emit_exec_stats(args, result.exec_stats)
    print(result.csv() if args.csv else result.format())
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    rates = (
        tuple(float(r) for r in _csv_list(args.rates)) if args.rates else FAULT_RATES
    )
    schemes = tuple(_csv_list(args.schemes)) if args.schemes else None
    result = run_faults(
        params=_params(args),
        rates=rates,
        schemes=schemes,
        size_bytes=args.bytes,
        messages_per_node=args.messages,
        seed=args.seed,
        **_exec_opts(args),
    )
    _emit_exec_stats(args, result.healthy_exec_stats, result.exec_stats)
    print(result.csv() if args.csv else result.format())
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    wanted = _csv_list(args.only) if args.only else list(ABLATIONS)
    for key in wanted:
        if key not in ABLATIONS:
            print(f"unknown ablation {key!r}; choose from {sorted(ABLATIONS)}")
            return 2
    data, stats = run_ablations(
        wanted, params=_params(args), seed=args.seed, **_exec_opts(args)
    )
    _emit_exec_stats(args, stats)
    for key in wanted:
        title = ABLATIONS[key][0]
        rows = [[k, v] for k, v in data[key].items()]
        print(format_table(["setting", "value"], rows, title=f"{key.upper()} — {title}"))
    return 0


def _cmd_load_latency(args: argparse.Namespace) -> int:
    loads = (
        tuple(float(x) for x in _csv_list(args.loads)) if args.loads else LOADS
    )
    result = run_load_latency(
        params=_params(args),
        loads=loads,
        size_bytes=args.bytes,
        duration_ns=args.duration_ns,
        seed=args.seed,
        **_exec_opts(args),
    )
    _emit_exec_stats(args, result.exec_stats)
    print(result.csv() if args.csv else result.format())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    stats: list = []
    text = run_all(
        params=_params(args),
        quick=args.quick,
        seed=args.seed,
        stats_sink=stats,
        **_exec_opts(args),
    )
    _emit_exec_stats(args, *stats)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .exec import ResultCache

    store = ResultCache(args.dir)
    if args.action == "stats":
        s = store.stats()
        print(
            format_table(
                ["metric", "value"],
                [
                    ["directory", s.root],
                    ["entries", s.entries],
                    ["size (KiB)", round(s.total_bytes / 1024, 1)],
                    ["compute saved (s)", round(s.saved_wall_s, 2)],
                ],
                title="Result cache",
            )
        )
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
    else:
        ok, bad = store.verify()
        print(f"{ok} entries verified in {store.root}")
        if bad:
            for path in bad:
                print(f"corrupt: {path}")
            return 1
    return 0


def _cmd_scaleout(args: argparse.Namespace) -> int:
    schemes = (
        tuple(_csv_list(args.schemes)) if args.schemes else SCALEOUT_SCHEMES
    )
    endpoints = (
        tuple(int(n) for n in _csv_list(args.endpoints))
        if args.endpoints
        else SCALEOUT_ENDPOINTS
    )
    result = run_scaleout(
        params=PAPER_PARAMS,  # n_ports comes from the endpoint counts
        schemes=schemes,
        endpoints=endpoints,
        messages_per_endpoint=args.messages,
        size_bytes=args.bytes,
        seed=args.seed,
        faults=not args.no_faults,
        **_exec_opts(args),
    )
    _emit_exec_stats(args, result.exec_stats)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.csv())
        print(f"wrote {len(result.points)} rows to {args.out}")
    if args.csv:
        print(result.csv(), end="")
    elif not args.out:
        print(result.format())
    return 0


def _cmd_multihop(args: argparse.Namespace) -> int:
    hops = tuple(int(h) for h in _csv_list(args.hops))
    model = MultiHopModel(_params(args), msg_bytes=args.bytes, k=args.k)
    rows = model.sweep(hops)
    print(
        format_table(
            ["hops", "TDM 1st (ns)", "TDM cached (ns)", "wormhole (ns)",
             "TDM eff", "worm eff", "worm buffers (B)"],
            [
                [r.hops, round(r.tdm_first_message_ns, 1),
                 round(r.tdm_cached_message_ns, 1),
                 round(r.wormhole_message_ns, 1),
                 round(r.tdm_stream_efficiency, 3),
                 round(r.wormhole_stream_efficiency, 3),
                 r.wormhole_buffer_bytes]
                for r in rows
            ],
            title=f"Multi-hop comparison ({args.bytes}-byte messages)",
        )
    )
    return 0


#: experiments ``repro trace`` can instrument (figure4 = its random-mesh panel)
_TRACE_EXPERIMENTS = ("figure4", "scatter", "random-mesh", "ordered-mesh", "two-phase")

_TRACE_EXTENSIONS = {"chrome": "json", "jsonl": "jsonl", "csv": "csv"}


def _cmd_trace(args: argparse.Namespace) -> int:
    from .experiments.common import FIGURE4_SCHEMES
    from .experiments.figure4 import figure4_patterns
    from .networks.registry import RunSpec, build_network
    from .obs import (
        TracedRun,
        profile_run,
        to_chrome_trace,
        to_csv,
        to_jsonl,
        utilization_report,
    )
    from .sim.rng import RngStreams
    from .sim.trace import Tracer

    params = _params(args)
    pattern_name = "random-mesh" if args.experiment == "figure4" else args.experiment
    wanted = _csv_list(args.schemes) if args.schemes else list(FIGURE4_SCHEMES)
    for name in wanted:
        if name not in FIGURE4_SCHEMES:
            print(f"unknown scheme {name!r}; choose from {sorted(FIGURE4_SCHEMES)}")
            return 2
    runs: list[TracedRun] = []
    for name in wanted:
        tracer = Tracer(capacity=args.capacity)
        net = build_network(RunSpec(name, params, tracer=tracer))
        # every scheme sees a byte-identical workload realisation
        pattern = figure4_patterns(params)[pattern_name](args.bytes)
        phases = pattern.phases(RngStreams(args.seed))
        result, report = profile_run(
            lambda: net.run(phases, pattern.name),
            label=name,
            with_cprofile=args.profile,
        )
        report.perf.update(net.sim.perf_counters())
        events = list(tracer.events())
        runs.append(TracedRun(name, events, dict(result.counters)))
        print(
            f"{name}: {len(events)} events traced "
            f"({tracer.dropped} overwritten), makespan "
            f"{result.makespan_ps / 1000:.1f} ns"
        )
        if args.profile:
            print(report.format())
        if args.utilization:
            print(utilization_report(events, params.slot_ps, label=name))
    out = args.output or f"trace_{args.experiment}.{_TRACE_EXTENSIONS[args.format]}"
    if args.format == "chrome":
        counts = to_chrome_trace(runs, out)
        print(
            f"wrote {out}: {counts['spans']} spans + {counts['instants']} "
            f"instants across {counts['runs']} processes "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
    elif args.format == "jsonl":
        n = to_jsonl(runs, out)
        print(f"wrote {out}: {n} events")
    else:
        n = to_csv(runs, out)
        print(f"wrote {out}: {n} rows")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .service import SoakConfig, run_soak

    cfg = SoakConfig(
        seed=args.seed,
        seconds=args.seconds,
        n_ports=args.soak_ports,
        k=args.k,
        scheme=args.scheme,
        fault_rate_per_us=args.fault_rate,
        availability_floor=args.floor,
        out_dir=args.out,
        trace=args.trace,
        max_wall_s=args.max_wall_s,
    )
    report = run_soak(cfg)
    print(report.summary())
    if cfg.out_dir is not None:
        print(f"  artifacts in {cfg.out_dir}/ (slo.jsonl, report.json"
              + (", soak-trace.json)" if cfg.trace else ")"))
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .params import SystemParams
    from .service import ServiceConfig, ServiceDaemon, SwitchService

    cfg = ServiceConfig(
        scheme=args.scheme,
        k=args.k,
        bucket_rate_per_s=args.bucket_rate,
        queue_depth=args.queue_depth,
    )
    service = SwitchService(cfg, SystemParams(n_ports=args.soak_ports))
    daemon = ServiceDaemon(
        service,
        host=args.host,
        port=args.port,
        us_per_wall_s=args.pace,
    )

    async def _run() -> None:
        await daemon.start()
        print(
            f"repro service on {daemon.host}:{daemon.port} "
            f"({cfg.scheme}, k={cfg.k}, {args.soak_ports} ports, "
            f"{daemon.us_per_wall_s:g} virtual us per wall second); Ctrl-C stops"
        )
        await daemon._stopping.wait()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nservice stopped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from 'Switch Design to Enable "
        "Predictive Multiplexed Switching in Multiprocessor Networks' (IPPS 2005)",
        epilog="Single-crossbar TDM runs skip provably quiescent slot and SL "
        "ticks by default (there is no --fast flag). Set REPRO_STRICT=1 to "
        "run every tick with invariant checks: the byte-identical reference.",
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument("--ports", type=int, default=128, help="system size (default 128)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    # the engine knobs are accepted both before and after the subcommand
    # (the parent parser uses SUPPRESS so a subcommand-position flag wins
    # and an absent one does not clobber the top-level value)
    parser.set_defaults(jobs=None, no_cache=False, refresh=False, exec_stats=False)
    exec_flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for p in (parser, exec_flags):
        p.add_argument(
            "--jobs",
            type=int,
            help="worker processes for sweeps (default: $REPRO_JOBS or all "
            "cores); output is bit-identical for any value",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="do not read or write the result cache",
        )
        p.add_argument(
            "--refresh",
            action="store_true",
            help="recompute every cell and overwrite its cache entry",
        )
        p.add_argument(
            "--exec-stats",
            action="store_true",
            help="print executor telemetry (cells run/cached, speedup) to stderr",
        )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table3", help="scheduler latency vs system size").set_defaults(
        fn=_cmd_table3
    )

    sub.add_parser(
        "schemes", help="list registered switching schemes and their capabilities"
    ).set_defaults(fn=_cmd_schemes)

    f4 = sub.add_parser(
        "figure4",
        help="pattern x scheme x size efficiency sweep",
        parents=[exec_flags],
    )
    f4.add_argument("--sizes", help="comma-separated byte sizes (default: paper sweep)")
    f4.add_argument("--patterns", help="scatter,random-mesh,ordered-mesh,two-phase")
    f4.add_argument("--schemes", help="wormhole,circuit,dynamic-tdm,preload")
    f4.add_argument("--csv", action="store_true", help="CSV output")
    f4.set_defaults(fn=_cmd_figure4)

    cp = sub.add_parser(
        "compare",
        help="scheduler bake-off: every discipline x pattern x size, ranked",
        parents=[exec_flags],
    )
    cp.add_argument(
        "--sizes",
        help="comma-separated byte sizes "
        f"(default {','.join(str(s) for s in COMPARE_SIZES)})",
    )
    cp.add_argument("--patterns", help="scatter,random-mesh,ordered-mesh,two-phase")
    cp.add_argument(
        "--schemes",
        help=f"comma-separated disciplines (default {','.join(COMPARE_SCHEMES)})",
    )
    cp.add_argument("--k", type=int, default=4, help="multiplexing degree (default 4)")
    cp.add_argument("--out", help="write the ranked markdown report to this path")
    cp.add_argument("--csv", action="store_true", help="CSV output (one row per cell)")
    cp.set_defaults(fn=_cmd_compare)

    f5 = sub.add_parser(
        "figure5",
        help="hybrid preload vs determinism sweep",
        parents=[exec_flags],
    )
    f5.add_argument("--determinism", help="comma-separated fractions (default: paper sweep)")
    f5.add_argument("--messages", type=int, default=64, help="messages per node")
    f5.add_argument("--csv", action="store_true", help="CSV output")
    f5.set_defaults(fn=_cmd_figure5)

    fl = sub.add_parser(
        "faults",
        help="fault-injection campaigns (rate x scheme)",
        parents=[exec_flags],
    )
    fl.add_argument("--rates", help="comma-separated faults/us (default sweep)")
    fl.add_argument("--schemes", help="wormhole,circuit,dynamic-tdm,preload")
    fl.add_argument("--bytes", type=int, default=512, help="message size")
    fl.add_argument("--messages", type=int, default=8, help="messages per node")
    fl.add_argument("--csv", action="store_true", help="CSV output")
    fl.set_defaults(fn=_cmd_faults)

    ab = sub.add_parser(
        "ablations",
        help="design-choice ablations (a1-a6, a8-a12)",
        parents=[exec_flags],
    )
    ab.add_argument("--only", help="subset, e.g. a1,a4")
    ab.set_defaults(fn=_cmd_ablations)

    ll = sub.add_parser(
        "load-latency",
        help="load vs latency curves (extension L1)",
        parents=[exec_flags],
    )
    ll.add_argument("--loads", help="comma-separated offered loads (default sweep)")
    ll.add_argument("--bytes", type=int, default=128, help="message size")
    ll.add_argument("--duration-ns", type=float, default=10_000.0, help="injection window")
    ll.add_argument("--csv", action="store_true", help="CSV output")
    ll.set_defaults(fn=_cmd_load_latency)

    rp = sub.add_parser(
        "report",
        help="regenerate every artifact as one markdown report",
        parents=[exec_flags],
    )
    rp.add_argument("--quick", action="store_true", help="reduced grid for smoke tests")
    rp.add_argument("--output", help="write to this file instead of stdout")
    rp.set_defaults(fn=_cmd_report)

    tr = sub.add_parser("trace", help="run an experiment traced and export a timeline")
    tr.add_argument(
        "experiment",
        choices=_TRACE_EXPERIMENTS,
        help="what to trace (figure4 = its random-mesh panel)",
    )
    tr.add_argument(
        "--format",
        choices=sorted(_TRACE_EXTENSIONS),
        default="chrome",
        help="export format (default: chrome, for chrome://tracing / Perfetto)",
    )
    tr.add_argument("-o", "--output", help="output file (default: trace_<experiment>.<ext>)")
    tr.add_argument("--bytes", type=int, default=512, help="message size")
    tr.add_argument("--schemes", help="wormhole,circuit,dynamic-tdm,preload")
    tr.add_argument(
        "--capacity", type=int, default=1 << 20, help="tracer ring-buffer capacity"
    )
    tr.add_argument(
        "--profile", action="store_true", help="perf counters + cProfile hotspots"
    )
    tr.add_argument(
        "--utilization", action="store_true", help="print slot/port utilization report"
    )
    tr.set_defaults(fn=_cmd_trace)

    ca = sub.add_parser("cache", help="inspect or clear the result cache")
    ca.add_argument(
        "action",
        choices=("stats", "clear", "verify"),
        help="stats: entry count/footprint; clear: delete entries; "
        "verify: re-hash every entry",
    )
    ca.add_argument("--dir", help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    ca.set_defaults(fn=_cmd_cache)

    sk = sub.add_parser(
        "soak",
        help="seeded chaos soak: faults + overload bursts, invariants at exit",
    )
    # --seed works in subcommand position too (SUPPRESS: absent keeps top-level)
    sk.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="campaign seed")
    sk.add_argument(
        "--seconds", type=float, default=10.0,
        help="campaign length in soak seconds (each simulates 200 us of fabric time)",
    )
    sk.add_argument("--soak-ports", type=int, default=16, help="fabric size (default 16)")
    sk.add_argument("--k", type=int, default=4, help="multiplexing degree")
    sk.add_argument("--scheme", default="hybrid", help="dynamic-tdm, preload, or hybrid")
    sk.add_argument(
        "--fault-rate", type=float, default=0.02, help="faults per virtual us (0 = calm)"
    )
    sk.add_argument(
        "--floor", type=float, default=0.55, help="availability floor asserted at exit"
    )
    sk.add_argument("--out", help="write slo.jsonl + report.json to this directory")
    sk.add_argument("--trace", action="store_true", help="also export a Perfetto timeline")
    sk.add_argument(
        "--max-wall-s", type=float, default=120.0,
        help="wall-clock safety valve (never affects results)",
    )
    sk.set_defaults(fn=_cmd_soak)

    sv = sub.add_parser(
        "serve", help="run the switching service as a line-JSON TCP daemon"
    )
    sv.add_argument("--host", default="127.0.0.1", help="bind address")
    sv.add_argument("--port", type=int, default=7521, help="TCP port (0 = ephemeral)")
    sv.add_argument("--soak-ports", type=int, default=16, help="fabric size (default 16)")
    sv.add_argument("--k", type=int, default=4, help="multiplexing degree")
    sv.add_argument("--scheme", default="hybrid", help="dynamic-tdm, preload, or hybrid")
    sv.add_argument(
        "--bucket-rate", type=float, default=0.0,
        help="admission token-bucket rate per virtual second (0 = unlimited)",
    )
    sv.add_argument("--queue-depth", type=int, default=16, help="per-port queue bound")
    sv.add_argument(
        "--pace", type=float, default=200.0,
        help="virtual microseconds simulated per wall-clock second",
    )
    sv.set_defaults(fn=_cmd_serve)

    so = sub.add_parser(
        "scaleout",
        parents=[exec_flags],
        help="multi-switch TDM sweep: 256-1024 endpoints over mesh/fat-tree",
    )
    so.add_argument(
        "--schemes",
        help=f"comma-separated composite schemes (default {','.join(SCALEOUT_SCHEMES)})",
    )
    so.add_argument(
        "--endpoints",
        help="comma-separated endpoint counts "
        f"(default {','.join(str(n) for n in SCALEOUT_ENDPOINTS)})",
    )
    so.add_argument(
        "--messages", type=int, default=4, help="messages per endpoint (default 4)"
    )
    so.add_argument("--bytes", type=int, default=256, help="message size (default 256)")
    so.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the seeded per-hop trunk-fault campaign cells",
    )
    so.add_argument("--out", help="write the CSV to this path")
    so.add_argument("--csv", action="store_true", help="CSV output")
    so.set_defaults(fn=_cmd_scaleout)

    mh = sub.add_parser("multihop", help="multi-hop TDM vs wormhole model (A7)")
    mh.add_argument("--bytes", type=int, default=512, help="message size")
    mh.add_argument("--hops", default="1,2,4,8", help="comma-separated hop counts")
    mh.add_argument("--k", type=int, default=4, help="multiplexing degree")
    mh.set_defaults(fn=_cmd_multihop)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
