"""Command-line interface: the paper's released host-generation tool.

Subcommands
-----------
``trace``     synthesise a SETI@home-like trace and write it to CSV(.gz)
``fit``       fit model parameters from a trace file (JSON out)
``generate``  generate hosts for a date from Table X or fitted parameters
``fleet``     stream/shard a large fleet through the engine's reducers;
              carries five sub-modes: ``fleet summary`` (one-pass stats,
              optionally ``--quantiles`` sketch medians), ``fleet export``
              (sharded segment + manifest writer; ``--checkpoint-every N``
              switches to the resumable per-block layout, ``--resume``
              finishes an interrupted run, and ``--backend distributed``
              runs the coordinator/worker backend over local pool
              slots and/or attached ``fleet serve-worker`` endpoints),
              ``fleet compact`` (merge block segments back into the
              per-shard layout), ``fleet verify`` (re-hash an export
              against its manifest), ``fleet validate`` (the statistical
              probe suite), ``fleet scenario`` (list/run/compare the
              declarative scenario registry through the same engine
              paths), ``fleet chaos`` (run an export under a declarative
              fault plan and require byte-identical recovery) and
              ``fleet serve-worker`` (serve this machine as a
              distributed worker).  Plain ``fleet [flags]`` remains the
              PR-1 summary behaviour.
``predict``   print the Figs 13/14 forecasts and §VI-C scalar predictions
``validate``  fit on a trace, generate for Sep 2010, print Fig 12 comparison
``simulate``  run the Fig 15 utility experiment on a trace

Examples
--------
::

    resmodel generate --date 2010-09-01 --hosts 1000
    resmodel fleet summary --size 1000000 --shards 4 --quantiles
    resmodel fleet export --size 1000000 --shards 4 --out-dir fleet/
    resmodel fleet export --size 1000000 --out-dir fleet/ --checkpoint-every 8
    resmodel fleet export --resume --out-dir fleet/
    resmodel fleet export --size 1000000 --out-dir fleet/ \
        --backend distributed --workers 4
    resmodel fleet serve-worker --port 7070
    resmodel fleet chaos --plan examples/faults/io-plan.json \
        --out-dir chaos/ --size 20000 --runs 2
    resmodel fleet export --size 20000 --out-dir fleet/ --checkpoint-every 2 \
        --fault-spec 'writer.block.write:kind=torn-write,after=3'
    resmodel fleet compact fleet/manifest.json --out-dir compact/ --shards 4
    resmodel fleet verify fleet/manifest.json
    resmodel fleet scenario list
    resmodel fleet scenario run availability --size 50000 --shards 2
    resmodel fleet scenario run bandwidth --out-dir links/ \
        --backend distributed --workers 2
    resmodel fleet scenario compare lifetimes --shards 1 2 4
    resmodel trace --scale 0.01 --out trace.csv.gz
    resmodel fit --trace trace.csv.gz --out params.json
    resmodel predict --year 2014
    resmodel simulate --trace trace.csv.gz
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.core.generator import CorrelatedHostGenerator
from repro.core.parameters import ModelParameters
from repro.core.prediction import (
    predict_core_fractions,
    predict_memory_fractions,
    predict_scalars,
)
from repro.timeutil import parse_date, year_fraction


class _UsageError(Exception):
    """A usage error found after argument parsing; :func:`main` prints its
    one line and exits 2."""


def _load_parameters(path: "str | None", command: str) -> ModelParameters:
    """The ``--params`` model (Table X without one).  A file that cannot
    be read, is not JSON, or lacks or mistypes a field is a
    :class:`_UsageError` naming ``command`` and the path."""
    if path is None:
        return ModelParameters.paper_reference()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ModelParameters.from_json(handle.read())
    except OSError as error:
        problem = error.strerror or error
    except KeyError as error:
        problem = f"missing field {error}"
    except (AttributeError, TypeError, ValueError) as error:
        problem = error  # not JSON (json.JSONDecodeError), or a mistyped field
    raise _UsageError(f"{command}: --params {path}: {problem}")


# The host CSV header and row writer live in repro.engine.writer (shared
# with the sharded export, so `generate`, `fleet --out` and `fleet export`
# emit identical bytes) and are imported lazily inside the commands that
# write CSV, keeping engine/multiprocessing out of unrelated startups.


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.engine.writer import HOST_CSV_HEADER, write_population_csv

    problem = _check_fleet_ints(args, "generate")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    params = _load_parameters(args.params, "generate")
    generator = CorrelatedHostGenerator(params)
    when = year_fraction(parse_date(args.date))
    rng = np.random.default_rng(args.seed)
    population = generator.generate(when, args.hosts, rng)
    sys.stdout.write(HOST_CSV_HEADER)
    write_population_csv(population, sys.stdout)
    if args.summary:
        sys.stderr.write(population.summary_table() + "\n")
    return 0


def _check_fleet_ints(
    args: argparse.Namespace, command: str = "fleet"
) -> "str | None":
    """Clear error message for an out-of-range option value (else None).

    The one validation path every command shares — the ``fleet``
    sub-modes *and* the legacy ``trace``/``predict``/``validate``/
    ``simulate``/``generate`` commands — so new flags cannot invent a
    divergent policy: positive integers (``--shards``, ``--chunk-size``,
    ``--lease-blocks``, ``--lease-depth``, ``--max-jobs``, ``--hosts``
    and friends), non-negative integers (``--size``,
    ``--checkpoint-every``, ``--workers``, every ``--seed``), positive
    floats (``--scale``, ``--year``), the TCP port range (``--port``;
    0 asks the OS for an ephemeral port) and ``--date`` (checked before
    anything is written).  Options absent from the invoked command's
    namespace are skipped; argparse itself already rejects non-numeric
    garbage with the same exit status 2.
    """
    positive = (
        ("shards", "--shards"),
        ("chunk_size", "--chunk-size"),
        ("lease_blocks", "--lease-blocks"),
        ("lease_depth", "--lease-depth"),
        ("max_jobs", "--max-jobs"),
        ("hosts", "--hosts"),
        ("drain_after", "--drain-after"),
        ("runs", "--runs"),
        ("validate_size", "--size"),  # fleet validate: a fleet of >= 1 host
    )
    non_negative = (
        ("size", "--size"),
        ("max_repairs", "--max-repairs"),
        ("checkpoint_every", "--checkpoint-every"),
        ("workers", "--workers"),
        ("seed", "--seed"),
        ("validate_seed", "--seed"),
    )
    positive_floats = (
        ("scale", "--scale"),
        ("year", "--year"),
    )
    for attr, flag in positive:
        value = getattr(args, attr, None)
        if value is not None and value <= 0:
            return f"{command}: {flag} must be a positive integer (got {value})"
    for attr, flag in non_negative:
        value = getattr(args, attr, None)
        if value is not None and value < 0:
            return f"{command}: {flag} must be non-negative (got {value})"
    for attr, flag in positive_floats:
        value = getattr(args, attr, None)
        if value is not None and value <= 0:
            return f"{command}: {flag} must be positive (got {value})"
    port = getattr(args, "port", None)
    if port is not None and not 0 <= port <= 65535:
        return f"{command}: --port must be in [0, 65535] (got {port})"
    for attr in ("date", "validate_date"):
        value = getattr(args, attr, None)
        try:
            if value is not None:
                year_fraction(parse_date(value))
        except (ValueError, OverflowError):
            return f"{command}: --date must be YYYY-MM-DD or a year (got {value!r})"
    return None


def _check_export_flags(args: argparse.Namespace, command: str) -> "str | None":
    """The usage error (exit 2) in the export flags, else None.

    ``fleet export`` and ``fleet scenario run`` take the same flags and
    share this check.  A resume reads its layout and backend from the
    plan, so it takes the transport flags whatever ``--backend`` says.
    """
    if args.out_dir is None:  # a scenario summary
        if (
            args.checkpoint_every or args.resume or args.force or args.fault_spec
            or args.connect or args.token_file or args.metrics
            or args.backend != "local" or args.format != "csv"
            or args.lease_depth != 1
        ):
            return (
                f"{command}: --backend, --checkpoint-every, --resume, --force, "
                "--fault-spec and the other export flags shape exports; "
                "pass --out-dir"
            )
        return None
    problem = None
    # A resume may find a distributed plan; no plan is read here.
    if args.workers == 0 and not args.connect and (
        args.backend == "distributed" or args.resume
    ):
        problem = (
            "distributed backend needs --workers >= 1 or at least one "
            "--connect HOST:PORT"
        )
    elif args.backend == "distributed":
        if args.checkpoint_every:
            problem = (
                "--checkpoint-every applies to the local backend only "
                "(distributed runs checkpoint every completed lease)"
            )
        elif args.format != "csv":
            problem = "--backend distributed writes csv segments only"
    elif not args.resume:  # a resume runs the backend its plan names
        if args.connect:
            problem = "--connect requires --backend distributed"
        elif args.token_file or args.metrics:
            problem = "--token-file and --metrics require --backend distributed"
        elif args.lease_depth != 1:
            problem = "--lease-depth requires --backend distributed"
    if not problem and args.checkpoint_every and args.format == "npz-columnar":
        problem = (
            "npz-columnar writes whole columns and has no per-block segments "
            "to checkpoint; drop --checkpoint-every or use --format csv"
        )
    if not problem:
        from repro.engine import parse_endpoint

        try:
            for spec in args.connect or ():
                parse_endpoint(spec)
        except ValueError as error:
            problem = str(error)
    return f"{command}: {problem}" if problem else None


def _export(
    args: argparse.Namespace, command: str, spec, make_generator, noun: str
) -> int:
    """Export ``spec``'s fleet for ``command`` (``fleet export`` or ``fleet
    scenario run --out-dir``): validate the flags, refuse a non-empty
    ``--out-dir``, arm ``--fault-spec``, resolve the token, then resume
    or run the distributed, block or shard exporter of ``make_generator()``
    and print the result with :func:`_print_export`.  Exit codes: 0 ok,
    1 a failed export (one line: a resumable layout names ``--resume``,
    the shard layout says to re-run), 2 a usage error.
    """
    from repro.engine import (
        StateError,
        describe_export_dir,
        export_fleet,
        export_fleet_blocks,
        export_fleet_distributed,
        parse_endpoint,
        resolve_fleet_token,
        resume_export,
    )
    from repro.engine.writer import PLAN_NAME

    problem = _check_fleet_ints(args, command) or _check_export_flags(args, command)
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    out_dir = args.out_dir
    if (
        not (args.resume or args.force)
        and os.path.isdir(out_dir)
        and os.listdir(out_dir)
    ):
        entries = sorted(os.listdir(out_dir))
        shown = ", ".join(entries[:4])
        if len(entries) > 4:
            shown += f", … {len(entries) - 4} more"
        hint = describe_export_dir(out_dir) or "pass --force to export anyway"
        sys.stderr.write(
            f"{command}: {out_dir} is not empty (contains {shown}); exporting "
            "would mix old and new segments (and `fleet verify` could pass "
            f"against stale files) — {hint}\n"
        )
        return 2
    if args.fault_spec:
        from repro.faults import FaultPlanError, arm_process, plan_from_cli_arg

        try:
            plan = plan_from_cli_arg(args.fault_spec, seed=args.seed)
        except FaultPlanError as error:
            sys.stderr.write(f"{command}: --fault-spec {error}\n")
            return 2
        # The firing log and ``once`` markers land beside the export
        # directory, never inside it, so injected faults cannot dirty the
        # manifest layout they are attacking.
        arm_process(plan, state_dir=os.path.abspath(out_dir) + ".faults")
    token = None
    # --token-file always reaches the engine, whose block-plan resume
    # refuses it as it refuses --metrics; the REPRO_FLEET_TOKEN variable
    # authenticates distributed runs only, so a block resume goes without.
    if args.token_file or (
        not os.path.exists(os.path.join(out_dir, PLAN_NAME))
        if args.resume
        else args.backend == "distributed"
    ):
        try:
            token = resolve_fleet_token(args.token_file)
        except (OSError, ValueError) as error:
            sys.stderr.write(f"{command}: {error}\n")
            return 2
    transport = dict(
        workers=args.workers,
        connect=[parse_endpoint(spec) for spec in args.connect or ()],
        lease_depth=args.lease_depth,
        token=token,
        metrics_path=args.metrics,
    )
    generator = make_generator()
    when = year_fraction(parse_date(args.date))
    seed, reducers = args.seed + spec.seed_offset, spec.profile()
    try:
        if args.resume:
            result = resume_export(generator, out_dir, reducers=reducers, **transport)
        elif args.backend == "distributed":
            result = export_fleet_distributed(
                generator, when, args.size, seed, out_dir,
                chunk_size=args.chunk_size, lease_blocks=args.lease_blocks,
                reducers=reducers, **transport,
            )
        elif args.checkpoint_every:
            # --chunk-size bounds the reducer fold batches and is pinned
            # into the plan as part of the determinism envelope.
            result = export_fleet_blocks(
                generator, when, args.size, seed, out_dir, shards=args.shards,
                checkpoint_every=args.checkpoint_every,
                chunk_size=args.chunk_size, reducers=reducers,
            )
        else:
            result = export_fleet(
                generator, when, args.size, seed, out_dir, shards=args.shards,
                fmt=args.format,
            )
    except (RuntimeError, ValueError, OSError) as error:
        # Lost workers (pool or socket), injected faults, spent retries,
        # auth failures and I/O errors; a resumable layout keeps its plan.
        if args.resume and isinstance(error, StateError):
            sys.stderr.write(f"{command} --resume: {error}\n")
        elif args.resume or args.backend == "distributed" or args.checkpoint_every:
            sys.stderr.write(
                f"{command}: {error} — the partial layout in {out_dir} "
                "resumes with --resume\n"
            )
        else:
            sys.stderr.write(
                f"{command}: {error} — the per-shard layout keeps no "
                "checkpoints; re-run the export\n"
            )
        return 1
    _print_export(args, result, noun)
    return 0


def _print_export(args: argparse.Namespace, result, noun: str) -> None:
    """Print what an export or resume did, then the manifest summary."""
    from repro.engine import DistributedExportResult

    manifest = getattr(result, "manifest", result)
    if args.resume and result.statistics is None:
        print(f"{args.out_dir} is already finalised; nothing to resume")
    elif isinstance(result, DistributedExportResult):
        print(
            f"distributed: {result.workers} worker(s), "
            f"{result.reassigned_leases} lease(s) reassigned, "
            f"{result.metrics['drained_workers']} drained"
        )
        if args.resume:
            print(
                f"resumed: {result.resumed_leases} lease(s) restored from "
                "checkpoints"
            )
        if args.metrics:
            print(f"metrics: {args.metrics}")
    elif args.resume:
        print(
            f"resumed: {result.resumed_blocks} block(s) restored from "
            f"checkpoints, {len(manifest.segments) - result.resumed_blocks} "
            "regenerated"
        )
    print(
        f"exported {manifest.size} {noun} @ {manifest.when:.3f} as "
        f"{len(manifest.segments)} {manifest.format} "
        f"{manifest.layout} segment(s) to {args.out_dir}"
    )
    if manifest.layout == "shard":
        for segment in manifest.segments:
            print(
                f"  {segment.path}  rows [{segment.row_lo}, {segment.row_hi})  "
                f"sha256 {segment.sha256[:16]}…"
            )
    elif manifest.checkpoint_every:
        print(f"  checkpoint every {manifest.checkpoint_every} block(s)")
    print(f"payload sha256: {manifest.payload_sha256}")
    print(f"fleet sha256:   {manifest.fleet_sha256}")
    print(f"manifest: {args.out_dir}/manifest.json")


def _fleet_stats_writing_csv(generator, when, args):
    """One streaming pass that writes the CSV *and* reduces the statistics.

    CSV export is inherently one ordered stream, so there is no point paying
    for a shard pool plus a second generation pass; the determinism contract
    guarantees this sequential stream is the exact fleet any sharded run
    would summarise.  (``fleet export`` is the sharded, manifest-producing
    counterpart.)  Blocks fold in ``--chunk-size`` batches through the
    :class:`~repro.engine.reduce.ChunkedFold` a one-shard
    ``generate_sharded`` uses, so both report the same statistics.
    """
    import time

    from repro.engine import (
        DEFAULT_REDUCER_FACTORIES,
        FleetStatistics,
        QuantileReducer,
        ReducerSet,
        combine_block_digests,
        iter_blocks,
        population_digest,
    )
    from repro.engine.reduce import ChunkedFold
    from repro.engine.writer import HOST_CSV_HEADER, write_population_csv

    if args.out.endswith(".gz"):
        import gzip

        handle = gzip.open(args.out, "wt", encoding="utf-8")
    else:
        handle = open(args.out, "w", encoding="utf-8")
    factories = dict(DEFAULT_REDUCER_FACTORIES)
    if getattr(args, "quantiles", False):
        factories["quantiles"] = QuantileReducer
    reducers = ReducerSet.from_factories(factories)
    fold = ChunkedFold(reducers, args.chunk_size)
    digests = []
    start = time.perf_counter()
    with handle:
        handle.write(HOST_CSV_HEADER)
        for index, block in iter_blocks(generator, when, args.size, args.seed):
            write_population_csv(block, handle)
            fold.add(block)
            if args.digest:
                digests.append((index, bytes.fromhex(population_digest(block))))
    fold.flush()
    return FleetStatistics(
        size=args.size,
        when=float(when),
        shards=1,
        reducers=reducers,
        elapsed_seconds=time.perf_counter() - start,
        digest=combine_block_digests(digests) if args.digest else None,
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet`` / ``fleet summary``: one-pass reducer statistics."""
    from repro.engine import generate_sharded

    problem = _check_fleet_ints(args)
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    if args.correlation and args.size < 2:
        sys.stderr.write("fleet: --correlation needs --size of at least 2\n")
        return 2
    params = _load_parameters(args.params, "fleet")
    generator = CorrelatedHostGenerator(params)
    when = year_fraction(parse_date(args.date))
    quantiles = getattr(args, "quantiles", False)
    if args.out:
        stats = _fleet_stats_writing_csv(generator, when, args)
    else:
        stats = generate_sharded(
            generator,
            when,
            args.size,
            args.seed,
            shards=args.shards,
            chunk_size=args.chunk_size,
            digest=args.digest,
            quantiles=quantiles,
        )
    print(
        f"fleet of {stats.size} hosts @ {stats.when:.3f} "
        f"({stats.shards} shard(s), {stats.elapsed_seconds:.2f} s, "
        f"{stats.hosts_per_second:,.0f} hosts/s)"
    )
    print(stats.summary_table())
    if quantiles:
        from repro.engine import DECILES

        deciles = stats.quantiles.result()
        print("\nStreamed deciles (sketch):")
        print("    resource " + "".join(f"{f'p{int(p * 100)}':>10}" for p in DECILES))
        for label, row in deciles.items():
            print(f"{label:>12} " + "".join(f"{row[p]:>10.1f}" for p in DECILES))
    if args.correlation:
        print("\nStreamed correlations (Table VIII):")
        print(stats.correlation.matrix().format_table())
    if args.digest:
        print(f"\nfleet sha256: {stats.digest}")
    if args.out:
        print(f"\nwrote {args.size} hosts to {args.out}")
    return 0


def _cmd_fleet_compact(args: argparse.Namespace) -> int:
    """``fleet compact``: merge block segments into the per-shard layout."""
    from repro.engine import compact_export

    problem = _check_fleet_ints(args, "fleet compact")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    shards = getattr(args, "shards", 1)
    try:
        manifest = compact_export(args.manifest, args.out_dir, shards=shards)
    except (OSError, KeyError, TypeError, ValueError) as error:
        sys.stderr.write(f"fleet compact: {error}\n")
        return 1
    print(
        f"compacted {args.manifest} into {len(manifest.segments)} "
        f"{manifest.format} segment(s) in {args.out_dir}"
    )
    print(f"payload sha256: {manifest.payload_sha256}")
    print(f"manifest: {args.out_dir}/manifest.json")
    return 0


def _cmd_fleet_verify(args: argparse.Namespace) -> int:
    """``fleet verify``: re-hash an export against its manifest."""
    from repro.engine import verify_manifest

    report = verify_manifest(args.manifest)
    for line in report.format_lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_fleet_validate(args: argparse.Namespace) -> int:
    """``fleet validate``: run the statistical validation probe suite.

    Exit codes follow the ``fleet verify`` convention: 0 when every probe
    passes, 1 on any probe failure (a paper pin off its band, a golden
    digest moved, a known-false control that no longer trips), 2 on a
    usage error (bad integers, unknown probe name, unparseable date).
    """
    from repro.validation import iter_probes, run_validation

    if args.list_probes:
        for probe in iter_probes(args.tier):
            note = (
                f"  (control of {probe.control_of})" if probe.control_of else ""
            )
            print(
                f"{probe.name:<38} {probe.family:<10} tier={probe.tier:<4} "
                f"scenario={probe.scenario}{note}"
            )
        return 0
    problem = _check_fleet_ints(args, "fleet validate")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    try:
        report = run_validation(
            args.tier,
            size=args.validate_size,
            seed=args.validate_seed,
            date=args.validate_date,
            probes=args.probe or None,
        )
    except ValueError as error:
        sys.stderr.write(f"fleet validate: {error}\n")
        return 2
    for line in report.format_lines():
        print(line)
    if args.report:
        import json

        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"report: {args.report}")
    return 0 if report.ok else 1


def _cmd_fleet_serve_worker(args: argparse.Namespace) -> int:
    """``fleet serve-worker``: serve this machine as a distributed worker.

    Exit codes follow the fleet convention: 0 after a clean stop (job
    budget exhausted, SIGTERM drain, or Ctrl-C — each prints the served
    summary), 1 when the listener itself fails (e.g. the port is taken),
    2 on a usage error such as an unreadable or empty token file.  A
    coordinator that fails the token check is rejected and logged but
    does not consume a job slot or change the exit code — auth failures
    are the *coordinator's* error (its export exits 1), not the
    worker's.
    """
    import signal
    import threading

    from repro.engine import resolve_fleet_token, serve_worker

    problem = _check_fleet_ints(args, "fleet serve-worker")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    try:
        token = resolve_fleet_token(args.token_file)
    except (OSError, ValueError) as error:
        sys.stderr.write(f"fleet serve-worker: {error}\n")
        return 2
    jobs = None if args.forever else args.max_jobs
    drain = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: drain.set())

    def on_bound(port: int) -> None:
        # Printed only once actually listening (and with the real port
        # when --port 0 asked the OS for an ephemeral one) so
        # supervisors and tests can key on this line.
        print(
            f"serving fleet worker on {args.host}:{port} "
            f"({'forever' if jobs is None else f'up to {jobs} job(s)'}"
            f"{', token auth' if token else ''})",
            flush=True,
        )

    try:
        served = serve_worker(
            args.host,
            args.port,
            max_jobs=jobs,
            on_bound=on_bound,
            token=token,
            drain_event=drain,
            drain_after=args.drain_after,
        )
    except OSError as error:
        sys.stderr.write(f"fleet serve-worker: {error}\n")
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"served {served} job(s)")
    return 0


def _cmd_fleet_scenario_list(args: argparse.Namespace) -> int:
    """``fleet scenario list``: print the registered scenario specs."""
    from repro.registry import iter_scenario_specs

    for spec in iter_scenario_specs():
        print(f"{spec.key:<14} {spec.title}")
        print(f"{'':<14} columns: {', '.join(spec.schema.labels)}")
        if spec.description:
            print(f"{'':<14} {spec.description}")
    return 0


def _cmd_fleet_scenario_run(args: argparse.Namespace) -> int:
    """``fleet scenario run`` and ``fleet export``: stream one scenario,
    summarise or export it.

    Without ``--out-dir`` this is the scenario counterpart of ``fleet
    summary``: one memoised streamed pass prints per-column statistics
    plus the fleet and statistics digests.  With ``--out-dir`` it exports
    the scenario through :func:`_export`.  ``fleet export`` is the
    ``hosts`` export, plus ``--params``; it loads no other family.  Exit
    codes follow the fleet convention (0 ok, 1 runtime failure, 2 usage
    error).
    """
    from repro.registry import get_scenario_spec

    export = args.fleet_command == "export"
    command = "fleet export" if export else "fleet scenario run"
    try:
        spec = get_scenario_spec(args.key)
    except ValueError as error:
        sys.stderr.write(f"{command}: {error}\n")
        return 2
    if export:
        return _export(
            args, command, spec,
            lambda: CorrelatedHostGenerator(_load_parameters(args.params, command)),
            "hosts",
        )
    if args.out_dir is not None:
        return _export(
            args, command, spec, spec.make_generator,
            f"rows of scenario '{spec.key}'",
        )
    from repro.scenarios import ScenarioRun

    problem = _check_fleet_ints(args, command) or _check_export_flags(args, command)
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    try:
        run = ScenarioRun(args.key, size=args.size, seed=args.seed, date=args.date)
    except ValueError as error:
        sys.stderr.write(f"{command}: {error}\n")
        return 2
    stats = run.stats(shards=args.shards)
    print(f"scenario '{spec.key}': {spec.title}")
    print(
        f"streamed {stats.size} rows @ {stats.when:.3f} "
        f"({stats.shards} shard(s), {stats.elapsed_seconds:.2f} s)"
    )
    print(f"{'column':>18} {'mean':>14} {'std':>14} {'median':>14}")
    for row in run.summary_rows(shards=args.shards):
        print(
            f"{row['column']:>18} {row['mean']:>14.6g} "
            f"{row['std']:>14.6g} {row['median']:>14.6g}"
        )
    print(f"fleet sha256:      {run.digest(shards=args.shards)}")
    print(f"statistics sha256: {run.statistics_digest()}")
    return 0


def _cmd_fleet_scenario_compare(args: argparse.Namespace) -> int:
    """``fleet scenario compare``: prove shard-count invariance of a run.

    Streams the same scenario once per requested shard count over one
    memoised :class:`~repro.scenarios.runner.ScenarioRun` and exits 1
    unless every fleet digest is identical — the CLI face of the
    per-RNG-block determinism contract.
    """
    from repro.scenarios import ScenarioRun

    problem = _check_fleet_ints(args, "fleet scenario compare")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    shard_counts: "list[int]" = []
    for value in args.compare_shards:
        if value <= 0:
            sys.stderr.write(
                "fleet scenario compare: --shards must be positive "
                f"integers (got {value})\n"
            )
            return 2
        if value not in shard_counts:
            shard_counts.append(value)
    try:
        run = ScenarioRun(
            args.key, size=args.size, seed=args.seed, date=args.date
        )
    except ValueError as error:
        sys.stderr.write(f"fleet scenario compare: {error}\n")
        return 2
    print(
        f"scenario '{run.spec.key}': {run.size} rows @ {run.when:.3f}, "
        f"seed {run.seed}"
    )
    digests = {}
    for shards in shard_counts:
        digests[shards] = run.digest(shards=shards)
        print(f"  shards {shards}: fleet sha256 {digests[shards]}")
    if len(set(digests.values())) > 1:
        sys.stderr.write(
            "fleet scenario compare: fleet digests diverged across shard "
            "counts — the block determinism contract is broken\n"
        )
        return 1
    print(f"statistics sha256: {run.statistics_digest()}")
    print(f"identical across {len(shard_counts)} shard count(s)")
    return 0


def _cmd_fleet_scenario(args: argparse.Namespace) -> int:
    """Route ``fleet scenario [list|run|compare]``."""
    command = getattr(args, "scenario_command", None)
    if command == "run":
        return _cmd_fleet_scenario_run(args)
    if command == "compare":
        return _cmd_fleet_scenario_compare(args)
    return _cmd_fleet_scenario_list(args)


def _cmd_fleet_chaos(args: argparse.Namespace) -> int:
    """``fleet chaos``: run an export under a fault plan and require
    byte-identical recovery.

    Exit 0 means every chaos leg (after at most ``--max-repairs``
    fault-free ``--resume`` legs) produced a manifest whose
    ``payload_sha256``/``fleet_sha256`` match the fault-free baseline —
    and, with ``--runs`` > 1, that the plan fired identically every run.
    Exit 1 is a typed chaos verdict (unrecoverable layout, diverged
    bytes, unreplayable firings); exit 2 a malformed plan or arguments.
    """
    from repro.faults import ChaosError, FaultPlanError, plan_from_cli_arg, run_chaos

    problem = _check_fleet_ints(args, "fleet chaos")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    try:
        plan = plan_from_cli_arg(args.plan, seed=args.seed)
    except FaultPlanError as error:
        sys.stderr.write(f"fleet chaos: --plan {error}\n")
        return 2

    common = [
        "--size", str(args.size), "--date", str(args.date), "--seed", str(args.seed)
    ]
    if args.scenario:
        if args.params:
            # A scenario's generator comes from its spec; `fleet scenario
            # run` has no --params to forward it to.
            sys.stderr.write(
                "fleet chaos: --params applies to the host fleet only; "
                "drop it or --scenario\n"
            )
            return 2
        base = ["fleet", "scenario", "run", args.scenario]
    else:
        base = ["fleet", "export"]
        if args.params:
            common += ["--params", args.params]
    layout = args.layout

    def export_argv(out_dir: str) -> "list[str]":
        argv = [*base, *common, "--out-dir", out_dir, "--force"]
        if layout == "shard":
            argv += ["--shards", str(args.shards)]
        elif layout == "block":
            argv += [
                "--shards",
                str(args.shards),
                "--checkpoint-every",
                str(args.checkpoint_every),
            ]
        else:
            argv += [
                "--backend",
                "distributed",
                "--workers",
                str(args.workers),
                "--lease-blocks",
                str(args.lease_blocks),
            ]
        return argv

    resume_argv = None
    if layout != "shard":
        # The per-shard layout keeps no plan on disk: any mid-write death
        # is unrecoverable by design, so chaos demands a typed refusal
        # instead of a repair.
        def resume_argv(out_dir: str) -> "list[str]":
            argv = [*base, "--out-dir", out_dir, "--resume"]
            if layout == "distributed":
                argv += ["--backend", "distributed", "--workers", str(args.workers)]
            return argv

    try:
        report = run_chaos(
            plan,
            args.out_dir,
            export_argv,
            resume_argv,
            runs=args.runs,
            max_repairs=args.max_repairs,
        )
    except ChaosError as error:
        sys.stderr.write(f"fleet chaos: {error}\n")
        return 1
    print(
        f"chaos: {len(report.outcomes)} run(s) recovered byte-identical "
        f"to the fault-free baseline ({report.baseline_payload_sha256[:16]}…)"
    )
    return 0


def _dispatch_fleet(args: argparse.Namespace) -> int:
    """Route ``fleet [summary|export|verify]``.

    Dispatch keys off ``fleet_command`` rather than per-subparser
    ``func`` defaults: argparse never overwrites an attribute the parent
    parser already placed in the namespace, so a ``func`` default on the
    nested subparsers would silently lose to the parent's.
    """
    from repro.engine import resolve_start_method

    try:
        # Every fleet sub-mode may fan out worker processes; a typo'd
        # REPRO_START_METHOD (e.g. "forkserverr") should die here in one
        # line, not as a multiprocessing traceback mid-export.
        resolve_start_method()
    except ValueError as error:
        sys.stderr.write(f"fleet: {error}\n")
        return 2
    command = getattr(args, "fleet_command", None)
    if args.params and command not in (None, "summary", "export", "chaos"):
        # The parent parser takes --params before any subcommand; one that
        # has no host fleet to generate would silently drop it.
        if command == "scenario":
            command += f" {args.scenario_command}"
        sys.stderr.write(
            f"fleet {command}: --params applies to the host fleet only; drop it\n"
        )
        return 2
    if command == "export":
        return _cmd_fleet_scenario_run(args)
    if command == "compact":
        return _cmd_fleet_compact(args)
    if command == "verify":
        return _cmd_fleet_verify(args)
    if command == "validate":
        return _cmd_fleet_validate(args)
    if command == "serve-worker":
        return _cmd_fleet_serve_worker(args)
    if command == "scenario":
        return _cmd_fleet_scenario(args)
    if command == "chaos":
        return _cmd_fleet_chaos(args)
    return _cmd_fleet(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces.config import TraceConfig
    from repro.traces.io import write_trace_csv
    from repro.traces.synthesis import generate_trace

    problem = _check_fleet_ints(args, "trace")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    config = TraceConfig(scale=args.scale, seed=args.seed)
    trace = generate_trace(config)
    write_trace_csv(trace, args.out)
    print(f"wrote {len(trace)} hosts to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.fitting.pipeline import fit_model_from_trace
    from repro.traces.io import read_trace_csv

    trace = read_trace_csv(args.trace)
    report = fit_model_from_trace(trace)
    payload = report.parameters.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote fitted parameters to {args.out}")
    else:
        print(payload)
    rows = report.parameters.summary_rows()
    print(f"\n{'Resource':>12} {'Value':>16} {'Method':>16} {'a':>12} {'b':>9}")
    for resource, value, method, a, b in rows:
        print(f"{resource:>12} {value:>16} {method:>16} {a:>12.4g} {b:>9.4f}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    problem = _check_fleet_ints(args, "predict")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    params = _load_parameters(args.params, "predict")
    scalars = predict_scalars(params, float(args.year))
    print(f"Predictions for {args.year}:")
    print(f"  mean cores          : {scalars.cores_mean:.2f}")
    print(f"  mean memory         : {scalars.memory_mean_mb / 1024:.2f} GB")
    print(
        f"  Dhrystone (mean,sd) : ({scalars.dhrystone_mean:.0f}, {scalars.dhrystone_std:.0f}) MIPS"
    )
    print(
        f"  Whetstone (mean,sd) : ({scalars.whetstone_mean:.0f}, {scalars.whetstone_std:.0f}) MIPS"
    )
    print(
        f"  disk (mean,sd)      : ({scalars.disk_mean_gb:.1f}, {scalars.disk_std_gb:.1f}) GB"
    )
    years = np.arange(2009.0, float(args.year) + 0.01, 1.0)
    cores = predict_core_fractions(params, years)
    memory = predict_memory_fractions(params, years)
    print("\nMulticore forecast (fractions):")
    header = "  year " + "".join(f"{label:>12}" for label in cores)
    print(header)
    for i, year in enumerate(years):
        print(f"  {year:.0f}" + "".join(f"{cores[label][i]:>12.3f}" for label in cores))
    print("\nTotal-memory forecast (fractions):")
    print("  year " + "".join(f"{label:>10}" for label in memory))
    for i, year in enumerate(years):
        print(f"  {year:.0f}" + "".join(f"{memory[label][i]:>10.3f}" for label in memory))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import validate_generated
    from repro.fitting.pipeline import fit_model_from_trace
    from repro.traces.io import read_trace_csv

    problem = _check_fleet_ints(args, "validate")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    trace = read_trace_csv(args.trace)
    report = fit_model_from_trace(trace)
    generator = CorrelatedHostGenerator(report.parameters)
    validation = validate_generated(
        trace, generator, rng=np.random.default_rng(args.seed)
    )
    print(validation.format_table())
    print("\nGenerated correlations (Table VIII):")
    print(validation.generated_correlations.format_table())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.figures import export_figure_data
    from repro.fitting.pipeline import fit_model_from_trace
    from repro.traces.io import read_trace_csv

    trace = read_trace_csv(args.trace)
    params = None
    if args.fit:
        params = fit_model_from_trace(trace).parameters
    paths = export_figure_data(trace, args.out, parameters=params)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.allocation.experiment import run_utility_experiment
    from repro.baselines.grid import KeeGridModel
    from repro.baselines.normal import UncorrelatedNormalModel
    from repro.fitting.pipeline import fit_model_from_trace
    from repro.traces.io import read_trace_csv

    problem = _check_fleet_ints(args, "simulate")
    if problem:
        sys.stderr.write(problem + "\n")
        return 2
    trace = read_trace_csv(args.trace)
    fitted = fit_model_from_trace(trace).parameters
    models = [
        UncorrelatedNormalModel.from_trace(trace),
        KeeGridModel.from_trace(trace),
        CorrelatedHostGenerator(fitted),
    ]
    result = run_utility_experiment(
        trace, models, rng=np.random.default_rng(args.seed)
    )
    print("Mean % utility difference vs actual hosts (Fig 15):")
    print(result.format_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="resmodel",
        description="Correlated resource models of Internet end hosts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="generate hosts for a date")
    p_generate.add_argument("--date", default="2010-09-01", help="YYYY-MM-DD or year")
    p_generate.add_argument("--hosts", type=int, default=100)
    p_generate.add_argument("--params", help="fitted parameter JSON (default: Table X)")
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--summary", action="store_true", help="print summary to stderr")
    p_generate.set_defaults(func=_cmd_generate)

    def _add_fleet_common(
        parser: argparse.ArgumentParser,
        suppress: bool = False,
        params: bool = True,
        shards: bool = True,
    ) -> None:
        # On the nested subparsers every default is SUPPRESS: pre-3.13
        # argparse parses a subcommand into a *fresh* namespace and copies
        # each attribute back over the parent's, so a real default here
        # would silently overwrite flags given before the subcommand
        # (`fleet --size 9000 summary`).  SUPPRESS keeps unset options out
        # of the sub-namespace and the parent's parsed values win.
        def default(value):
            return argparse.SUPPRESS if suppress else value

        parser.add_argument(
            "--size",
            type=int,
            default=default(100_000),
            help="number of hosts (or scenario rows)",
        )
        parser.add_argument(
            "--date", default=default("2010-09-01"), help="YYYY-MM-DD or year"
        )
        if params:
            parser.add_argument(
                "--params",
                default=default(None),
                help="fitted parameter JSON (default: Table X)",
            )
        parser.add_argument(
            "--seed",
            type=int,
            default=default(0),
            help="run seed (a scenario adds its registered offset)",
        )
        if shards:
            parser.add_argument(
                "--shards", type=int, default=default(1), help="worker processes"
            )
        parser.add_argument(
            "--chunk-size",
            type=int,
            default=default(65536),
            help="hosts per reducer chunk (bounds peak memory)",
        )

    def _add_export_flags(parser: argparse.ArgumentParser, required: bool) -> None:
        # The flags `fleet export` and `fleet scenario run` share, checked
        # by _check_export_flags.  The parent `fleet` parser defines none
        # of them, so real defaults are safe here.
        parser.add_argument(
            "--out-dir",
            required=required,
            help="export segments + manifest.json into this directory",
        )
        parser.add_argument(
            "--format",
            choices=["csv", "npz-columnar"],
            default="csv",
            help="segment format (csv concatenates byte-identically; "
            "npz-columnar writes one contiguous binary array per resource "
            "column — the fast path for large fleets)",
        )
        parser.add_argument(
            "--checkpoint-every",
            type=int,
            default=0,
            metavar="N",
            help="write resumable per-block segments with a reducer-state "
            "checkpoint every N blocks (0 = classic per-shard layout)",
        )
        parser.add_argument(
            "--resume",
            action="store_true",
            help="finish an interrupted resumable export in --out-dir "
            "(size/date/seed and the backend are read from its plan)",
        )
        parser.add_argument(
            "--backend",
            choices=["local", "distributed"],
            default="local",
            help="execution backend: a local process pool, or the "
            "coordinator/worker distributed export",
        )
        parser.add_argument(
            "--workers",
            type=int,
            default=2,
            help="local pool slots, one lease each (--backend distributed)",
        )
        parser.add_argument(
            "--connect",
            action="append",
            metavar="HOST:PORT",
            help="attach a running `fleet serve-worker` endpoint "
            "(repeatable; --backend distributed)",
        )
        parser.add_argument(
            "--lease-blocks",
            type=int,
            default=4,
            help="RNG blocks per distributed work lease (smaller rebalances "
            "stragglers faster)",
        )
        parser.add_argument(
            "--lease-depth",
            type=int,
            default=1,
            help="leases a distributed worker may hold in flight (2 pipelines "
            "the next assign while it generates)",
        )
        parser.add_argument(
            "--token-file",
            default=None,
            metavar="PATH",
            help="file holding the shared fleet auth token (overrides the "
            "REPRO_FLEET_TOKEN environment variable; --backend distributed)",
        )
        parser.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write the distributed run's JSON metrics document here "
            "(per-lease timings, heartbeat gaps, requeue/steal counts)",
        )
        parser.add_argument(
            "--force",
            action="store_true",
            help="export into a non-empty directory (stale segments from a "
            "previous run could otherwise mix with the new export)",
        )
        parser.add_argument(
            "--fault-spec",
            default=None,
            metavar="PLAN",
            help="deterministic fault injection: a FaultPlan JSON file, or "
            "inline 'SITE[:key=val,...]' specs joined by ';' (e.g. "
            "writer.block.write:kind=torn-write,after=3); firings are logged "
            "to OUT_DIR.faults/ — see README § Fault injection",
        )

    def _add_fleet_summary_flags(
        parser: argparse.ArgumentParser, suppress: bool = False
    ) -> None:
        def default(value):
            return argparse.SUPPRESS if suppress else value

        parser.add_argument(
            "--correlation",
            action="store_true",
            default=default(False),
            help="print the streamed Table VIII matrix",
        )
        parser.add_argument(
            "--quantiles",
            action="store_true",
            default=default(False),
            help="sketch streamed medians/deciles alongside the moments",
        )
        parser.add_argument(
            "--digest",
            action="store_true",
            default=default(False),
            help="print the fleet's sha256 identity",
        )
        parser.add_argument(
            "--out",
            default=default(None),
            help="stream the fleet to this CSV(.gz) path while reducing statistics "
            "(one ordered pass; --shards does not apply)",
        )

    p_fleet = sub.add_parser(
        "fleet", help="stream/shard a large fleet through the engine's reducers"
    )
    _add_fleet_common(p_fleet)
    _add_fleet_summary_flags(p_fleet)
    p_fleet.set_defaults(func=_dispatch_fleet)
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command")

    p_fleet_summary = fleet_sub.add_parser(
        "summary", help="one-pass reducer statistics (same as bare `fleet`)"
    )
    _add_fleet_common(p_fleet_summary, suppress=True)
    _add_fleet_summary_flags(p_fleet_summary, suppress=True)

    p_fleet_export = fleet_sub.add_parser(
        "export",
        help="write per-shard segments plus a sha256 manifest (the export "
        "of `fleet scenario run hosts`, plus --params)",
    )
    _add_fleet_common(p_fleet_export, suppress=True)
    _add_export_flags(p_fleet_export, required=True)
    p_fleet_export.set_defaults(key="hosts")

    p_fleet_compact = fleet_sub.add_parser(
        "compact", help="merge block segments into the per-shard layout"
    )
    p_fleet_compact.add_argument(
        "manifest", help="path to a block-layout fleet manifest.json"
    )
    p_fleet_compact.add_argument(
        "--out-dir", required=True, help="directory for the compacted layout"
    )
    # SUPPRESS so the parent `fleet --shards` value survives when the flag
    # is not given here (see the note in _add_fleet_common).
    p_fleet_compact.add_argument(
        "--shards",
        type=int,
        default=argparse.SUPPRESS,
        help="segments in the compacted layout (default 1)",
    )

    p_fleet_verify = fleet_sub.add_parser(
        "verify", help="re-hash an export against its manifest"
    )
    p_fleet_verify.add_argument("manifest", help="path to a fleet manifest.json")

    p_fleet_validate = fleet_sub.add_parser(
        "validate",
        help="run the statistical validation probe suite",
        description=(
            "Stream probe fleets and check the paper's statistical pins "
            "(correlation structure, moments, quantiles, distribution "
            "families), determinism digests, and the known-false controls "
            "that prove the pins have teeth. The fast tier is the per-push "
            "CI gate; the full tier runs the million-host and "
            "distributed-backend probes. Overriding --size/--seed/--date "
            "skips the golden digest pins (they are defined only at the "
            "canonical configuration) but keeps bands and controls armed."
        ),
    )
    # Distinct dests: the parent `fleet` parser already owns size/seed
    # defaults in the namespace, and validate's canonical defaults differ.
    p_fleet_validate.add_argument(
        "--tier",
        choices=("fast", "full"),
        default="fast",
        help="probe tier (default fast)",
    )
    p_fleet_validate.add_argument(
        "--size",
        dest="validate_size",
        type=int,
        default=None,
        help="fleet size override (default: the tier's canonical size)",
    )
    p_fleet_validate.add_argument(
        "--seed",
        dest="validate_seed",
        type=int,
        default=None,
        help="seed override (default: the canonical golden seed)",
    )
    p_fleet_validate.add_argument(
        "--date",
        dest="validate_date",
        default=None,
        help="fleet date override, YYYY-MM-DD (default: the paper's "
        "September-2010 reference point)",
    )
    p_fleet_validate.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the machine-readable JSON report here",
    )
    p_fleet_validate.add_argument(
        "--probe",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named probe(s); repeatable (see --list)",
    )
    p_fleet_validate.add_argument(
        "--list",
        dest="list_probes",
        action="store_true",
        help="list the tier's registered probes and exit",
    )

    p_fleet_serve = fleet_sub.add_parser(
        "serve-worker",
        help="serve this machine as a distributed fleet export worker",
    )
    p_fleet_serve.add_argument(
        "--host", default="127.0.0.1", help="interface to listen on"
    )
    p_fleet_serve.add_argument(
        "--port",
        type=int,
        required=True,
        help="TCP port to listen on (0 = any free port, printed once bound)",
    )
    p_fleet_serve.add_argument(
        "--max-jobs",
        type=int,
        default=1,
        help="serve this many coordinator jobs, then exit",
    )
    p_fleet_serve.add_argument(
        "--forever",
        action="store_true",
        help="keep serving jobs until killed (overrides --max-jobs; "
        "SIGTERM drains gracefully, Ctrl-C stops cleanly)",
    )
    p_fleet_serve.add_argument(
        "--token-file",
        default=None,
        metavar="PATH",
        help="file holding the shared fleet auth token (overrides "
        "REPRO_FLEET_TOKEN); unauthenticated coordinators are rejected",
    )
    # Graceful-drain injection for the tests/CI smoke: after serving N
    # leases of the current job, finish them and deregister cleanly.
    p_fleet_serve.add_argument(
        "--drain-after", type=int, default=None, help=argparse.SUPPRESS
    )

    p_fleet_scenario = fleet_sub.add_parser(
        "scenario",
        help="list/run/compare the registered declarative scenarios",
        description=(
            "The scenario registry: declarative specs bundling a chunked "
            "generator, a reducer profile and a column schema, streamed "
            "through the same engine paths as the host fleet.  `list` "
            "prints the registered specs, `run` streams one (summary "
            "statistics, or a manifest export with --out-dir), and "
            "`compare` proves shard-count invariance of its digests."
        ),
    )
    scenario_sub = p_fleet_scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_sub.add_parser("list", help="list the registered scenarios")

    p_sc_run = scenario_sub.add_parser(
        "run",
        help="stream one scenario: summary statistics, or an export "
        "with --out-dir",
    )
    p_sc_run.add_argument("key", help="registered scenario key (see list)")
    _add_fleet_common(p_sc_run, suppress=True, params=False)
    _add_export_flags(p_sc_run, required=False)

    p_sc_compare = scenario_sub.add_parser(
        "compare",
        help="stream one scenario at several shard counts and require "
        "identical digests",
    )
    p_sc_compare.add_argument("key", help="registered scenario key (see list)")
    _add_fleet_common(p_sc_compare, suppress=True, params=False, shards=False)
    p_sc_compare.add_argument(
        "--shards",
        dest="compare_shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        metavar="N",
        help="shard counts to compare (default: 1 2 4)",
    )

    p_fleet_chaos = fleet_sub.add_parser(
        "chaos",
        help="run an export under a fault plan and require byte-identical "
        "recovery",
        description=(
            "Chaos harness for the export stack: run a fault-free baseline "
            "export, re-run it with the --plan armed (faults fire "
            "deterministically, driven by the plan's seed), repair with "
            "fault-free --resume legs where the layout supports it, and "
            "require the recovered manifest's payload/fleet sha256 to be "
            "byte-identical to the baseline — or a clean typed refusal. "
            "--runs N repeats the chaos leg and requires identical fault "
            "firings every time (the replay-by-seed guarantee)."
        ),
    )
    _add_fleet_common(p_fleet_chaos, suppress=True)
    p_fleet_chaos.add_argument(
        "--plan",
        required=True,
        metavar="PLAN",
        help="FaultPlan JSON file, or inline 'SITE[:key=val,...]' specs "
        "joined by ';'",
    )
    p_fleet_chaos.add_argument(
        "--out-dir",
        required=True,
        help="working directory (baseline/, run-NN/ and state-NN/ land here)",
    )
    p_fleet_chaos.add_argument(
        "--layout",
        choices=["shard", "block", "distributed"],
        default="block",
        help="export layout under test: the unresumable per-shard layout, "
        "the resumable per-block layout, or the distributed backend "
        "(default block)",
    )
    p_fleet_chaos.add_argument(
        "--scenario",
        default=None,
        metavar="KEY",
        help="run a registered scenario export instead of the host fleet",
    )
    p_fleet_chaos.add_argument(
        "--checkpoint-every",
        type=int,
        default=2,
        metavar="N",
        help="checkpoint cadence of the block layout (default 2)",
    )
    p_fleet_chaos.add_argument(
        "--workers",
        type=int,
        default=2,
        help="local worker processes (--layout distributed)",
    )
    p_fleet_chaos.add_argument(
        "--lease-blocks",
        type=int,
        default=4,
        help="RNG blocks per lease (--layout distributed)",
    )
    p_fleet_chaos.add_argument(
        "--runs",
        type=int,
        default=1,
        help="chaos legs to run; >1 also asserts identical firings across "
        "legs (default 1)",
    )
    p_fleet_chaos.add_argument(
        "--max-repairs",
        type=int,
        default=3,
        help="fault-free --resume legs allowed per run before declaring it "
        "unrecoverable (default 3)",
    )

    p_trace = sub.add_parser("trace", help="synthesise a SETI@home-like trace")
    p_trace.add_argument("--scale", type=float, default=0.02)
    p_trace.add_argument("--seed", type=int, default=20110611)
    p_trace.add_argument("--out", required=True, help="output CSV(.gz) path")
    p_trace.set_defaults(func=_cmd_trace)

    p_fit = sub.add_parser("fit", help="fit model parameters from a trace")
    p_fit.add_argument("--trace", required=True)
    p_fit.add_argument("--out", help="write parameter JSON here")
    p_fit.set_defaults(func=_cmd_fit)

    p_predict = sub.add_parser("predict", help="forecast host composition")
    p_predict.add_argument("--year", type=float, default=2014.0)
    p_predict.add_argument("--params", help="fitted parameter JSON (default: Table X)")
    p_predict.set_defaults(func=_cmd_predict)

    p_validate = sub.add_parser("validate", help="fit + Fig 12 validation")
    p_validate.add_argument("--trace", required=True)
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.set_defaults(func=_cmd_validate)

    p_simulate = sub.add_parser("simulate", help="run the Fig 15 utility experiment")
    p_simulate.add_argument("--trace", required=True)
    p_simulate.add_argument("--seed", type=int, default=0)
    p_simulate.set_defaults(func=_cmd_simulate)

    p_figures = sub.add_parser("figures", help="export figure data series as CSVs")
    p_figures.add_argument("--trace", required=True)
    p_figures.add_argument("--out", required=True, help="output directory")
    p_figures.add_argument(
        "--fit",
        action="store_true",
        help="use parameters fitted from the trace for the forecasts "
        "(default: Table X)",
    )
    p_figures.set_defaults(func=_cmd_figures)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as error:
        sys.stderr.write(f"{error}\n")
        return 2
    finally:
        if hasattr(args, "fault_spec"):
            # In-process callers (tests) must not inherit an armed plan
            # from a previous invocation's environment exports.
            from repro.faults import deactivate

            deactivate()


if __name__ == "__main__":
    raise SystemExit(main())
