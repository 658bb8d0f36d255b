"""Command-line tools built on the JRoute API.

The paper's Section 1: "Since JRoute is an API, it allows users to build
tools based on it.  These can range from debugging tools to extensions
that increase functionality."  This module is such a tool: a small CLI
over the library for poking at the simulated fabric without writing a
script.

Usage (``python -m repro <command> ...``)::

    parts                         list the Virtex family catalogue
    census [PART]                 fabric statistics of one part
    wires [SUBSTRING]             list wire names (optionally filtered)
    route PART R1 C1 WIRE1 R2 C2 WIRE2 [R3 C3 WIRE3 ...]
          [--batch] [--fault-rate R] [--fault-seed N] [--retry N]
          [--workers N] [--deadline-ms MS] [--wal FILE]
                                  auto-route from the first named pin to
                                  the remaining pin(s) and print the
                                  resulting trace; --batch instead pairs
                                  the pins up (SRC1 SINK1 SRC2 SINK2 ...)
                                  and routes all pairs as one batched
                                  point-to-point request
                                  (JRouter.route_p2p_batch, in-process;
                                  it takes no --workers > 1);
                                  --fault-rate injects a
                                  seeded stuck-open PIP rate, --retry
                                  enables rip-up/retry recovery with N
                                  attempts, --workers > 1 routes via
                                  the negotiated-congestion router,
                                  --deadline-ms bounds each
                                  request (a partial report instead of a
                                  hang), and --wal journals every PIP
                                  event to FILE for crash recovery
    recover WAL [--checkpoint FILE]
                                  rebuild a crashed session from its
                                  write-ahead log (and checkpoint) and
                                  print what was replayed/reconciled
    scrub [PART] [--flips N] [--seed N]
                                  demo the configuration scrubber: route
                                  a small design, inject N seeded SEUs,
                                  then detect, classify and repair them
    pads PART                     IOB ring inventory
    demo                          the paper's Section 3.1 walkthrough
    report                        markdown report of a small demo design
    run FILE                      execute a routing script (see
                                  repro.tools.script for the grammar)
    experiments [E1 E2 ...]       regenerate EXPERIMENTS.md tables
    serve [--part PART] [--workers N] [--host H] [--port P]
          [--data-dir DIR] [--queue-depth N] [--tenant-quota N]
          [--deadline-ms MS]
                                  run the routing daemon: an asyncio
                                  HTTP/JSON front door over a pool of
                                  supervised worker processes, each
                                  owning a durable device session (WAL
                                  shard + recovery).  Overload is shed
                                  with 429 + Retry-After; SIGTERM drains
                                  gracefully.  See docs/ROBUSTNESS.md §5
    submit R1 C1 WIRE1 R2 C2 WIRE2 [--host H] [--port P]
           [--tenant T] [--priority N] [--deadline-ms MS] [--no-wait]
                                  submit one point-to-point route job to
                                  a running daemon and (by default) wait
                                  for its terminal state
    analyze [PATH ...] [--json] [--strict] [--part PART]
            [--rules IDS] [--list-rules] [--diff GIT_REF]
            [--baseline FILE] [--write-baseline FILE]
                                  static analysis: lint routing artifacts
                                  (plans, template sets, WALs,
                                  checkpoints) against the fabric, and
                                  run every code rule over Python
                                  sources: a per-file AST pass plus
                                  the whole-program call-graph/CFG
                                  passes (global mutation, deadline
                                  polling, blocking calls, lock
                                  ordering, resource lifetimes);
                                  default target is the installed repro
                                  package itself.  --diff reports only
                                  files changed vs a git ref (the call
                                  graph stays whole-program); --baseline
                                  suppresses known findings.  Exit 1 on
                                  error findings (--strict: on any
                                  finding).  See docs/ANALYSIS.md.
"""

from __future__ import annotations

import sys

from . import errors
from .arch import devices, wires
from .arch.virtex import VirtexArch
from .core import JRouter, Pin

__all__ = ["main"]


def _cmd_parts(args: list[str]) -> int:
    print(f"{'part':10s} {'family':11s} {'rows':>5s} {'cols':>5s} {'CLBs':>6s}")
    for name in devices.part_names(None):
        p = devices.part(name)
        print(f"{p.name:10s} {p.family:11s} {p.rows:5d} {p.cols:5d} {p.clbs:6d}")
    return 0


def _cmd_census(args: list[str]) -> int:
    part = args[0] if args else "XCV50"
    arch = VirtexArch(part)
    existing = sum(arch.wire_exists(c) for c in range(arch.n_wires))
    from .arch import connectivity
    from .io import IoRing

    print(f"{arch.part.name}: {arch.rows}x{arch.cols} CLBs")
    print(f"  singles/direction : {wires.N_SINGLES_PER_DIR}")
    print(f"  hexes/direction   : {wires.N_HEXES_PER_DIR} (accessible)")
    print(f"  long lines        : {wires.N_LONGS} horizontal + {wires.N_LONGS} vertical")
    print(f"  global nets       : {wires.N_GCLK}")
    print(f"  pads              : {IoRing(arch).n_pads()}")
    print(f"  wire instances    : {existing:,} ({arch.n_wires:,} ids)")
    print(f"  PIP names/tile    : {connectivity.N_PIP_SLOTS:,}")
    return 0


def _cmd_wires(args: list[str]) -> int:
    needle = args[0].lower() if args else ""
    for n in range(wires.N_NAMES):
        label = wires.wire_name(n)
        if needle in label.lower():
            info = wires.wire_info(n)
            print(f"{n:4d}  {label:22s} {info.wire_class.name}")
    return 0


def _cmd_route(args: list[str]) -> int:
    usage = ("usage: route PART R1 C1 WIRE1 R2 C2 WIRE2 [R3 C3 WIRE3 ...] "
             "[--batch] [--fault-rate R] [--fault-seed N] [--retry N] "
             "[--workers N] [--deadline-ms MS] [--wal FILE]")
    batch = False
    fault_rate = 0.0
    fault_seed = 0
    retry_attempts = 0
    workers = 1
    deadline_ms: float | None = None
    wal_path: str | None = None
    pos: list[str] = []
    it = iter(args)
    try:
        for a in it:
            if a == "--batch":
                batch = True
            elif a == "--fault-rate":
                fault_rate = float(next(it))
            elif a == "--fault-seed":
                fault_seed = int(next(it))
            elif a == "--retry":
                retry_attempts = int(next(it))
            elif a == "--workers":
                workers = int(next(it))
            elif a == "--deadline-ms":
                deadline_ms = float(next(it))
            elif a == "--wal":
                wal_path = next(it)
            else:
                pos.append(a)
    except (StopIteration, ValueError):
        print(usage, file=sys.stderr)
        return 2
    if (
        len(pos) < 7
        or (len(pos) - 1) % 3 != 0
        or fault_rate < 0
        or retry_attempts < 0
        or workers < 1
        or (deadline_ms is not None and deadline_ms <= 0)
    ):
        print(usage, file=sys.stderr)
        return 2
    if batch and (len(pos) - 1) % 6 != 0:
        print("--batch pairs pins up: need an even number of pins "
              "(SRC1 SINK1 SRC2 SINK2 ...)", file=sys.stderr)
        return 2
    if batch and workers > 1:
        print("--batch routes in-process: --workers must be 1",
              file=sys.stderr)
        return 2
    part = pos[0]
    try:
        pins = [
            Pin(int(pos[i]), int(pos[i + 1]), wires.parse_wire_name(pos[i + 2]))
            for i in range(1, len(pos), 3)
        ]
    except KeyError as e:
        print(f"unknown wire name: {e}", file=sys.stderr)
        return 2
    except ValueError:
        print(usage, file=sys.stderr)
        return 2
    src, sinks = pins[0], pins[1:]
    from .core import RetryPolicy
    from .device import FaultModel

    faults = None
    if fault_rate > 0:
        faults = FaultModel.random(
            VirtexArch(part), seed=fault_seed, stuck_open_rate=fault_rate
        )
        print(f"injected faults: {faults}")
    retry = RetryPolicy(max_attempts=retry_attempts) if retry_attempts else None
    router = JRouter(
        part=part,
        faults=faults,
        retry=retry,
        workers=workers,
        deadline_ms=deadline_ms,
    )
    session = None
    if wal_path is not None:
        from .core import DurableSession

        session = DurableSession(router, wal_path)
        session.__enter__()
    try:
        if batch:
            # consecutive pin pairs ride one lockstepped batch search
            pairs = list(zip(pins[0::2], pins[1::2]))
            outcomes = router.route_p2p_batch(pairs)
            n = 0
            failed = 0
            for o in outcomes:
                if o.success:
                    n += o.pips_added
                    tag = o.method or "reused"
                    if o.rerouted:
                        tag += ", rerouted"
                    print(f"  pair {o.index}: {o.source} -> {o.sink} "
                          f"ok ({o.pips_added} PIPs, {tag})")
                else:
                    failed += 1
                    print(f"  pair {o.index}: {o.source} -> {o.sink} "
                          f"FAILED: {o.error}", file=sys.stderr)
            print(f"batch: {len(outcomes) - failed}/{len(outcomes)} pairs "
                  f"routed with {n} PIPs "
                  f"(template hits {router.p2p_template_hits}, "
                  f"maze fallbacks {router.p2p_maze_fallbacks})")
            if router.last_report is not None:
                print(f"report: {router.last_report.summary()}")
            return 1 if failed else 0
        if workers > 1:
            # negotiated bulk routing (partitioned across workers)
            result = router.route_nets([(src, sinks)])
            if not result.converged:
                reason = (
                    "deadline expired" if result.timed_out
                    else "pathfinder did not converge"
                )
                print(f"unroutable: {reason}", file=sys.stderr)
                return 1
            n = result.pips_added
        else:
            n = router.route(src, sinks if len(sinks) > 1 else sinks[0])
            if n == 0 and router.last_report is not None and (
                router.last_report.timed_out or router.last_report.breaker_open
            ):
                print(f"partial: {router.last_report.summary()}",
                      file=sys.stderr)
                return 1
    except errors.JRouteError as e:
        print(f"unroutable: {e}", file=sys.stderr)
        if router.last_report is not None:
            print(f"report: {router.last_report.summary()}", file=sys.stderr)
        return 1
    finally:
        if session is not None:
            session.checkpoint()
            session.close()
            print(f"journal: {wal_path} (seq {session.seq}), "
                  f"checkpoint written")
    print(f"routed with {n} PIPs "
          f"(template hits {router.p2p_template_hits}, "
          f"maze fallbacks {router.p2p_maze_fallbacks})")
    if router.last_report is not None and (faults or retry or workers > 1):
        print(f"report: {router.last_report.summary()}")
    print(router.trace(src).describe(router.device))
    return 0


def _cmd_pads(args: list[str]) -> int:
    from .io import IoRing, PadDirection, Side

    part = args[0] if args else "XCV50"
    ring = IoRing(VirtexArch(part))
    print(f"{part}: {ring.n_pads()} pads")
    for side in Side:
        ins = len(ring.pads(side, PadDirection.IN))
        outs = len(ring.pads(side, PadDirection.OUT))
        print(f"  {side.value:5s}: {ins} in, {outs} out")
    return 0


def _cmd_demo(args: list[str]) -> int:
    router = JRouter(part="XCV50")
    print("paper Section 3.1 example: S1_YQ@(5,7) -> S0F3@(6,8)\n")
    router.route(5, 7, wires.S1_YQ, wires.OUT[1])
    router.route(5, 7, wires.OUT[1], wires.SINGLE_E[5])
    router.route(5, 8, wires.SINGLE_W[5], wires.SINGLE_N[0])
    router.route(6, 8, wires.SINGLE_S[0], wires.S0F[3])
    print(router.trace(Pin(5, 7, wires.S1_YQ)).describe(router.device))
    return 0


def _cmd_report(args: list[str]) -> int:
    from .cores import AccumulatorCore, ConstantCore
    from .tools import design_report

    router = JRouter(part="XCV100")
    acc = AccumulatorCore(router, "acc", 2, 2, width=4)
    k = ConstantCore(router, "k", 2, 4, width=4, value=3)
    router.route(list(k.get_ports("out")), list(acc.get_ports("in")))
    print(design_report(router, title="Demo design report"))
    return 0


def _cmd_run(args: list[str]) -> int:
    from .tools.script import ScriptError, run_script

    if len(args) != 1:
        print("usage: run FILE", file=sys.stderr)
        return 2
    try:
        with open(args[0]) as fh:
            text = fh.read()
    except OSError as e:
        print(f"cannot read {args[0]}: {e}", file=sys.stderr)
        return 2
    try:
        result = run_script(text)
    except ScriptError as e:
        print(f"script failed: {e}", file=sys.stderr)
        return 1
    print(f"{result.statements} statement(s), {result.pips_added} PIPs added "
          f"on {result.router.device.arch.part.name}")
    return 0


def _cmd_recover(args: list[str]) -> int:
    usage = "usage: recover WAL [--checkpoint FILE]"
    checkpoint: str | None = None
    pos: list[str] = []
    it = iter(args)
    try:
        for a in it:
            if a == "--checkpoint":
                checkpoint = next(it)
            else:
                pos.append(a)
    except StopIteration:
        print(usage, file=sys.stderr)
        return 2
    if len(pos) != 1:
        print(usage, file=sys.stderr)
        return 2
    from .core import recover
    from .debug import BoardScope

    try:
        router, report = recover(pos[0], checkpoint_path=checkpoint)
    except (OSError, errors.JRouteError) as e:
        print(f"recovery failed: {e}", file=sys.stderr)
        return 1
    print(report.summary())
    scope = BoardScope(router.device, router.jbits)
    print(f"state: {scope.summary()}")
    print(f"fingerprint: {report.fingerprint}")
    problems = scope.crosscheck()
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_scrub(args: list[str]) -> int:
    usage = "usage: scrub [PART] [--flips N] [--seed N]"
    n_flips = 4
    seed = 2026
    pos: list[str] = []
    it = iter(args)
    try:
        for a in it:
            if a == "--flips":
                n_flips = int(next(it))
            elif a == "--seed":
                seed = int(next(it))
            else:
                pos.append(a)
    except (StopIteration, ValueError):
        print(usage, file=sys.stderr)
        return 2
    if len(pos) > 1 or n_flips < 1:
        print(usage, file=sys.stderr)
        return 2
    part = pos[0] if pos else "XCV50"
    from .core import Scrubber, inject_seu
    from .jbits.readback import verify_against_device

    router = JRouter(part=part)
    router.route(Pin(5, 5, wires.S0_YQ), Pin(7, 7, wires.S0F[1]))
    router.route(
        Pin(2, 2, wires.S1_YQ),
        [Pin(4, 4, wires.S0F[2]), Pin(1, 5, wires.S1G[3])],
    )
    assert router.jbits is not None
    scrubber = Scrubber(router.jbits.memory, device=router.device)
    flipped = inject_seu(router.jbits.memory, n_flips=n_flips, seed=seed)
    print(f"injected {len(flipped)} SEU(s) into {part} configuration")
    report = scrubber.scrub()
    print(report.summary())
    for rec in report.records:
        print(f"  {rec}")
    coherent = not verify_against_device(router.jbits.memory, router.device)
    print(f"bitstream/state coherent after scrub: {coherent}")
    return 0 if coherent and not scrubber.scan().drifted_frames else 1


def _cmd_analyze(args: list[str]) -> int:
    usage = ("usage: analyze [PATH ...] [--json] [--strict] [--part PART] "
             "[--rules RPR001,RL004,...] [--list-rules] [--diff GIT_REF] "
             "[--baseline FILE] [--write-baseline FILE]")
    from .analysis import RULES, Severity, analyze_paths, filter_rules
    from .analysis.driver import changed_files, load_baseline, write_baseline

    as_json = False
    strict = False
    list_rules = False
    part: str | None = None
    rules: "frozenset[str] | None" = None
    diff_ref: str | None = None
    baseline_path: str | None = None
    write_baseline_path: str | None = None
    paths: list[str] = []
    it = iter(args)
    try:
        for a in it:
            if a == "--json":
                as_json = True
            elif a == "--strict":
                strict = True
            elif a == "--list-rules":
                list_rules = True
            elif a == "--part":
                part = next(it)
            elif a == "--rules":
                rules = filter_rules(next(it))
            elif a == "--diff":
                diff_ref = next(it)
            elif a == "--baseline":
                baseline_path = next(it)
            elif a == "--write-baseline":
                write_baseline_path = next(it)
            elif a.startswith("-"):
                print(usage, file=sys.stderr)
                return 2
            else:
                paths.append(a)
    except StopIteration:
        print(usage, file=sys.stderr)
        return 2
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if list_rules:
        for r in RULES.values():
            print(f"{r.id}  {r.severity.value:7s} {r.layer:8s} "
                  f"{r.name}: {r.summary}")
        return 0
    changed: "set[str] | None" = None
    baseline = None
    try:
        if diff_ref is not None:
            changed = changed_files(diff_ref)
        if baseline_path is not None:
            baseline = load_baseline(baseline_path)
    except (ValueError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2
    report = analyze_paths(paths or None, part=part, rules=rules,
                           changed_only=changed, baseline=baseline)
    if write_baseline_path is not None:
        n = write_baseline(report, write_baseline_path)
        print(f"wrote {n} baseline entries to {write_baseline_path}",
              file=sys.stderr)
    if as_json:
        print(report.to_json())
    else:
        print(report.render_text())
    worst = report.worst()
    if worst is None:
        return 0
    if strict or worst is Severity.ERROR:
        return 1
    return 0


def _cmd_experiments(args: list[str]) -> int:
    from .bench.__main__ import main as bench_main

    return bench_main(args)


def _cmd_serve(args: list[str]) -> int:
    usage = (
        "usage: serve [--part PART] [--workers N] [--host H] [--port P] "
        "[--data-dir DIR] [--queue-depth N] [--tenant-quota N] "
        "[--deadline-ms MS]"
    )
    opts = {
        "--part": "XCV50", "--workers": "2", "--host": "127.0.0.1",
        "--port": "8787", "--data-dir": "./repro-service",
        "--queue-depth": "256", "--tenant-quota": "64",
        "--deadline-ms": "5000",
    }
    it = iter(args)
    try:
        for a in it:
            if a in opts:
                opts[a] = next(it)
            else:
                print(usage, file=sys.stderr)
                return 2
    except StopIteration:
        print(usage, file=sys.stderr)
        return 2

    import asyncio

    from .service import RoutingService, ServiceConfig

    config = ServiceConfig(
        part=opts["--part"],
        workers=int(opts["--workers"]),
        queue_depth=int(opts["--queue-depth"]),
        tenant_quota=int(opts["--tenant-quota"]),
        default_deadline_ms=float(opts["--deadline-ms"]),
    )
    svc = RoutingService(
        config, opts["--data-dir"],
        host=opts["--host"], port=int(opts["--port"]),
    )

    async def _serve() -> None:
        await svc.start()
        svc.install_signal_handlers()
        print(
            f"repro serve: {config.part} x{config.workers} workers on "
            f"http://{svc.host}:{svc.port} (data: {opts['--data-dir']})"
        )
        await svc.serve_forever()

    asyncio.run(_serve())
    return 0


def _cmd_submit(args: list[str]) -> int:
    usage = (
        "usage: submit R1 C1 WIRE1 R2 C2 WIRE2 [--host H] [--port P] "
        "[--tenant T] [--priority N] [--deadline-ms MS] [--no-wait]"
    )
    opts = {
        "--host": "127.0.0.1", "--port": "8787",
        "--tenant": "default", "--priority": "0", "--deadline-ms": None,
    }
    wait = True
    pos: list[str] = []
    it = iter(args)
    try:
        for a in it:
            if a == "--no-wait":
                wait = False
            elif a in opts:
                opts[a] = next(it)
            else:
                pos.append(a)
    except StopIteration:
        print(usage, file=sys.stderr)
        return 2
    if len(pos) != 6:
        print(usage, file=sys.stderr)
        return 2

    import json as _json

    from .service import ServiceClient
    from .service.client import ServiceError

    def pin(r, c, w):
        return [int(r), int(c), w if not w.isdigit() else int(w)]

    client = ServiceClient(opts["--host"], int(opts["--port"]))
    deadline = opts["--deadline-ms"]
    try:
        status, doc = client.submit(
            pin(*pos[0:3]), pin(*pos[3:6]),
            tenant=opts["--tenant"],
            priority=int(opts["--priority"]),
            deadline_ms=None if deadline is None else float(deadline),
            wait=wait,
        )
    except ServiceError as e:
        print(f"submit failed: {e}", file=sys.stderr)
        return 1
    finally:
        client.close()
    print(_json.dumps(doc, indent=2))
    if status in (200, 202):
        return 0 if doc.get("state") != "failed" else 1
    return 1


_COMMANDS = {
    "parts": _cmd_parts,
    "census": _cmd_census,
    "wires": _cmd_wires,
    "route": _cmd_route,
    "pads": _cmd_pads,
    "demo": _cmd_demo,
    "report": _cmd_report,
    "run": _cmd_run,
    "recover": _cmd_recover,
    "scrub": _cmd_scrub,
    "experiments": _cmd_experiments,
    "analyze": _cmd_analyze,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(__doc__)
        return 0
    cmd = argv[0].lower()
    fn = _COMMANDS.get(cmd)
    if fn is None:
        print(f"unknown command {cmd!r}; try: {', '.join(_COMMANDS)}",
              file=sys.stderr)
        return 2
    try:
        return fn(argv[1:])
    except BrokenPipeError:  # e.g. `python -m repro parts | head`
        return 0
