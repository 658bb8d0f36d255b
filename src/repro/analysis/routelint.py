"""Layer 1: fabric-aware linting of routing artifacts — no routing runs.

Everything the runtime eventually refuses (a nonexistent wire, a missing
PIP, two drivers on one bidirectional wire, an unreplayable journal) is
detectable *statically* against the architecture description, before a
session starts.  This module validates:

* :class:`~repro.core.path.Path` objects and serialized PIP plans —
  wire/PIP existence, tile adjacency, direction legality (RL001-RL003);
* plan *sets* — cross-plan drive-conflict and loop prediction, the
  static form of the paper's ``isOn`` contention exception (RL004) and
  of the device's loop check (RL010);
* :class:`~repro.core.template.Template` values and predefined template
  sets — per-step transition legality and fabric bounds (RL005),
  dead/duplicate entries (RL006);
* port maps — pin existence and direction legality (RL001/RL003);
* WAL and checkpoint files — frame integrity and replay legality
  (RL007-RL009), built on :func:`repro.core.wal.iter_wal_frames`.

All functions return :class:`~repro.analysis.findings.Finding` lists and
never raise on bad artifacts; raising is reserved for unreadable input.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from ..arch import devices, wires
from ..arch import templates as tmpl
from ..arch.templates import TemplateValue
from ..arch.virtex import VirtexArch
from ..core.endpoints import Port, PortDirection
from ..core.path import Path
from ..core.template import Template
from ..core.wal import is_torn_header, iter_wal_frames, load_checkpoint
from ..device.state import CONTENTION, SAME, drive_verdict
from ..errors import JRouteError
from ..routers.base import PlanPip
from .findings import Finding, Severity
from . import plans as planio

__all__ = [
    "lint_path",
    "lint_plan",
    "lint_plans",
    "lint_template",
    "lint_template_set",
    "lint_port_map",
    "lint_wal_file",
    "lint_checkpoint_file",
    "lint_artifact_file",
]

#: reason code from :meth:`VirtexArch.pip_legal_at` -> (rule, message)
_PIP_REASONS = {
    "unknown-name": ("RL001", "wire name out of range"),
    "missing-from": ("RL001", "source wire does not exist at this tile"),
    "missing-to": ("RL001", "target wire does not exist at this tile"),
    "missing-pip": ("RL002", "no architecture PIP between these wires"),
    "undrivable": ("RL003", "target wire cannot be driven at this tile"),
    "self-drive": ("RL002", "source and target are the same physical wire"),
}


def _name(n: int) -> str:
    return wires.wire_name(n) if 0 <= n < wires.N_NAMES else f"<{n}>"


def _illegal(
    reason: str, r: int, c: int, f: int, t: int, **where: int | str | None
) -> Finding:
    """The finding for a :meth:`VirtexArch.pip_legal_at` reason code;
    ``where`` holds the file, line and context keys that locate it."""
    rule, detail = _PIP_REASONS[reason]
    return Finding.make(
        rule,
        Severity.ERROR,
        f"PIP {_name(f)} -> {_name(t)} at ({r},{c}): {detail}",
        hint=(
            "check the step against `repro wires` and the part geometry"
            if rule == "RL001"
            else "pick a connection the architecture provides "
            "(see Device.fanout_pips)"
        ),
        at=(r, c),
        wire=_name(t),
        **where,
    )


# -- plans and paths -----------------------------------------------------------


def lint_plan(
    arch: VirtexArch,
    plan: Sequence[PlanPip],
    *,
    file: str = "",
    plan_name: str | int = 0,
    driven: dict[int, tuple[int, str | int, int]] | None = None,
) -> list[Finding]:
    """Validate one PIP plan as ``turn_on`` would apply it, in order:
    legality (RL001-RL003), then against the accepted steps a second
    driver (RL004) or a loop (RL010); a refused step is skipped.

    ``driven`` maps each accepted wire to ``(canon_from, plan_name,
    step)``; pass one dict across the plans of a deployment set to judge
    them *between* plans as well as within one.
    """
    findings: list[Finding] = []
    driven = {} if driven is None else driven

    def driver_of(canon: int) -> int:
        prior = driven.get(canon)
        return -1 if prior is None else prior[0]

    for step, (r, c, f, t) in enumerate(plan):
        reason, canon_from, canon_to = arch.pip_legal_at(r, c, f, t)
        if reason is not None:
            findings.append(
                _illegal(reason, r, c, f, t, file=file, plan=plan_name, step=step)
            )
            continue
        verdict = drive_verdict(driver_of, canon_from, canon_to)
        if verdict is None or verdict == SAME:
            driven[canon_to] = (canon_from, plan_name, step)
            continue
        if verdict == CONTENTION:
            _, other_plan, other_step = driven[canon_to]
            rule, message = "RL004", (
                f"{_name(t)} at ({r},{c}) is driven twice: plan "
                f"{plan_name!r} step {step} conflicts with plan "
                f"{other_plan!r} step {other_step}"
            )
            hint = "ContentionError on the second turn_on; reroute one of the nets"
        else:
            rule, message = "RL010", (
                f"plan {plan_name!r} step {step}: {_name(f)} -> "
                f"{_name(t)} at ({r},{c}) closes a routing loop"
            )
            hint = "RoutingLoopError on this turn_on; a net must not feed itself"
        findings.append(
            Finding.make(
                rule,
                Severity.ERROR,
                message,
                hint="the device would raise " + hint,
                file=file,
                plan=plan_name,
                step=step,
                at=(r, c),
                wire=_name(t),
            )
        )
    return findings


def lint_plans(
    arch: VirtexArch,
    named_plans: Sequence[tuple[str, Sequence[PlanPip]]],
    *,
    file: str = "",
) -> list[Finding]:
    """Validate a set of plans together (cross-plan conflict analysis)."""
    findings: list[Finding] = []
    driven: dict[int, tuple[int, str | int, int]] = {}
    for net, plan in named_plans:
        findings.extend(
            lint_plan(arch, plan, file=file, plan_name=net, driven=driven)
        )
    return findings


def lint_path(
    arch: VirtexArch, path: Path, *, file: str = ""
) -> list[Finding]:
    """Validate a level-2 :class:`Path` without resolving it on a device:
    the step :meth:`Path.place` (the walk behind :meth:`Path.resolve`)
    could not place, and every placed step whose target is undrivable."""
    plan, stuck = path.place(arch)
    findings: list[Finding] = []
    for step, (r, c, _, to_wire) in enumerate(plan, start=1):
        if not arch.drivable(r, c, to_wire):
            findings.append(
                Finding.make(
                    "RL003",
                    Severity.ERROR,
                    f"path step {step}: {_name(to_wire)} cannot be "
                    f"driven at ({r},{c}) (direction legality)",
                    hint="odd hexes and pure sources only drive one "
                    "way; approach from the other end",
                    file=file,
                    at=(r, c),
                    wire=_name(to_wire),
                    step=step,
                )
            )
    if stuck is None:
        return findings
    step, r0, c0, n0 = stuck
    if step == 0:
        findings.append(
            Finding.make(
                "RL001",
                Severity.ERROR,
                f"path start {_name(n0)} does not exist at ({r0},{c0})",
                hint="start a path on a wire the tile owns",
                file=file,
                at=(r0, c0),
                wire=_name(n0),
            )
        )
    else:
        to_wire = path.wires[step]
        findings.append(
            Finding.make(
                "RL002",
                Severity.ERROR,
                f"path step {step}: cannot drive {_name(to_wire)} "
                f"from {_name(n0)} near ({r0},{c0})",
                hint="insert an intermediate resource the "
                "architecture connects, or drop to a template",
                file=file,
                at=(r0, c0),
                wire=_name(to_wire),
                step=step,
            )
        )
    return findings


# -- templates -----------------------------------------------------------------


def lint_template(
    arch: VirtexArch,
    template: Template | Sequence[TemplateValue],
    *,
    start: tuple[int, int] | None = None,
    file: str = "",
    template_index: int | None = None,
) -> list[Finding]:
    """Validate one template: transition legality and fabric bounds.

    Every consecutive value pair must be realisable by *some* PIP of the
    architecture (:func:`repro.arch.templates.legal_transition`); with a
    ``start`` tile the displacement cursor must additionally stay on the
    device.  Both are necessary conditions — a clean template can still
    fail at routing time on occupancy.
    """
    values = list(
        template.values if isinstance(template, Template) else template
    )
    findings: list[Finding] = []

    def tag(msg: str, step: int, hint: str) -> Finding:
        return Finding.make(
            "RL005",
            Severity.ERROR,
            msg,
            hint=hint,
            file=file,
            step=step,
            template=template_index,
        )

    if not values:
        return [
            tag(
                "empty template",
                0,
                "a template needs at least one value",
            )
        ]
    for step in range(1, len(values)):
        a, b = values[step - 1], values[step]
        if not tmpl.legal_transition(a, b):
            findings.append(
                tag(
                    f"step {step}: no fabric PIP realises "
                    f"{a.name} -> {b.name}",
                    step,
                    "consult the connectivity tables; e.g. hexes cannot "
                    "drive CLB inputs directly — land on a single first",
                )
            )
    if start is not None:
        row, col = start
        r: int | None = row
        c: int | None = col
        for step, v in enumerate(values):
            d = tmpl.step_displacement(v)
            if d is None:
                # long/global: row or column becomes data-dependent
                if v is TemplateValue.LONGH:
                    c = None
                elif v is TemplateValue.LONGV:
                    r = None
                else:
                    r = c = None
                continue
            r = None if r is None else r + d[0]
            c = None if c is None else c + d[1]
            if (r is not None and not 0 <= r < arch.rows) or (
                c is not None and not 0 <= c < arch.cols
            ):
                findings.append(
                    tag(
                        f"step {step}: {v.name} leaves the "
                        f"{arch.rows}x{arch.cols} fabric of "
                        f"{arch.part.name} (cursor ({r},{c}))",
                        step,
                        "shorten the movement or start the route "
                        "further from the edge",
                    )
                )
                break
    return findings


def lint_template_set(
    arch: VirtexArch,
    templates: Sequence[Template | Sequence[TemplateValue]],
    *,
    displacement: tuple[int, int] | None = None,
    start: tuple[int, int] | None = None,
    file: str = "",
) -> list[Finding]:
    """Validate a candidate template set (the auto-router's menu).

    Beyond per-template legality, flags *dead entries* (RL006): exact
    duplicates that can never be chosen because an earlier identical
    entry always matches first, and — when the set declares a target
    ``displacement`` — entries whose net movement cannot reach it.
    """
    findings: list[Finding] = []
    seen: dict[tuple[TemplateValue, ...], int] = {}
    for i, entry in enumerate(templates):
        values = tuple(
            entry.values if isinstance(entry, Template) else entry
        )
        findings.extend(
            lint_template(
                arch, values, start=start, file=file, template_index=i
            )
        )
        first = seen.get(values)
        if first is not None:
            findings.append(
                Finding.make(
                    "RL006",
                    Severity.WARNING,
                    f"template {i} duplicates template {first}; the "
                    f"router tries entries in order, so it is dead",
                    hint="remove the duplicate entry",
                    file=file,
                    template=i,
                )
            )
            continue
        seen[values] = i
        if displacement is not None:
            fixed = [tmpl.step_displacement(v) for v in values]
            if None not in fixed:
                dr = sum(d[0] for d in fixed)  # type: ignore[index]
                dc = sum(d[1] for d in fixed)  # type: ignore[index]
                if (dr, dc) != tuple(displacement):
                    findings.append(
                        Finding.make(
                            "RL006",
                            Severity.WARNING,
                            f"template {i} travels ({dr},{dc}), not the "
                            f"declared ({displacement[0]},"
                            f"{displacement[1]}); it can never reach "
                            f"the sink",
                            hint="regenerate the set with "
                            "predefined_templates(drow, dcol)",
                            file=file,
                            template=i,
                        )
                    )
    return findings


# -- port maps -----------------------------------------------------------------


def lint_port_map(
    arch: VirtexArch,
    ports: Iterable[Port | tuple[str, int, int, int, str]],
    *,
    file: str = "",
) -> list[Finding]:
    """Validate a port map: every pin exists and matches its direction.

    Accepts live :class:`Port` objects (resolved to their pins) or raw
    ``(label, row, col, wire_name, "in"|"out")`` tuples.  Output ports
    must sit on source-capable wires, input ports on sink/drivable
    wires (RL003); nonexistent pins are RL001.
    """
    findings: list[Finding] = []
    flat: list[tuple[str, int, int, int, str]] = []
    for p in ports:
        if isinstance(p, Port):
            try:
                pins = p.resolve_pins()
            except JRouteError:  # repro: noqa RPR006
                continue  # unconnected ports are legal until routed
            for pin in pins:
                flat.append(
                    (
                        p.name,
                        pin.row,
                        pin.col,
                        pin.wire,
                        "out" if p.direction is PortDirection.OUT else "in",
                    )
                )
        else:
            flat.append(p)
    for label, row, col, name, direction in flat:
        if not 0 <= name < wires.N_NAMES or (
            arch.canonicalize(row, col, name) is None
        ):
            findings.append(
                Finding.make(
                    "RL001",
                    Severity.ERROR,
                    f"port {label!r}: pin {_name(name)} does not exist "
                    f"at ({row},{col})",
                    hint="place the core so its pins stay on the fabric",
                    file=file,
                    at=(row, col),
                    wire=_name(name),
                )
            )
            continue
        if direction == "out" and not wires.is_source_name(name):
            findings.append(
                Finding.make(
                    "RL003",
                    Severity.ERROR,
                    f"port {label!r}: output pin {_name(name)} at "
                    f"({row},{col}) is not a signal source",
                    hint="an OUT port must resolve to a slice output, "
                    "OMUX or pad-input wire",
                    file=file,
                    at=(row, col),
                    wire=_name(name),
                )
            )
        elif direction == "in" and not wires.is_sink_name(name):
            findings.append(
                Finding.make(
                    "RL003",
                    Severity.ERROR,
                    f"port {label!r}: input pin {_name(name)} at "
                    f"({row},{col}) is not a routable sink",
                    hint="an IN port must resolve to a slice/control "
                    "input or pad-output wire",
                    file=file,
                    at=(row, col),
                    wire=_name(name),
                )
            )
    return findings


# -- WAL / checkpoint files ----------------------------------------------------


def lint_wal_file(
    path: str, *, part: str | None = None
) -> list[Finding]:
    """Validate a write-ahead log: frames (RL007) and replay (RL008).

    Frame checks mirror what recovery tolerates: a torn *tail* is the
    expected crash artifact (warning), and so is a header torn before
    its newline (for ``part``, or for any catalogue part when ``part``
    is None), while corruption *before* intact
    frames, CRC mismatches and sequence gaps mean the log cannot be
    trusted (error).  Replay checks apply the device's own rules
    (:meth:`VirtexArch.pip_legal_at`, then
    :func:`~repro.device.state.drive_verdict` over the drives replayed so
    far), so contention and loop protection trips are predicted offline.
    """
    findings: list[Finding] = []
    header, frames = iter_wal_frames(path)
    if header is None:
        # a header torn before its newline is what creating the log
        # leaves on a crash; recovery reads it as an empty log
        parts = (part,) if part is not None else devices.part_names(None)
        torn = any(is_torn_header(path, p) for p in parts)
        return [
            Finding.make(
                "RL007",
                Severity.WARNING if torn else Severity.ERROR,
                "torn tail record (crash artifact)"
                if torn
                else "not a WAL: bad or missing header",
                hint="recovery drops a torn tail automatically"
                if torn
                else "line 1 must be the JSON header the WriteAheadLog writes",
                file=path,
                line=1,
            )
        ]
    wal_part = str(header.get("part", part or "XCV50"))
    if part is not None and wal_part != part:
        findings.append(
            Finding.make(
                "RL007",
                Severity.ERROR,
                f"WAL is for part {wal_part!r}, expected {part!r}",
                hint="lint with --part matching the session",
                file=path,
                line=1,
            )
        )
    try:
        arch = VirtexArch(wal_part)
    except KeyError:
        return findings + [
            Finding.make(
                "RL007",
                Severity.ERROR,
                f"unknown part {wal_part!r} in WAL header",
                hint="the header names a part the catalogue lacks",
                file=path,
                line=1,
            )
        ]
    expect = 0
    driver: dict[int, int] = {}  # canon_to -> canon_from, as replay leaves it

    def driver_of(canon: int) -> int:
        return driver.get(canon, -1)

    for i, frame in enumerate(frames):
        rec = frame.record
        if rec is None:
            is_tail = i == len(frames) - 1
            findings.append(
                Finding.make(
                    "RL007",
                    Severity.WARNING if is_tail else Severity.ERROR,
                    "torn tail record (crash artifact)"
                    if is_tail
                    else "corrupt frame before intact records",
                    hint="recovery drops a torn tail automatically"
                    if is_tail
                    else "the log was modified or interleaved; do not "
                    "replay past this point",
                    file=path,
                    line=frame.line,
                )
            )
            if is_tail:
                break
            continue
        if rec.seq != expect:
            findings.append(
                Finding.make(
                    "RL007",
                    Severity.ERROR,
                    f"sequence gap: expected seq {expect}, found "
                    f"{rec.seq}",
                    hint="records were lost or reordered; recovery "
                    "stops at the gap",
                    file=path,
                    line=frame.line,
                    seq=rec.seq,
                )
            )
            expect = rec.seq + 1
        else:
            expect += 1
        r, c, f, t = rec.row, rec.col, rec.from_name, rec.to_name
        where = dict(file=path, line=frame.line, seq=rec.seq)
        reason, canon_from, canon_to = arch.pip_legal_at(r, c, f, t)
        if reason is not None:
            findings.append(_illegal(reason, r, c, f, t, **where))
            continue
        verdict = drive_verdict(driver_of, canon_from, canon_to)
        if rec.on and (verdict is None or verdict == SAME):
            driver[canon_to] = canon_from
            continue
        if not rec.on and verdict == SAME:
            del driver[canon_to]
            continue
        severity = Severity.ERROR
        if not rec.on:
            severity = Severity.WARNING
            message = f"off-event for a PIP that is not on ({_name(f)} -> {_name(t)})"
            hint = "idempotent replay skips it, but the journal and the session disagree"
        elif verdict == CONTENTION:
            message = (
                f"{_name(t)} at ({r},{c}) is already driven; "
                f"replay would raise ContentionError"
            )
            hint = "the journal interleaves two sessions or skipped an off-event"
        else:
            message = f"turning on {_name(f)} -> {_name(t)} closes a routing loop"
            hint = "replay would raise RoutingLoopError"
        findings.append(
            Finding.make(
                "RL008",
                severity,
                f"seq {rec.seq}: {message}",
                hint=hint,
                at=(r, c),
                wire=_name(t),
                **where,
            )
        )
    return findings


def lint_checkpoint_file(
    path: str, *, wal_path: str | None = None
) -> list[Finding]:
    """Validate a checkpoint: integrity, PIP preorder, net consistency.

    RL009 covers: CRC/version damage, a PIP list that is not replayable
    in order (drivers must precede the wires they drive — the property
    ``write_checkpoint`` guarantees), net records whose wires do not
    exist, and — when the session's WAL is supplied — part/sequence
    disagreement between the two artifacts.
    """

    def bad(msg: str, hint: str, **ctx: int | str | None) -> Finding:
        return Finding.make(
            "RL009", Severity.ERROR, msg, hint=hint, file=path, **ctx
        )

    try:
        body = load_checkpoint(path)
    except JRouteError:
        return [
            bad(
                "corrupt checkpoint (bad CRC or version)",
                "checkpoints are atomic; restore the previous one",
            )
        ]
    except ValueError:
        return [
            bad(
                "checkpoint is not valid JSON",
                "the file was truncated or is not a checkpoint",
            )
        ]
    findings: list[Finding] = []
    part = str(body.get("part", "XCV50"))
    try:
        arch = VirtexArch(part)
    except KeyError:
        return [
            bad(
                f"unknown part {part!r} in checkpoint",
                "the checkpoint names a part the catalogue lacks",
            )
        ]
    driven: set[int] = set()
    for step, pip in enumerate(body.get("pips", [])):
        r, c, f, t = pip
        reason, canon_from, canon_to = arch.pip_legal_at(r, c, f, t)
        if reason is not None:
            findings.append(_illegal(reason, r, c, f, t, file=path, step=step))
            continue
        if canon_to in driven:
            findings.append(
                bad(
                    f"pip {step} re-drives {_name(t)} at ({r},{c})",
                    "write_checkpoint emits each wire once; this "
                    "checkpoint was hand-edited or merged",
                    step=step,
                    at=(r, c),
                    wire=_name(t),
                )
            )
        if (
            canon_from not in driven
            and not wires.is_source_name(arch.primary_name(canon_from)[2])
            and arch.wire_class_of(canon_from).name != "GCLK"
        ):
            findings.append(
                bad(
                    f"pip {step} drives from {_name(f)} at ({r},{c}) "
                    f"before anything drives it (preorder violation)",
                    "replay applies pips in order; reorder drivers "
                    "before the wires they feed",
                    step=step,
                    at=(r, c),
                    wire=_name(f),
                )
            )
        driven.add(canon_to)
    for src_str, net in body.get("nets", {}).items():
        try:
            src = int(src_str)
        except ValueError:
            findings.append(
                bad(
                    f"net key {src_str!r} is not a canonical wire id",
                    "net records are keyed by the source wire's "
                    "canonical id",
                )
            )
            continue
        for canon in [src, *net.get("sinks", [])]:
            if not arch.wire_exists(canon):
                findings.append(
                    bad(
                        f"net {src_str}: wire id {canon} does not exist "
                        f"on {part}",
                        "the checkpoint and part geometry disagree",
                        net=src,
                    )
                )
    if wal_path is not None and os.path.exists(wal_path):
        header, frames = iter_wal_frames(wal_path)
        if header is not None:
            wal_part = header.get("part")
            if wal_part != part:
                findings.append(
                    bad(
                        f"checkpoint part {part!r} != WAL part "
                        f"{wal_part!r}",
                        "these artifacts are from different sessions",
                    )
                )
            last_seq = max(
                (f.record.seq for f in frames if f.record is not None),
                default=-1,
            )
            ckpt_seq = int(body.get("seq", 0))
            if ckpt_seq > last_seq + 1:
                findings.append(
                    bad(
                        f"checkpoint seq {ckpt_seq} is past the end of "
                        f"the WAL (last seq {last_seq})",
                        "the WAL was truncated after the checkpoint "
                        "was written; recovery would silently lose "
                        "events",
                        seq=ckpt_seq,
                    )
                )
    return findings


# -- file dispatch -------------------------------------------------------------


def lint_artifact_file(
    path: str, *, part: str | None = None
) -> tuple[str, list[Finding]]:
    """Sniff and lint one artifact file.

    Returns ``(kind, findings)`` where ``kind`` is the detected artifact
    type.  Unknown formats produce a single RL007 info-level finding
    rather than an error, so mixed directories can be swept.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    kind = planio.sniff_artifact(text)
    if kind == "plan":
        try:
            plan_part, named = planio.load_plans(text)
        except (JRouteError, ValueError, TypeError) as e:
            return "plan", [
                Finding.make(
                    "RL001",
                    Severity.ERROR,
                    f"unreadable plan file: {e}",
                    hint="regenerate with repro.analysis.plans.dump_plans",
                    file=path,
                )
            ]
        arch = VirtexArch(part or plan_part)
        return "plan", lint_plans(arch, named, file=path)
    if kind == "templates":
        try:
            tpl_part, tpls, extras = planio.load_template_set(text)
        except (JRouteError, ValueError, TypeError) as e:
            return "templates", [
                Finding.make(
                    "RL005",
                    Severity.ERROR,
                    f"unreadable template-set file: {e}",
                    hint="regenerate with "
                    "repro.analysis.plans.dump_template_set",
                    file=path,
                )
            ]
        arch = VirtexArch(part or tpl_part)
        return "templates", lint_template_set(
            arch,
            tpls,
            displacement=extras.get("displacement"),
            start=extras.get("start"),
            file=path,
        )
    if kind == "wal":
        return "wal", lint_wal_file(path, part=part)
    if kind == "checkpoint":
        ckpt = lint_checkpoint_file(path)
        return "checkpoint", ckpt
    return "unknown", [
        Finding.make(
            "RL007",
            Severity.INFO,
            "unrecognised artifact format",
            hint="expected a repro-plan/repro-templates file, a WAL or "
            "a checkpoint",
            file=path,
        )
    ]
