"""The one table of manageable features behind the management verbs.

``configure(feature, **options)`` switches a feature on or retunes it
and ``invoke(feature, action, **params)`` runs a named action.  Every
row has a ``status`` action; ``feature_status(feature)`` is
``invoke(feature, "status")``, and a successful ``configure`` answers
with the same document.  All three return a
:class:`~repro.core.api.ManagementResult` and capture failures:
``UNKNOWN_FEATURE``, ``BAD_CONFIG``, ``BAD_REQUEST`` (unknown action or
parameter), or a failing action's own code.  ``enabled`` lives on the
envelope and is stripped from every ``state``.  Row functions take the
answering façade: a :class:`~repro.core.server.TieraServer`, or the
shard router itself for ``router`` rows.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.api import ManagementResult
from repro.core.errors import (
    BAD_CONFIG, BAD_REQUEST, TieraError, UnknownFeatureError, code_for,
)
from repro.simcloud.errors import SimCloudError
from repro.simcloud.resources import RequestContext

Doc = Dict[str, object]

#: Failures an action reports in its envelope (the rest propagate):
#: domain errors keep their code, malformed input is ``BAD_REQUEST``.
_CAPTURED = (TieraError, SimCloudError, KeyError, ValueError, TypeError)


@dataclass(frozen=True)
class Feature:
    """One row: how to manage one feature."""

    name: str
    #: whether the feature is on
    enabled: Callable[[Any], bool]
    #: named actions, ``status`` among them:
    #: ``fn(server, **params) -> document``
    actions: Dict[str, Callable[..., Doc]]
    #: ``fn(server, **options)``; None when ``configure`` cannot switch
    #: the feature on
    configure: Optional[Callable[..., None]] = None
    #: actions answer ``enabled=False`` without running while it is off
    gated: bool = True
    #: a shard router answers it itself instead of fanning out
    router: bool = False
    #: it belongs to one instance (shards would share its store), so a
    #: shard router refuses it
    per_instance: bool = False
    #: merges per-shard envelopes of an action on a multi-shard router
    merge: Dict[str, Callable[..., ManagementResult]] = field(default_factory=dict)


def _opt(cast, value):
    """Coerce an optional parameter from outside the program."""
    return None if value is None else cast(value)


def _state(doc: Doc) -> Doc:
    return {key: value for key, value in doc.items() if key != "enabled"}


def _heat_status(server) -> Doc:
    tracker = server.obs.heat
    return {
        "config": {
            "windows": [float(w) for w in tracker.windows],
            "top_k": tracker.top_k,
            "max_objects": tracker.max_objects,
            "sample_interval": tracker.sample_interval,
            "hot_min": tracker.hot_min,
        },
        "tracked_objects": len(tracker._objects),
    }


def _merge_heat(parts: List[ManagementResult]) -> ManagementResult:
    """Shard heat summaries merge through
    :func:`~repro.obs.heat.merge_summaries` (keys route to one shard, so
    the hot lists are disjoint)."""
    from repro.obs.heat import merge_summaries

    doc = merge_summaries([dict(p.state, enabled=p.enabled) for p in parts])
    return ManagementResult(
        parts[0].feature, parts[0].action,
        enabled=bool(doc["enabled"]), state=_state(doc),
    )


def _backup_configure(server, root) -> None:
    """Attach a backup store rooted at ``root`` (a no-op once one is)."""
    if server.instance.backup is None:
        server.instance.enable_backups(str(root))


def _backup_restore(server, to_seq=None, to_time=None, snapshot_id=None) -> Doc:
    return {"restore": server.instance.backup.restore(
        to_seq=_opt(int, to_seq),
        to_time=_opt(float, to_time),
        snapshot_id=_opt(int, snapshot_id),
    )}


def _durability_status(server) -> Doc:
    layer = server.instance.durability
    return layer.summary() if layer is not None else {}


def _fsck(server, repair=False) -> Doc:
    """Cross-check metadata against tier contents; ``repair`` fixes what
    it finds (see :func:`repro.core.durability.fsck`)."""
    from repro.core.durability import fsck

    return fsck(server.instance, repair=bool(repair))


def _slo_configure(server, install_defaults=False, objectives=None) -> None:
    """Install the canned objectives (when none are present) and/or
    explicit ones (fields of :class:`~repro.obs.slo.SloObjective`); all
    are built and checked before any is installed."""
    from repro.obs.slo import SloObjective, default_slos

    engine = server.obs.slo
    new = default_slos() if install_defaults and not engine.objectives else []
    new += [SloObjective(**spec) for spec in objectives or []]
    names = [o.name for o in engine.objectives] + [o.name for o in new]
    if len(set(names)) != len(names):
        raise ValueError(f"SLO names must be unique, got {names}")
    engine.install(new)


def _slo_status(server) -> Doc:
    if not server.obs.slo.objectives:
        return {"objectives": [], "breaching": [], "alerting": []}
    return server.obs.slo.summary()


def _profile_status(server, reset=False) -> Doc:
    """Wall-clock sections of served requests, virtual-time attribution
    from the registry, and a per-component rollup of retained traces;
    ``reset`` then clears the wall tree."""
    from repro.obs.profiler import trace_breakdown, virtual_breakdown

    obs = server.obs
    wall = obs.profiler.wall_report()
    report = {
        "measured_wall_seconds": wall["total_seconds"],
        "coverage": 1.0,
        "wall": wall,
        "virtual": virtual_breakdown(None, obs.metrics.snapshot()),
        "traces": trace_breakdown(obs.tracer.recent()),
    }
    if reset:
        obs.profiler.reset()
    return report


def _cluster(server):
    return getattr(server, "cluster", None)


def _set_tracing(server, enable=True) -> None:
    server.obs.tracer.enabled = bool(enable)


FEATURES: Dict[str, Feature] = {row.name: row for row in (
    Feature(
        "heat",
        enabled=lambda s: s.obs.heat.enabled,
        actions={
            "status": _heat_status,
            "summary": lambda s, limit=None: s.obs.heat.summary(
                limit=_opt(int, limit)),
        },
        configure=lambda s, **options: s.instance.enable_heat(**options),
        merge={"summary": _merge_heat},
    ),
    Feature(
        "placement",
        enabled=lambda s: s.instance.placement is not None,
        actions={
            "status": lambda s: s.instance.placement.status(),
            "plan": lambda s: s.instance.placement.plan(),
            "run": lambda s: s.instance.placement.run_cycle(
                RequestContext(s.clock), origin="manual"),
        },
        configure=lambda s, **options: s.instance.enable_placement(**options),
    ),
    Feature(
        "resilience",
        enabled=lambda s: s.instance.resilience is not None,
        actions={
            "status": lambda s: s.instance.resilience.summary(),
            # kick a repair-queue replay for every reachable tier
            "replay": lambda s: {
                "replay_kicked": s.instance.resilience.replay_pending(),
                **s.instance.resilience.summary(),
            },
        },
        configure=lambda s: s.instance.enable_resilience(),
    ),
    Feature(
        "backup",
        enabled=lambda s: s.instance.backup is not None,
        actions={
            "status": lambda s: {"status": s.instance.backup.health_summary()},
            "snapshot": lambda s, kind="auto", immutable=False: {
                "snapshot": s.instance.backup.snapshot(
                    kind=str(kind), immutable=bool(immutable))},
            "restore": _backup_restore,
            "prune": lambda s, keep_last=None, keep_window=None: {
                "prune": s.instance.backup.prune(
                    keep_last=_opt(int, keep_last),
                    keep_window=_opt(float, keep_window))},
            "verify": lambda s: {"verify": s.instance.backup.verify_restore()},
            "list": lambda s: {"snapshots": s.instance.backup.list_snapshots()},
            "mark_immutable": lambda s, snapshot_id: {
                "snapshot": s.instance.backup.mark_immutable(int(snapshot_id))},
        },
        configure=_backup_configure,
        per_instance=True,
    ),
    Feature(
        "durability",
        enabled=lambda s: s.instance.durability is not None,
        actions={"status": _durability_status, "fsck": _fsck},
        gated=False,
    ),
    Feature(
        "slo",
        enabled=lambda s: bool(s.obs.slo.objectives),
        actions={"status": _slo_status},
        configure=_slo_configure,
        gated=False,
        router=True,
    ),
    Feature(
        "profile",
        enabled=lambda s: s.obs.profiler.enabled,
        actions={"status": _profile_status},
        gated=False,
        router=True,
    ),
    Feature(
        "trace",
        enabled=lambda s: s.obs.tracer.enabled,
        actions={
            "status": lambda s: {"dropped": s.obs.tracer.dropped},
            "recent": lambda s, limit=10: {
                "dropped": s.obs.tracer.dropped,
                "traces": [t.to_dict() for t in s.obs.tracer.recent(int(limit))],
            },
        },
        configure=_set_tracing,
        gated=False,
        router=True,
    ),
    Feature(
        "cluster",
        enabled=lambda s: _cluster(s) is not None,
        actions={
            "status": lambda s: {"status": _cluster(s).summary()},
            "fsck": lambda s, repair=False: {
                "fsck": _cluster(s).fsck(repair=bool(repair))},
            "replay": lambda s, target=None: {
                "replay": _cluster(s).replay_hints(_opt(str, target))},
            "anti_entropy": lambda s: {
                "anti_entropy": _cluster(s).anti_entropy()},
        },
        router=True,
    ),
)}


def _unknown_feature(feature: str, action: str) -> ManagementResult:
    exc = UnknownFeatureError(feature, known=FEATURES)
    return ManagementResult(
        feature, action, ok=False, error=exc.code, error_message=str(exc),
    )


def not_on_router(feature: str, action: str) -> ManagementResult:
    """A shard router's answer for a ``per_instance`` feature."""
    exc = ValueError(f"{feature} belongs to one instance; a shard router refuses it")
    return ManagementResult(feature, action, ok=False, error=BAD_REQUEST,
                            error_message=str(exc), exception=exc)


def configure(server, feature: str, **options) -> ManagementResult:
    """Switch ``feature`` on or retune it; refused options come back as
    ``BAD_CONFIG`` (and a refused configure changes nothing)."""
    row = FEATURES.get(feature)
    if row is None:
        return _unknown_feature(feature, "configure")
    try:
        if row.configure is None:
            raise ValueError(f"{feature} is not switched on through configure")
        row.configure(server, **options)
    except (TypeError, ValueError) as exc:
        return ManagementResult(
            feature, "configure", ok=False, enabled=row.enabled(server),
            error=BAD_CONFIG, error_message=str(exc),
        )
    return dataclasses.replace(
        invoke(server, feature, "status"), action="configure"
    )


def feature_status(server, feature: str) -> ManagementResult:
    """Whether ``feature`` is on, and its status document."""
    return invoke(server, feature, "status")


def invoke(server, feature: str, action: str, **params) -> ManagementResult:
    """Run one of ``feature``'s named actions."""
    row = FEATURES.get(feature)
    if row is None:
        return _unknown_feature(feature, action)
    fn = row.actions.get(action)
    try:
        if fn is None:
            raise ValueError(
                f"unknown {feature} action {action!r}; known: "
                + ", ".join(row.actions)
            )
        # a parameter the action does not take is refused, on or off
        inspect.signature(fn).bind(server, **params)
        if row.gated and not row.enabled(server):
            return ManagementResult(feature, action)
        doc = fn(server, **params)
    except _CAPTURED as exc:
        return ManagementResult(
            feature, action, ok=False, enabled=row.enabled(server),
            error=code_for(exc), error_message=str(exc), exception=exc,
        )
    return ManagementResult(
        feature, action, enabled=row.enabled(server), state=_state(doc),
    )
