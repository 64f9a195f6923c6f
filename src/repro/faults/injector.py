"""Arms a :class:`~repro.faults.plan.FaultPlan` on a cluster's calendar.

The injector is a thin dispatch layer: every :class:`FaultEvent` becomes
one ``sim.schedule`` entry whose callback performs the state transition
(drop a link, steal credits, raise the BER, crash a node...).  Recovery
is *not* the injector's job -- the link FSMs, the northbridge fault
forwarder, the msglib retransmit path and the :class:`RouteManager` do
that; the injector only breaks things, deterministically.

Targets are taken modulo the population (``cluster.tcc_links`` for link
kinds, ranks for node kinds), so a randomly drawn plan fits any cluster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..ht.link import Link
from ..ht.linkinit import LinkInitFSM
from ..obs.metrics import fault_counters
from ..sim.flows import demote_windows
from .plan import LINK_KINDS, FaultEvent, FaultKind, FaultPlan, FaultPlanError
from .routes import RouteManager

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.system import TCCluster

__all__ = ["FaultInjector"]

#: Kinds whose firing a train window does not survive exactly (DESIGN.md
#: section 8.2): they take an active link down or steal its credits.  A
#: flap takes its link down when it fires and again at its revive, whose
#: retrain starts with ``bring_down`` even if the link is up by then.
TRAIN_INEXACT_KINDS = (FaultKind.LINK_FLAP, FaultKind.LINK_KILL,
                       FaultKind.NODE_CRASH, FaultKind.NODE_WARM_RESET,
                       FaultKind.CREDIT_STALL)


class FaultInjector:
    """Schedules a plan's faults against a booted cluster.

    ``arm()`` pushes every event onto the calendar; the simulation then
    runs normally and faults fire interleaved with the workload.  The
    same plan armed at the same sim time on the same cluster produces
    the same perturbation sequence -- an empty plan schedules nothing
    and leaves the run bit-identical to a fault-free one.
    """

    def __init__(self, cluster: "TCCluster", plan: FaultPlan):
        self.cluster = cluster
        self.sim = cluster.sim
        self.plan = plan
        self.routes = RouteManager(cluster)
        #: ``(fire_time_ns, event)`` log of everything actually injected.
        self.fired: List[Tuple[float, FaultEvent]] = []
        #: ``(event, reason)`` log of plan conflicts dropped by
        #: ``arm(on_conflict="skip")``.
        self.skipped: List[Tuple[FaultEvent, str]] = []

    # ------------------------------------------------------------------
    def validate(self) -> List[Tuple[FaultEvent, str]]:
        """Dry-run the plan against this cluster's populations.

        Walks the events in firing order, tracking which links are
        permanently killed and which ranks are crashed-but-not-yet
        -rejoined, and flags every event aimed at a target that is
        already scheduled dead at its firing time: killing a dead link,
        crashing a crashed node, or flapping/stalling/storming a link
        whose owner rank is down (a flap's delayed retrain would
        resurrect a crashed node's link mid-outage).  Returns
        ``[(event, reason), ...]`` -- empty for a conflict-free plan.
        """
        conflicts: List[Tuple[FaultEvent, str]] = []
        dead_links: set = set()
        down_ranks: set = set()
        chip_rank = {
            id(info.chip): r
            for r, info in enumerate(getattr(self.cluster, "ranks", []))
        }
        for ev in self.plan.sorted_events():
            if ev.kind in LINK_KINDS:
                link = self._link_of(ev)
                if id(link) in dead_links:
                    conflicts.append(
                        (ev, f"link {link.name} was already killed"))
                    continue
                crashed_owner = None
                for chip in getattr(link, "attached", {}).values():
                    r = chip_rank.get(id(chip))
                    if r is not None and r in down_ranks:
                        crashed_owner = r
                        break
                if crashed_owner is not None:
                    conflicts.append(
                        (ev, f"link {link.name} belongs to crashed rank "
                             f"{crashed_owner}"))
                    continue
                if ev.kind is FaultKind.LINK_KILL:
                    dead_links.add(id(link))
            elif ev.kind is FaultKind.NODE_CRASH:
                rank = self._rank_of(ev)
                if rank in down_ranks:
                    conflicts.append((ev, f"rank {rank} is already crashed"))
                    continue
                down_ranks.add(rank)
            elif ev.kind is FaultKind.NODE_WARM_RESET:
                down_ranks.discard(self._rank_of(ev))
        return conflicts

    # ------------------------------------------------------------------
    def arm(self, on_conflict: str = "raise") -> int:
        """Schedule every plan event, ``at_ns`` relative to *now*.

        Plans are armed after boot, whose duration depends on topology
        and timing model -- relative offsets keep one plan meaningful
        across clusters.  Returns the number of events armed.

        The plan is validated up front (see :meth:`validate`): an event
        targeting a node or link already scheduled dead at its firing
        time used to surface much later as an opaque mid-recovery
        failure.  ``on_conflict="raise"`` (default) rejects such plans
        with :class:`FaultPlanError` before anything touches the
        calendar; ``"skip"`` drops the conflicting events
        deterministically, recording them in :attr:`skipped` -- the
        right mode for randomly drawn plans, which may legally collide.

        A plan that arms a kind of :data:`TRAIN_INEXACT_KINDS` demotes
        every macro window open now and records the latest instant such
        an event acts -- its fire instant, a flap's revive -- as
        ``sim._train_faults_until``: msglib plans no slot span until
        that instant has passed, because a train hit by one of them does
        not demote exactly (DESIGN.md section 12).
        """
        if on_conflict not in ("raise", "skip"):
            raise ValueError(f"on_conflict must be 'raise' or 'skip', "
                             f"got {on_conflict!r}")
        conflicts = self.validate()
        if conflicts and on_conflict == "raise":
            ev, why = conflicts[0]
            raise FaultPlanError(
                f"fault plan conflict at t={ev.at_ns:.0f}ns: "
                f"{ev.kind.name} target {ev.target} -- {why} "
                f"({len(conflicts)} conflicting event(s); "
                f"arm(on_conflict='skip') drops them)")
        self.skipped = conflicts
        dropped = {id(ev) for ev, _ in conflicts}
        sim = self.sim
        armed = 0
        last = None
        for ev in self.plan.sorted_events():
            if id(ev) in dropped:
                continue
            sim.schedule(ev.at_ns, self._fire, ev)
            armed += 1
            if ev.kind in TRAIN_INEXACT_KINDS:
                t = sim.now + ev.at_ns
                if ev.kind is FaultKind.LINK_FLAP:
                    # The revive's retrain (_fire_flap) brings it down again.
                    t += max(ev.duration_ns, 1.0)
                if last is None or t > last:
                    last = t
        if last is not None:
            demote_windows(sim)
            sim._train_faults_until = max(sim._train_faults_until, last)
        return armed

    # ------------------------------------------------------------------
    def _link_of(self, ev: FaultEvent) -> Link:
        links = self.cluster.tcc_links
        if not links:
            raise FaultPlanError("cluster has no TCC links to fault")
        return links[ev.target % len(links)]

    def _rank_of(self, ev: FaultEvent) -> int:
        nranks = sum(len(b.chips) for b in self.cluster.boards)
        return ev.target % nranks

    @staticmethod
    def _fsm_of(link: Link) -> Optional[LinkInitFSM]:
        """The init FSM wired to ``link`` (via either attached chip)."""
        for chip in getattr(link, "attached", {}).values():
            for binding in getattr(chip, "ports", {}).values():
                if binding.link is link:
                    return binding.fsm
        return None

    # ------------------------------------------------------------------
    def _fire(self, ev: FaultEvent) -> None:
        fc = fault_counters(self.sim)
        fc.faults_injected += 1
        self.fired.append((self.sim.now, ev))
        if ev.kind is FaultKind.LINK_FLAP:
            self._fire_flap(ev)
        elif ev.kind is FaultKind.LINK_KILL:
            self.routes.route_around(self._link_of(ev))
        elif ev.kind is FaultKind.BER_STORM:
            self._fire_storm(ev)
        elif ev.kind is FaultKind.CREDIT_STALL:
            self._fire_stall(ev)
        elif ev.kind is FaultKind.NODE_CRASH:
            self.cluster.crash_node(self._rank_of(ev))
        elif ev.kind is FaultKind.NODE_WARM_RESET:
            self.sim.process(
                self.cluster.rejoin_node(self._rank_of(ev)),
                name=f"rejoin-rank{self._rank_of(ev)}",
            )
        else:  # pragma: no cover - enum is closed
            raise FaultPlanError(f"unknown fault kind {ev.kind}")

    def _fire_flap(self, ev: FaultEvent) -> None:
        link = self._link_of(ev)
        if link.dead:
            return  # a prior LINK_KILL wins; flapping a corpse is a no-op
        link.bring_down()
        fsm = self._fsm_of(link)

        def _revive() -> None:
            if not link.dead and fsm is not None:
                fsm.retrain("warm")

        self.sim.schedule(max(ev.duration_ns, 1.0), _revive)

    def _fire_storm(self, ev: FaultEvent) -> None:
        link = self._link_of(ev)
        old = link.ber
        link.ber = ev.magnitude

        def _calm() -> None:
            link.ber = old

        self.sim.schedule(max(ev.duration_ns, 1.0), _calm)

    def _fire_stall(self, ev: FaultEvent) -> None:
        """Drain every flow-control credit of the link (both directions,
        all VCs); the receiver looks wedged until the credits return."""
        link = self._link_of(ev)
        # Macro windows (trains, flows) plan against full credit pools;
        # demote them *before* the theft so their reconstruction starts
        # from the pre-fault state.  Not exact for a train: it holds no
        # POSTED credits mid-window, so the theft also takes the credits
        # the per-packet run's in-flight packets would bring home
        # (DESIGN.md section 8.2).
        link.demote_macros()
        stolen = []
        for d in link._dirs.values():
            for vc, pool in d.credits.items():
                n = 0
                while pool.try_take():
                    n += 1
                if n:
                    stolen.append((pool, n))
        if not stolen:
            return

        def _restore() -> None:
            for pool, n in stolen:
                pool.give(n)

        self.sim.schedule(max(ev.duration_ns, 1.0), _restore)
