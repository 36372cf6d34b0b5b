"""Application workload framework.

An :class:`AppModel` describes one of the ten applications of the
evaluation (Section 6.1): the user session that was scripted on the
instrumented device, the use-free race sites the paper reports for it
(Table 1), its background event load, and its computation density
(which determines the tracing slowdown of Figure 8).

``build`` assembles a fresh :class:`~repro.runtime.AndroidSystem` with:

* the app's bespoke scenario (each subclass recreates its signature
  bug — e.g. MyTracks' Figure 1 race through a real Binder service);
* generic race sites from :mod:`repro.apps.sites` until the app's
  Table 1 mix is reached;
* commutative Figure 2/Figure 5 patterns that the detector must filter;
* background "noise" events approximating the paper's event counts
  (scaled by ``scale`` to keep analysis tractable on a laptop).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..detect import ExpectedRace
from ..runtime import AndroidSystem, ExternalSource, Process, TimeModel
from ..trace import Trace
from . import sites
from .sites import SitePlan


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1 as published."""

    events: int
    reported: int
    a: int
    b: int
    c: int
    fp1: int
    fp2: int
    fp3: int

    @property
    def true_races(self) -> int:
        return self.a + self.b + self.c

    @property
    def false_positives(self) -> int:
        return self.fp1 + self.fp2 + self.fp3


@dataclass(frozen=True)
class RaceMix:
    """How many race sites of each category a workload contains."""

    a: int = 0
    b: int = 0
    c: int = 0
    fp1: int = 0
    fp2: int = 0
    fp3: int = 0

    @property
    def reported(self) -> int:
        return self.a + self.b + self.c + self.fp1 + self.fp2 + self.fp3


@dataclass(frozen=True)
class NoiseProfile:
    """Background event load of a workload.

    ``worker_threads`` unordered poster threads each contribute
    ``events_per_worker`` events; cross-worker pairs on the shared
    variable pool are the (benign) low-level races of Section 4.1.
    ``external_events`` model timer/sensor ticks (ordered by the
    external-input rule, hence race-free).  ``compute_ticks`` is the
    un-instrumented work per event — the knob behind each app's
    Figure 8 slowdown.
    """

    worker_threads: int = 4
    events_per_worker: int = 120
    external_events: int = 120
    handler_pool: int = 12
    var_pool: int = 8
    reads_per_event: int = 2
    writes_per_event: int = 1
    compute_ticks: int = 6


@dataclass
class AppRun:
    """The outcome of executing a workload once."""

    name: str
    system: AndroidSystem
    trace: Optional[Trace]
    expected: List[ExpectedRace]
    plans: List[SitePlan]

    @property
    def event_count(self) -> int:
        return len(self.trace.events()) if self.trace is not None else 0


class AppModel:
    """Base class for the ten §6.1 application workloads."""

    #: app name (subclasses override)
    name: str = "app"
    #: what the application does (paper §6.1)
    description: str = ""
    #: the scripted user session the trace captures (paper §6.1)
    session: str = ""
    #: the published Table 1 row
    paper_row: Table1Row = Table1Row(0, 0, 0, 0, 0, 0, 0, 0)
    #: the race-site mix this workload installs (defaults to the paper row)
    mix: Optional[RaceMix] = None
    #: background load profile
    noise: NoiseProfile = NoiseProfile()
    #: label pairs used when naming generic race sites
    label_pool: List[str] = ["onCreate", "onStart", "onStop", "onUpdate"]

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed
        if self.mix is None:
            row = self.paper_row
            self.mix = RaceMix(
                a=row.a, b=row.b, c=row.c, fp1=row.fp1, fp2=row.fp2, fp3=row.fp3
            )

    # -- assembly ------------------------------------------------------

    def build(self, system: AndroidSystem) -> AppRun:
        proc = system.process(self.name)
        main = proc.looper("main")
        plans: List[SitePlan] = []
        plans.extend(self.install_scenarios(system, proc, main))
        plans.extend(self._install_generic_sites(system, proc, main, plans))
        plans.extend(self.install_commutative(system, proc, main))
        self._install_noise(system, proc, main)
        expected = [p.expected for p in plans if p.expected is not None]
        return AppRun(
            name=self.name, system=system, trace=None, expected=expected, plans=plans
        )

    def install_scenarios(
        self, system: AndroidSystem, proc: Process, main: str
    ) -> List[SitePlan]:
        """App-specific bespoke scenarios (subclasses override).

        Whatever categories the bespoke code covers are subtracted from
        the generic fill-up, so the total always matches ``mix``.
        """
        return []

    def install_commutative(
        self, system: AndroidSystem, proc: Process, main: str
    ) -> List[SitePlan]:
        """Commutative patterns every app carries (filter fodder)."""
        plans = [
            sites.commutative_guarded_use(
                system, proc, main, f"{self.name}_cg", "onFocus", "onPauseFree", 700
            ),
            sites.commutative_realloc_use(
                system, proc, main, f"{self.name}_cr", "onResumeAlloc", "onStopFree", 720
            ),
            sites.commutative_read_write(
                system, proc, main, f"{self.name}_rw", "onLayout", "onPause", 740
            ),
        ]
        return plans

    # -- generic fill-up ---------------------------------------------------

    def _install_generic_sites(
        self,
        system: AndroidSystem,
        proc: Process,
        main: str,
        existing: List[SitePlan],
    ) -> List[SitePlan]:
        assert self.mix is not None
        kinds_done = {
            "intra-thread": 0,
            "inter-thread": 0,
            "conventional": 0,
            "fp-listener": 0,
            "fp-boolean": 0,
            "fp-mismatch": 0,
        }
        for plan in existing:
            if plan.kind in kinds_done:
                kinds_done[plan.kind] += 1
        want = {
            "intra-thread": self.mix.a,
            "inter-thread": self.mix.b,
            "conventional": self.mix.c,
            "fp-listener": self.mix.fp1,
            "fp-boolean": self.mix.fp2,
            "fp-mismatch": self.mix.fp3,
        }
        plans: List[SitePlan] = []
        at_ms = 100.0
        counter = 0
        labels = self.label_pool

        def label(i: int, suffix: str) -> str:
            return f"{labels[i % len(labels)]}{suffix}{i}"

        for kind, target in want.items():
            missing = target - kinds_done[kind]
            for _ in range(max(0, missing)):
                tag = f"{self.name}_{kind}_{counter}"
                if kind == "intra-thread":
                    plan = sites.intra_thread_race(
                        system, proc, main, tag,
                        label(counter, "Use"), label(counter, "Destroy"), at_ms,
                    )
                elif kind == "inter-thread":
                    plan = sites.inter_thread_race(
                        system, proc, main, tag,
                        label(counter, "Use"), f"worker{counter}", at_ms,
                    )
                elif kind == "conventional":
                    plan = sites.conventional_race(
                        system, proc, main, tag,
                        f"io{counter}", label(counter, "Destroy"), at_ms,
                    )
                elif kind == "fp-listener":
                    plan = sites.fp_untraced_listener(
                        system, proc, main, tag,
                        label(counter, "Reg"), label(counter, "Perform"), at_ms,
                    )
                elif kind == "fp-boolean":
                    plan = sites.fp_boolean_guard(
                        system, proc, main, tag,
                        label(counter, "Check"), label(counter, "Clear"), at_ms,
                    )
                else:
                    plan = sites.fp_deref_mismatch(
                        system, proc, main, tag,
                        label(counter, "Read"), label(counter, "Free"), at_ms,
                    )
                plans.append(plan)
                counter += 1
                at_ms += 12.0
        return plans

    # -- noise ---------------------------------------------------------

    def _install_noise(self, system: AndroidSystem, proc: Process, main: str) -> None:
        profile = self.noise
        rng = random.Random(self.seed)
        per_worker = max(1, int(profile.events_per_worker * self.scale))
        externals = max(1, int(profile.external_events * self.scale))
        compute = profile.compute_ticks

        def make_handler(worker: int, i: int):
            # One variable slot per handler label, so the number of
            # static low-level race sites stays proportional to the
            # handler pool rather than the event count.
            slot = (worker * 7 + i % profile.handler_pool) % profile.var_pool
            var = f"noise_var{slot}"

            def handler(ctx):
                ctx.compute(compute)
                for r in range(profile.reads_per_event):
                    ctx.read(f"{var}_{r % 2}")
                for w in range(profile.writes_per_event):
                    ctx.write(f"{var}_{w % 2}", w)

            return handler

        for worker in range(profile.worker_threads):
            handlers = [
                (
                    make_handler(worker, i),
                    f"noise_w{worker}_{i % profile.handler_pool}",
                    rng.uniform(20, 900),
                )
                for i in range(per_worker)
            ]
            handlers.sort(key=lambda h: h[2])

            def body(ctx, handlers=handlers):
                for handler, name, at in handlers:
                    yield from ctx.sleep_until(at)
                    ctx.post(main, handler, label=name)

            proc.thread(f"noise_worker{worker}", body)

        source = ExternalSource(f"{self.name}_timer")
        for i in range(externals):
            handler = make_handler(999, i)
            source.at(rng.uniform(20, 900), main, handler, f"onTick{i % profile.handler_pool}")
        source.attach(system, proc)

    # -- execution -----------------------------------------------------

    def run(
        self,
        tracing: bool = True,
        time_model: Optional[TimeModel] = None,
        max_ms: float = 5_000,
    ) -> AppRun:
        """Build and execute the workload; returns the run record."""
        system = AndroidSystem(
            seed=self.seed, tracing=tracing, time_model=time_model
        )
        run = self.build(system)
        system.run(max_ms=max_ms)
        if tracing:
            run.trace = system.trace()
        return run
