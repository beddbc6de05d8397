"""Directors: the separated control-flow semantics of Ptolemy II (§9).

:class:`ProcessNetworkDirector` runs the graph in rounds: every source
actor is polled once per round (FileWatcher-style), then data-driven
actors fire while their firing rules are satisfied. Execution stops
when a round moves no tokens (quiescence) or the round limit is hit.
The concurrency/pipelining the paper wants from Kepler (plotting one
file while transferring the next) appears as interleaved firings within
a round.

Fault handling: an actor that raises does not kill the director with
an anonymous traceback. The failure is recorded with the actor name and
round, counted in telemetry, and surfaced as an :class:`ActorFiringError`
naming the culprit. Actors that talk to flaky machines retry on their
own (:class:`~repro.workflow.actors.Transfer`,
:class:`~repro.workflow.actors.ProcessFile`).
"""

from __future__ import annotations

from repro.telemetry import resolve as resolve_telemetry
from repro.workflow.actor import Token


class ActorFiringError(RuntimeError):
    """An actor raised during a firing; names the actor and round."""

    def __init__(self, actor_name: str, round_no: int, original: BaseException):
        super().__init__(
            f"actor {actor_name!r} failed in round {round_no}: "
            f"{type(original).__name__}: {original}"
        )
        self.actor_name = actor_name
        self.round_no = round_no
        self.original = original


class ProcessNetworkDirector:
    """Round-based dataflow execution.

    Telemetry: every firing runs under a per-actor span
    (``actor.<name>``), and ``workflow.firings`` / ``workflow.rounds``
    counters accumulate, so a run of the §9 pipeline yields the same
    exclusive-time breakdown the solver kernels get. A failing firing
    adds ``workflow.actor_errors`` and aborts the run with an
    :class:`ActorFiringError`.
    """

    #: rounds :meth:`run` takes at most when not told a count
    MAX_ROUNDS = 1000
    #: data-driven firings one round takes at most
    MAX_FIRINGS_PER_ROUND = 10000

    def __init__(self, workflow, telemetry=None):
        self.workflow = workflow
        self.telemetry = resolve_telemetry(telemetry)
        self.rounds = 0
        self.firings = 0
        self.trace: list = []  # (round, actor_name) firing log
        #: (round, actor_name, error_repr) for every failed firing
        self.failures: list = []
        self._c_errors = self.telemetry.counter("workflow.actor_errors")

    # ------------------------------------------------------------------
    def _fire(self, actor, inputs):
        """One guarded firing under the actor's span; a failure is
        recorded and raised as :class:`ActorFiringError`."""
        try:
            with self.telemetry.span(f"actor.{actor.name}"):
                return actor.fire(inputs)
        except Exception as err:  # noqa: BLE001 — reported, not hidden
            self.failures.append(
                (self.rounds, actor.name, f"{type(err).__name__}: {err}"))
            self._c_errors.inc()
            raise ActorFiringError(actor.name, self.rounds, err) from err

    def _emit(self, actor, outputs: dict) -> None:
        for port, value in (outputs or {}).items():
            token = value if isinstance(value, Token) else Token(value)
            self.workflow.deliver(actor.name, port, token)

    def step_round(self) -> int:
        """One round; returns the number of firings it performed."""
        wf = self.workflow
        fired = 0
        # poll sources once per round
        for actor in wf.sources():
            outputs = self._fire(actor, {})
            if outputs:
                actor.fired += 1
                fired += 1
                self.firings += 1
                self.trace.append((self.rounds, actor.name))
                self._emit(actor, outputs)
        # drain data-driven actors
        progress = True
        while progress and fired < self.MAX_FIRINGS_PER_ROUND:
            progress = False
            for actor in wf.actors.values():
                if not actor.in_ports:
                    continue
                if actor.ready(wf.available(actor)):
                    outputs = self._fire(actor, wf.consume(actor))
                    actor.fired += 1
                    fired += 1
                    self.firings += 1
                    self.trace.append((self.rounds, actor.name))
                    if outputs:
                        self._emit(actor, outputs)
                    progress = True
        self.rounds += 1
        self.telemetry.counter("workflow.rounds").inc()
        self.telemetry.counter("workflow.firings").inc(fired)
        return fired

    def run(self, until_idle: bool = True, rounds: int | None = None) -> None:
        """Run rounds until quiescent (or for a fixed count)."""
        self.workflow.validate()
        limit = rounds if rounds is not None else self.MAX_ROUNDS
        idle_rounds = 0
        for _ in range(limit):
            fired = self.step_round()
            if until_idle and rounds is None:
                # sources may be waiting on external files: stop after
                # two consecutive silent rounds
                idle_rounds = idle_rounds + 1 if fired == 0 else 0
                if idle_rounds >= 2:
                    break
