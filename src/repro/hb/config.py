"""Configuration of the causality model.

Every rule of Section 3.3 can be toggled independently, which is what
the ablation benchmarks use: disabling the event-queue rules yields a
WebRacer/EventRacer-style model, enabling ``sequential_events`` and
``lock_edges`` yields the "conventional" thread-based detector used for
column (c) of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ModelConfig:
    """Which happens-before rules the builder applies.

    Attributes:
        fork_join: the fork-join rule.
        signal_wait: the signal-and-wait rule.
        listener: the event-listener rule (register before perform).
        send_begin: the send rule (an event is sent before it begins).
        external_input: the external-input rule (events generated by the
            external world are conservatively chained).
        atomicity: the atomicity rule (events of one looper thread are
            totally ordered as soon as any of their operations are).
        queue_rule_1: ordered sends with ``delay1 <= delay2`` order the
            events.
        queue_rule_2: ``send(e1) < sendAtFront(e2) < begin(e1)`` orders
            ``e2`` before ``e1``.
        queue_rule_3: a ``sendAtFront`` ordered before a ``send`` orders
            the events.
        queue_rule_4: two ordered ``sendAtFront`` with the second one
            before ``begin(e1)`` order ``e2`` before ``e1``.
        ipc: Binder transaction edges (call -> handle, reply -> return).
        sequential_events: **conventional-model switch** — treat every
            event executed by a looper thread as part of that thread's
            single program order, exactly like a thread-based detector
            would (Section 6.3's "conventional" baseline).
        lock_edges: derive a happens-before edge from each unlock to
            the next lock of the same monitor.  The paper's model
            deliberately omits these (Section 3.1); they are provided
            for the ablation study and the conventional baseline.
    """

    fork_join: bool = True
    signal_wait: bool = True
    listener: bool = True
    send_begin: bool = True
    external_input: bool = True
    atomicity: bool = True
    queue_rule_1: bool = True
    queue_rule_2: bool = True
    queue_rule_3: bool = True
    queue_rule_4: bool = True
    ipc: bool = True
    sequential_events: bool = False
    lock_edges: bool = False

    @property
    def any_queue_rule(self) -> bool:
        return (
            self.queue_rule_1
            or self.queue_rule_2
            or self.queue_rule_3
            or self.queue_rule_4
        )

    def without_queue_rules(self) -> "ModelConfig":
        """The model with all four event-queue rules disabled."""
        return replace(
            self,
            queue_rule_1=False,
            queue_rule_2=False,
            queue_rule_3=False,
            queue_rule_4=False,
        )


#: The CAFA model exactly as Section 3.3 defines it.
CAFA_MODEL = ModelConfig()

#: The conventional thread-based model used as the Table 1 baseline:
#: a total order over each looper's events, plus lock edges, and no
#: event-queue reasoning (it is subsumed by the total order).
CONVENTIONAL_MODEL = ModelConfig(
    atomicity=False,
    queue_rule_1=False,
    queue_rule_2=False,
    queue_rule_3=False,
    queue_rule_4=False,
    sequential_events=True,
    lock_edges=False,
)

#: A WebRacer/EventRacer-flavoured model: event concurrency but no
#: event-queue rules (Section 7.1.1 contrasts CAFA against this).
NO_QUEUE_MODEL = CAFA_MODEL.without_queue_rules()
