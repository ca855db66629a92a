"""Deterministic fault injection for the CONGEST simulator.

The paper assumes a static, lossless, synchronous network.  Real networks
are none of those things, so this module adds a *seeded, deterministic*
fault layer the engine consults while delivering messages and scheduling
nodes:

* **message loss** -- every (round, sender, receiver) message is dropped
  independently with probability :attr:`FaultModel.loss`;
* **message delay** -- with probability :attr:`FaultModel.delay` a message
  takes ``1 + d`` rounds instead of one, ``d`` uniform in
  ``[1, max_delay]``; delayed messages re-enter the inbox at the scheduled
  arrival round (the engine keeps an in-flight map and the sparse
  scheduler's termination logic counts it);
* **node crashes** -- each node independently crashes with probability
  :attr:`FaultModel.crash` at a round uniform in ``[1, crash_window]``
  (never round 0, so initiators always get to start the algorithm).  The
  failure mode is *fail-pause*: a down node neither runs nor receives,
  but keeps its local state; with ``down_rounds > 0`` it restarts after
  that many rounds, otherwise it stays down forever;
* **edge churn** -- every edge is independently *down* in each round with
  probability :attr:`FaultModel.churn`; messages crossing a down edge are
  dropped (the topology itself is unchanged, so the CONGEST neighbour
  contract still holds).

Determinism.  Fault decisions are **stateless hashes**, not draws from a
sequential RNG stream: each decision is a pure function of the fault seed
and the event's coordinates (round, sender, receiver / node / edge),
computed with the same CRC idiom as :func:`repro.runner.batch.task_seed`.
The specification is the hashed text: a message's loss decision, for
instance, is ``crc32(f"{seed}|{'loss'!r}|{round!r}|{sender!r}|{receiver!r}")
/ 2**32 < loss`` (:func:`_unit`; ``'delay?'``, ``'delay+'``, ``'crash?'``,
``'crash@'`` and ``'churn'`` decisions have the same layout over their own
coordinates).  :class:`FaultPlan` evaluates message and churn decisions
incrementally -- one CRC prefix per round and outbox, extended by
precomputed per-target bytes -- which is an exact implementation of that
text, because ``crc32(b, crc32(a)) == crc32(a + b)``.  The transport asks
:meth:`FaultPlan.route` to place each accounted outbox: one loop decides
every message's fate and puts the message in its target's inbox, among
the delayed or among the dropped.  :meth:`FaultPlan.outbox_fates` (and
:meth:`FaultPlan.message_fate`) state the fates as a list; they are the
specification the tests hold the routing to, not part of delivery.
This makes faulty executions independent of *evaluation order* -- the
dense and sparse schedulers consult the plan in different orders yet
produce identical executions -- and independent of
``PYTHONHASHSEED``.  The fault seed itself is derived from the network
seed, the model's :attr:`FaultModel.seed` and a per-network run counter,
so it is isolated from the graph-construction and algorithm seed streams
(faults never replay algorithm randomness) while multi-phase algorithms
(one ``Network.run`` per phase) see fresh, reproducible draws per phase.

A grid's fault model is passed as itself: the CLI ``--loss/--crash/--churn``
flags build one, every network a grid builds carries it
(``Network(fault_model=...)``), remote dispatch ships it as
:meth:`FaultModel.to_dict` and :func:`repro.store.provenance.collect_provenance`
stamps its description into run headers.  The null model is
guaranteed byte-identical to the fault-free path: the engine resolves a
:class:`FaultPlan` -- and so takes its fault branches -- only when
:attr:`FaultModel.is_null` is false.
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro._record import FrozenRecord
from repro.graphs.graph import NodeId
from repro.graphs.indexed import IndexedGraph

#: Scale of the CRC-to-unit-interval map: ``crc32`` is uniform on
#: ``[0, 2**32)``, so dividing by ``2**32`` yields a value in ``[0, 1)``.
_UNIT_SCALE = 4294967296.0


def _unit(seed: int, *coordinates) -> float:
    """A deterministic pseudo-uniform value in ``[0, 1)`` for an event.

    A pure function of the seed and the event coordinates (hashed through
    ``repr`` like :func:`repro.runner.batch.task_seed`), so fault
    decisions do not depend on the order in which the engine evaluates
    them or on ``PYTHONHASHSEED``.
    """
    text = "|".join([str(seed)] + [repr(item) for item in coordinates])
    return zlib.crc32(text.encode("utf-8")) / _UNIT_SCALE


def fault_stream_seed(network_seed: int, model_seed: int, run_index: int) -> int:
    """The seed of one run's fault stream.

    Mixes the network seed, the model's own seed component and the
    engine's per-run counter with the :func:`repro.runner.batch.task_seed`
    CRC idiom.  The ``"fault-stream"`` salt keeps the stream disjoint
    from the graph-construction and algorithm streams even when the raw
    seeds coincide.
    """
    text = f"fault-stream|{network_seed}|{model_seed}|{run_index}"
    return zlib.crc32(text.encode("utf-8"))


#: The :class:`FaultModel` fields that are probabilities; the others are
#: integers (``timeout`` may be ``None``).
_PROBABILITY_FIELDS = ("loss", "delay", "crash", "churn")


class FaultModel(FrozenRecord):
    """A declarative description of the faults to inject.

    All probabilities are per-event and independent; see the module
    docstring for the exact semantics of each field.  The default
    instance (all probabilities zero, no timeout) is the **null model**:
    it injects nothing and the engine bypasses the fault layer entirely.

    Parameters
    ----------
    loss:
        Per-message drop probability.
    delay:
        Per-message delay probability; a delayed message arrives after
        ``1 + d`` rounds, ``d`` uniform in ``[1, max_delay]``.
    max_delay:
        Largest extra latency (in rounds) of a delayed message.
    crash:
        Per-node probability of crashing during the run.
    crash_window:
        Crash rounds are uniform in ``[1, crash_window]`` (round 0 never
        crashes, so every initiator runs at least once).
    down_rounds:
        Rounds a crashed node stays down before restarting (fail-pause:
        state is kept).  ``0`` means crashed nodes never restart.
    churn:
        Per-edge per-round probability that the edge is down.
    timeout:
        Optional round cap for faulty runs, tighter than the network's
        ``default_max_rounds``: algorithms stuck because of lost messages
        fail fast with :class:`repro.congest.errors.RoundLimitExceededError`
        (which the sweep layer converts into ``success=False`` records).
    seed:
        Extra seed component of the fault stream, so two sweeps over the
        same graphs and seeds can draw different fault patterns.
    """

    __slots__ = (
        "loss",
        "delay",
        "max_delay",
        "crash",
        "crash_window",
        "down_rounds",
        "churn",
        "timeout",
        "seed",
    )

    def __init__(
        self,
        loss: float = 0.0,
        delay: float = 0.0,
        max_delay: int = 1,
        crash: float = 0.0,
        crash_window: int = 32,
        down_rounds: int = 0,
        churn: float = 0.0,
        timeout: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        for name, value in zip(_PROBABILITY_FIELDS, (loss, delay, crash, churn)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"fault probability {name!r} must be in [0, 1], got {value!r}"
                )
        if max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {max_delay!r}")
        if crash_window < 1:
            raise ValueError(f"crash_window must be >= 1, got {crash_window!r}")
        if down_rounds < 0:
            raise ValueError(f"down_rounds must be >= 0, got {down_rounds!r}")
        if timeout is not None and timeout < 1:
            raise ValueError(f"timeout must be >= 1, got {timeout!r}")
        # Probabilities are stored as float so equal models describe (and
        # key) equally: ``loss=0`` and ``loss=0.0`` are one model.
        super().__init__(
            float(loss), float(delay), max_delay, float(crash), crash_window,
            down_rounds, float(churn), timeout, seed,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Every field by name: the JSON form :meth:`from_dict` parses."""
        return {name: getattr(self, name) for name in self._fields}

    @classmethod
    def from_dict(cls, data: Any) -> "FaultModel":
        """A model from its JSON fields (absent fields take defaults).

        Every malformed input -- not an object, unknown fields, a
        non-numeric probability, a non-integer count, an out-of-range
        value -- raises ``ValueError``.
        """
        if not isinstance(data, Mapping):
            raise ValueError("'fault' must be an object of FaultModel fields")
        known = list(cls._fields)
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(
                f"unknown fault fields {sorted(unknown)} (allowed: {known})"
            )
        for name, value in data.items():
            integral = name not in _PROBABILITY_FIELDS
            allowed = (int,) if integral else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                if name == "timeout" and value is None:
                    continue
                kind = "an integer" if integral else "a number"
                raise ValueError(f"fault field {name!r} must be {kind}, got {value!r}")
        return cls(**data)

    @property
    def is_null(self) -> bool:
        """Whether this model injects nothing (the fault-free fast path).

        A model whose probabilities are all zero but whose ``timeout`` is
        set is *not* null: the timeout must still cap the run.
        """
        return (
            self.loss == 0.0
            and self.delay == 0.0
            and self.crash == 0.0
            and self.churn == 0.0
            and self.timeout is None
        )

    def describe(self) -> str:
        """A stable, compact textual form for task keys and provenance.

        ``"none"`` for the null model; otherwise every field in
        declaration order, so two distinct models can never collide and
        the string is reproducible across processes.
        """
        if self.is_null:
            return "none"
        parts = [f"{name}={getattr(self, name)!r}" for name in self._fields]
        return ",".join(parts)

    def resolve(
        self, network_seed: int, indexed: IndexedGraph, run_index: int = 0
    ) -> "FaultPlan":
        """Materialise this model into a seeded per-run :class:`FaultPlan`."""
        return FaultPlan(
            self,
            fault_stream_seed(network_seed, self.seed, run_index),
            indexed,
        )


#: The null model: no faults, the behaviour of the seed simulator.
NULL_FAULT_MODEL = FaultModel()

def _edge_key(u: NodeId, v: NodeId) -> Tuple[str, str]:
    """Canonical, hash-randomisation-free identity of an undirected edge."""
    a, b = repr(u), repr(v)
    return (a, b) if a <= b else (b, a)


def _suffix(coordinate) -> bytes:
    """The bytes one coordinate appends to a decision's hashed text."""
    return ("|" + repr(coordinate)).encode("utf-8")


def _round_head(seed: int, tag: str, round_number: int) -> int:
    """CRC of the text ``f"{seed}|{tag!r}|{round!r}"`` shared by a round's
    decisions of one kind; :func:`zlib.crc32` extends it by suffixes."""
    return zlib.crc32(f"{seed}|{tag!r}|{round_number!r}".encode("utf-8"))


def _cut(probability: float) -> int:
    """The integer CRC cut-off of a probability: ``crc < _cut(p)`` iff
    ``crc / 2**32 < p`` (scaling by ``2**32`` is exact in binary64, and
    for an integer ``crc``, ``crc < x`` iff ``crc < ceil(x)``)."""
    return math.ceil(probability * _UNIT_SCALE)


class FaultPlan:
    """One run's resolved fault decisions.

    Built by the engine at the start of a faulty run from the model, the
    run's fault-stream seed and the compiled topology.  Every decision is
    specified by :func:`_unit` over the hashed text
    ``f"{seed}|{tag!r}|{round!r}|{sender!r}|{receiver!r}"`` (node and
    edge decisions hash their own coordinates the same way).  Crash and
    restart schedules are per-node, so they are precomputed with
    :func:`_unit` directly.  Message fates and churn use an exact
    incremental form of the same CRC: the per-label suffix bytes and the
    integer probability cut-offs are built here, the
    ``(seed, tag, round)`` head CRC once per round, the sender's prefix
    CRC once per outbox (:meth:`route`, :meth:`outbox_fates`), and each
    target then costs one ``crc32(suffix, prefix)`` call.  Since
    ``crc32(b, crc32(a)) == crc32(a + b)``, every decision is
    bit-for-bit the one the hashed text specifies.
    """

    __slots__ = (
        "model",
        "seed",
        "crash_round",
        "restart_round",
        "_max_restart",
        "_suffix",
        "_loss_cut",
        "_delay_cut",
        "_fate_round",
        "_loss_head",
        "_delay_head",
        "_edges",
        "_edge_suffixes",
        "_churn_cut",
        "_churn_round",
        "_churn_edges",
        "_churn_pairs",
    )

    def __init__(self, model: FaultModel, seed: int, indexed: IndexedGraph) -> None:
        self.model = model
        self.seed = seed
        #: node -> round at which it crashes (absent: never crashes).
        self.crash_round: Dict[NodeId, int] = {}
        #: node -> round at which it restarts (absent: down forever).
        self.restart_round: Dict[NodeId, int] = {}
        if model.crash > 0.0:
            for label in indexed.labels:
                if _unit(seed, "crash?", label) < model.crash:
                    at = 1 + int(
                        _unit(seed, "crash@", label) * model.crash_window
                    )
                    self.crash_round[label] = at
                    if model.down_rounds > 0:
                        self.restart_round[label] = at + model.down_rounds
        self._max_restart = max(self.restart_round.values(), default=-1)
        #: node -> its hashed-text suffix bytes, for the message fates.
        self._suffix = {label: _suffix(label) for label in indexed.labels}
        self._loss_cut = _cut(model.loss)
        self._delay_cut = _cut(model.delay)
        self._fate_round = -1
        self._loss_head = self._delay_head = 0
        #: Canonical undirected edge list in CSR order (u-index < v-index)
        #: and each edge's churn-key suffix bytes, built only when churn
        #: can occur.
        self._edges: Tuple[Tuple[NodeId, NodeId], ...] = ()
        self._edge_suffixes: Tuple[bytes, ...] = ()
        self._churn_cut = _cut(model.churn)
        if model.churn > 0.0:
            labels = indexed.labels
            offsets = indexed.offsets
            targets = indexed.targets
            edges: List[Tuple[NodeId, NodeId]] = []
            for i in range(len(labels)):
                for cursor in range(offsets[i], offsets[i + 1]):
                    j = targets[cursor]
                    if i < j:
                        edges.append((labels[i], labels[j]))
            self._edges = tuple(edges)
            self._edge_suffixes = tuple(
                _suffix(_edge_key(u, v)) for u, v in edges
            )
        self._churn_round = -1
        self._churn_edges: Tuple[Tuple[NodeId, NodeId], ...] = ()
        self._churn_pairs: FrozenSet[Tuple[NodeId, NodeId]] = frozenset()

    # ------------------------------------------------------------------
    def node_down(self, round_number: int, node: NodeId) -> bool:
        """Whether ``node`` is down (crashed, not yet restarted) in a round."""
        crashed = self.crash_round.get(node)
        if crashed is None or round_number < crashed:
            return False
        restart = self.restart_round.get(node)
        return restart is None or round_number < restart

    def restarts_pending(self, round_number: int) -> bool:
        """Whether any node restarts at ``round_number`` or later.

        Termination input: a quiescent network with a restart still ahead
        must keep running (the restarted node may produce new work)."""
        return round_number <= self._max_restart

    def outbox_fates(
        self, round_number: int, sender: NodeId, targets: Iterable[NodeId]
    ) -> List[int]:
        """The fates of one outbox's messages, in ``targets`` order.

        A fate is ``-1`` lost, ``0`` on time, ``d > 0`` delayed by ``d``
        extra rounds (arrival at ``round + 1 + d``).  Every target must be
        a node of the plan's topology.  This is the specification of the
        fates :meth:`route` decides while it places the messages; the
        engine itself only routes.
        """
        crc32 = zlib.crc32
        suffix = self._suffix
        loss_cut = self._loss_cut
        delay_cut = self._delay_cut
        loss_prefix, delay_prefix = self._prefixes(round_number, sender)
        max_delay = self.model.max_delay
        fates: List[int] = []
        append = fates.append
        for target in targets:
            tail = suffix[target]
            if loss_cut and crc32(tail, loss_prefix) < loss_cut:
                append(-1)
            elif delay_cut and crc32(tail, delay_prefix) < delay_cut:
                append(
                    1 if max_delay == 1
                    else self._long_delay(round_number, sender, target)
                )
            else:
                append(0)
        return fates

    def _prefixes(self, round_number: int, sender: NodeId) -> Tuple[int, int]:
        """The CRCs of ``f"{seed}|{tag!r}|{round!r}|{sender!r}"`` for the
        loss and the delay decisions of ``sender``'s messages in a round;
        each target's decision extends them by its suffix bytes."""
        if round_number != self._fate_round:
            self._fate_round = round_number
            self._loss_head = _round_head(self.seed, "loss", round_number)
            self._delay_head = _round_head(self.seed, "delay?", round_number)
        head = self._suffix[sender]
        return zlib.crc32(head, self._loss_head), zlib.crc32(head, self._delay_head)

    def _long_delay(self, round_number: int, sender: NodeId, target: NodeId) -> int:
        """The fate ``1 + d`` of a delayed message when ``max_delay > 1``."""
        return 1 + int(
            _unit(self.seed, "delay+", round_number, sender, target)
            * self.model.max_delay
        )

    def message_fate(
        self, round_number: int, sender: NodeId, receiver: NodeId
    ) -> int:
        """Decide one message's fate (see :meth:`outbox_fates`)."""
        return self.outbox_fates(round_number, sender, (receiver,))[0]

    def route(
        self,
        round_number: int,
        sender: NodeId,
        items: Iterable[Tuple[NodeId, Any]],
        next_inboxes: Dict[NodeId, Dict[NodeId, Any]],
        pending: Dict[int, List[Tuple[NodeId, NodeId, Any]]],
    ) -> Tuple[int, int]:
        """Place one outbox's ``(target, payload)`` messages by their fates;
        return the numbers of dropped and delayed messages.

        One pass decides each message's fate exactly as
        :meth:`outbox_fates` specifies (the loss CRC, then the delay CRC,
        with the same per-round heads and per-sender prefixes) and places
        the message at once.  A message is dropped if its fate is a loss,
        if its edge is churned (down) this round or if its receiver is
        down at arrival (a delayed message arriving while its receiver is
        down is lost too).  A delayed message is appended to ``pending``
        under its absolute arrival round (the engine merges it into that
        round's inboxes); an on-time one goes into its target's inbox in
        ``next_inboxes`` (a fresh dict when new).  The
        transport calls this only for an outbox that passed its neighbour
        and bandwidth checks, so every target is a node of the plan.
        """
        crc32 = zlib.crc32
        suffix = self._suffix
        loss_cut = self._loss_cut
        delay_cut = self._delay_cut
        loss_prefix, delay_prefix = self._prefixes(round_number, sender)
        max_delay = self.model.max_delay
        churned = None
        if self.model.churn > 0.0:
            self._refresh_churn(round_number)
            churned = self._churn_pairs
        node_down = self.node_down if self.crash_round else None
        arrival = round_number + 1
        next_inboxes_get = next_inboxes.get
        dropped = delayed = 0
        for target, payload in items:
            tail = suffix[target]
            if loss_cut and crc32(tail, loss_prefix) < loss_cut:
                dropped += 1
                continue
            if delay_cut and crc32(tail, delay_prefix) < delay_cut:
                fate = (
                    1 if max_delay == 1
                    else self._long_delay(round_number, sender, target)
                )
            else:
                fate = 0
            if churned is not None and (sender, target) in churned:
                dropped += 1
                continue
            if node_down is not None and node_down(arrival + fate, target):
                dropped += 1
                continue
            if fate:
                delayed += 1
                bucket = pending.get(arrival + fate)
                if bucket is None:
                    bucket = pending[arrival + fate] = []
                bucket.append((sender, target, payload))
                continue
            inbox = next_inboxes_get(target)
            if inbox is None:
                inbox = next_inboxes[target] = {}
            inbox[sender] = payload
        return dropped, delayed

    # ------------------------------------------------------------------
    def churned_edges(self, round_number: int) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """The edges down in ``round_number``, in CSR edge order."""
        if self.model.churn <= 0.0:
            return ()
        self._refresh_churn(round_number)
        return self._churn_edges

    def edge_down(self, round_number: int, u: NodeId, v: NodeId) -> bool:
        """Whether the (undirected) edge ``{u, v}`` is down in a round."""
        if self.model.churn <= 0.0:
            return False
        self._refresh_churn(round_number)
        return (u, v) in self._churn_pairs

    def _refresh_churn(self, round_number: int) -> None:
        if round_number == self._churn_round:
            return
        crc32 = zlib.crc32
        head = _round_head(self.seed, "churn", round_number)
        cut = self._churn_cut
        down = tuple(
            edge
            for edge, tail in zip(self._edges, self._edge_suffixes)
            if crc32(tail, head) < cut
        )
        self._churn_round = round_number
        self._churn_edges = down
        self._churn_pairs = frozenset(down).union((v, u) for u, v in down)
