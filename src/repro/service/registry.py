"""Server-side state: datasets, sessions and in-flight queries.

The paper's outsourcing model separates roles: the *service* (the
powerful cloud) stores everything once; each *client* is a weak verifier
with O(log u) words of private state.  The registry realises that split
server-side:

* a :class:`Dataset` holds one update stream — the "shared server pass":
  any number of sessions attach to the same dataset and the service pays
  its storage once, however many independent verifiers watch it;
* a :class:`Session` is one connected client verifier, holding only
  references and its open queries;
* an :class:`ActiveQuery` owns the prover materialised (through the
  :class:`~repro.service.router.QueryRouter`) for one verified query —
  started from the dataset's read-only canonical table as it stood when
  the query opened, so proofs stay consistent while other sessions keep
  streaming into the dataset.

Late-joining sessions catch up on the prefix they missed: a verifier
must observe the *whole* stream, and every state it keeps is linear in
the stream's net vector, so catch-up serves each vector's net counts,
one entry per touched key, over the wire and in process alike
(:meth:`Dataset.net_slices`, and its in-process twin, which yields the
entries one by one).  Both read the net entries a dataset keeps once per
version of its data.  Replica resync re-reads the log itself
(:meth:`Dataset.replay_columns`), in arrival order.
"""

from __future__ import annotations

import json
import os
from itertools import chain, groupby, islice, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.base import pow2_dimension
from repro.field.modular import PrimeField
from repro.field.vectorized import frozen_start, frozen_table, get_backend
from repro.service import protocol as sp
from repro.service.router import PlanUnit, QueryDescriptor, QueryRouter

_log = obs.get_logger("service.registry")


class RegistryError(ValueError):
    """A structurally valid frame asked for something impossible."""

    #: The T_ERROR code a server stamps on this rejection.
    code = sp.E_GENERIC


class AdmissionError(RegistryError):
    """The service is full (sessions or in-flight queries at capacity).

    This is a *clean refusal*, not a failure: the client is expected to
    back off and retry, and the server sheds load instead of degrading
    every admitted session.
    """

    code = sp.E_BUSY


class UnknownSessionError(RegistryError):
    """The session id is not (or no longer) registered.

    After a server restart the datasets survive via snapshot/restore but
    connections do not; a client holding a stale session id must
    reconnect (HELLO on the same dataset) and resume.
    """

    code = sp.E_UNKNOWN_SESSION


class Dataset:
    """One outsourced update stream, shared by any number of sessions.

    The data are exact integer columns of the compute backend (int64
    arrays under NumPy, lists on the scalar backend; see the backend's
    ``int_*`` primitives): one dense padded count column per vector —
    vector 0 is the primary stream, vector 1 the optional second operand
    of INNER-PRODUCT queries — and the replay log as three growable
    columns ``(vector, key, delta)`` in arrival order.  The log is the
    stream both parties observed; late verifiers re-read it.
    """

    def __init__(self, field: PrimeField, u: int, dataset_id: int):
        self.field = field
        self.u = u
        self.dataset_id = dataset_id
        self.d = pow2_dimension(u)
        self.size = 1 << self.d
        self.backend = get_backend(field)
        self._counts = [self.backend.int_zeros(self.size) for _ in (0, 1)]
        #: Per vector, a bound on Σ|δ| over everything applied so far:
        #: what tells the backend when an int64 count could wrap.
        self._mass = [0, 0]
        #: Per vector, the canonical table of the data as it stands;
        #: :meth:`apply` drops it and never writes it.
        self._tables: Dict[int, object] = {}
        #: Per vector set, the proof start over those tables
        #: (:meth:`proof_start`); dropped with any table it was made of.
        self._starts: Dict[Tuple[int, ...], tuple] = {}
        #: Per vector, the nonzero ``(keys, exact counts)`` columns of the
        #: data as it stands (:meth:`net_slices`); dropped with its table.
        self._nets: Dict[int, tuple] = {}
        self._log = self.backend.int_table(3)
        self._n = 0
        self.sessions_attached = 0

    @property
    def n_updates(self) -> int:
        return self._n

    def apply(self, vector: int, pairs) -> int:
        """Append a block of ``(key, delta)`` updates; returns the new
        stream length.  All or nothing, see :meth:`apply_columns`."""
        return self.apply_columns(vector, *self.backend.int_columns(pairs))

    def apply_columns(self, vector: int, keys, deltas) -> int:
        """:meth:`apply` for a block that is already two backend columns.

        All or nothing: every check runs before anything moves, so a
        refused block — never acknowledged — leaves counts, log and
        the cached tables, starts and net entries as they were.
        """
        if vector not in (0, 1):
            raise RegistryError("unknown update vector %r" % (vector,))
        count = len(keys)
        if count:
            be = self.backend
            low, high = be.int_bounds(keys)
            if low < 0 or high >= self.u:
                raise RegistryError(
                    "key %d outside universe [0, %d)"
                    % (low if low < 0 else high, self.u)
                )
            low, high = be.int_bounds(deltas)
            self._mass[vector] += max(high, -low) * count
            self._counts[vector] = be.int_add_at(
                self._counts[vector], keys, deltas, self._mass[vector])
            self._log = be.int_table_append(self._log, self._n,
                                            (vector, keys, deltas))
            self._n += count
        self._tables.pop(vector, None)
        self._nets.pop(vector, None)
        self._starts = {vectors: start
                        for vectors, start in self._starts.items()
                        if vector not in vectors}
        return self._n

    def canonical_table(self, vector: int):
        """The read-only proof table of one vector — its counts mod p,
        one pass — built lazily and shared by every prover: folds return
        fresh tables, so a proof in flight keeps this one while
        :meth:`apply` drops the reference."""
        table = self._tables.get(vector)
        if table is None:
            table = frozen_table(self.backend, self.field,
                                 self._counts[vector])
            self._tables[vector] = table
        return table

    def proof_start(self, vectors: Tuple[int, ...]):
        """The read-only ``(layout, backend, *tables)`` every proof over
        the canonical tables of ``vectors`` — ``(0,)`` or ``(0, 1)`` —
        starts on (:func:`~repro.field.vectorized.frozen_start`): the
        pairs those tables touch are found once per version of the data,
        not once per proof.  Built lazily; :meth:`apply` to a vector
        drops the starts that hold it, and a proof in flight keeps its
        own."""
        start = self._starts.get(vectors)
        if start is None:
            start = frozen_start(self.backend, self.field,
                                 *map(self.canonical_table, vectors))
            self._starts[vectors] = start
        return start

    def _log_columns(self, start: int, count: int):
        """Log entries ``[start, start + count)`` as three columns."""
        if start < 0:
            raise RegistryError("replay start must be non-negative")
        stop = min(start + count, self._n)
        return [row[start:stop] for row in self._log]

    def replay_columns(self, start: int, count: int):
        """The same block as ``(vector, keys, deltas)`` runs of a single
        vector, in log order: one replay frame each, so every frame
        ends on a log index a replay can resume from."""
        vectors, keys, deltas = self._log_columns(start, count)
        bounds = self.backend.int_runs(vectors)
        return [(int(vectors[lo]), keys[lo:hi], deltas[lo:hi])
                for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

    def _net_entries(self, vector: int):
        """One vector's nonzero keys, increasing, and their exact counts:
        two backend columns, found once per version and never written."""
        entries = self._nets.get(vector)
        if entries is None:
            entries = self.backend.int_entries(self._counts[vector])
            self._nets[vector] = entries
        return entries

    def net_slices(self, stop: int, skip: int, count: int):
        """The net counts of log entries ``[0, stop)`` for catch-up
        replay: each vector's nonzero ``(key, exact count)`` entries in
        (vector, key) order, less the first ``skip``, as ``(vector, keys,
        counts)`` pieces of at most ``count`` entries of one vector.

        At ``stop == n_updates`` the pieces are cut from the entries kept
        for this version; a smaller ``stop`` takes the log's tail off a
        copy of the count columns."""
        if not 0 <= stop <= self._n:
            raise RegistryError("replay stop %d outside the log [0, %d]"
                                % (stop, self._n))
        if skip < 0:
            raise RegistryError("replay skip must be non-negative")
        if stop == self._n:
            entries = [self._net_entries(vector) for vector in (0, 1)]
        else:
            tail = self.replay_columns(stop, self._n - stop)
            entries = [self.backend.int_entries(
                counts, [(k, d) for v, k, d in tail if v == vector])
                for vector, counts in enumerate(self._counts)]
        pieces = []
        for vector, (keys, nets) in enumerate(entries):
            first, skip = min(skip, len(keys)), max(skip - len(keys), 0)
            pieces.extend((vector, keys[lo:lo + count], nets[lo:lo + count])
                          for lo in range(first, len(keys), count))
        return pieces

    def replay_slice(self, start: int, count: int):
        """In-process catch-up, the twin of ``T_REPLAY_REQUEST
        [n_updates, start]``: entries ``[start, start + count)`` of the
        net list (:meth:`net_slices`) as an iterator of ``(vector, key,
        exact count)`` triples of Python ints, empty past its end.  The
        list never has more entries than ``n_updates``; a negative
        ``start`` is refused as a negative ``skip`` is."""
        to_list = self.backend.to_list
        pieces = self.net_slices(self._n, start, max(count, 1))
        return islice(chain.from_iterable(
            zip(repeat(vector), to_list(keys), to_list(nets))
            for vector, keys, nets in pieces), max(count, 0))

    # Read-only views for tests and debugging: fresh lists of Python
    # ints, built on every access — nothing is stored for them.

    @property
    def freq_a(self) -> List[int]:
        return self.backend.to_list(self._counts[0])

    @property
    def freq_b(self) -> List[int]:
        return self.backend.to_list(self._counts[1])

    @property
    def log(self) -> List[Tuple[int, int, int]]:
        return list(zip(*map(self.backend.to_list,
                             self._log_columns(0, self._n))))


class ActiveQuery:
    """One in-flight verified query and its server-side prover."""

    def __init__(self, ref: int, unit: PlanUnit, prover):
        self.ref = ref
        self.unit = unit
        self.prover = prover
        #: The kind the step table resolves this query's calls for.
        self.kind = unit.descriptors[0].kind
        #: The step whose reply ends the proof and how many more of its
        #: replies that takes; None where the client closes the unit.
        self.closing: Optional[int] = None
        self.closing_left = 0


class Session:
    """One connected client verifier."""

    def __init__(self, session_id: int, dataset: Dataset):
        self.session_id = session_id
        self.dataset = dataset
        self.queries: Dict[int, ActiveQuery] = {}
        self._next_query_ref = 1

    def open_query(self, unit: PlanUnit, prover) -> ActiveQuery:
        ref = self._next_query_ref
        self._next_query_ref += 1
        active = ActiveQuery(ref, unit, prover)
        self.queries[ref] = active
        return active

    def close_query(self, ref: int) -> None:
        if ref not in self.queries:
            raise RegistryError("unknown query reference %d" % ref)
        del self.queries[ref]


class SessionRegistry:
    """All service state: datasets by id, sessions by id, counters.

    ``prover_wrapper`` is a soundness-experiment hook: when set, every
    materialised prover passes through ``wrapper(unit, prover, dataset)``
    before serving its query — the adversarial provers of
    :mod:`repro.adversary.cheating_provers` slot in here to model a
    cheating cloud behind the real wire (tests assert every one of them
    is rejected by the remote verifier).
    """

    #: Default bound on a dataset's universe: the dense padded frequency
    #: vectors cost O(2^ceil(log2 u)) memory, so a client-supplied u is a
    #: resource request and must be capped — a session asking for more is
    #: refused with an error frame, not allocated into an OOM kill.
    DEFAULT_MAX_UNIVERSE = 1 << 24

    #: Snapshot format version (bumped on any layout change so stale
    #: snapshots are rejected loudly instead of misread).
    SNAPSHOT_VERSION = 1

    def __init__(self, field: PrimeField, prover_wrapper=None,
                 max_universe: int = DEFAULT_MAX_UNIVERSE,
                 max_sessions: Optional[int] = None,
                 max_inflight_queries: Optional[int] = None):
        self.field = field
        self.prover_wrapper = prover_wrapper
        self.max_universe = max_universe
        #: Admission control: HELLOs beyond this many live sessions are
        #: refused with a clean E_BUSY frame (None = unbounded).
        self.max_sessions = max_sessions
        #: Per-session cap on concurrently open queries (None = unbounded).
        self.max_inflight_queries = max_inflight_queries
        self.datasets: Dict[int, Dataset] = {}
        self.sessions: Dict[int, Session] = {}
        self._next_session_id = 1
        self.queries_served = 0
        self.refusals = 0

    # -- lifecycle -----------------------------------------------------------

    def connect(self, u: int, dataset_id: int) -> Session:
        if (self.max_sessions is not None
                and len(self.sessions) >= self.max_sessions):
            self.refusals += 1
            obs.counter("repro_server_admission_refusals_total",
                        kind="session").inc()
            _log.info("admission.refused", kind="session",
                      sessions=len(self.sessions))
            raise AdmissionError(
                "service at capacity (%d sessions); retry later"
                % len(self.sessions)
            )
        if not 1 <= u <= self.max_universe:
            raise RegistryError(
                "universe size %d outside this service's limit [1, %d]"
                % (u, self.max_universe)
            )
        dataset = self.datasets.get(dataset_id)
        if dataset is None:
            dataset = Dataset(self.field, u, dataset_id)
            self.datasets[dataset_id] = dataset
        elif dataset.u != u:
            raise RegistryError(
                "dataset %d has universe %d, session asked for %d"
                % (dataset_id, dataset.u, u)
            )
        session = Session(self._next_session_id, dataset)
        self._next_session_id += 1
        self.sessions[session.session_id] = session
        dataset.sessions_attached += 1
        return session

    def session(self, session_id: int) -> Session:
        session = self.sessions.get(session_id)
        if session is None:
            raise UnknownSessionError("unknown session %d" % session_id)
        return session

    def disconnect(self, session_id: int) -> None:
        session = self.sessions.pop(session_id, None)
        if session is not None:
            session.dataset.sessions_attached -= 1

    # -- queries -------------------------------------------------------------

    def open_query(self, session_id: int,
                   descriptors: List[QueryDescriptor],
                   batched: bool) -> ActiveQuery:
        session = self.session(session_id)
        if (self.max_inflight_queries is not None
                and len(session.queries) >= self.max_inflight_queries):
            self.refusals += 1
            obs.counter("repro_server_admission_refusals_total",
                        kind="query").inc()
            _log.info("admission.refused", kind="query",
                      session=session_id, inflight=len(session.queries))
            raise AdmissionError(
                "session %d already has %d queries in flight; retry later"
                % (session_id, len(session.queries))
            )
        dataset = session.dataset
        unit = PlanUnit(batched, tuple(descriptors))
        prover = QueryRouter.make_prover(unit, dataset)
        if self.prover_wrapper is not None:
            replacement = self.prover_wrapper(unit, prover, dataset)
            if replacement is not None:
                prover = replacement
        self.queries_served += 1
        return session.open_query(unit, prover)

    # -- cluster support -----------------------------------------------------

    def inventory(self) -> List[Tuple[int, int, int]]:
        """``(dataset id, u, n_updates)`` per dataset, id-sorted.

        This is what an H_STATUS frame carries: enough for a cluster
        router's health probe and for a node supervisor to decide which
        datasets a recovering node must resync, and from where.
        """
        return [
            (d.dataset_id, d.u, d.n_updates)
            for d in sorted(self.datasets.values(),
                            key=lambda d: d.dataset_id)
        ]

    def tail_slice(self, dataset_id: int, start: int, count: int):
        """A slice of one dataset's update log, for tail resync (a
        replay's log form): ``(vector, keys, deltas)`` columns per vector
        (see :meth:`Dataset.replay_columns`).

        The hinted-handoff read path: a peer replica serves the entries
        a recovering node missed while it was down, starting at the
        recovering node's own update count.  Replica logs are prefixes
        of the writer's sequence (one writer per dataset), so
        ``start = len(recovering node's log)`` is exactly the first
        missed update.
        """
        dataset = self.datasets.get(dataset_id)
        if dataset is None:
            raise RegistryError("unknown dataset %d" % dataset_id)
        return dataset.replay_columns(start, count)

    # -- snapshot / restore --------------------------------------------------
    #
    # Crash recovery: everything a restarted server needs to resume its
    # datasets lives in the replay logs (the log *is* the stream both
    # parties observed; the dense tables are a deterministic fold of it,
    # and the clients' LDE fingerprints were computed from the same
    # bytes).  Connections and in-flight provers are deliberately not
    # persisted — a mid-round prover is cheap to rematerialise, and the
    # client-driven retry re-runs the query against the restored tables,
    # reproducing the exact transcript (sum-check transcripts are
    # deterministic given data + verifier randomness).

    def snapshot(self, path) -> str:
        """Persist all datasets (logs + counters) to ``path``.

        The write goes through a per-process temp file, an fsync, and an
        atomic ``os.replace``: a node killed at *any* instant — mid-JSON,
        between write and rename, even mid-rename — leaves either the
        previous complete snapshot or the new complete one at ``path``,
        never a truncated hybrid.  Recovery can therefore always restore
        from the latest snapshot a dead node left behind.
        """
        payload = {
            "version": self.SNAPSHOT_VERSION,
            "field_p": self.field.p,
            "next_session_id": self._next_session_id,
            "queries_served": self.queries_served,
            "datasets": [
                {
                    "id": d.dataset_id,
                    "u": d.u,
                    # Triples serialise as the arrays they always were.
                    "log": d.log,
                }
                for d in self.datasets.values()
            ],
        }
        path = str(path)
        # The temp name carries the pid so two nodes snapshotting into a
        # shared directory can never clobber each other's half-written
        # file; the fsync pins the bytes before the rename publishes
        # them (rename-before-data would let a crash publish garbage).
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _log.info("snapshot.written", path=path,
                  datasets=len(self.datasets),
                  updates=sum(d.n_updates for d in self.datasets.values()))
        return path

    @classmethod
    def restore(cls, path, field: PrimeField, **kwargs) -> "SessionRegistry":
        """A fresh registry with every snapshotted dataset rebuilt.

        The dense frequency tables are reconstructed by replaying each
        dataset's log — the same fold the live server performed — so a
        restored dataset is indistinguishable from one that never went
        down.  Session ids keep counting from where the old server
        stopped, so a stale id can never alias a post-restart session.
        """
        with open(str(path), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("version") != cls.SNAPSHOT_VERSION:
            raise RegistryError(
                "snapshot version %r not supported (expected %d)"
                % (payload.get("version"), cls.SNAPSHOT_VERSION)
            )
        if payload.get("field_p") != field.p:
            raise RegistryError(
                "snapshot was taken in Z_%s, service runs Z_%d"
                % (payload.get("field_p"), field.p)
            )
        registry = cls(field, **kwargs)
        registry._next_session_id = int(payload.get("next_session_id", 1))
        registry.queries_served = int(payload.get("queries_served", 0))
        for entry in payload.get("datasets", []):
            dataset = Dataset(field, int(entry["u"]), int(entry["id"]))
            # One block per same-vector run, not one per update.
            for vector, run in groupby(entry.get("log", []),
                                       key=itemgetter(0)):
                dataset.apply(vector, [row[1:] for row in run])
            registry.datasets[dataset.dataset_id] = dataset
        _log.info("snapshot.restored", path=str(path),
                  datasets=len(registry.datasets),
                  updates=sum(d.n_updates
                              for d in registry.datasets.values()))
        return registry

    # -- statistics ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "datasets": len(self.datasets),
            "sessions": len(self.sessions),
            "updates": sum(d.n_updates for d in self.datasets.values()),
            "open_queries": sum(
                len(s.queries) for s in self.sessions.values()
            ),
            "queries_served": self.queries_served,
        }
