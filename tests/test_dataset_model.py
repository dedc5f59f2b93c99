"""``registry.Dataset`` against a per-pair model.

The dataset keeps its counts and its replay log as exact integer columns
of the compute backend and moves a block through them without a Python
object per update.  What it must *be* is the fifteen lines of
:class:`Model` below — the per-pair loop it replaced — on every backend:
same counts, same log, same refusals, and a refused block changes
nothing, the cached table object included.  The replay frames are held
to the list encoder over the model's log, and the snapshot file to the
bytes the list-based tree wrote.
"""

from __future__ import annotations

import itertools
import os
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.modular import DEFAULT_FIELD as F
from repro.field.vectorized import HAVE_NUMPY, entry_reader
from repro.service import protocol as sp
from repro.service.registry import Dataset, RegistryError, SessionRegistry
from repro.service.server import REPLAY_BLOCK, ProverServer

BACKENDS = ["scalar"] + (["vectorized"] if HAVE_NUMPY else [])
HALF = (F.p - 1) // 2


class Model:
    """The reference: ``dict`` counts and a tuple log, one pair at a time."""

    def __init__(self, u):
        self.u, self.counts, self.log = u, ({}, {}), []

    def apply(self, vector, pairs):
        for key, delta in pairs:
            if type(key) is not int or type(delta) is not int:
                raise TypeError("not an integer update")
            if not 0 <= key < self.u:
                raise RegistryError("key outside universe")
        for key, delta in pairs:
            self.counts[vector][key] = self.counts[vector].get(key, 0) + delta
            self.log.append((vector, key, delta))
        return len(self.log)


def runs(log):
    """``(vector, pairs)`` per same-vector run of ``log``, in order."""
    return [(vector, [(key, delta) for _v, key, delta in run])
            for vector, run in itertools.groupby(log, key=lambda e: e[0])]


def dataset_on(backend_name, u, dataset_id=0):
    with mock.patch.dict(os.environ, REPRO_BACKEND=backend_name):
        return Dataset(F, u, dataset_id)


def assert_same(dataset, model):
    assert dataset.n_updates == len(model.log)
    assert dataset.log == model.log
    for vector, freq in enumerate((dataset.freq_a, dataset.freq_b)):
        assert len(freq) == dataset.size
        assert all(type(count) is int for count in freq)
        assert freq == [model.counts[vector].get(key, 0)
                        for key in range(dataset.size)]
        table = dataset.canonical_table(vector)
        assert [int(word) for word in table] == [c % F.p for c in freq]
        assert dataset.canonical_table(vector) is table
        with pytest.raises((ValueError, TypeError)):
            table[0] = 1  # frozen
    # Each proof start, read entry by entry through its layout, is the
    # model's residues, whatever form it took; it is built once.
    for vectors in ((0,), (0, 1)):
        start = dataset.proof_start(vectors)
        layout, _backend, *tables = start
        for vector, table in zip(vectors, tables):
            read = entry_reader(table, layout, range(dataset.size))
            assert [read(key) for key in range(dataset.size)] == [
                model.counts[vector].get(key, 0) % F.p
                for key in range(dataset.size)]
        assert dataset.proof_start(vectors) is start


universes = st.sampled_from([1, 2, 3, 7, 12, 100, 129])
deltas = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([HALF, -HALF, F.p - 1, -(1 << 61), (1 << 62) + 5]),
)


@st.composite
def block_streams(draw):
    u = draw(universes)
    pair = st.tuples(st.integers(0, u - 1), deltas)
    blocks = draw(st.lists(
        st.tuples(st.integers(0, 1), st.lists(pair, max_size=12)),
        max_size=8))
    return u, blocks


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(stream=block_streams())
def test_dataset_is_the_per_pair_model(backend_name, stream):
    u, blocks = stream
    dataset, model = dataset_on(backend_name, u), Model(u)
    for vector, pairs in blocks:
        assert dataset.apply(vector, pairs) == model.apply(vector, pairs)
    assert_same(dataset, model)
    n = len(model.log)
    for start in range(n + 2):
        for count in (0, 1, 3, n, n + 5):
            assert list(dataset.replay_slice(start, count)) == \
                model.log[start:start + count]
            assert [
                (vector, list(zip(dataset.backend.to_list(keys),
                                  dataset.backend.to_list(deltas))))
                for vector, keys, deltas in dataset.replay_columns(start,
                                                                   count)
            ] == runs(model.log[start:start + count])
    with pytest.raises(RegistryError):
        dataset.replay_slice(-1, 5)
    with pytest.raises(RegistryError):
        dataset.replay_columns(-1, 5)


BAD_BLOCKS = [
    (RegistryError, lambda u: [(0, 1), (u, 1)]),        # key = u
    (RegistryError, lambda u: [(0, 1), (-1, 1)]),       # key < 0
    (RegistryError, lambda u: [(1 << 70, 1)]),          # key beyond int64
    (TypeError, lambda u: [(0, 1), (0, "7")]),
    (TypeError, lambda u: [(0, 1), (0, 7.9)]),
    (TypeError, lambda u: [(0, 1), (0, None)]),
    (TypeError, lambda u: [(0.0, 1)]),
    (ValueError, lambda u: [(0, 1), (0, 1, 1)]),        # not a pair
]


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(stream=block_streams(), bad=st.sampled_from(BAD_BLOCKS),
       vector=st.integers(0, 1))
def test_a_refused_block_leaves_everything_untouched(backend_name, stream,
                                                     bad, vector):
    u, blocks = stream
    dataset, model = dataset_on(backend_name, u), Model(u)
    for block_vector, pairs in blocks:
        dataset.apply(block_vector, pairs)
        model.apply(block_vector, pairs)
    tables = [dataset.canonical_table(0), dataset.canonical_table(1)]
    starts = {vectors: dataset.proof_start(vectors)
              for vectors in ((0,), (0, 1))}
    error, make = bad
    with pytest.raises(error):
        dataset.apply(vector, make(u))
    with pytest.raises(RegistryError):
        dataset.apply(2, [(0, 1)])  # no such vector
    assert_same(dataset, model)
    assert dataset.canonical_table(0) is tables[0]
    assert dataset.canonical_table(1) is tables[1]
    for vectors, start in starts.items():
        assert dataset.proof_start(vectors) is start
    # ...and the next good block lands on exactly that state.
    dataset.apply(vector, [(u - 1, -4)])
    model.apply(vector, [(u - 1, -4)])
    assert_same(dataset, model)
    assert dataset.canonical_table(vector) is not tables[vector]
    assert dataset.canonical_table(1 - vector) is tables[1 - vector]
    for vectors, start in starts.items():
        assert (dataset.proof_start(vectors) is start) == (
            vector not in vectors)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_counts_stay_exact_past_int64(backend_name):
    """±(p − 1)/2 is the largest delta a wire word decodes to.  Nine of
    them on one key pass 2^63: the column moves to Python ints — once,
    and only the vector that needed it — and nothing wraps."""
    dataset, model = dataset_on(backend_name, 12), Model(12)
    for step in range(12):
        block = [(5, HALF), (7, -HALF), (step, 1)]
        dataset.apply(0, block)
        model.apply(0, block)
        dataset.apply(1, [(5, -3)])
        model.apply(1, [(5, -3)])
        assert_same(dataset, model)
    assert dataset.freq_a[5] == 12 * HALF + 1 > 1 << 63
    assert dataset.freq_a[7] == -12 * HALF + 1 < -(1 << 63)
    if backend_name == "vectorized":
        assert dataset._counts[0].dtype == object
        assert dataset._counts[1].dtype == "int64"
    # A delta that does not fit a machine word is exact too, in the
    # counts, the log and what a snapshot would write.
    wide = [(3, 1 << 70), (3, -(1 << 64)), (4, 2)]
    dataset.apply(1, wide)
    model.apply(1, wide)
    assert_same(dataset, model)
    assert dataset.freq_b[3] == (1 << 70) - (1 << 64)


# -- replay frames and snapshots: the bytes of the list-based path --------------

U = 1000

#: A version-1 snapshot file as the PR 22 tree wrote it.
PARENT_SNAPSHOT = (
    '{"version": 1, "field_p": 2305843009213693951, "next_session_id": 3, '
    '"queries_served": 3, "datasets": [{"id": 7, "u": 12, "log": '
    '[[0, 3, 2], [0, 11, -1], [1, 0, 5], [0, 3, 1152921504606846975], '
    '[0, 4, -1152921504606846975]]}, {"id": 9, "u": 5, "log": []}]}'
)


def interleaved_blocks(total, seed=23):
    """Same-vector runs of uneven length, both vectors, edge deltas."""
    rng = random.Random(seed)
    blocks = []
    while total:
        count = min(total, rng.randrange(1, 700))
        blocks.append((rng.randrange(2), list(zip(
            rng.choices(range(U), k=count),
            rng.choices((1, 1, 2, -1, 7, -3, HALF, -HALF, 0), k=count)))))
        total -= count
    return blocks


def model_replay(log, session_id, start):
    """The replay from ``start``, encoded pair by pair from the model's
    log: per REPLAY_BLOCK updates, one frame per same-vector run."""
    frames = [
        sp.pack_frame(sp.T_REPLAY_DATA, session_id,
                      sp.updates_payload(F, vector, pairs))
        for cursor in range(start, len(log), REPLAY_BLOCK)
        for vector, pairs in runs(log[cursor:cursor + REPLAY_BLOCK])
    ]
    return frames + [sp.pack_frame(sp.T_REPLAY_END, session_id,
                                   sp.words_payload(F, [len(log)]))]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_replay_frames_and_snapshot_are_byte_identical(backend_name,
                                                       monkeypatch,
                                                       tmp_path):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    server = ProverServer(F)
    session = server.registry.connect(U, 1)
    dataset, model = session.dataset, Model(U)
    blocks = interleaved_blocks(2 * REPLAY_BLOCK + 5)
    for vector, pairs in blocks:
        dataset.apply(vector, pairs)
        model.apply(vector, pairs)
    log = model.log
    assert dataset.n_updates == len(log) == 2 * REPLAY_BLOCK + 5
    # From the start (two block cuts), six updates before the end of the
    # first block (one cut) and past the end (just the END frame).
    starts = (0, REPLAY_BLOCK - 6, len(log))
    replays = [server._dispatch(sp.T_REPLAY_REQUEST, session.session_id,
                                sp.words_payload(F, [start]))
               for start in starts]
    assert replays == [model_replay(log, session.session_id, start)
                       for start in starts]
    # A replay frame is a same-vector run of one REPLAY_BLOCK, so a
    # replay sends the log's runs from its start, plus one frame for
    # every block cut that falls inside a run, and the END frame.
    for start, frames, cut_count in zip(starts, replays, (2, 1, 0)):
        cuts = range(start + REPLAY_BLOCK, len(log), REPLAY_BLOCK)
        assert len(cuts) == cut_count
        assert len(frames) == (len(runs(log[start:]))
                               + sum(log[c - 1][0] == log[c][0]
                                     for c in cuts) + 1)
    # So a full replay sends at most the writer's own frames, one more
    # per cut and the END frame.
    assert len(replays[0]) <= len(blocks) + 2 + 1

    # A snapshot costs JSON per logged update, so the round trip runs on
    # a log of 8 000, which holds every delta the generator draws.
    server = ProverServer(F)
    dataset, model = server.registry.connect(U, 1).dataset, Model(U)
    for vector, pairs in interleaved_blocks(8000):
        dataset.apply(vector, pairs)
        model.apply(vector, pairs)
    path = server.snapshot(tmp_path / "snapshot.json")
    restored = SessionRegistry.restore(path, F).datasets[1]
    assert_same(restored, model)
    assert restored.u == U


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_snapshot_written_by_the_list_based_tree_restores(
        backend_name, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BACKEND", backend_name)
    path = tmp_path / "parent.json"
    path.write_text(PARENT_SNAPSHOT, encoding="utf-8")
    registry = SessionRegistry.restore(path, F)
    assert registry.inventory() == [(7, 12, 5), (9, 5, 0)]
    assert registry.queries_served == 3
    assert registry.connect(12, 7).session_id == 3
    dataset = registry.datasets[7]
    assert dataset.log == [(0, 3, 2), (0, 11, -1), (1, 0, 5),
                           (0, 3, HALF), (0, 4, -HALF)]
    assert dataset.freq_a[3] == 2 + HALF and dataset.freq_a[4] == -HALF
    assert dataset.freq_a[11] == -1 and dataset.freq_b[0] == 5
    # ...and writes the same file back.
    again = tmp_path / "again.json"
    registry._next_session_id = 3
    registry.snapshot(again)
    assert again.read_text(encoding="utf-8") == PARENT_SNAPSHOT
