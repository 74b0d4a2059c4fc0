"""The content-addressed result store.

Recovery contract under test: *anything* undecodable on disk —
truncated, corrupt, wrong format — is a miss that deletes the entry and
recomputes; the store never raises for bad bytes.
"""

import json
import os
import pickle
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.accounting.methods import all_methods, method_by_name
from repro.accounting.pricing import (
    OUTCOME_FIELDS,
    OutcomeTable,
    QuoteTable,
    fingerprint_digest,
)
from repro.sim.engine import (
    MultiClusterSimulator,
    SimulationResult,
    pricing_for_sim_machine,
)
from repro.sim.result_store import (
    STORE_FORMAT,
    ResultStore,
    task_store_key,
)
from repro.sim.sweep import SweepTask

SCALE = 120
SEED = 3

METHOD_NAMES = [m.name for m in all_methods()]


@pytest.fixture(scope="module")
def machines():
    from repro.experiments._simulation import scenario

    return dict(scenario("baseline", SEED))


@pytest.fixture(scope="module")
def sample_results(machines):
    """One Greedy run per accounting method (all five)."""
    from repro.experiments._simulation import workload
    from repro.sim.policies import GreedyPolicy

    wl = workload("baseline", SCALE, SEED)
    return {
        name: MultiClusterSimulator(
            machines, method_by_name(name), GreedyPolicy()
        ).run(wl)
        for name in METHOD_NAMES
    }


@pytest.fixture(scope="module")
def pricing_fp(machines):
    return QuoteTable.fingerprint(
        {
            name: pricing_for_sim_machine(machine)
            for name, machine in machines.items()
        }
    )


def task_for(method: str) -> SweepTask:
    return SweepTask("baseline", "Greedy", method, SCALE, SEED)


def assert_results_equal(got, expected):
    assert got.policy == expected.policy
    assert got.method == expected.method
    assert got.machines == expected.machines
    assert got.outcomes == expected.outcomes
    assert got.total_cost() == expected.total_cost()
    assert got.total_energy_j() == expected.total_energy_j()
    assert (
        got.total_attributed_carbon_g()
        == expected.total_attributed_carbon_g()
    )


DOCS = Path(__file__).resolve().parents[2] / "docs"

#: The documented entry prefix: header length, CRC-32 of the header.
PREFIX = struct.Struct("<II")


def split_entry(raw: bytes) -> tuple[dict, bytes]:
    """An entry's JSON header and column bytes, per the documented
    layout (prefix, space-padded header, body)."""
    header_len, _ = PREFIX.unpack_from(raw)
    header = json.loads(raw[PREFIX.size : PREFIX.size + header_len])
    return header, raw[PREFIX.size + header_len :]


def join_entry(header, body: bytes) -> bytes:
    """A well-formed entry (valid prefix, padding and header CRC) with
    the given header and body: the inverse of :func:`split_entry`."""
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    text += b" " * (-(PREFIX.size + len(text)) % 8)
    return PREFIX.pack(len(text), zlib.crc32(text)) + text + body


class TestKeying:
    def test_key_is_stable(self, pricing_fp):
        task = task_for("EBA")
        assert task_store_key(task, pricing_fp) == task_store_key(
            task, pricing_fp
        )

    def test_key_folds_every_grid_coordinate(self, pricing_fp):
        base = task_for("EBA")
        variants = [
            SweepTask("low-carbon", "Greedy", "EBA", SCALE, SEED),
            SweepTask("baseline", "EFT", "EBA", SCALE, SEED),
            SweepTask("baseline", "Greedy", "CBA", SCALE, SEED),
            SweepTask("baseline", "Greedy", "EBA", SCALE + 1, SEED),
            SweepTask("baseline", "Greedy", "EBA", SCALE, SEED + 1),
        ]
        keys = {task_store_key(t, pricing_fp) for t in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_key_folds_pricing_fingerprint(self, pricing_fp):
        task = task_for("EBA")
        other_fp = fingerprint_digest("not-the-same-catalogue")
        assert task_store_key(task, pricing_fp) != task_store_key(
            task, other_fp
        )

    def test_tiered_straggler_knobs_fold_into_key(self, pricing_fp):
        """Straggler knobs ride in the scenario name, so every knob
        setting is its own store entry — a tuned run can never be
        served a stale default-knob result."""
        from repro.sim.scenarios import tiered_scenario_name

        names = [
            tiered_scenario_name(),  # "tiered", the defaults
            tiered_scenario_name(0.2, 1.0),
            tiered_scenario_name(0.08, 2.5),
            tiered_scenario_name(0.2, 2.5),
        ]
        keys = {
            task_store_key(
                SweepTask(name, "LargestFirst", "EBA", SCALE, SEED),
                pricing_fp,
            )
            for name in names
        }
        assert len(keys) == len(names)

    def test_store_format_in_module_all(self):
        assert isinstance(STORE_FORMAT, str) and STORE_FORMAT


class TestRoundTrip:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_all_five_methods_bit_identical(
        self, tmp_path, sample_results, pricing_fp, method
    ):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for(method), pricing_fp)
        store.put(key, sample_results[method])
        got = store.get(key)
        assert got is not None
        assert_results_equal(got, sample_results[method])

    def test_put_is_idempotent(self, tmp_path, sample_results, pricing_fp):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for("EBA"), pricing_fp)
        store.put(key, sample_results["EBA"])
        store.put(key, sample_results["EBA"])
        assert store.stats().entries == 1
        assert_results_equal(store.get(key), sample_results["EBA"])

    def test_tiered_straggler_run_round_trips(self, tmp_path):
        """A tiered run (slot caps, straggler-inflated runtimes) stores
        and loads bit-identically, keyed by its own pricing catalogue."""
        from repro.experiments._simulation import scenario, workload
        from repro.sim.policies import LargestFirstPolicy

        tiered = dict(scenario("tiered", SEED))
        wl = workload("tiered", SCALE, SEED)
        result = MultiClusterSimulator(
            tiered, method_by_name("CBA"), LargestFirstPolicy()
        ).run(wl)
        fp = QuoteTable.fingerprint(
            {n: pricing_for_sim_machine(m) for n, m in tiered.items()}
        )
        key = task_store_key(
            SweepTask("tiered", "LargestFirst", "CBA", SCALE, SEED), fp
        )
        store = ResultStore(tmp_path)
        store.put(key, result)
        got = store.get(key)
        assert got is not None
        assert_results_equal(got, result)

    def test_columns_are_aligned_zero_copy_views(self, tmp_path, sample_results):
        """An odd row count is where a narrow column could misalign the
        ones after it; every loaded column must still be an aligned,
        read-only view of the one buffer read from disk."""
        full = sample_results["CBA"]
        odd = len(full.table) - (1 - len(full.table) % 2)
        result = SimulationResult(
            policy=full.policy,
            method=full.method,
            machines=full.machines,
            table=OutcomeTable(
                full.table.machines,
                **{
                    name: getattr(full.table, name)[:odd]
                    for name, _ in OUTCOME_FIELDS
                },
            ),
        )
        store = ResultStore(tmp_path)
        store.put("ab" * 32, result)
        got = store.get("ab" * 32)
        assert got is not None and len(got.table) == odd
        spans = []
        for name, dtype in OUTCOME_FIELDS:
            column = getattr(got.table, name)
            assert column.dtype == np.dtype(dtype)
            assert column.flags.aligned and not column.flags.writeable
            assert not column.flags.owndata
            spans.append((column.ctypes.data, column.nbytes))
            np.testing.assert_array_equal(column, getattr(result.table, name))
        # Back to back in one buffer: nothing was copied out of the read.
        spans.sort()
        for (start, size), (following, _) in zip(spans, spans[1:]):
            assert start + size == following
        assert_results_equal(got, result)

    def test_entry_layout_is_self_describing(self, tmp_path, sample_results):
        """The documented ``json`` + ``np.frombuffer`` reader (run from
        the docs page itself) reads every column back."""
        doc = DOCS / "architecture" / "sweep-service.md"
        reader = re.search(r"```python\n(.*?)```", doc.read_text(), re.S)
        assert reader is not None
        result = sample_results["EBA"]
        store = ResultStore(tmp_path)
        store.put("cd" * 32, result)
        path = store._path("cd" * 32)
        header, body = split_entry(path.read_bytes())
        assert header["format"] == STORE_FORMAT
        assert header["rows"] == len(result.table)
        assert header["crc32"] == zlib.crc32(body)
        namespace = {"path": path}
        exec(reader.group(1), namespace)
        columns = namespace["columns"]
        assert set(columns) == {name for name, _ in OUTCOME_FIELDS}
        for name, column in columns.items():
            np.testing.assert_array_equal(column, getattr(result.table, name))
        assert sum(column.nbytes for column in columns.values()) == len(body)

    def test_unknown_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(fingerprint_digest("nothing here")) is None
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 0)


class TestRecovery:
    """Truncated / corrupt / partially-written entries recompute, never
    crash."""

    def _stored(self, tmp_path, sample_results, pricing_fp):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for("EBA"), pricing_fp)
        store.put(key, sample_results["EBA"])
        return store, key, store._path(key)

    def test_truncated_entry(self, tmp_path, sample_results, pricing_fp):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.get(key) is None
        assert not path.exists()  # dropped, so the recompute can re-put
        stats = store.stats()
        assert stats.corrupt == 1 and stats.misses == 1
        store.put(key, sample_results["EBA"])
        assert_results_equal(store.get(key), sample_results["EBA"])

    def test_corrupt_entry(self, tmp_path, sample_results, pricing_fp):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        path.write_bytes(b"\x00" * 512)
        assert store.get(key) is None
        assert store.stats().corrupt == 1

    def test_stale_format_version(self, tmp_path, sample_results, pricing_fp):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        header, body = split_entry(path.read_bytes())
        header["format"] = "repro-result-store-v0"
        path.write_bytes(join_entry(header, body))
        assert store.get(key) is None
        assert store.stats().corrupt == 1

    def test_flipped_body_bit_is_a_miss(
        self, tmp_path, sample_results, pricing_fp
    ):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        raw = bytearray(path.read_bytes())
        _, body = split_entry(bytes(raw))
        raw[len(raw) - len(body) // 2] ^= 0x10  # mid-column, same length
        path.write_bytes(bytes(raw))
        assert store.get(key) is None
        assert not path.exists()
        assert store.stats().corrupt == 1

    def test_flipped_header_bit_is_a_miss(
        self, tmp_path, sample_results, pricing_fp
    ):
        """The header carries the labels (policy, machine names): a
        flipped bit there must not be served as a different result."""
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        raw = bytearray(path.read_bytes())
        at = raw.index(b'"Greedy"') + 1
        raw[at] ^= 0x01  # "Greedy" -> "Freedy": still valid JSON
        path.write_bytes(bytes(raw))
        assert store.get(key) is None
        assert store.stats().corrupt == 1

    def test_row_count_mismatch_is_a_miss(
        self, tmp_path, sample_results, pricing_fp
    ):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        header, body = split_entry(path.read_bytes())
        header["rows"] += 1
        path.write_bytes(join_entry(header, body))
        assert store.get(key) is None
        assert store.stats().corrupt == 1

    def test_header_not_a_json_object_is_a_miss(
        self, tmp_path, sample_results, pricing_fp
    ):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        header, body = split_entry(path.read_bytes())
        path.write_bytes(join_entry([header], body))
        assert store.get(key) is None
        assert store.stats().corrupt == 1

    def test_partially_written_tmp_invisible(
        self, tmp_path, sample_results, pricing_fp
    ):
        store, key, path = self._stored(tmp_path, sample_results, pricing_fp)
        # A crash mid-put leaves a .tmp in the root; it is never listed
        # as an entry and never consulted by get.
        (tmp_path / "put-crashed.tmp").write_bytes(b"half a payload")
        assert store.stats().entries == 1
        assert_results_equal(store.get(key), sample_results["EBA"])


class TestEviction:
    def test_lru_eviction_respects_budget(
        self, tmp_path, sample_results, pricing_fp
    ):
        entry_size = len(
            ResultStore(tmp_path / "probe")._encode(sample_results["EBA"])
        )
        store = ResultStore(tmp_path / "store", max_bytes=2 * entry_size + 64)
        keys = [
            task_store_key(task_for(method), pricing_fp)
            for method in ("Runtime", "Energy", "Peak")
        ]
        store.put(keys[0], sample_results["Runtime"])
        store.put(keys[1], sample_results["Energy"])
        # Pin the ordering below filesystem mtime granularity.
        os.utime(store._path(keys[0]), (100, 100))
        os.utime(store._path(keys[1]), (200, 200))
        store.put(keys[2], sample_results["Peak"])
        stats = store.stats()
        assert stats.entries == 2
        assert stats.evictions == 1
        assert stats.bytes <= store.max_bytes
        # Oldest-touched went first.
        assert store.get(keys[0]) is None
        assert store.get(keys[2]) is not None

    def test_hit_bumps_recency(self, tmp_path, sample_results, pricing_fp):
        entry_size = len(
            ResultStore(tmp_path / "probe")._encode(sample_results["EBA"])
        )
        store = ResultStore(tmp_path / "store", max_bytes=2 * entry_size + 64)
        keys = {
            method: task_store_key(task_for(method), pricing_fp)
            for method in ("Runtime", "Energy", "Peak")
        }
        store.put(keys["Runtime"], sample_results["Runtime"])
        store.put(keys["Energy"], sample_results["Energy"])
        # Age both well into the past (filesystem mtime granularity can
        # otherwise make same-tick writes indistinguishable), with
        # Runtime the older of the two.
        os.utime(store._path(keys["Runtime"]), (100, 100))
        os.utime(store._path(keys["Energy"]), (200, 200))
        assert store.get(keys["Runtime"]) is not None  # bump Runtime
        assert store._path(keys["Runtime"]).stat().st_mtime > 200
        store.put(keys["Peak"], sample_results["Peak"])
        assert store.get(keys["Runtime"]) is not None  # survived
        assert store.get(keys["Energy"]) is None  # evicted instead

    def test_budget_below_one_entry_keeps_newest(
        self, tmp_path, sample_results, pricing_fp
    ):
        store = ResultStore(tmp_path, max_bytes=1)
        first = task_store_key(task_for("Runtime"), pricing_fp)
        second = task_store_key(task_for("Energy"), pricing_fp)
        store.put(first, sample_results["Runtime"])
        store.put(second, sample_results["Energy"])
        # Degrades to most-recent-only caching, never to empty.
        assert store.stats().entries == 1
        assert store.get(second) is not None

    def test_clear_removes_entries(self, tmp_path, sample_results, pricing_fp):
        store = ResultStore(tmp_path)
        key = task_store_key(task_for("EBA"), pricing_fp)
        store.put(key, sample_results["EBA"])
        store.clear()
        assert store.stats().entries == 0
        assert store.get(key) is None

    def test_v1_files_still_counted_and_evicted(
        self, tmp_path, sample_results, pricing_fp
    ):
        """``.npz`` entries of the previous format are never read again
        (the format is folded into every key), but they still count
        towards the byte budget, are evicted and are cleared."""

        def plant_v1(store):
            stale = store.root / "0f" / f"{'0f' * 32}.npz"
            stale.parent.mkdir(parents=True, exist_ok=True)
            np.savez(stale, job_id=np.arange(4000, dtype=np.int64))
            os.utime(stale, (100, 100))  # older than any new entry
            return stale

        key = task_store_key(task_for("EBA"), pricing_fp)
        store = ResultStore(tmp_path / "counted")
        stale = plant_v1(store)
        store.put(key, sample_results["EBA"])
        stats = store.stats()
        assert stats.entries == 2
        assert stats.bytes == (
            stale.stat().st_size + store._path(key).stat().st_size
        )
        store.clear()
        assert not stale.exists()
        assert store.stats().entries == 0

        entry_size = len(store._encode(sample_results["EBA"]))
        tight = ResultStore(tmp_path / "tight", max_bytes=entry_size + 64)
        stale = plant_v1(tight)
        tight.put(key, sample_results["EBA"])
        assert not stale.exists()
        stats = tight.stats()
        assert (stats.entries, stats.evictions) == (1, 1)
        assert tight.get(key) is not None

    def test_stats_as_dict_shape(self, tmp_path):
        stats = ResultStore(tmp_path).stats()
        assert set(stats.as_dict()) == {
            "entries",
            "bytes",
            "max_bytes",
            "hits",
            "misses",
            "evictions",
            "corrupt",
        }


class TestPickleTransport:
    """Pool workers return results by pickle only: a result and its
    columnar outcome table must survive the round trip bit for bit, and
    ship columns without the rebuildable row cache."""

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_table_round_trip(self, sample_results, method):
        table = sample_results[method].table
        clone = pickle.loads(pickle.dumps(table))
        assert clone.machines == table.machines
        assert len(clone) == len(table)
        for name, dtype in OUTCOME_FIELDS:
            column = getattr(clone, name)
            assert column.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(column, getattr(table, name))
        assert clone.rows() == table.rows()

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_result_round_trip(self, sample_results, method):
        result = sample_results[method]
        assert_results_equal(pickle.loads(pickle.dumps(result)), result)

    def test_empty_table_round_trip(self, machines):
        empty = OutcomeTable.empty(list(machines))
        clone = pickle.loads(pickle.dumps(empty))
        assert len(clone) == 0
        assert clone.machines == list(machines)
        assert clone.rows() == []

    def test_row_cache_is_not_shipped(self, sample_results):
        table = sample_results["CBA"].table
        cold = OutcomeTable(
            table.machines,
            **{name: getattr(table, name) for name, _ in OUTCOME_FIELDS},
        )
        assert table.rows()  # built: the cache is populated
        assert "_rows_cache" not in table.__getstate__()
        assert len(pickle.dumps(table)) == len(pickle.dumps(cold))
        assert pickle.loads(pickle.dumps(table))._rows_cache is None
