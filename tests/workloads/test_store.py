"""Round-trip and robustness tests for the binary trace store.

The store is only allowed to change *where* a trace comes from, never
*what* it contains: a decoded record must be field-for-field equal —
hints, branch tuples, flags and all — to what ``TraceBuilder`` produced.
The round-trip class proves that for every registry workload; the
robustness classes prove that corrupt, truncated or version-skewed
files raise :class:`TraceStoreError` from the read path while
:meth:`TraceStore.ensure` and the sweep engine degrade to rebuilding.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest

from repro.hints import NO_HINTS
from repro.workloads.serialize import trace_fingerprint
from repro.workloads.store import (
    HEADER_SIZE,
    MAGIC,
    RECORD_SIZE,
    STORE_VERSION,
    TraceReader,
    TraceStore,
    TraceStoreError,
    read_meta,
    read_trace,
    record_layout_hash,
    write_trace,
)
from repro.workloads.suites import all_workloads, get_workload

REGISTRY_NAMES = [spec.name for spec in all_workloads()]


def assert_traces_identical(decoded, built, where: str) -> None:
    """Field-for-field equality, with a readable first-divergence report."""
    assert len(decoded) == len(built), where
    for i, (a, b) in enumerate(zip(decoded, built)):
        if a != b:
            for field in dataclasses.fields(type(b)):
                assert getattr(a, field.name) == getattr(b, field.name), (
                    f"{where}: record {i} field {field.name!r} differs"
                )
        assert a == b, f"{where}: record {i} differs"


class TestRoundTrip:
    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_registry_workload_round_trips(self, name, tmp_path):
        built = get_workload(name).build().trace()
        meta = write_trace(tmp_path / "t.rpt", built, workload=name)
        assert meta.records == len(built)
        decoded = read_trace(tmp_path / "t.rpt")
        assert_traces_identical(decoded, built, name)

    def test_hints_payload_survives(self, tmp_path):
        # the context prefetcher consumes hints; losing them would be a
        # silent semantic change, not a crash — check them explicitly
        built = get_workload("list").build().trace()
        hinted = [a for a in built if a.hints is not NO_HINTS]
        assert hinted, "list workload is expected to carry hints"
        decoded = read_trace(write_trace(
            tmp_path / "t.rpt", built, workload="list"
        ).path)
        for a, b in zip(decoded, built):
            assert a.hints.type_id == b.hints.type_id
            assert a.hints.link_offset == b.hints.link_offset
            assert a.hints.ref_form == b.hints.ref_form
        # unhinted records decode to the shared NO_HINTS sentinel
        assert all(
            a.hints is NO_HINTS
            for a, b in zip(decoded, built)
            if b.hints is NO_HINTS
        )

    def test_fingerprint_matches_cache_key_fingerprint(self, tmp_path):
        # store-supplied traces must produce the same result-cache keys
        # as in-memory ones: the header fingerprint IS trace_fingerprint
        built = get_workload("array").build().trace()
        meta = write_trace(tmp_path / "t.rpt", built, workload="array")
        assert meta.fingerprint == trace_fingerprint(built)
        assert read_meta(tmp_path / "t.rpt").fingerprint == meta.fingerprint

    def test_empty_trace_round_trips(self, tmp_path):
        meta = write_trace(tmp_path / "e.rpt", [], workload="empty")
        assert meta.records == 0
        assert read_trace(tmp_path / "e.rpt") == []

    def test_reader_sequence_protocol(self, tmp_path):
        built = get_workload("array").build().trace()[:500]
        write_trace(tmp_path / "t.rpt", built, workload="array")
        reader = TraceReader(tmp_path / "t.rpt")
        try:
            assert len(reader) == 500
            assert reader[0] == built[0]
            assert reader[499] == built[499]
            assert reader[-1] == built[-1]
            assert reader[10:20] == built[10:20]
            assert reader[::100] == built[::100]
            with pytest.raises(IndexError):
                reader[500]
            assert list(reader) == built
            assert reader.materialize(50) == built[:50]
        finally:
            reader.close()

    def test_read_trace_limit(self, tmp_path):
        built = get_workload("array").build().trace()[:300]
        write_trace(tmp_path / "t.rpt", built, workload="array")
        assert read_trace(tmp_path / "t.rpt", limit=40) == built[:40]
        assert read_trace(tmp_path / "t.rpt", limit=10_000) == built


class TestValidation:
    def _write_one(self, tmp_path):
        built = get_workload("array").build().trace()[:200]
        path = tmp_path / "t.rpt"
        write_trace(path, built, workload="array")
        return path

    def test_truncated_records_rejected(self, tmp_path):
        path = self._write_one(tmp_path)
        path.write_bytes(path.read_bytes()[: -RECORD_SIZE // 2])
        with pytest.raises(TraceStoreError, match="truncated or corrupt"):
            read_meta(path)
        with pytest.raises(TraceStoreError):
            read_trace(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = self._write_one(tmp_path)
        path.write_bytes(path.read_bytes()[: HEADER_SIZE - 4])
        with pytest.raises(TraceStoreError, match="truncated header"):
            read_meta(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self._write_one(tmp_path)
        path.write_bytes(b"NOTATRCE" + path.read_bytes()[8:])
        with pytest.raises(TraceStoreError, match="not a repro trace store"):
            read_meta(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = self._write_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", STORE_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceStoreError, match="store version"):
            read_meta(path)

    def test_malformed_metadata_rejected(self, tmp_path):
        path = self._write_one(tmp_path)
        raw = bytearray(path.read_bytes())
        _, _, meta_len, _ = struct.unpack_from("<8sIIQ", raw)
        raw[HEADER_SIZE : HEADER_SIZE + meta_len] = b"x" * meta_len
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceStoreError, match="malformed metadata"):
            read_meta(path)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = self._write_one(tmp_path)
        with pytest.raises(TraceStoreError, match="does not match"):
            read_trace(path, expect_fingerprint="0" * 64)

    def test_out_of_range_field_rejected(self, tmp_path):
        access = get_workload("array").build().trace()[0]
        bad = dataclasses.replace(access, addr=1 << 64)
        with pytest.raises(TraceStoreError, match="outside the record"):
            write_trace(tmp_path / "t.rpt", [bad], workload="bad")


class TestStoreDirectory:
    def test_ensure_compiles_once_then_reuses(self, tmp_path):
        store = TraceStore(tmp_path)
        ref, built = store.ensure("array")
        assert built is not None  # this call compiled it
        again, rebuilt = store.ensure("array")
        assert rebuilt is None  # warm: header read only
        assert again.path == ref.path
        assert again.fingerprint == ref.fingerprint

    def test_ensure_recompiles_corrupt_file(self, tmp_path):
        store = TraceStore(tmp_path)
        ref, _ = store.ensure("array")
        path = store.path_for("array")
        path.write_bytes(path.read_bytes()[: RECORD_SIZE * 3])
        healed, rebuilt = store.ensure("array")
        assert rebuilt is not None  # corruption forced a recompile
        assert healed.fingerprint == ref.fingerprint
        assert read_meta(path).records == healed.records

    def test_path_for_tracks_source_generation(self, tmp_path, monkeypatch):
        import repro.workloads.store as store_mod

        store = TraceStore(tmp_path)
        before = store.path_for("array")
        monkeypatch.setattr(
            store_mod, "_source_fingerprint_cache", "f" * 64
        )
        assert store.path_for("array") != before

    def test_entries_and_gc(self, tmp_path, monkeypatch):
        import repro.workloads.store as store_mod

        store = TraceStore(tmp_path)
        store.ensure("array")
        # a file from an older source generation: valid but unreferenced
        stale = tmp_path / "old-0123456789abcdef.rpt"
        built = get_workload("list").build().trace()[:50]
        write_trace(stale, built, workload="list", source="0" * 64)
        # a corrupt file and a leftover temp file
        corrupt = tmp_path / "junk-ffffffffffffffff.rpt"
        corrupt.write_bytes(b"garbage")
        leftover = tmp_path / "array.tmp.12345"
        leftover.write_bytes(b"partial")

        statuses = {path.name: status for path, _, status in store.entries()}
        assert statuses[store.path_for("array").name] == "ok"
        assert statuses[stale.name] == "stale"
        assert "truncated header" in statuses[corrupt.name]

        kept, removed = store.gc(dry_run=True)
        assert kept == 1 and stale.exists() and corrupt.exists()
        kept, removed = store.gc()
        assert kept == 1
        assert {p.name for p in removed} == {
            stale.name, corrupt.name, leftover.name
        }
        assert store.path_for("array").exists()
        assert not stale.exists() and not corrupt.exists()
        assert not leftover.exists()

    def test_layout_hash_is_stable(self):
        # the PERF002 pin: changing RECORD_FIELDS changes this hash
        assert record_layout_hash() == record_layout_hash()
        assert record_layout_hash((("a", "Q"),)) != record_layout_hash()

    def test_store_version_in_path(self, tmp_path):
        # content addressing covers the version: a bump re-keys every file
        assert MAGIC == b"RPTRACE\x00"
        store = TraceStore(tmp_path)
        name = store.path_for("array").name
        assert name.startswith("array-") and name.endswith(".rpt")


class TestNumpyDecode:
    """The struct-array view (``as_array``) against the scalar decoder.

    The native kernel feeds from the numpy view, so any divergence
    between the two decoders would silently change simulation inputs.
    Every registry workload round-trips field-for-field; the degrade
    tests prove the decode layer *logs and falls back* (rule FLW) rather
    than raising when a stream cannot be represented.
    """

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_registry_workload_array_matches_records(self, name, tmp_path):
        np = pytest.importorskip("numpy")
        built = get_workload(name).build().trace()
        write_trace(tmp_path / "t.rpt", built, workload=name)
        # no close(): the struct array is a live view over the mmap, so
        # closing under it raises BufferError; the reader is GC-owned here
        reader = TraceReader(tmp_path / "t.rpt")
        arr = reader.as_array()
        assert arr.shape[0] == len(built)
        assert arr["addr"].tolist() == [a.addr for a in built]
        assert arr["pc"].tolist() == [a.pc for a in built]
        assert arr["reg_value"].tolist() == [a.reg_value for a in built]
        assert arr["value"].tolist() == [a.value for a in built]
        assert arr["inst_gap"].tolist() == [a.inst_gap for a in built]
        expected_bits = [
            sum(1 << i for i, taken in enumerate(a.branches) if taken)
            for a in built
        ]
        assert arr["branch_bits"].tolist() == expected_bits
        assert arr["branch_count"].tolist() == [len(a.branches) for a in built]
        expected_flags = [
            (1 if a.is_load else 0)
            | (2 if a.depends_on_prev else 0)
            | (4 if a.hints != NO_HINTS else 0)
            for a in built
        ]
        assert arr["flags"].tolist() == expected_flags
        # SemanticHints payload columns (NO_HINTS encodes as zeros)
        assert arr["type_id"].tolist() == [a.hints.type_id for a in built]
        assert arr["link_offset"].tolist() == [
            a.hints.link_offset for a in built
        ]
        assert arr["ref_form"].tolist() == [
            int(a.hints.ref_form) for a in built
        ]
        # the view really is zero-copy over the mapped record block
        assert not arr.flags.owndata
        assert np.shares_memory(arr, np.frombuffer(reader._map, dtype="u1"))

    def test_hinted_workload_has_hint_payloads(self, tmp_path):
        # a workload with semantic hints must carry them into the array
        # view — all-zero hint columns would mean a silently lossy codec
        pytest.importorskip("numpy")
        built = get_workload("list").build().trace()
        write_trace(tmp_path / "t.rpt", built, workload="list")
        # GC-owned reader: closing under a live array view raises
        reader = TraceReader(tmp_path / "t.rpt")
        arr = reader.as_array()
        hinted = (arr["flags"] & 4) != 0
        assert bool(hinted.any()), "list workload is expected to be hinted"
        assert int(arr["type_id"][hinted].max()) > 0 or int(
            arr["link_offset"][hinted].max()
        ) > 0

    def test_as_array_limit_and_empty(self, tmp_path):
        pytest.importorskip("numpy")
        built = get_workload("array").build().trace()[:300]
        write_trace(tmp_path / "t.rpt", built, workload="array")
        reader = TraceReader(tmp_path / "t.rpt")
        try:
            assert reader.as_array(40).shape[0] == 40
            assert reader.as_array(10_000).shape[0] == 300
            assert reader.as_array(0).shape[0] == 0
        finally:
            reader.close()
        write_trace(tmp_path / "e.rpt", [], workload="empty")
        empty = TraceReader(tmp_path / "e.rpt")
        try:
            assert empty.as_array().shape[0] == 0
        finally:
            empty.close()

    def test_columns_from_reader_matches_scalar_decode(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.sim.native.decode import columns_from_reader

        built = get_workload("list").build().trace()[:500]
        write_trace(tmp_path / "t.rpt", built, workload="list")
        # GC-owned reader: closing under the columns' views raises
        reader = TraceReader(tmp_path / "t.rpt")
        cols = columns_from_reader(reader, 400, 64)
        assert cols is not None and cols.n == 400
        assert cols.addrs.tolist() == [a.addr for a in built[:400]]
        assert cols.lines.tolist() == [a.addr // 64 for a in built[:400]]
        expected_flags = [
            (1 if a.is_load else 0)
            | (2 if a.depends_on_prev else 0)
            | (4 if a.hints != NO_HINTS else 0)
            for a in built[:400]
        ]
        assert cols.flags.tolist() == expected_flags

    def test_corrupt_array_view_degrades_with_log(self, caplog):
        # a reader whose record block cannot be viewed (truncation found
        # at array-decode time) must LOG and return None — never raise —
        # so the simulator falls back to the interpreted path (rule FLW)
        pytest.importorskip("numpy")
        from repro.sim.native.decode import columns_from_reader

        class _BadReader:
            def as_array(self, limit=None):
                raise TraceStoreError("record block truncated or corrupt")

        with caplog.at_level("WARNING", logger="repro.sim.native.decode"):
            assert columns_from_reader(_BadReader(), None, 64) is None
        assert any(
            "array view failed" in rec.message for rec in caplog.records
        )

    def test_out_of_range_stream_degrades_with_log(self, caplog):
        pytest.importorskip("numpy")
        from repro.sim.native.decode import columns_from_accesses
        from repro.workloads.trace import MemoryAccess

        beyond_modelled = [MemoryAccess(addr=1 << 50, pc=0x400000)]
        with caplog.at_level("WARNING", logger="repro.sim.native.decode"):
            assert columns_from_accesses(beyond_modelled, 64) is None
        assert any("48-bit" in rec.message for rec in caplog.records)

        caplog.clear()
        beyond_u64 = [MemoryAccess(addr=0, pc=0x400000, inst_gap=1 << 40)]
        with caplog.at_level("WARNING", logger="repro.sim.native.decode"):
            assert columns_from_accesses(beyond_u64, 64) is None
        assert any(
            "value ranges" in rec.message for rec in caplog.records
        )

    def test_native_sweep_cell_survives_corrupt_store_file(self, tmp_path):
        # end-to-end degrade: a native shard pointed at a truncated store
        # file must rebuild the trace and still produce the rebuilt
        # trace's result, never crash the sweep
        from repro.sim.sched.pool import BatchShared, run_batch

        built = get_workload("array").build().trace()[:200]
        path = tmp_path / "t.rpt"
        write_trace(path, built, workload="array")
        path.write_bytes(path.read_bytes()[: -RECORD_SIZE // 2])
        cells = ((0, "stride", 0),)
        corrupt = BatchShared(
            workload="array",
            limit=200,
            native=True,
            store_path=str(path),
            store_fingerprint=trace_fingerprint(built),
        )
        reference = BatchShared(workload="array", limit=200, native=False)
        got, degrades = run_batch(corrupt, cells)
        want, _ = run_batch(reference, cells)
        assert degrades == 1
        assert [payload for _i, payload, _n in got] == [
            payload for _i, payload, _n in want
        ]
