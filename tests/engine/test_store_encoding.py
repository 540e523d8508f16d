"""Record encoding: one JSON encode per write, raw-bytes verification on read.

Every store writer goes through :func:`encode_record`, which encodes a
record's body once (sorted keys) and splices the ``check`` digest in as
the first key.  Readers verify such lines by hashing their raw body
bytes; every other line — in particular every line written before this
layout existed — is verified by re-encoding the parsed record.  The
tests below pin both halves against verbatim copies of the earlier
writer and checksum, and show that damage is judged the same way by
both checks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.store as store_mod
from repro.engine import (
    Campaign,
    GenerationCache,
    ResultCache,
    ShardedResultCache,
    SweepSpec,
    measurement_to_dict,
    run_campaign,
)
from repro.engine.cache import encode_record, valid_result_record
from repro.engine.gencache import valid_generation_record


def _legacy_record_check(record: dict) -> str:
    """Verbatim copy of the earlier ``record_check``."""
    body = {k: v for k, v in record.items() if k != "check"}
    canonical = json.dumps(body, sort_keys=True)
    return hashlib.sha256(canonical.encode(errors="replace")).hexdigest()[:16]


def _legacy_line(record: dict) -> bytes:
    """Verbatim copy of the earlier store writer: ``check`` appended last,
    keys in insertion order."""
    record = dict(record)
    record.pop("check", None)
    record["check"] = _legacy_record_check(record)
    return json.dumps(record).encode()


def _record(i: int, *, metadata: dict | None = None) -> dict:
    return {
        "job_id": f"job{i:04d}",
        "kernel": f"k{i % 3}",
        "mode": "sequential",
        "measurements": [
            {
                "experiment_tsc": [float(100 + i + j) for j in range(3)],
                "repetitions": 4.0,
                "loop_iterations": 8.0,
                "aggregator": "min",
                "metadata": metadata if metadata is not None else {"z": 1, "a": [i, "é"]},
            }
        ],
    }


class TestEncodeRecord:
    def test_check_first_then_sorted_body(self):
        line = encode_record(_record(7))
        assert line.startswith(b'{"check": "')
        assert line[27:30] == b'", '
        record = json.loads(line)
        assert list(record) == sorted(record)

    def test_same_dict_same_length_as_the_earlier_line(self):
        for i in range(20):
            record = _record(i, metadata={"b": i, "a": {"y": None, "x": 1.5}})
            new, old = encode_record(record), _legacy_line(record)
            assert json.loads(new) == json.loads(old)
            assert len(new) == len(old)

    def test_check_is_the_earlier_record_check(self):
        record = _record(3)
        parsed = json.loads(encode_record(record))
        assert parsed["check"] == _legacy_record_check(record)
        assert parsed["check"] == _legacy_record_check(parsed)

    def test_input_check_field_is_ignored(self):
        record = _record(1)
        stale = dict(record, check="0" * 16)
        assert encode_record(stale) == encode_record(record)
        assert "check" not in record

    def test_new_lines_pass_the_earlier_check(self):
        gen = {
            "key": "s:o",
            "spec": "movaps",
            "variants": [
                {"variant_id": 0, "name": "v0", "digest": "d", "text": ".text\n",
                 "metadata": {"unroll": 2}},
            ],
        }
        for record, valid in ((_record(5), valid_result_record), (gen, valid_generation_record)):
            line = encode_record(record)
            parsed = json.loads(line)
            assert parsed["check"] == _legacy_record_check(parsed)
            assert valid(parsed, line)
            assert valid(parsed)


class _CountingDumps:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = json.dumps

        def dumps(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)


class TestOneEncodePerRecord:
    def test_sharded_put_encodes_once_and_get_never(self, tmp_path, monkeypatch):
        cache = ShardedResultCache(tmp_path, shards=2, segment_records=64)
        counter = _CountingDumps(monkeypatch)
        for i in range(5):
            before = counter.calls
            record = _record(i)
            cache.put(record["job_id"], record["measurements"], kernel="k", mode="m")
            assert counter.calls - before == 1
        cache.store.close()
        reopened = ShardedResultCache(tmp_path)
        counter.calls = 0
        for i in range(5):
            assert reopened.get(f"job{i:04d}") == _record(i)["measurements"]
        reopened.columns()
        assert counter.calls == 0

    def test_jsonl_put_encodes_once_and_load_never(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        counter = _CountingDumps(monkeypatch)
        for i in range(4):
            before = counter.calls
            cache.put(f"job{i:04d}", _record(i)["measurements"])
            assert counter.calls - before == 1
        counter.calls = 0
        reloaded = ResultCache(tmp_path)
        assert len(reloaded) == 4 and reloaded.corrupt_lines == 0
        assert counter.calls == 0

    def test_legacy_line_is_verified_by_re_encoding(self, tmp_path, monkeypatch):
        line = _legacy_line(_record(2))
        counter = _CountingDumps(monkeypatch)
        assert valid_result_record(json.loads(line), line)
        assert counter.calls == 1


# -- compatibility with stores written before the check-first layout ------


@pytest.fixture()
def campaign(nehalem, fast_options, movaps_variants):
    return Campaign(
        name="compat",
        machine=nehalem,
        sweeps=(
            SweepSpec(
                kernels=tuple(movaps_variants[:3]),
                base=fast_options,
                axes={"array_bytes": (4096, 1 << 20), "alignment": (0, 16)},
            ),
        ),
    )


def _csv(run, path: Path) -> bytes:
    return run.write_csv(path).read_bytes()


def _columns(cache: ShardedResultCache) -> dict:
    cols = cache.columns()
    order = np.argsort(cols.job_ids, kind="stable")
    return {
        "jobs": cols.job_ids[order].tolist(),
        "cpi": cols.cycles_per_iteration()[order].tolist(),
        "counts": cols.counts[order].tolist(),
    }


def _put(cache: ShardedResultCache, rows) -> None:
    for job, ms in rows:
        cache.put(
            job.job_id,
            [measurement_to_dict(m) for m in ms],
            kernel=job.kernel_name,
            mode=job.mode,
        )


class TestLegacyStores:
    @pytest.mark.parametrize("mixed", [False, True], ids=["legacy", "mixed"])
    def test_old_layout_store_serves_and_resumes(
        self, tmp_path, monkeypatch, campaign, mixed
    ):
        jobs = campaign.job_list()
        reference = run_campaign(campaign, cache_dir=tmp_path / "new")
        expected_csv = _csv(reference, tmp_path / "reference.csv")
        rows = list(reference.per_job())

        # Populate with the earlier writer; in the mixed case, the second
        # half of the jobs is appended in the new layout to the same
        # (still active) segments.
        legacy_dir = tmp_path / "legacy"
        cache = ShardedResultCache(legacy_dir, shards=2, segment_records=1024)
        with monkeypatch.context() as patch:
            patch.setattr(store_mod, "encode_record", _legacy_line)
            cut = len(jobs) // 2 if mixed else len(jobs)
            _put(cache, rows[:cut])
        _put(cache, rows[cut:])
        cache.store.close()

        lines = [
            line
            for path in sorted((legacy_dir / "results.shards").glob("seg-*.jsonl"))
            for line in path.read_bytes().splitlines()
        ]
        heads = {line.startswith(b'{"check": ') for line in lines}
        assert heads == ({True, False} if mixed else {False})

        reopened = ShardedResultCache(legacy_dir)
        assert reopened.corrupt_lines == 0
        fresh = ShardedResultCache(tmp_path / "new")
        for job in jobs:
            assert reopened.get(job.job_id) == fresh.get(job.job_id)
        assert _columns(reopened) == _columns(fresh)
        reopened.store.close()
        fresh.store.close()

        resumed = run_campaign(campaign, cache_dir=legacy_dir)
        assert resumed.stats.cache_hits == len(jobs)
        assert _csv(resumed, tmp_path / "resumed.csv") == expected_csv

    def test_jsonl_cache_accepts_old_lines_and_rewrites_new(self, tmp_path):
        path = tmp_path / GenerationCache.FILENAME
        old = {"key": "a:b", "spec": "s", "variants": []}
        path.write_bytes(_legacy_line(old) + b"\n" + b"garbage\n")
        cache = GenerationCache(tmp_path)
        assert len(cache) == 1 and cache.corrupt_lines == 1
        cache._store({"key": "c:d", "spec": "s", "variants": []})  # repairs
        lines = path.read_bytes().splitlines()
        assert len(lines) == 2
        assert all(line.startswith(b'{"check": "') for line in lines)
        assert len(GenerationCache(tmp_path)) == 2


# -- damage: raw-bytes acceptance equals re-encoding acceptance -----------

_LINE = encode_record(_record(11, metadata={"unroll": 4, "mix": "LS", "ratio": 0.1}))


def _damage(line: bytes, kind: str, pos: int, blob: bytes) -> bytes:
    pos = min(pos, len(line))
    if kind == "truncate":
        return line[:pos]
    if kind == "insert":
        return line[:pos] + blob + line[pos:]
    if kind == "delete":
        return line[:pos] + line[pos + len(blob) :]
    return line[:pos] + blob + line[pos + len(blob) :]


@st.composite
def damages(draw):
    kind = draw(st.sampled_from(["truncate", "insert", "substitute", "delete"]))
    # Half the draws land in the 30-byte head.
    pos = draw(st.one_of(st.integers(0, 29), st.integers(0, len(_LINE))))
    blob = draw(
        st.one_of(
            st.binary(min_size=1, max_size=8),
            st.sampled_from([b" ", b"\t", b"0", b"f", b'"', b",", b"\\", b"e0", b".0"]),
        )
    )
    return kind, pos, blob


@settings(max_examples=300, deadline=None)
@given(damage=st.lists(damages(), min_size=1, max_size=3))
@example(damage=[("substitute", 9, b"\t")])  # whitespace after "check":
@example(damage=[("substitute", 29, b"\n")])  # whitespace after the comma
@example(damage=[("substitute", 15, b"0")])  # a check digit
@example(damage=[("substitute", 15, b"g")])  # a non-hex check digit
@example(damage=[("substitute", 2, b"C")])  # the "check" key itself
@example(damage=[("substitute", 27, b"'")])  # the closing quote
@example(damage=[("delete", 29, b" ")])  # the space after the comma
@example(damage=[("insert", 28, b" ")])  # an extra space in the head
@example(damage=[("substitute", 11, b"\\u0030")])  # an escaped digit
@example(damage=[("insert", 1, b'"check": "0000000000000000", ')])  # a second check
def test_raw_acceptance_equals_re_encoding_acceptance(damage):
    line = _LINE
    for kind, pos, blob in damage:
        line = _damage(line, kind, pos, blob)
    try:
        record = json.loads(line)
    except ValueError:
        return  # unparseable: rejected before any checksum is consulted
    assert valid_result_record(record, line) == valid_result_record(record)
