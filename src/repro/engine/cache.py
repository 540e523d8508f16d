"""The disk-backed result cache: one JSONL file keyed by job ID.

Layout: ``<cache_dir>/results.jsonl``, one line per stored job, written
by :func:`encode_record` (checksum first, then the sorted-key body)::

    {"check": "9c41...", "job_id": "6fb0...", "kernel": "...",
     "measurements": [{...}, ...], "mode": "sequential"}

Append-only and crash-tolerant: every completed job is flushed
immediately, so an interrupted campaign resumes from the last finished
job.  Damage anywhere in the file — a torn trailing write, a truncated
middle line, garbage bytes from a crashed writer — is detected on load
and the damaged lines are skipped; ``check`` (a digest over the whole
record's canonical JSON) catches lines whose bytes were altered but
still parse.  The first ``put`` after loading a damaged
file *repairs* it: the file is atomically rewritten to exactly the
surviving valid records.  When a job ID appears twice the later line
wins, which is what re-measuring with ``resume=False`` produces.

The same storage discipline backs the generation cache
(:mod:`repro.engine.gencache`); the shared machinery lives in
:class:`JsonlCache`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path


def record_check(record: dict) -> str:
    """Digest over the whole record (minus ``check`` itself).

    Covering every key means any parse-surviving byte alteration — a
    flipped value, a mangled field name, an injected extra key — breaks
    the digest and the line is treated as corrupt.
    """
    body = {k: v for k, v in record.items() if k != "check"}
    canonical = json.dumps(body, sort_keys=True)
    return hashlib.sha256(canonical.encode(errors="replace")).hexdigest()[:16]


#: A line written by :func:`encode_record` starts ``{"check": "`` + 16
#: hex digits + ``", `` (30 bytes); the canonical body follows.
_LINE_HEAD = b'{"check": "'
_LINE_HEAD_SIZE = 30


def encode_record(record: dict) -> bytes:
    """The stored line for ``record`` (no newline), with one JSON encode.

    The body (every field but ``check``) is encoded once, with sorted
    keys — exactly what :func:`record_check` hashes — and the line is
    that body with ``"check"`` spliced in as its first key.  It parses
    to the same dict as ``json.dumps(record)`` and has the same length.
    """
    body = json.dumps(
        {k: v for k, v in record.items() if k != "check"}, sort_keys=True
    ).encode()
    check = hashlib.sha256(body).hexdigest()[:16].encode()
    return b"".join((_LINE_HEAD, check, b'", ', memoryview(body)[1:]))


def check_passes(record: dict, raw: bytes | None = None) -> bool:
    """Checksum validation shared by every record shape.

    Records written before checksums existed carry no ``check`` field and
    are accepted as-is; anything else must digest to its stored value.
    ``raw`` is the record's line as stored: a line in the
    :func:`encode_record` layout is verified by hashing its body bytes,
    with no re-encode.  Any other line — or one whose bytes no longer
    hash to its check — gets the re-encoding :func:`record_check`, so
    acceptance is the same either way.
    """
    check = record.get("check")
    if check is None:
        return True
    if (
        raw is not None
        and raw[:11] == _LINE_HEAD
        and raw[27:_LINE_HEAD_SIZE] == b'", '
        and hashlib.sha256(b"{" + raw[_LINE_HEAD_SIZE:]).hexdigest()[:16]
        == raw[11:27].decode("ascii", "replace")
    ):
        return True
    return check == record_check(record)


#: Exactly the keys :meth:`ResultCache.put` (and the sharded backend)
#: writes.  Closed-world: damage that mangles the ``check`` key itself
#: yields a parseable record with an unknown key and *no* checksum —
#: indistinguishable from a legacy record by ``check_passes`` alone.
_RESULT_RECORD_KEYS = frozenset(
    {"job_id", "kernel", "mode", "measurements", "check"}
)


def valid_result_record(record: object, raw: bytes | None = None) -> bool:
    """Structural + integrity validation of one result-cache record.

    Shared by every result-store backend (:class:`ResultCache` and the
    sharded store in :mod:`repro.engine.store`): the record shape is the
    storage contract, not a property of any one file layout.  ``raw`` is
    the line the record was parsed from (see :func:`check_passes`).
    """
    if not isinstance(record, dict):
        return False
    if not set(record) <= _RESULT_RECORD_KEYS:
        return False
    job_id = record.get("job_id")
    measurements = record.get("measurements")
    if not isinstance(job_id, str) or not isinstance(measurements, list):
        return False
    if not all(isinstance(m, dict) for m in measurements):
        return False
    return check_passes(record, raw)


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/store accounting for one cache lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class JsonlCache:
    """Append-only JSONL store with checksums and self-repair.

    Subclasses set :attr:`FILENAME` and :attr:`KEY` (the record field
    holding the primary key) and implement :meth:`_valid_record` for
    their payload shape.  The base class owns loading (damaged lines
    skipped and counted), checksumming, atomic repair on the next write,
    and torn-tail handling.

    The trailing-newline state of the file is tracked *in memory*: it is
    probed once when the file is loaded (a torn write can leave a valid
    final line with no newline) and maintained across appends, so a
    store costs one append — not a stat+open+seek probe per call.  The
    cache assumes it is the file's only writer for its lifetime, which
    the engine guarantees (workers never write caches).
    """

    FILENAME = "cache.jsonl"
    KEY = "key"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME
        self.stats = CacheStats()
        self._records: dict[str, dict] = {}
        self._corrupt_lines = 0
        # True when the next append must first restore a missing trailing
        # newline (one probe per lifetime, at load).
        self._torn_tail = False
        self._load()

    def _valid_record(self, record: object, raw: bytes) -> bool:
        """Structural + integrity validation of one loaded record."""
        raise NotImplementedError

    def _load(self) -> None:
        if not self.path.exists():
            return
        # errors="replace": damage can leave bytes that are not UTF-8;
        # the mangled line then fails JSON or checksum validation below
        # instead of killing the load.
        with self.path.open(encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self._corrupt_lines += 1
                    continue
                if self._valid_record(record, line.encode()):
                    self._records[record[self.KEY]] = record
                else:
                    self._corrupt_lines += 1
        self._torn_tail = not self._ends_with_newline()

    @property
    def corrupt_lines(self) -> int:
        """Damaged lines detected at load time (0 after a repair)."""
        return self._corrupt_lines

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def _store(self, record: dict) -> None:
        """Checksum, remember, and flush one record.

        If damaged lines were detected when the file was loaded, the
        whole file is first rewritten to the surviving valid records —
        the cache heals itself the next time it is written to.
        """
        self._records[record[self.KEY]] = record
        if self._corrupt_lines:
            self._rewrite()
        else:
            # A torn write can leave a valid final line with no newline;
            # appending straight onto it would weld two records
            # together, so restore the separator first.
            with self.path.open("ab") as fh:
                if self._torn_tail:
                    fh.write(b"\n")
                fh.write(encode_record(record) + b"\n")
            self._torn_tail = False
        self.stats.stores += 1

    def _store_many(self, records: list[dict]) -> None:
        """Checksum and append a batch of records under one open+flush.

        Same durability point as ``_store`` called in a loop — the batch
        is on disk when this returns — but one file open and one flush
        for the whole batch instead of per record, which is what lets
        the scheduler persist a chunk's rows at its boundary without
        paying per-job I/O.
        """
        if not records:
            return
        for record in records:
            self._records[record[self.KEY]] = record
        if self._corrupt_lines:
            self._rewrite()
        else:
            with self.path.open("ab") as fh:
                if self._torn_tail:
                    fh.write(b"\n")
                for record in records:
                    fh.write(encode_record(record) + b"\n")
            self._torn_tail = False
        self.stats.stores += len(records)

    def _ends_with_newline(self) -> bool:
        if self.path.stat().st_size == 0:
            return True
        with self.path.open("rb") as fh:
            fh.seek(-1, 2)
            return fh.read(1) == b"\n"

    def _rewrite(self) -> None:
        """Compact the file to exactly the valid records (atomic replace).

        The replacement is made durable *before* it replaces the damaged
        file: the tmp file is flushed and fsynced so a crash mid-repair
        can never swap in a half-written file that the next load would
        count as fresh corruption.
        """
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("wb") as fh:
            for record in self._records.values():
                fh.write(encode_record(record) + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.path)
        self._corrupt_lines = 0
        self._torn_tail = False

    def clear(self) -> None:
        """Drop every stored record (and the file).

        Accounting resets with the contents: hit/miss/store counts from
        before the clear would otherwise leak into post-clear rates.
        """
        self._records.clear()
        self.stats = CacheStats()
        self._corrupt_lines = 0
        self._torn_tail = False
        if self.path.exists():
            self.path.unlink()


class ResultCache(JsonlCache):
    """Measurement-dict cache over a directory; see the module docstring."""

    FILENAME = "results.jsonl"
    KEY = "job_id"

    def _valid_record(self, record: object, raw: bytes) -> bool:
        return valid_result_record(record, raw)

    def get(self, job_id: str) -> list[dict] | None:
        """Stored measurement dicts for ``job_id``, or ``None`` (counted).

        Returns a fresh list of fresh dicts: the in-memory record is what
        a later self-repair rewrites to disk (under a freshly computed
        checksum), so handing callers the live internals would let an
        innocent mutation persist as silently corrupted measurements.
        """
        record = self._records.get(job_id)
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return [dict(m) for m in record["measurements"]]

    def put(
        self,
        job_id: str,
        measurements: list[dict],
        *,
        kernel: str = "",
        mode: str = "",
    ) -> None:
        """Store and immediately flush one job's measurements."""
        self._store(
            {
                "job_id": job_id,
                "kernel": kernel,
                "mode": mode,
                "measurements": measurements,
            }
        )

    def put_many(
        self, entries: list[tuple[str, list[dict], str, str]]
    ) -> None:
        """Store a chunk's results — ``(job_id, measurements, kernel,
        mode)`` tuples — in one batched append (see ``_store_many``)."""
        self._store_many(
            [
                {
                    "job_id": job_id,
                    "kernel": kernel,
                    "mode": mode,
                    "measurements": measurements,
                }
                for job_id, measurements, kernel, mode in entries
            ]
        )
