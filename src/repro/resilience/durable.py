"""Crash-safe durable security state: journal, snapshot, recovery.

The paper's platform is a consumer player whose flash carries security
state across power cycles — downloaded licenses, XKMS registrations
and revocations, encrypted high-scores.  This module is the one place
that state touches persistent media, with the guarantees a security
store needs:

* **Write-ahead journal** (:class:`Journal`): an append-only file of
  length-prefixed frames, each carrying a record sequence number and a
  SHA-256 (or, with an integrity key, HMAC-SHA-256) checksum.  Records
  buffer in memory until :meth:`Journal.commit`, which appends every
  buffered frame plus a *commit marker* in one write and fsyncs before
  returning — the return of ``commit()`` is the acknowledgement.
* **Recovery protocol**: on open, frames are scanned in order.  An
  *incomplete* frame at the tail is a torn write (power loss mid-
  flush): everything from the last commit marker on is truncated away
  and the store falls back to the last acknowledged state.  A
  *complete* frame with a bad checksum is interior tampering and fails
  hard with a typed :class:`~repro.errors.DurableStateError` — flash
  that lies about acknowledged history must never be silently
  repaired.  Data frames after the last commit marker were never
  acknowledged and are dropped, so unacknowledged mutations vanish
  atomically.  Recovery is idempotent: running it again on its own
  output is a no-op.
* **Snapshot + compaction** (:meth:`DurableStore.compact`): the full
  state is written to a temporary file, fsynced, atomically renamed
  over the snapshot, and the directory synced *before* the journal is
  reset the same way — a crash between the two steps recovers cleanly
  because journal records up to the snapshot's sequence number are
  skipped on replay.

Everything goes through a :class:`~repro.resilience.crashfs.Filesystem`
so the identical code path runs against the real flash and against the
seeded :class:`~repro.resilience.crashfs.CrashableFilesystem` power-
loss adversary (see :mod:`repro.resilience.durablechaos`).

Persistence modules elsewhere in the repo must not write files with a
bare ``open(..., "w"/"wb")`` — the AST linter's LIN108 rule points
them at :func:`atomic_write` here instead.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

from repro.errors import DurableStateError
from repro.primitives.hmac import constant_time_equal
from repro.primitives.provider import CryptoProvider, get_provider
from repro.resilience.crashfs import Filesystem, OsFilesystem
from repro.resilience.degradation import DegradationLog, REASON_RECOVERY

JOURNAL_MAGIC = b"RJNL1\n"
SNAPSHOT_MAGIC = b"RSNP1\n"

FRAME_DATA = 0x01
FRAME_COMMIT = 0x02

_DIGEST_BYTES = 32
_LEN = struct.Struct("<I")
_SEQ = struct.Struct("<Q")
#: hard ceiling on one frame's payload — a corrupt length prefix must
#: not make the scanner allocate gigabytes before the checksum fails.
MAX_FRAME_PAYLOAD = 16 * 1024 * 1024


def atomic_write(path: str, data: bytes, *,
                 fs: Filesystem | None = None) -> None:
    """Write *data* to *path* with write-temp/fsync/rename/dirsync.

    The only sanctioned way for persistence modules outside this layer
    to put bytes on disk (LIN108): a crash at any point leaves either
    the old file or the new one, never a torn mixture.
    """
    fs = fs or OsFilesystem()
    temp = path + ".tmp"
    fs.write(temp, data)
    fs.fsync(temp)
    fs.replace(temp, path)
    fs.fsync_dir(os.path.dirname(path) or ".")


@dataclass
class ScanResult:
    """Outcome of a read-only journal scan."""

    #: acknowledged ``(seq, body)`` records, in order.
    committed: list[tuple[int, bytes]] = field(default_factory=list)
    #: byte offset of the last commit marker's end (0 = no journal).
    keep_bytes: int = 0
    #: complete data records past the last commit marker (never acked).
    dropped_records: int = 0
    #: highest sequence number seen (data or commit frames).
    max_seq: int = 0
    #: the file is shorter than its own magic header (torn creation).
    torn_header: bool = False


@dataclass
class RecoveryReport:
    """What one journal recovery found and did."""

    snapshot_seq: int = 0
    records_replayed: int = 0
    truncated_bytes: int = 0
    dropped_records: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing had to be repaired (no torn tail, no
        unacknowledged records discarded)."""
        return self.truncated_bytes == 0 and self.dropped_records == 0


class Journal:
    """Append-only write-ahead journal of checksummed frames.

    Args:
        fs: filesystem the journal lives on.
        path: journal file path.
        integrity_key: when given, frames are HMAC-SHA-256'd under this
            key instead of plain SHA-256 — detects *substitution* of
            the whole journal, not just corruption.
        provider: crypto provider for the digest and MAC primitives.
    """

    def __init__(self, fs: Filesystem, path: str, *,
                 integrity_key: bytes | None = None,
                 provider: CryptoProvider | None = None):
        self._fs = fs
        self._path = path
        self._key = integrity_key
        self._provider = provider or get_provider()
        self._buffered: list[tuple[int, bytes]] = []
        self._next_seq = 1
        self._committed_seq = 0

    # -- frame primitives --------------------------------------------------------

    def _checksum(self, payload: bytes) -> bytes:
        if self._key is not None:
            return self._provider.hmac("sha256", self._key,
                                       JOURNAL_MAGIC + payload)
        return self._provider.digest("sha256", JOURNAL_MAGIC + payload)

    def _frame(self, frame_type: int, seq: int, body: bytes) -> bytes:
        payload = bytes([frame_type]) + _SEQ.pack(seq) + body
        return _LEN.pack(len(payload)) + payload + self._checksum(payload)

    # -- writing -----------------------------------------------------------------

    @property
    def committed_seq(self) -> int:
        """Sequence number of the last acknowledged record."""
        return self._committed_seq

    @property
    def pending(self) -> int:
        """Records appended but not yet committed."""
        return len(self._buffered)

    def append(self, body: bytes) -> int:
        """Buffer one record; returns its sequence number.  The record
        is NOT durable until :meth:`commit` returns."""
        seq = self._next_seq
        self._next_seq += 1
        self._buffered.append((seq, body))
        return seq

    def commit(self) -> int:
        """Make every buffered record durable; returns the last
        acknowledged sequence number.

        All buffered frames plus one commit marker go out in a single
        append, then the file is fsynced.  Only when the fsync returns
        is the batch acknowledged — a crash anywhere earlier leaves at
        most a torn prefix that recovery truncates away.
        """
        if not self._buffered:
            return self._committed_seq
        frames = [self._frame(FRAME_DATA, seq, body)
                  for seq, body in self._buffered]
        marker_seq = self._next_seq
        self._next_seq += 1
        frames.append(self._frame(FRAME_COMMIT, marker_seq, b""))
        self._ensure_header()
        self._fs.append(self._path, b"".join(frames))
        self._fs.fsync(self._path)
        self._committed_seq = self._buffered[-1][0]
        self._buffered.clear()
        return self._committed_seq

    def _ensure_header(self) -> None:
        if not self._fs.exists(self._path):
            self._fs.write(self._path, JOURNAL_MAGIC)
            self._fs.fsync(self._path)

    # -- scanning / recovery -----------------------------------------------------

    def scan(self) -> ScanResult:
        """Parse the journal without mutating it.

        Distinguishes the two failure shapes the durability model
        cares about: an *incomplete* frame (or header) at the tail is
        a torn write and merely marks where recovery should truncate,
        while a *complete* frame whose checksum fails — or a structural
        impossibility like a sequence regression — is interior
        tampering and raises.

        Raises:
            DurableStateError: on a foreign header, a complete frame
                whose checksum does not verify, an absurd length
                prefix, an unknown frame type, or a sequence-number
                regression.
        """
        result = ScanResult()
        if not self._fs.exists(self._path):
            return result
        data = self._fs.read(self._path)
        if not data:
            return result
        if not data.startswith(JOURNAL_MAGIC):
            if JOURNAL_MAGIC.startswith(data):
                # Power loss while the header itself was being written.
                result.torn_header = True
                return result
            raise DurableStateError(
                f"journal {self._path!r} has a foreign header", kind="format",
            )
        offset = len(JOURNAL_MAGIC)
        committed = result.committed
        uncommitted: list[tuple[int, bytes]] = []
        keep = offset
        last_seq = 0
        while offset < len(data):
            frame_start = offset
            if frame_start + _LEN.size > len(data):
                break  # torn length prefix
            (length,) = _LEN.unpack_from(data, frame_start)
            if length > MAX_FRAME_PAYLOAD + _SEQ.size + 1:
                raise DurableStateError(
                    f"journal {self._path!r}: frame at offset "
                    f"{frame_start} claims an absurd length", kind="tamper",
                )
            end = frame_start + _LEN.size + length + _DIGEST_BYTES
            if end > len(data):
                break  # torn frame body
            payload = data[frame_start + _LEN.size:end - _DIGEST_BYTES]
            digest = data[end - _DIGEST_BYTES:end]
            if not constant_time_equal(digest, self._checksum(payload)):
                raise DurableStateError(
                    f"journal {self._path!r}: checksum mismatch on a "
                    f"complete frame at offset {frame_start}",
                    kind="tamper",
                )
            if len(payload) < 1 + _SEQ.size:
                raise DurableStateError(
                    f"journal {self._path!r}: undersized frame at "
                    f"offset {frame_start}", kind="tamper",
                )
            frame_type = payload[0]
            (seq,) = _SEQ.unpack_from(payload, 1)
            if seq <= last_seq:
                raise DurableStateError(
                    f"journal {self._path!r}: sequence regression at "
                    f"offset {frame_start}", kind="tamper",
                )
            last_seq = seq
            result.max_seq = seq
            body = payload[1 + _SEQ.size:]
            if frame_type == FRAME_COMMIT:
                committed.extend(uncommitted)
                uncommitted.clear()
                keep = end
            elif frame_type == FRAME_DATA:
                uncommitted.append((seq, body))
            else:
                raise DurableStateError(
                    f"journal {self._path!r}: unknown frame type "
                    f"{frame_type} at offset {frame_start}", kind="tamper",
                )
            offset = end
        result.keep_bytes = keep
        result.dropped_records = len(uncommitted)
        return result

    def recover(self) -> tuple[list[tuple[int, bytes]], RecoveryReport]:
        """Scan, truncate any torn/unacknowledged tail, and return the
        acknowledged records plus a :class:`RecoveryReport`."""
        scan = self.scan()
        report = RecoveryReport(dropped_records=scan.dropped_records)
        size = len(self._fs.read(self._path)) \
            if self._fs.exists(self._path) else 0
        if scan.torn_header:
            report.truncated_bytes = size
            self._fs.write(self._path, JOURNAL_MAGIC)
            self._fs.fsync(self._path)
        elif scan.keep_bytes and size > scan.keep_bytes:
            report.truncated_bytes = size - scan.keep_bytes
            self._fs.truncate(self._path, scan.keep_bytes)
            self._fs.fsync(self._path)
        committed = scan.committed
        self._committed_seq = committed[-1][0] if committed else 0
        self._next_seq = scan.max_seq + 1
        return committed, report

    def ensure_seq_floor(self, seq: int) -> None:
        """Adopt an externally recorded sequence floor — the snapshot's
        applied sequence number.  A journal reset by compaction starts
        empty, so after the *next* reopen its own scan knows nothing
        about the numbers the snapshot already consumed; without the
        floor, fresh records would reuse them and be skipped on replay
        as already-snapshotted."""
        if self._next_seq <= seq:
            self._next_seq = seq + 1
        if self._committed_seq < seq:
            self._committed_seq = seq

    def reset(self, next_seq: int) -> None:
        """Atomically replace the journal with an empty one (used by
        compaction, *after* the snapshot is durable)."""
        temp = self._path + ".new"
        self._fs.write(temp, JOURNAL_MAGIC)
        self._fs.fsync(temp)
        self._fs.replace(temp, self._path)
        self._fs.fsync_dir(os.path.dirname(self._path) or ".")
        self._next_seq = next_seq
        self._committed_seq = next_seq - 1
        self._buffered.clear()


# -- the key/value store on top ----------------------------------------------------

_OP_SET = 0x53     # "S"
_OP_DELETE = 0x44  # "D"
_OP_WIPE = 0x57    # "W"


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _LEN.pack(len(raw)) + raw


def _unpack_str(data: bytes, offset: int) -> tuple[str, int]:
    (length,) = _LEN.unpack_from(data, offset)
    offset += _LEN.size
    return data[offset:offset + length].decode("utf-8"), offset + length


def encode_op(kind: int, namespace: str, key: str = "",
              value: bytes = b"") -> bytes:
    """Serialize one store mutation as a journal record body."""
    return (bytes([kind]) + _pack_str(namespace) + _pack_str(key)
            + _LEN.pack(len(value)) + value)


def decode_op(body: bytes) -> tuple[int, str, str, bytes]:
    """Inverse of :func:`encode_op`; raises on malformed records."""
    try:
        kind = body[0]
        namespace, offset = _unpack_str(body, 1)
        key, offset = _unpack_str(body, offset)
        (length,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        value = body[offset:offset + length]
        if len(value) != length or kind not in (_OP_SET, _OP_DELETE,
                                                _OP_WIPE):
            raise DurableStateError(
                "journal record does not decode as a store operation",
                kind="tamper",
            )
    except (IndexError, struct.error):
        raise DurableStateError(
            "journal record does not decode as a store operation",
            kind="tamper",
        ) from None
    return kind, namespace, key, value


@dataclass
class DurableInspection:
    """Read-only summary of a durable directory (the CLI's view)."""

    directory: str
    snapshot_seq: int
    committed_records: int
    journal_bytes: int
    tail_torn_bytes: int
    tail_uncommitted_records: int
    namespaces: dict[str, int] = field(default_factory=dict)

    @property
    def clean_tail(self) -> bool:
        return (self.tail_torn_bytes == 0
                and self.tail_uncommitted_records == 0)


class DurableStore:
    """Namespaced key/value store with journaled, acknowledged commits.

    The on-disk layout is two files in *directory*:

    * ``snapshot.rsn`` — the compacted state at some sequence number;
    * ``journal.rjl``  — checksummed frames for every mutation since.

    Mutations (:meth:`set` / :meth:`delete` / :meth:`wipe`) stage both
    a journal record and an in-memory overlay; :meth:`commit` makes
    them durable and visible in one atomic step.  Opening the store
    runs recovery; the outcome is available as :attr:`recovery`, and
    anything recovery had to repair is surfaced on the supplied
    :class:`~repro.resilience.degradation.DegradationLog` under the
    ``recovery`` taxonomy code.
    """

    JOURNAL_NAME = "journal.rjl"
    SNAPSHOT_NAME = "snapshot.rsn"

    def __init__(self, directory: str, *,
                 fs: Filesystem | None = None,
                 integrity_key: bytes | None = None,
                 provider: CryptoProvider | None = None,
                 degradation: DegradationLog | None = None):
        self._fs = fs or OsFilesystem()
        self._directory = directory.rstrip("/") or "."
        self._key = integrity_key
        self._provider = provider or get_provider()
        self._degradation = degradation
        self._fs.makedirs(self._directory)
        self._journal = Journal(
            self._fs, self._join(self.JOURNAL_NAME),
            integrity_key=integrity_key, provider=self._provider,
        )
        self._state: dict[str, dict[str, bytes]] = {}
        self._staged: list[tuple[int, str, str, bytes]] = []
        self.recovery = self._recover()

    def _join(self, name: str) -> str:
        return f"{self._directory}/{name}"

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def committed_seq(self) -> int:
        return self._journal.committed_seq

    # -- recovery ----------------------------------------------------------------

    def _snapshot_checksum(self, payload: bytes) -> bytes:
        if self._key is not None:
            return self._provider.hmac("sha256", self._key,
                                       SNAPSHOT_MAGIC + payload)
        return self._provider.digest("sha256", SNAPSHOT_MAGIC + payload)

    def _load_snapshot(self) -> int:
        path = self._join(self.SNAPSHOT_NAME)
        if not self._fs.exists(path):
            return 0
        data = self._fs.read(path)
        if not data.startswith(SNAPSHOT_MAGIC) \
                or len(data) < len(SNAPSHOT_MAGIC) + _DIGEST_BYTES:
            raise DurableStateError(
                f"snapshot {path!r} has a foreign header", kind="format",
            )
        payload = data[len(SNAPSHOT_MAGIC):-_DIGEST_BYTES]
        digest = data[-_DIGEST_BYTES:]
        if not constant_time_equal(digest,
                                   self._snapshot_checksum(payload)):
            raise DurableStateError(
                f"snapshot {path!r}: checksum mismatch — snapshots are "
                "written atomically, so this is tampering, not a torn "
                "write", kind="tamper",
            )
        (applied_seq,) = _SEQ.unpack_from(payload, 0)
        offset = _SEQ.size
        (entries,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        for _ in range(entries):
            namespace, offset = _unpack_str(payload, offset)
            key, offset = _unpack_str(payload, offset)
            (length,) = _LEN.unpack_from(payload, offset)
            offset += _LEN.size
            value = payload[offset:offset + length]
            offset += length
            self._state.setdefault(namespace, {})[key] = value
        return applied_seq

    def _recover(self) -> RecoveryReport:
        snapshot_seq = self._load_snapshot()
        records, report = self._journal.recover()
        self._journal.ensure_seq_floor(snapshot_seq)
        report.snapshot_seq = snapshot_seq
        for seq, body in records:
            if seq <= snapshot_seq:
                continue  # already folded into the snapshot
            self._apply(*decode_op(body))
            report.records_replayed += 1
        if not report.clean and self._degradation is not None:
            self._degradation.record(
                "durable", self._directory, REASON_RECOVERY,
                detail=f"truncated {report.truncated_bytes} torn byte(s), "
                       f"dropped {report.dropped_records} "
                       f"unacknowledged record(s)",
            )
        return report

    def _apply(self, kind: int, namespace: str, key: str,
               value: bytes) -> None:
        if kind == _OP_SET:
            self._state.setdefault(namespace, {})[key] = value
        elif kind == _OP_DELETE:
            self._state.get(namespace, {}).pop(key, None)
        elif kind == _OP_WIPE:
            self._state.pop(namespace, None)

    # -- reads (committed state only) --------------------------------------------

    def get(self, namespace: str, key: str,
            default: bytes | None = None) -> bytes | None:
        return self._state.get(namespace, {}).get(key, default)

    def keys(self, namespace: str) -> list[str]:
        return sorted(self._state.get(namespace, {}))

    def items(self, namespace: str) -> list[tuple[str, bytes]]:
        return sorted(self._state.get(namespace, {}).items())

    def namespaces(self) -> list[str]:
        return sorted(ns for ns, space in self._state.items() if space)

    # -- mutations ---------------------------------------------------------------

    def set(self, namespace: str, key: str, value: bytes) -> None:
        self._stage(_OP_SET, namespace, key, bytes(value))

    def delete(self, namespace: str, key: str) -> None:
        self._stage(_OP_DELETE, namespace, key, b"")

    def wipe(self, namespace: str) -> None:
        self._stage(_OP_WIPE, namespace, "", b"")

    def _stage(self, kind: int, namespace: str, key: str,
               value: bytes) -> None:
        self._journal.append(encode_op(kind, namespace, key, value))
        self._staged.append((kind, namespace, key, value))

    def commit(self) -> int:
        """Make every staged mutation durable; the return *is* the
        acknowledgement (the last committed sequence number)."""
        seq = self._journal.commit()
        for op in self._staged:
            self._apply(*op)
        self._staged.clear()
        return seq

    # -- snapshot / compaction ---------------------------------------------------

    def _snapshot_bytes(self, applied_seq: int) -> bytes:
        entries: list[bytes] = []
        count = 0
        for namespace in sorted(self._state):
            for key, value in sorted(self._state[namespace].items()):
                entries.append(_pack_str(namespace) + _pack_str(key)
                               + _LEN.pack(len(value)) + value)
                count += 1
        payload = _SEQ.pack(applied_seq) + _LEN.pack(count) + b"".join(
            entries
        )
        return SNAPSHOT_MAGIC + payload + self._snapshot_checksum(payload)

    def compact(self) -> int:
        """Fold the journal into the snapshot; returns the snapshot's
        sequence number.

        Ordering is the whole point: the snapshot must be durable (tmp
        → fsync → rename → dirsync) *before* the journal is reset; a
        crash in between recovers to the same state because replay
        skips records at or below the snapshot's sequence number.
        """
        if self._staged:
            raise DurableStateError(
                "compact() with uncommitted staged mutations; "
                "commit or discard them first", kind="protocol",
            )
        applied = self._journal.committed_seq
        atomic_write(self._join(self.SNAPSHOT_NAME),
                     self._snapshot_bytes(applied), fs=self._fs)
        self._journal.reset(applied + 1)
        return applied

    # -- inspection --------------------------------------------------------------

    def inspect(self) -> DurableInspection:
        """Summarize the committed state (no mutation)."""
        journal_path = self._join(self.JOURNAL_NAME)
        size = len(self._fs.read(journal_path)) \
            if self._fs.exists(journal_path) else 0
        return DurableInspection(
            directory=self._directory,
            snapshot_seq=self.recovery.snapshot_seq,
            committed_records=self.recovery.records_replayed,
            journal_bytes=size,
            tail_torn_bytes=self.recovery.truncated_bytes,
            tail_uncommitted_records=self.recovery.dropped_records,
            namespaces={ns: len(self._state[ns])
                        for ns in self.namespaces()},
        )


def verify_directory(directory: str, *, fs: Filesystem | None = None,
                     integrity_key: bytes | None = None,
                     provider: CryptoProvider | None = None,
                     ) -> DurableInspection:
    """Dry-run integrity check of a durable directory.

    Scans the snapshot and journal WITHOUT repairing anything — the
    CLI's ``durable verify``/``inspect``.  Torn tails and
    unacknowledged records are reported in the returned
    :class:`DurableInspection`; interior tampering raises
    :class:`~repro.errors.DurableStateError` exactly as recovery would.
    """
    fs = fs or OsFilesystem()
    provider = provider or get_provider()
    directory = directory.rstrip("/") or "."
    journal = Journal(fs, f"{directory}/{DurableStore.JOURNAL_NAME}",
                      integrity_key=integrity_key, provider=provider)
    scan = journal.scan()
    committed = scan.committed

    state: dict[str, dict[str, bytes]] = {}
    snapshot_seq = 0
    snapshot_path = f"{directory}/{DurableStore.SNAPSHOT_NAME}"
    if fs.exists(snapshot_path):
        # Reuse the store's snapshot parser without its repair side
        # effects by loading into a scratch instance namespace.
        scratch = DurableStore.__new__(DurableStore)
        scratch._fs = fs
        scratch._directory = directory
        scratch._key = integrity_key
        scratch._provider = provider
        scratch._state = state
        snapshot_seq = scratch._load_snapshot()
    for seq, body in committed:
        if seq <= snapshot_seq:
            continue
        kind, namespace, key, value = decode_op(body)
        if kind == _OP_SET:
            state.setdefault(namespace, {})[key] = value
        elif kind == _OP_DELETE:
            state.get(namespace, {}).pop(key, None)
        elif kind == _OP_WIPE:
            state.pop(namespace, None)

    journal_path = f"{directory}/{DurableStore.JOURNAL_NAME}"
    size = len(fs.read(journal_path)) if fs.exists(journal_path) else 0
    if scan.torn_header:
        torn = size
    elif scan.keep_bytes:
        torn = size - scan.keep_bytes
    else:
        torn = 0
    return DurableInspection(
        directory=directory,
        snapshot_seq=snapshot_seq,
        committed_records=sum(1 for seq, _ in committed
                              if seq > snapshot_seq),
        journal_bytes=size,
        tail_torn_bytes=max(0, torn),
        tail_uncommitted_records=scan.dropped_records,
        namespaces={ns: len(space) for ns, space in sorted(state.items())
                    if space},
    )
