"""Disk-backed value store: an append-only journal plus one slab file.

A store directory holds ``log/<seq>.seg`` — the journal, cut into
segment files of about :data:`SEGMENT_BYTES` — and ``data.slab``.  A
segment is a sequence of frames, ``[u32 length][u32 crc32][payload]``,
each appended with one ``os.write``; the first payload byte is the kind:

=========  ==========================================================
``PUT``    ``id u64, flags u64, size u32, slot u32`` · the value, if
           it is at most :data:`INLINE_BYTES` (``slot`` is then
           ``0xFFFFFFFF``) · ``u16`` tenant length, tenant, key
``DEL``    ``id u64`` × n — one frame retires a whole eviction batch
``LEASE``  ``version u8, high_water u64`` — ids up to ``high_water``
           may be in use; every segment opens with one
=========  ==========================================================

A larger value takes ``ceil(size / SLOT_BYTES)`` contiguous slots of
``data.slab`` and its ``PUT`` names the first — cache space addressed
by block, as the paper's SSD store is, with no file, inode or directory
entry per value.  The store is addressed by id alone and never asked
*whether* a key exists: :class:`~repro.service.cache.ServiceCache`'s
index (key -> id, and each tenant's ids in FIFO order) is the truth
while the process runs, and the journal is what :meth:`iter_entries`
rebuilds that index from after a restart.  In memory the store keeps
the one record of each entry — where its ``PUT`` frame lies (an inline
value is read back from there with one ``pread``) beside what the frame
says: tenant, key, flags, size and first slot (:meth:`entry`) — and
which slots are free (:class:`SlotMap`).  A ``set`` is two steps:

1. Take a fresh id and, for a large value, a free run (a hole of
   exactly its length if there is one, else the lowest that fits, else
   the end of the file) and write it there: one ``pwrite``, one
   ``fsync``.
2. Append **one** ``PUT`` frame (``write``, ``fsync``).  The highest id
   of a ``(tenant, key)`` is its value, so an overwrite retires the old
   entry with the same frame; only then is the old run marked free.

Deletion is one ``DEL`` frame — one for a whole eviction batch, one per
:data:`_DEL_IDS` ids of a flush — and then the runs are marked free, the
slab cut back when the last one ended it.  The crash rule is **a slot
is written only while no live record claims it**: a run becomes
reusable after the frame that retired its entry is written (and
synced), never before.  A torn write can therefore only damage bytes no
record claims, a record exists only if its value is durable, and a
crash leaves no debris.  :meth:`recover` replays the segments in order
— ``DEL`` drops ids, a higher id of the same key retires the lower, a
repeated id takes the later place — stops at the first short or
CRC-failing frame of the *last* segment and truncates there (a frame is
all or nothing), refuses to open if a *sealed* segment fails, marks
what the surviving records claim and cuts the slab off beyond.

The journal is bounded by reclaiming strictly oldest segment first:
while it holds more than one and a half times its live ``PUT`` bytes
plus two segments, every byte an operation appends or retires pays
for examining :data:`_RECLAIM_RATE` bytes of the oldest segment, whose
still-live ``PUT`` frames are appended again at the head (and synced,
like every append); the emptied segment is then unlinked.  A ``DEL`` is never
copied — every ``PUT`` it cancels lies in a segment at least as old,
gone by then — and neither is a ``LEASE``, since every segment opens
with the current one.  That holds the journal under
``2 × live + 4 × SEGMENT_BYTES`` (:func:`log_budget`) at a cost per
operation proportional to the bytes it touches; FIFO eviction retires
records in the order they were written, so the oldest segment is mostly
dead when its turn comes.

Entry ids strictly increase and are never reused, across restarts too:
they are leased :data:`_LEASE` at a time, the ``LEASE`` frame is written
with (ahead of) the first ``PUT`` under it, and a reopened store starts
above the highest lease whatever was deleted since.  So a ``gets`` cas
token never comes to name another value, and id order is FIFO residence
order.  A directory has one owner: the store holds an exclusive
``flock`` on ``data.slab`` for as long as it is open.
"""

from __future__ import annotations

import errno
import fcntl
import os
import struct
import sys
import time
import zlib
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

__all__ = ["DiskStore", "SlotMap", "StoredEntry", "slots_of", "log_budget",
           "INLINE_BYTES", "SLOT_BYTES", "SEGMENT_BYTES", "LAYOUT_VERSION"]

#: Values up to this size ride in their ``PUT`` frame, larger ones in the slab.
INLINE_BYTES = 1024
#: Allocation unit of ``data.slab``.
SLOT_BYTES = 4096
#: A segment is sealed, and the next one begun, once it is this long.
SEGMENT_BYTES = 256 * 1024
#: Written into every ``LEASE`` frame (1 never existed; 2 kept each large
#: value in a file of its own under ``data/``; 2 and 3 kept their records
#: in SQLite's ``meta.db``, stamped with ``PRAGMA user_version``).
LAYOUT_VERSION = 4
_LEASE = 1024  # ids per high-water mark: one LEASE frame per 1024 sets
_DEL_IDS = 1024  # ids per DEL frame: a longer batch is several frames
_RECLAIM_RATE = 8  # bytes examined per byte appended or retired
_MAX_FRAME = 16 * 1024  # a longer length field is damage, not a frame

_HEAD = struct.Struct("<II")        # payload length, crc32(payload)
_PUT = struct.Struct("<BQQII")      # kind, id, flags, size, slot
_LEASE_FRAME = struct.Struct("<BBQ")  # kind, layout version, high water
_U16 = struct.Struct("<H")
_KIND_PUT, _KIND_DEL, _KIND_LEASE = 1, 2, 3
_NO_SLOT = 0xFFFFFFFF               # the value is in the frame
_VALUE_AT = _HEAD.size + _PUT.size  # ... this far into it


class StoredEntry(NamedTuple):
    """The store's one record of a live entry: what its ``PUT`` frame
    says, and where the frame lies."""
    entry_id: int
    tenant: str
    key: str
    flags: int
    size: int
    slot: Optional[int]     # first slab slot; None: the value is in the frame
    fd: int                 # the segment holding the frame
    at: int                 # offset of the frame in it
    length: int             # bytes of the frame, header included


def slots_of(size: int) -> int:
    """Slots a slab value of ``size`` bytes occupies."""
    return -(-size // SLOT_BYTES)


def log_budget(live_bytes: int) -> int:
    """Most bytes ``log/`` may hold while its live ``PUT`` frames add up
    to ``live_bytes``: reclaim starts half a ``live_bytes`` below this
    and outruns the writers eightfold, and the slack covers the oldest
    segment's examined part, the active one and the copies in flight."""
    return 2 * live_bytes + 4 * SEGMENT_BYTES


def _frame(payload: bytes) -> bytes:
    return _HEAD.pack(len(payload), zlib.crc32(payload)) + payload


class SlotMap:
    """Which slots of the slab are taken: one byte each, 1 = in use.
    The map ends at the last slot in use, and so does the file."""

    def __init__(self) -> None:
        self.used = bytearray()

    def find(self, count: int) -> int:
        """First slot of a free run for ``count`` slots: the lowest hole
        of exactly that length between two slots in use, else the lowest
        run that fits, else the end of the map.  (Lowest fit alone lets
        small values nibble the holes large ones left and need again.)"""
        free = bytes(count)
        hole = self.used.find(b"\1" + free + b"\1")
        if hole >= 0:
            return hole + 1
        slot = self.used.find(free)
        return slot if slot >= 0 else len(self.used)

    def claim(self, slot: int, count: int) -> None:
        """Mark a run in use, growing the map to reach it."""
        used = self.used
        if slot + count > len(used):
            used.extend(bytes(slot + count - len(used)))
        used[slot:slot + count] = b"\1" * count

    def release(self, slot: int, count: int) -> None:
        """Mark a run free and drop the free slots that end the map."""
        used = self.used
        used[slot:slot + count] = bytes(count)
        if slot + count == len(used):
            del used[used.rfind(1) + 1:]


class _Segment:
    """One open ``log/<seq>.seg``; ``size`` is where the next frame goes."""

    def __init__(self, seq: int, path: str, fd: int, size: int) -> None:
        self.seq, self.path, self.fd, self.size = seq, path, fd, size


class DiskStore:
    """Crash-safe persistent store of ``(tenant, key, flags, value)``
    entries addressed by id."""

    def __init__(self, directory: str, sync_writes: bool = True) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._sync_writes = sync_writes
        self._refuse_older_layout()
        self._segments: List[_Segment] = []
        self._log_dir = -1
        self._slab = os.open(os.path.join(self.directory, "data.slab"),
                             os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(self._slab, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError as error:
                raise RuntimeError(
                    f"{self.directory} is locked: another server (or an "
                    "inspector) holds its data.slab, and a directory has "
                    "one owner") from error
            log = os.path.join(self.directory, "log")
            os.makedirs(log, exist_ok=True)
            self._log_dir = os.open(log, os.O_RDONLY)
            if sync_writes:  # the directory entries: once, not per value
                handle = os.open(self.directory, os.O_RDONLY)
                try:
                    os.fsync(handle)
                finally:
                    os.close(handle)
            #: Optional I/O timing hook, ``probe(op, t0_ns, t1_ns, nbytes)``,
            #: called once per data-path op with ``time.monotonic_ns`` stamps
            #: (see :func:`repro.obs.live.bind_store_probe`).  ``None`` keeps
            #: the data path one attribute read from the un-instrumented code.
            self.probe: Optional[Callable[[str, int, int, int], None]] = None
            self.recover()
        except BaseException:
            self.close()
            raise

    def _refuse_older_layout(self) -> None:
        """Layouts 2 and 3 kept their records in ``meta.db``; the version
        is the ``user_version`` field of SQLite's file header."""
        try:
            with open(os.path.join(self.directory, "meta.db"), "rb") as old:
                header = old.read(64)
        except FileNotFoundError:
            return
        raise self._other_layout(
            int.from_bytes(header[60:64], "big")
            if header.startswith(b"SQLite format 3\0") else "3 or older")

    def _other_layout(self, found: object) -> RuntimeError:
        return RuntimeError(
            f"{self.directory} holds store layout version {found}; "
            f"this build reads and writes version {LAYOUT_VERSION} "
            "only and does not migrate: serve it with the build that "
            "wrote it")

    def recover(self) -> None:
        """Replay the journal: rebuild the id -> entry map, the tenant
        counters and the slot map from the frames, and cut off what a
        crash left beyond them (a torn frame, a torn slab append, a
        cut-back that never ran)."""
        self._close_segments()
        log = os.path.join(self.directory, "log")
        for seq in sorted(int(name[:-4]) for name in os.listdir(log)
                          if name.endswith(".seg")):
            path = os.path.join(log, f"{seq}.seg")
            fd = os.open(path, os.O_RDWR | os.O_APPEND)
            self._segments.append(_Segment(seq, path, fd, os.fstat(fd).st_size))
        rows, high_water = self._replay()

        #: id -> the record of every live entry.  Tenant and key are the
        #: caller's strings (the ones recovery hands it), referenced, not
        #: copied.
        self._where: Dict[int, StoredEntry] = {}
        #: tenant -> [entries, bytes of value]
        self._tenants: Dict[str, List[int]] = {}
        self._map = SlotMap()
        self._live_bytes = 0
        for entry_id, (fd, at, length, names, flags, size, slot) in rows.items():
            key_at = 2 + _U16.unpack_from(names)[0]
            self._admit(entry_id, fd, at, length,
                        sys.intern(names[2:key_at].decode("utf-8")),
                        names[key_at:].decode("utf-8"), flags, size,
                        None if slot == _NO_SLOT else slot)
        self._log_bytes = sum(segment.size for segment in self._segments)
        #: The oldest segment's bytes while it is being reclaimed, and
        #: how many of them have been examined.
        self._scan: Optional[bytes] = None
        self._cursor = 0
        self._next_id = self._leased = high_water + 1
        if not self._segments:
            self._roll()
        self._cut_back()

    def _replay(self) -> Tuple[Dict[int, tuple], int]:
        """Read every segment in order.  Returns id -> (fd, frame offset,
        frame length, names, flags, size, slot) of the PUT frames left
        live, and the highest lease."""
        rows: Dict[int, tuple] = {}
        newest: Dict[bytes, int] = {}  # tenant length + tenant + key -> id
        high_water = 0
        for segment in self._segments:
            fd = segment.fd
            data = os.pread(fd, segment.size, 0)
            view = memoryview(data)
            at, end = 0, len(data)
            while at + _HEAD.size <= end:
                length, crc = _HEAD.unpack_from(data, at)
                body = at + _HEAD.size
                stop = body + length
                if (not 0 < length <= _MAX_FRAME or stop > end
                        or zlib.crc32(view[body:stop]) != crc):
                    break
                kind = data[body]
                if kind == _KIND_PUT:
                    _, entry_id, flags, size, slot = _PUT.unpack_from(data, body)
                    names = data[body + _PUT.size
                                 + (size if slot == _NO_SLOT else 0):stop]
                    old = newest.get(names)
                    if old is None or old <= entry_id:
                        newest[names] = entry_id
                        if old is not None and old != entry_id:
                            rows.pop(old, None)
                        rows[entry_id] = (fd, at, stop - at, names, flags,
                                          size, slot)
                elif kind == _KIND_DEL:
                    for (entry_id,) in struct.iter_unpack(
                            "<Q", view[body + 1:stop]):
                        rows.pop(entry_id, None)
                elif kind == _KIND_LEASE:
                    _, version, mark = _LEASE_FRAME.unpack_from(data, body)
                    if version != LAYOUT_VERSION:
                        raise self._other_layout(version)
                    high_water = max(high_water, mark)
                at = stop
            if at < end:
                if segment is not self._segments[-1]:
                    raise RuntimeError(
                        f"{segment.path} is damaged at offset {at}: a short "
                        "or CRC-failing frame in a sealed segment is not a "
                        "torn tail, and nothing after it can be trusted")
                os.ftruncate(fd, at)
                segment.size = at
        return rows, high_water

    # -- data path ------------------------------------------------------

    def set(self, tenant: str, key: str, value: bytes, flags: int = 0,
            replaces: Optional[int] = None) -> int:
        """Store ``value`` under a fresh id and return the id.
        ``replaces`` is the id the caller's index holds for this key, if
        any: the frame that commits the new entry retires that one, so
        no crash point shows two values for a key, or none."""
        if self._slab < 0:
            raise self._closed()
        if self.probe is None:
            return self._set(tenant, key, value, flags, replaces)
        return self._probed("set", len(value), self._set,
                            tenant, key, value, flags, replaces)

    def _set(self, tenant, key, value, flags, replaces) -> int:
        owner = tenant.encode("utf-8")
        names = _U16.pack(len(owner)) + owner + key.encode("utf-8")
        if len(names) > _MAX_FRAME - _VALUE_AT - INLINE_BYTES:
            raise ValueError(f"tenant and key of {len(names) - 2} bytes do "
                             "not fit a frame")
        entry_id = self._next_id
        lease = b""
        if entry_id == self._leased:
            lease = self._lease_frame(self._leased + _LEASE - 1)
        size = len(value)
        slot = _NO_SLOT
        if size > INLINE_BYTES:
            count = slots_of(size)
            slot = self._map.find(count)
            if slot == len(self._map.used):
                # Appending: whole slots, so the file ends where the map does.
                value = value + bytes(count * SLOT_BYTES - size)
            if os.pwrite(self._slab, value, slot * SLOT_BYTES) != len(value):
                raise OSError(errno.ENOSPC, "short write to data.slab")
            if self._sync_writes:
                os.fsync(self._slab)
            value = b""
        frame = _frame(
            _PUT.pack(_KIND_PUT, entry_id, flags, size, slot) + value + names)
        fd, at = self._append(lease + frame)
        if lease:
            self._leased += _LEASE
        self._next_id += 1
        self._admit(entry_id, fd, at + len(lease), len(frame), tenant, key,
                    flags, size, None if slot == _NO_SLOT else slot)
        retired = 0 if replaces is None else self._release((replaces,))
        self._reclaim(len(lease) + len(frame) + retired)
        return entry_id

    def get(self, entry_id: int) -> Optional[bytes]:
        """The value of a live entry (``None`` if the store holds no
        such id, or the slab no longer holds all of it)."""
        if self._slab < 0:
            raise self._closed()
        if self.probe is None:
            return self._get(entry_id)
        return self._probed("get", None, self._get, entry_id)

    def _get(self, entry_id: int) -> Optional[bytes]:
        entry = self._where.get(entry_id)
        if entry is None:
            return None
        size = entry.size
        if entry.slot is None:
            value = os.pread(entry.fd, size, entry.at + _VALUE_AT)
        else:
            value = os.pread(self._slab, size, entry.slot * SLOT_BYTES)
        return value if len(value) == size else None

    def delete_entry(self, entry_id: int) -> None:
        """Delete one entry.  Its ``DEL`` frame is written before its
        slots can be handed out again."""
        self.delete_entries((entry_id,))

    def delete_entries(self, ids: Sequence[int]) -> None:
        """Delete entries — an eviction batch, a flush — with one frame
        (per :data:`_DEL_IDS`: a longer batch is all or nothing frame by
        frame, in the order given), then free their slots (same crash
        rule)."""
        if self._slab < 0:
            raise self._closed()
        if self.probe is None:
            return self._delete_entries(ids)
        self._probed("delete", 0, self._delete_entries, ids)

    def _delete_entries(self, ids: Sequence[int]) -> None:
        where = self._where
        ids = [entry_id for entry_id in ids if entry_id in where]
        for start in range(0, len(ids), _DEL_IDS):
            batch = ids[start:start + _DEL_IDS]
            frame = _frame(struct.pack(f"<B{len(batch)}Q", _KIND_DEL, *batch))
            self._append(frame)
            self._reclaim(len(frame) + self._release(batch))

    # -- accounting / recovery iteration --------------------------------

    def entry(self, entry_id: int) -> StoredEntry:
        """What the store records of a live entry (``KeyError`` if it
        holds no such id)."""
        if self._slab < 0:
            raise self._closed()
        return self._where[entry_id]

    def iter_entries(self) -> Iterator[StoredEntry]:
        """Live entries in id order — FIFO residence order."""
        if self._slab < 0:
            raise self._closed()
        return (entry for _, entry in sorted(self._where.items()))

    def tenant_bytes(self) -> Dict[str, int]:
        """Per-tenant live bytes (size accounting): running counters."""
        if self._slab < 0:
            raise self._closed()
        return {tenant: total
                for tenant, (entries, total) in sorted(self._tenants.items())
                if entries}

    def count(self) -> int:
        """Number of live entries."""
        if self._slab < 0:
            raise self._closed()
        return len(self._where)

    def close(self) -> None:
        """Idempotent; releases the directory's lock."""
        self._close_segments()
        if self._log_dir >= 0:
            os.close(self._log_dir)
            self._log_dir = -1
        if self._slab >= 0:
            os.close(self._slab)
            self._slab = -1

    # -- internals ------------------------------------------------------

    def _closed(self) -> RuntimeError:
        return RuntimeError(f"the store of {self.directory} is closed")

    def _close_segments(self) -> None:
        while self._segments:
            os.close(self._segments.pop().fd)

    def _probed(self, op: str, nbytes: Optional[int], impl, *args):
        """Run ``impl(*args)`` and report its wall time to the probe.
        ``nbytes=None`` reports the size of the value a ``get`` found."""
        t0 = time.monotonic_ns()
        result = impl(*args)
        t1 = time.monotonic_ns()
        if nbytes is None:
            nbytes = len(result) if result is not None else 0
        self.probe(op, t0, t1, nbytes)
        return result

    def _admit(self, entry_id: int, fd: int, at: int, length: int,
               tenant: str, key: str, flags: int, size: int,
               slot: Optional[int]) -> None:
        """Keep a live entry whose PUT frame lies at ``at`` of ``fd``, and
        claim its run."""
        self._where[entry_id] = StoredEntry(entry_id, tenant, key, flags,
                                            size, slot, fd, at, length)
        if slot is not None:
            self._map.claim(slot, slots_of(size))
        self._live_bytes += length
        account = self._tenants.get(tenant)
        if account is None:
            account = self._tenants[tenant] = [0, 0]
        account[0] += 1
        account[1] += size

    def _release(self, ids: Sequence[int]) -> int:
        """Forget entries a frame has retired and free their runs;
        returns the bytes of their PUT frames."""
        retired = 0
        before = len(self._map.used)
        for entry_id in ids:
            entry = self._where.pop(entry_id, None)
            if entry is None:
                continue
            retired += entry.length
            account = self._tenants[entry.tenant]
            account[0] -= 1
            account[1] -= entry.size
            if entry.slot is not None:
                self._map.release(entry.slot, slots_of(entry.size))
        self._live_bytes -= retired
        if len(self._map.used) < before:
            self._cut_back()
        return retired

    def _cut_back(self) -> None:
        """Truncate the slab to the map's span.  Never lengthen it: bytes
        a record claims that are not there must read short, not as zeros."""
        span = len(self._map.used) * SLOT_BYTES
        if os.fstat(self._slab).st_size > span:
            os.ftruncate(self._slab, span)

    # -- the journal ----------------------------------------------------

    def _lease_frame(self, high_water: int) -> bytes:
        return _frame(_LEASE_FRAME.pack(_KIND_LEASE, LAYOUT_VERSION,
                                        high_water))

    def _append(self, frames: bytes) -> Tuple[int, int]:
        """Append whole frames to the active segment with one ``write``
        (and sync them); returns the segment's descriptor and where they
        begin."""
        segment = self._segments[-1]
        if segment.size >= SEGMENT_BYTES:
            segment = self._roll()
        at = segment.size
        if at == 0:  # every segment opens with the lease
            opening = self._lease_frame(self._leased - 1)
            at, frames = len(opening), opening + frames
        written = os.write(segment.fd, frames)
        if written != len(frames):
            os.ftruncate(segment.fd, segment.size)  # no half frame mid-log
            raise OSError(errno.ENOSPC, f"short write to {segment.path}")
        segment.size += written
        self._log_bytes += written
        if self._sync_writes:
            os.fsync(segment.fd)
        return segment.fd, at

    def _roll(self) -> _Segment:
        """Seal the active segment and begin the next, whose directory
        entry is durable before it is written."""
        seq = self._segments[-1].seq + 1 if self._segments else 1
        path = os.path.join(self.directory, "log", f"{seq}.seg")
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL,
                     0o644)
        segment = _Segment(seq, path, fd, 0)
        self._segments.append(segment)
        if self._sync_writes:
            os.fsync(self._log_dir)
        return segment

    def _reclaim(self, touched: int) -> None:
        """Pay for the ``touched`` bytes an operation appended or retired:
        while the journal is over its trigger, examine
        ``_RECLAIM_RATE * touched`` bytes of the oldest segment, append
        its live PUT frames again, and unlink it when none is left."""
        credit = _RECLAIM_RATE * touched
        where = self._where
        while (credit > 0 and len(self._segments) > 1 and self._log_bytes
               > self._live_bytes * 3 // 2 + 2 * SEGMENT_BYTES):
            oldest = self._segments[0]
            if self._scan is None:  # sealed: whole frames, each verified
                self._scan = os.pread(oldest.fd, oldest.size, 0)
            data, at = self._scan, self._cursor
            upto = min(len(data), at + credit)
            live: List[Tuple[int, int, int]] = []  # id, frame offset, length
            while at < upto:
                length = _HEAD.size + _HEAD.unpack_from(data, at)[0]
                if data[at + _HEAD.size] == _KIND_PUT:
                    entry_id = _PUT.unpack_from(data, at + _HEAD.size)[1]
                    entry = where.get(entry_id)
                    if (entry is not None and entry.fd == oldest.fd
                            and entry.at == at):
                        live.append((entry_id, at, length))
                at += length
            if live:
                fd, to = self._append(
                    b"".join([data[start:start + length]
                              for _, start, length in live]))
                for entry_id, _, length in live:
                    where[entry_id] = where[entry_id]._replace(fd=fd, at=to)
                    to += length
            credit -= at - self._cursor
            self._cursor = at
            if at >= len(data):
                self._retire_oldest()

    def _retire_oldest(self) -> None:
        """Unlink the oldest segment, every live frame of which has been
        copied (and the copy synced).  The unlink is synced before the
        next segment's turn: a power cut may bring a segment back only
        while everything newer is still there to cancel it."""
        oldest = self._segments.pop(0)
        os.close(oldest.fd)
        os.unlink(oldest.path)
        if self._sync_writes:
            os.fsync(self._log_dir)
        self._log_bytes -= oldest.size
        self._scan, self._cursor = None, 0
