"""Content-keyed pass-result cache, optionally spilled to disk.

Repeated flows — parameter sweeps, shell re-runs, regenerating the
same Q# oracle — re-execute identical (pass, input) pairs.  The cache
keys each pass result by the pass name, its parameter signature, and a
content fingerprint of the store fields it reads
(:func:`~.state.state_key`), so a second identical invocation replays
the stored outputs instead of recomputing them.

Values are stored and handed out by reference, never copied: the
pipeline freezes every pass output at the pass boundary, so a circuit
a caller receives raises
:class:`~repro.core.circuit.FrozenCircuitError` on mutation instead of
corrupting the entry (``copy()`` gives an editable builder), and
routing results and statistics are frozen dataclasses.  Entries
decoded from disk come back frozen too.  All operations take an
internal lock, so one cache may back the batched compilations of a
:class:`~repro.compiler.session.CompilerSession` thread pool.

With ``PassCache(path=...)`` entries are additionally written to disk
as content-named JSON files and reloaded on a memory miss, so a cache
rooted at the same path persists across processes and sessions.  Only
values with a registered JSON codec spill (circuits, specifications,
routing results, statistics); entries carrying opaque artifacts stay
memory-only.

The disk tier grows until swept: :meth:`PassCache.gc` is its one
eviction path (the CLI's ``python -m repro cache gc`` calls it), an
LRU sweep down to the budgets passed to that call, ordered by each
entry file's access stamp (its mtime, touched on every disk hit).
Entries are generation-stamped and written atomically
(``os.replace``), so concurrent writers can never produce a torn
read.  A sweep may evict an entry another flow is about to read; that
flow misses and recomputes, never reads a corrupt entry.

The disk tier is also *resilient* (PR 6): transient I/O errors are
retried per :data:`DISK_RETRY` and counted (``io_errors`` with a
memory/disk split in :meth:`PassCache.stats`) instead of silently
swallowed; corrupt or foreign-format entry files are moved into
``<dir>/quarantine/`` under their original names, never re-read and
never silently deleted; and after :data:`DEFAULT_DEGRADE_AFTER`
*consecutive* disk failures the tier trips into memory-only degraded
mode — compiles keep working off the memory tier, the flag shows up
in ``stats()``, and :meth:`PassCache.probe` recovers the tier once
the disk heals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import re
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable
from ..core.circuit import QuantumCircuit
from ..core.statistics import CircuitStatistics
from ..mapping.routing import RoutingResult
from ..resilience.errors import DegradedCache
from ..resilience.faults import fault_point, mutate_payload
from ..resilience.policies import RetryPolicy
from ..synthesis.reversible import MctGate, ReversibleCircuit

#: Default number of entries a cache retains (LRU eviction).
DEFAULT_MAXSIZE = 512

#: Retry policy for transient disk I/O, read at each operation: three
#: quick attempts with millisecond backoff — enough to ride out a
#: transient EIO or a busy file, cheap enough that a genuinely dead
#: disk fails fast.
DISK_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay=0.002,
    multiplier=4.0,
    max_delay=0.05,
    jitter=0.25,
    seed=0,
)

#: Consecutive disk failures before a tier trips into memory-only
#: degraded mode (read when each failure is counted).
DEFAULT_DEGRADE_AFTER = 5

#: Subdirectory (under the cache path) corrupt entries are moved to.
QUARANTINE_DIR = "quarantine"

#: On-disk entry format version; bumped when the schema changes.
#: Version 2 added the generation stamp (``gen``) written by every
#: spill, so readers can tell two atomic rewrites of one key apart;
#: version 3 dropped a routing result's ``initial_layout`` (always the
#: identity, now derived from the final layout).
DISK_FORMAT = 3

#: Names of the entry files the disk tier owns (sha256 hex + .json);
#: ``clear(disk=True)`` and :meth:`PassCache.gc` touch only these.
_ENTRY_FILE_RE = re.compile(r"[0-9a-f]{64}\.json")

#: Spill temp files older than this many seconds are presumed leaked
#: (a crashed writer) and removed by :meth:`PassCache.gc`.
_STALE_TMP_SECONDS = 300.0

#: Per-process monotonic generation counter for disk entry stamps.
_GENERATION = itertools.count(1)


# ----------------------------------------------------------------------
# JSON codec for disk spilling
# ----------------------------------------------------------------------
class _Unspillable(Exception):
    """Internal: the value has no JSON codec (entry stays in memory)."""


def _encode(value: Any) -> Any:
    """Encode one store value as a type-tagged JSON structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, QuantumCircuit):
        return {
            "__t__": "qc",
            "name": value.name,
            "nq": value.num_qubits,
            "nc": value.num_clbits,
            "gates": [
                [
                    g.name,
                    list(g.targets),
                    list(g.controls),
                    list(g.params),
                    list(g.cbits),
                ]
                for g in value.gates
            ],
        }
    if isinstance(value, ReversibleCircuit):
        return {
            "__t__": "rev",
            "name": value.name,
            "lines": value.num_lines,
            "gates": [
                [g.target, list(g.controls), list(g.polarity)]
                for g in value.gates
            ],
        }
    if isinstance(value, TruthTable):
        return {"__t__": "tt", "n": value.num_vars, "bits": value.bits}
    if isinstance(value, BitPermutation):
        return {"__t__": "perm", "image": list(value.image)}
    if isinstance(value, RoutingResult):
        return {
            "__t__": "route",
            "circuit": _encode(value.circuit),
            "final_layout": list(value.final_layout),
            "swap_count": value.swap_count,
            "position_of": list(value.position_of),
        }
    if isinstance(value, CircuitStatistics):
        return {"__t__": "stats", **dataclasses.asdict(value)}
    if isinstance(value, (list, tuple)):
        return {
            "__t__": "list" if isinstance(value, list) else "tuple",
            "items": [_encode(v) for v in value],
        }
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise _Unspillable(f"non-string dict key in {value!r}")
        return {
            "__t__": "dict",
            "items": {k: _encode(v) for k, v in value.items()},
        }
    raise _Unspillable(f"no JSON codec for {type(value).__name__}")


def _decode(value: Any) -> Any:
    """Decode a type-tagged JSON structure back into store values."""
    if not isinstance(value, dict):
        return value
    tag = value.get("__t__")
    if tag == "qc":
        circuit = QuantumCircuit(value["nq"], value["nc"], name=value["name"])
        for name, targets, controls, params, cbits in value["gates"]:
            circuit._add(
                name,
                tuple(targets),
                tuple(controls),
                tuple(params),
                tuple(cbits),
            )
        return circuit.freeze()
    if tag == "rev":
        circuit = ReversibleCircuit(value["lines"], name=value["name"])
        for target, controls, polarity in value["gates"]:
            circuit.append(
                MctGate(target, tuple(controls), tuple(polarity))
            )
        return circuit.freeze()
    if tag == "tt":
        return TruthTable(value["n"], value["bits"])
    if tag == "perm":
        return BitPermutation(value["image"])
    if tag == "route":
        return RoutingResult(
            circuit=_decode(value["circuit"]),
            final_layout=tuple(value["final_layout"]),
            swap_count=value["swap_count"],
            position_of=tuple(value["position_of"]),
        )
    if tag == "stats":
        fields = {k: v for k, v in value.items() if k != "__t__"}
        return CircuitStatistics(**fields)
    if tag == "list":
        return [_decode(v) for v in value["items"]]
    if tag == "tuple":
        return tuple(_decode(v) for v in value["items"])
    if tag == "dict":
        return {k: _decode(v) for k, v in value["items"].items()}
    return value


class PassCache:
    """Locked LRU cache mapping content keys to pass outputs.

    Args:
        maxsize: in-memory entry cap; the least recently used entry is
            evicted first.  ``None`` disables eviction.
        path: optional directory for the persistent tier; entries with
            JSON-codable values are written there and reloaded on a
            memory miss, including from other processes.  The tier is
            unbounded until :meth:`gc` sweeps it.

    Raises:
        ValueError: ``maxsize`` is neither ``None`` nor at least 1.
    """

    def __init__(
        self,
        maxsize: Optional[int] = DEFAULT_MAXSIZE,
        path: Optional[str] = None,
    ) -> None:
        """Create an empty cache with the given capacity and tier."""
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be None or >= 1, not {maxsize!r}")
        self.maxsize = maxsize
        self.path = os.fspath(path) if path is not None else None
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.memory_evictions = 0
        self.disk_evictions = 0
        self.io_errors = 0
        self.memory_io_errors = 0
        self.disk_io_errors = 0
        self.retries = 0
        self.quarantined = 0
        self._consecutive_io_errors = 0
        self._degraded = False
        self._lock = threading.RLock()
        self._entries: (
            "OrderedDict[str, Tuple[Dict[str, Any], Dict[str, Any], bool]]"
        )
        self._entries = OrderedDict()
        # key -> (completion event, owning thread ident): the
        # single-flight registry Pipeline.apply uses so concurrent
        # flows computing the same key run it once
        self._inflight: Dict[str, Tuple[threading.Event, int]] = {}
        # keys this process knows to have an entry file (spilled or
        # loaded): gates the LRU access stamp so memory hits on
        # never-spilled entries skip a guaranteed-failing utime
        self._spilled: set = set()

    def __len__(self) -> int:
        """Return the number of in-memory entries."""
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # single-flight (in-flight entry lifecycle)
    # ------------------------------------------------------------------
    def begin_compute(
        self, key: str
    ) -> Tuple[str, Optional[threading.Event]]:
        """Claim (or observe) the in-flight computation of ``key``.

        The caller must pair a ``"leader"`` claim with
        :meth:`end_compute` (use ``try/finally``).  A follower that
        finds the entry evicted when it re-reads recomputes it.

        Returns:
            ``("leader", event)`` — this caller should compute and
            store the entry; ``("follower", event)`` — another thread
            is computing it, wait on the event and re-read the cache;
            ``("reentrant", None)`` — this thread is already the
            leader for the key (a nested flow), compute directly
            without waiting to avoid self-deadlock.
        """
        me = threading.get_ident()
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is None:
                event = threading.Event()
                self._inflight[key] = (event, me)
                return "leader", event
            event, owner = inflight
            if owner == me:
                return "reentrant", None
            return "follower", event

    def end_compute(self, key: str) -> None:
        """Release a ``"leader"`` claim and wake the key's followers."""
        with self._lock:
            inflight = self._inflight.pop(key, None)
        if inflight is not None:
            inflight[0].set()

    # ------------------------------------------------------------------
    # disk-tier resilience
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the disk tier is in memory-only degraded mode."""
        return self._degraded

    def _record_disk_error(self, site: str, advisory: bool = False) -> None:
        """Count one I/O failure; data-path ones advance degradation.

        Advisory failures (LRU access-stamp touches serving the memory
        tier's bookkeeping) count under the memory split and never
        trip degraded mode — losing a stamp costs eviction precision,
        not data.
        """
        with self._lock:
            self.io_errors += 1
            if advisory:
                self.memory_io_errors += 1
                return
            self.disk_io_errors += 1
            self._consecutive_io_errors += 1
            if self._consecutive_io_errors >= DEFAULT_DEGRADE_AFTER:
                self._degraded = True

    def _disk_io(self, operation, site: str):
        """Run one disk operation under :data:`DISK_RETRY`.

        Transient failures (``RetryPolicy.is_transient``) are retried
        with backoff; the final failure is counted against the tier —
        advancing degradation — and re-raised for the caller to turn
        into its own fallback (skip the spill, miss the load).  Any
        success resets the consecutive-failure streak.
        """
        policy = DISK_RETRY
        attempt = 0
        while True:
            try:
                result = operation()
            except OSError as exc:
                if (
                    attempt + 1 < policy.max_attempts
                    and policy.is_transient(exc)
                ):
                    with self._lock:
                        self.retries += 1
                    time.sleep(policy.backoff(attempt))
                    attempt += 1
                    continue
                self._record_disk_error(site)
                raise
            with self._lock:
                self._consecutive_io_errors = 0
            return result

    def _quarantine(
        self, entry_path: str, key: Optional[str] = None
    ) -> Optional[bool]:
        """Move one corrupt entry file into ``quarantine/``.

        The file keeps its original name, so an operator can inspect
        (or replay) exactly what was rejected; quarantined files are
        outside the content-addressed namespace and can never
        resurrect into either tier.

        Returns:
            ``True`` when moved (or, failing that, dropped), ``None``
            when the file was already gone, ``False`` when it could
            not even be removed.
        """
        name = os.path.basename(entry_path)
        quarantine_dir = os.path.join(self.path, QUARANTINE_DIR)
        with self._lock:
            try:
                os.makedirs(quarantine_dir, exist_ok=True)
                os.replace(
                    entry_path, os.path.join(quarantine_dir, name)
                )
            except FileNotFoundError:
                return None
            except OSError:
                # cannot move it aside — drop it rather than leave a
                # corrupt file in place to be re-read forever
                try:
                    os.unlink(entry_path)
                except FileNotFoundError:
                    return None
                except OSError:
                    self._record_disk_error("cache.quarantine")
                    return False
            self.quarantined += 1
            if key is not None:
                self._spilled.discard(key)
            return True

    def probe(self, strict: bool = False) -> bool:
        """Test the disk tier; recover from degraded mode on success.

        Writes, reads back, and removes one probe file under the cache
        path.  A full round trip clears the degraded flag and the
        consecutive-failure streak, so spills and loads resume.

        Args:
            strict: raise :class:`~repro.resilience.DegradedCache`
                on failure instead of returning ``False``.

        Returns:
            ``True`` when the disk tier is usable (memory-only caches
            trivially are), ``False`` otherwise.

        Raises:
            DegradedCache: on failure when ``strict`` is set.
        """
        if self.path is None:
            return True
        probe_path = os.path.join(
            self.path,
            f".probe.{os.getpid()}.{threading.get_ident()}",
        )
        try:
            with open(probe_path, "w") as stream:
                stream.write("probe")
            with open(probe_path) as stream:
                echoed = stream.read()
            os.unlink(probe_path)
            if echoed != "probe":
                raise OSError(f"probe read back {echoed!r}")
        except OSError as exc:
            self._record_disk_error("cache.probe")
            if strict:
                raise DegradedCache(
                    f"cache.probe: disk tier at {self.path!r} "
                    f"unusable: {exc}",
                    site="cache.probe",
                ) from exc
            return False
        with self._lock:
            self._degraded = False
            self._consecutive_io_errors = 0
        return True

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        """Return the spill file path for a content key."""
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.path, f"{digest}.json")

    def _spill(
        self,
        key: str,
        entry: Tuple[Dict[str, Any], Dict[str, Any], bool],
    ) -> None:
        """Write one entry to the disk tier (best effort)."""
        if self._degraded:
            return  # memory-only mode: skip the disk until probe()
        outputs, details, verified = entry
        try:
            payload = json.dumps(
                {
                    "format": DISK_FORMAT,
                    "key": key,
                    "gen": [os.getpid(), next(_GENERATION)],
                    "verified": verified,
                    "outputs": {k: _encode(v) for k, v in outputs.items()},
                    "details": {k: _encode(v) for k, v in details.items()},
                }
            )
        except (_Unspillable, TypeError, ValueError):
            return
        target = self._entry_path(key)
        # the generation stamp plus the atomic os.replace make
        # concurrent writers safe: readers see either the old or the
        # new complete entry, never a torn mix of the two
        tmp = f"{target}.tmp.{os.getpid()}.{threading.get_ident()}"

        def write() -> None:
            """Write the payload to the temp file.

            One injection visit per attempt: a raise-spec becomes a
            (retried) I/O error, a torn-spec truncates the payload
            exactly as an interrupted write would.
            """
            data = mutate_payload("cache.spill.write", payload)
            with open(tmp, "w") as stream:
                stream.write(data)

        try:
            self._disk_io(write, "cache.spill.write")
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        try:
            os.replace(tmp, target)
        except OSError:
            self._record_disk_error("cache.spill.write")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        with self._lock:
            self._spilled.add(key)

    def _load(
        self, key: str
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any], bool]]:
        """Read one entry back from the disk tier, if present."""
        if self._degraded:
            return None  # memory-only mode: miss without touching disk
        entry_path = self._entry_path(key)

        def read() -> Optional[str]:
            """Read the entry file text (``None`` on a plain miss)."""
            fault_point("cache.load.read")
            try:
                with open(entry_path) as stream:
                    return stream.read()
            except FileNotFoundError:
                return None  # a plain miss, not an I/O failure

        try:
            text = self._disk_io(read, "cache.load.read")
        except OSError:
            return None
        if text is None:
            return None
        try:
            payload = json.loads(text)
            if (
                payload.get("format") != DISK_FORMAT
                or payload.get("key") != key
            ):
                self._quarantine(entry_path, key)
                return None
            entry = (
                {k: _decode(v) for k, v in payload["outputs"].items()},
                {k: _decode(v) for k, v in payload["details"].items()},
                bool(payload.get("verified", False)),
            )
        except (ValueError, KeyError, TypeError, AttributeError):
            # torn write or foreign file: move it aside, never re-read
            self._quarantine(entry_path, key)
            return None
        try:
            # bump the LRU access stamp gc() orders evictions by
            os.utime(entry_path, None)
        except FileNotFoundError:
            pass  # concurrently evicted — not an error
        except OSError:
            self._record_disk_error("cache.load.touch", advisory=True)
        return entry

    # ------------------------------------------------------------------
    def get(
        self, key: str, count_miss: bool = True
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any], bool]]:
        """Look up ``key`` and return ``(outputs, details, verified)``.

        Args:
            key: content key built by the pipeline.
            count_miss: whether a miss bumps the ``misses`` counter.
                The pipeline's first probe passes ``False`` and
                accounts the miss itself once it knows whether the
                lookup ends in a computation or in a single-flight
                replay — otherwise every replayed follower would log
                one spurious miss per wait.

        Returns:
            The stored output values themselves (frozen and shared by
            reference, in a fresh dict), the recorded pass statistics,
            and whether the entry has already passed functional
            verification — or ``None`` on a miss in both tiers.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                on_disk = key in self._spilled
        if (
            entry is not None
            and self.path is not None
            and on_disk
            and not self._degraded
        ):
            # keep the disk LRU stamp in sync with memory-tier reuse,
            # or gc would evict the hottest shared-prefix entries
            # first (their files would never look recently used)
            try:
                os.utime(self._entry_path(key), None)
            except OSError as exc:
                # the file was evicted (gc/other process): forget it,
                # so later hits stop paying a guaranteed-failing touch
                if not isinstance(exc, FileNotFoundError):
                    self._record_disk_error(
                        "cache.get.touch", advisory=True
                    )
                with self._lock:
                    self._spilled.discard(key)
        if entry is None and self.path is not None:
            # file I/O happens outside the lock; insertion re-checks
            loaded = self._load(key)
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self.hits += 1
                elif loaded is not None:
                    entry = loaded
                    self.disk_hits += 1
                    self.hits += 1
                    self._spilled.add(key)
                    try:
                        self._store(key, entry)
                    except OSError:
                        # injected memory-tier failure: the caller
                        # still gets the entry, it just is not cached
                        self.io_errors += 1
                        self.memory_io_errors += 1
        if entry is None:
            if count_miss:
                with self._lock:
                    self.misses += 1
            return None
        # entry tuples are replaced wholesale, never mutated in place;
        # the stored values are frozen, so they are handed out shared
        outputs, details, verified = entry
        return dict(outputs), dict(details), verified

    def count_miss(self) -> None:
        """Record one cache miss (see ``get(count_miss=False)``)."""
        with self._lock:
            self.misses += 1

    def _store(
        self,
        key: str,
        entry: Tuple[Dict[str, Any], Dict[str, Any], bool],
    ) -> None:
        """Insert an entry into the memory tier and apply the LRU cap."""
        fault_point("cache.store")
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if self.maxsize is not None:
            # maxsize >= 1, so the entry just inserted is never evicted
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.memory_evictions += 1

    def put(
        self,
        key: str,
        outputs: Dict[str, Any],
        details: Dict[str, Any],
        verified: bool = False,
    ) -> None:
        """Store pass outputs under ``key`` (both tiers).

        Args:
            key: content key built by the pipeline.
            outputs: store-field values the pass wrote.
            details: the pass's statistics dict for replayed records.
            verified: whether the outputs passed functional
                verification before being stored.
        """
        entry = (dict(outputs), dict(details), verified)
        try:
            with self._lock:
                self._store(key, entry)
        except OSError:
            # injected memory-tier failure: the insert is best effort,
            # the computed result the caller holds is unaffected
            with self._lock:
                self.io_errors += 1
                self.memory_io_errors += 1
            return
        if self.path is not None:
            # the spill encodes from this call's private entry tuple,
            # so serializing outside the lock races with nothing
            self._spill(key, entry)

    def mark_verified(self, key: str) -> None:
        """Flag an existing entry as functionally verified."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry = (entry[0], entry[1], True)
                self._entries[key] = entry
        if entry is not None and self.path is not None:
            self._spill(key, entry)

    def drop(self, key: str) -> None:
        """Remove one entry (e.g. after it failed verification)."""
        with self._lock:
            self._entries.pop(key, None)
            if self.path is not None:
                self._spilled.discard(key)
                try:
                    os.unlink(self._entry_path(key))
                except FileNotFoundError:
                    pass  # never spilled or already evicted
                except OSError:
                    self._record_disk_error("cache.drop.unlink")

    def clear(self, disk: bool = False) -> None:
        """Drop all in-memory entries and reset the counters.

        Args:
            disk: also delete the persistent tier's entry files (only
                content-named ``<sha256>.json`` files this cache
                owns — other files in the directory are untouched).
        """
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.memory_evictions = 0
            self.disk_evictions = 0
            self.io_errors = 0
            self.memory_io_errors = 0
            self.disk_io_errors = 0
            self.retries = 0
            self.quarantined = 0
            self._consecutive_io_errors = 0
            self._degraded = False
            if disk and self.path is not None:
                for name in os.listdir(self.path):
                    if _ENTRY_FILE_RE.fullmatch(name):
                        try:
                            os.unlink(os.path.join(self.path, name))
                        except OSError:
                            pass
                self._spilled.clear()

    # ------------------------------------------------------------------
    # disk-tier lifecycle
    # ------------------------------------------------------------------
    def _scan_disk(self) -> List[Tuple[str, str, float, int]]:
        """List disk entries as ``(name, path, atime_stamp, size)``."""
        if self.path is None:
            return []
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        entries = []
        for name in names:
            if not _ENTRY_FILE_RE.fullmatch(name):
                continue
            entry_path = os.path.join(self.path, name)
            try:
                status = os.stat(entry_path)
            except OSError:
                continue  # concurrently evicted — not an error
            entries.append(
                (name, entry_path, status.st_mtime, status.st_size)
            )
        return entries

    def disk_usage(self) -> Tuple[int, int]:
        """Return the disk tier's ``(entries, bytes)`` from one scan.

        ``(0, 0)`` for a memory-only cache.  This walks the directory,
        so call it for maintenance (the CLI's ``cache stats``), not
        per compilation — :meth:`stats` never touches the disk.
        """
        entries = self._scan_disk()
        return len(entries), sum(item[3] for item in entries)

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        validate: bool = False,
    ) -> Dict[str, int]:
        """Sweep the disk tier down to this call's budgets (LRU order).

        The only path that evicts entry files.  Entries are evicted
        oldest-access-stamp first until both the entry and the byte
        budget hold; ``None`` leaves that dimension unbounded.  An
        entry another flow is computing or about to re-read may go
        too: that flow misses and recomputes.  Leaked spill temp
        files older than five minutes are removed as well.

        Args:
            max_entries: entry budget (``>= 0``) for this sweep.
            max_bytes: byte budget (``>= 0``) for this sweep.
            validate: additionally parse every entry file and move the
                corrupt or foreign-format ones into ``quarantine/``
                (CLI maintenance mode); quarantined files count as
                evicted and additionally under ``quarantined``.

        Returns:
            A dict with ``scanned``, ``evicted``, ``quarantined`` and
            the surviving ``entries``/``bytes``.

        Raises:
            ValueError: a budget is negative.
        """
        for flag, budget in (
            ("max_entries", max_entries), ("max_bytes", max_bytes)
        ):
            if budget is not None and budget < 0:
                raise ValueError(f"{flag} must be >= 0, not {budget!r}")
        if self.path is None:
            return {
                "scanned": 0,
                "evicted": 0,
                "quarantined": 0,
                "entries": 0,
                "bytes": 0,
            }
        try:
            fault_point("cache.gc.scan")
        except OSError:
            # a failed directory scan aborts the sweep (exactly as a
            # failing os.listdir does): nothing evicted, tier intact
            self._record_disk_error("cache.gc.scan")
            return {
                "scanned": 0,
                "evicted": 0,
                "quarantined": 0,
                "entries": 0,
                "bytes": 0,
            }
        now = time.time()
        try:
            for name in os.listdir(self.path):
                if ".json.tmp." not in name:
                    continue
                stale = os.path.join(self.path, name)
                try:
                    if now - os.stat(stale).st_mtime > _STALE_TMP_SECONDS:
                        os.unlink(stale)
                except OSError:
                    pass
        except OSError:
            pass
        entries = self._scan_disk()
        scanned = len(entries)
        evicted = 0
        quarantined = 0
        if validate:
            survivors = []
            for name, entry_path, stamp, size in entries:
                try:
                    with open(entry_path) as stream:
                        payload = json.load(stream)
                    generation = payload.get("gen")
                    valid = (
                        payload.get("format") == DISK_FORMAT
                        and "key" in payload
                        and "outputs" in payload
                        and isinstance(generation, list)
                        and len(generation) == 2
                    )
                except (OSError, ValueError):
                    valid = False
                if valid:
                    survivors.append((name, entry_path, stamp, size))
                    continue
                # corrupt entries are quarantined, not deleted
                moved = self._quarantine(entry_path)
                if moved:
                    evicted += 1
                    quarantined += 1
                elif moved is False:  # could not even be removed
                    survivors.append((name, entry_path, stamp, size))
            entries = survivors
        entries.sort(key=lambda item: item[2])  # oldest access first
        total_entries = len(entries)
        total_bytes = sum(item[3] for item in entries)
        for _name, entry_path, _stamp, size in entries:
            over_budget = (
                max_entries is not None and total_entries > max_entries
            ) or (max_bytes is not None and total_bytes > max_bytes)
            if not over_budget:
                break
            try:
                fault_point("cache.gc.unlink")
                os.unlink(entry_path)
            except FileNotFoundError:
                pass  # another process evicted it first
            except OSError:
                self._record_disk_error("cache.gc.unlink")
            else:
                evicted += 1
            total_entries -= 1
            total_bytes -= size
        with self._lock:
            self.disk_evictions += evicted
        return {
            "scanned": scanned,
            "evicted": evicted,
            "quarantined": quarantined,
            "entries": total_entries,
            "bytes": total_bytes,
        }

    def stats(self) -> Dict[str, int]:
        """Return the cache's counters; never touches the disk.

        Returns:
            A dict with the in-memory ``entries``, the ``hits`` /
            ``misses`` / ``disk_hits`` counters, the total
            ``evictions`` (memory LRU plus disk gc, with the
            ``memory_evictions`` / ``disk_evictions`` split), and the
            resilience counters — total ``io_errors`` with the
            ``memory_io_errors`` / ``disk_io_errors`` split, I/O
            ``retries``, ``quarantined`` entries, and ``degraded``
            (1 while the tier is memory-only).  The disk tier's size
            comes from :meth:`disk_usage`.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "evictions": self.memory_evictions + self.disk_evictions,
                "memory_evictions": self.memory_evictions,
                "disk_evictions": self.disk_evictions,
                "io_errors": self.io_errors,
                "memory_io_errors": self.memory_io_errors,
                "disk_io_errors": self.disk_io_errors,
                "retries": self.retries,
                "quarantined": self.quarantined,
                "degraded": int(self._degraded),
            }


_SHARED: Optional[PassCache] = None


def shared_cache() -> PassCache:
    """Return the process-wide cache shared by default pipelines."""
    global _SHARED
    if _SHARED is None:
        _SHARED = PassCache()
    return _SHARED
