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

The disk tier has a bounded lifecycle: ``max_entries``/``max_bytes``
budgets trigger an LRU sweep (:meth:`PassCache.gc`) ordered by each
entry file's access stamp (its mtime, touched on every disk hit).
Entries are generation-stamped and written atomically
(``os.replace``), so concurrent writers can never produce a torn
read; in-flight entries — pinned via :meth:`PassCache.pin` while a
pipeline is computing or replaying them — are never evicted by this
instance's own sweeps.  Pins live in the instance, so a sweep run by
a different instance or process (e.g. ``python -m repro cache gc``)
cannot see them; crossing that line costs a recompute, never
corruption.

The disk tier is also *resilient* (PR 6): transient I/O errors are
retried per a :class:`~repro.resilience.RetryPolicy` and counted
(``io_errors`` with a memory/disk split in :meth:`PassCache.stats`)
instead of silently swallowed; corrupt or foreign-format entry files
are moved into ``<dir>/quarantine/`` under their original names,
never re-read and never silently deleted; and after ``degrade_after``
*consecutive* disk failures the tier trips into memory-only degraded
mode — compiles keep working off the memory tier, the flag shows up
in ``stats()``/``counters()``, and :meth:`PassCache.probe` recovers
the tier once the disk heals.
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
from typing import Any, Dict, List, Optional, Tuple, Union

from ..boolean.permutation import BitPermutation
from ..boolean.truth_table import TruthTable
from ..core.circuit import QuantumCircuit
from ..core.statistics import CircuitStatistics
from ..mapping.routing import RoutingResult
from ..resilience.errors import DegradedCache
from ..resilience.faults import fault_point, mutate_payload
from ..resilience.policies import RetryPolicy, as_retry
from ..synthesis.reversible import MctGate, ReversibleCircuit

#: Default number of entries a cache retains (LRU eviction).
DEFAULT_MAXSIZE = 512

#: Default retry policy for transient disk I/O: three quick attempts
#: with millisecond backoff — enough to ride out a transient EIO or a
#: busy file, cheap enough that a genuinely dead disk fails fast.
DISK_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay=0.002,
    multiplier=4.0,
    max_delay=0.05,
    jitter=0.25,
    seed=0,
)

#: Consecutive disk failures before a tier trips into memory-only
#: degraded mode (``degrade_after``'s default).
DEFAULT_DEGRADE_AFTER = 5

#: Subdirectory (under the cache path) corrupt entries are moved to.
QUARANTINE_DIR = "quarantine"

#: On-disk entry format version; bumped when the schema changes.
#: Version 2 added the generation stamp (``gen``) written by every
#: spill, so readers can tell two atomic rewrites of one key apart.
DISK_FORMAT = 2

#: Names of the entry files the disk tier owns (sha256 hex + .json);
#: ``clear(disk=True)`` and :meth:`PassCache.gc` touch only these.
_ENTRY_FILE_RE = re.compile(r"[0-9a-f]{64}\.json")

#: Spill temp files older than this many seconds are presumed leaked
#: (a crashed writer) and removed by :meth:`PassCache.gc`.
_STALE_TMP_SECONDS = 300.0

#: Per-process monotonic generation counter for disk entry stamps.
_GENERATION = itertools.count(1)


def _slack(budget: Optional[int]) -> Optional[int]:
    """Return ~75% of a budget — the auto-gc hysteresis target."""
    if budget is None:
        return None
    return max(budget - max(1, budget // 4), 0)


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
            "initial_layout": list(value.initial_layout),
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
            initial_layout=tuple(value["initial_layout"]),
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
            memory miss, including from other processes.
        max_entries: disk-tier entry budget; a spill that pushes the
            running tally past it triggers an LRU :meth:`gc` sweep.
            ``None`` leaves the tier unbounded.
        max_bytes: disk-tier byte budget, enforced like
            ``max_entries``.
        retry: retry policy for transient disk I/O — a
            :class:`~repro.resilience.RetryPolicy`, an int (attempt
            count), ``None`` (no retries), or ``"default"`` for
            :data:`DISK_RETRY`.
        degrade_after: consecutive disk failures before the tier trips
            into memory-only degraded mode (recover via
            :meth:`probe`); ``None`` never degrades.
    """

    def __init__(
        self,
        maxsize: Optional[int] = DEFAULT_MAXSIZE,
        path: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        retry: Union[RetryPolicy, int, None, str] = "default",
        degrade_after: Optional[int] = DEFAULT_DEGRADE_AFTER,
    ) -> None:
        """Create an empty cache with the given capacity and tier."""
        self.maxsize = maxsize
        self.path = os.fspath(path) if path is not None else None
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        if isinstance(retry, str):
            if retry != "default":
                raise ValueError(f"unknown retry spec {retry!r}")
            self.retry: Optional[RetryPolicy] = DISK_RETRY
        else:
            self.retry = as_retry(retry)
        if degrade_after is not None and degrade_after < 1:
            raise ValueError("degrade_after must be positive or None")
        self.degrade_after = degrade_after
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
        # key -> pin count: pinned entries are never evicted by the
        # memory LRU cap or by gc() — they are in flight in a pipeline
        self._pins: Dict[str, int] = {}
        # entry-file basename -> pin count: the disk-tier view of the
        # same pins, maintained eagerly so gc's per-file check is an
        # O(1) lookup under the lock instead of hashing every pin
        self._pin_names: Dict[str, int] = {}
        # key -> (completion event, owning thread ident): the
        # single-flight registry Pipeline.apply uses so concurrent
        # flows computing the same key run it once
        self._inflight: Dict[str, Tuple[threading.Event, int]] = {}
        # this process's running (entries, bytes) view of the disk
        # tier, seeded lazily by one scan and resynced by every gc();
        # keeps budget checks and stats() off the listdir/stat path.
        # _tally_writes counts additive mutations (spills, drops) so
        # gc() can tell whether its unlocked directory scan went
        # stale; _tally_resets counts destructive ones (clear), which
        # additionally forbid installing a concurrently-taken seed.
        self._disk_tally: Optional[Tuple[int, int]] = None
        self._tally_writes = 0
        self._tally_resets = 0
        # keys this process knows to have an entry file (spilled or
        # loaded): gates the LRU access stamp so memory hits on
        # never-spilled entries skip a guaranteed-failing utime
        self._spilled: set = set()

    def __len__(self) -> int:
        """Return the number of in-memory entries."""
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # pinning and single-flight (in-flight entry lifecycle)
    # ------------------------------------------------------------------
    def _pin_locked(self, key: str) -> None:
        """Add one pin for ``key`` (caller holds the lock)."""
        self._pins[key] = self._pins.get(key, 0) + 1
        if self.path is not None:
            name = os.path.basename(self._entry_path(key))
            self._pin_names[name] = self._pin_names.get(name, 0) + 1

    def _unpin_locked(self, key: str) -> None:
        """Release one pin for ``key`` (caller holds the lock)."""
        count = self._pins.get(key, 0) - 1
        if count > 0:
            self._pins[key] = count
        else:
            self._pins.pop(key, None)
        if self.path is not None:
            name = os.path.basename(self._entry_path(key))
            count = self._pin_names.get(name, 0) - 1
            if count > 0:
                self._pin_names[name] = count
            else:
                self._pin_names.pop(name, None)

    def pin(self, key: str) -> None:
        """Protect ``key`` from eviction until :meth:`unpin`.

        Pins nest (a count per key); both the memory LRU cap and
        :meth:`gc` skip pinned entries.
        """
        with self._lock:
            self._pin_locked(key)

    def unpin(self, key: str) -> None:
        """Release one :meth:`pin` of ``key``."""
        with self._lock:
            self._unpin_locked(key)

    def pinned(self, key: str) -> bool:
        """Return whether ``key`` currently holds any pins."""
        with self._lock:
            return self._pins.get(key, 0) > 0

    def begin_compute(
        self, key: str
    ) -> Tuple[str, Optional[threading.Event]]:
        """Claim (or observe) the in-flight computation of ``key``.

        The caller must pair a ``"leader"`` claim with
        :meth:`end_compute` (use ``try/finally``); the entry stays
        pinned — safe from every eviction path — for the duration.

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
                self._pin_locked(key)
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
                self._unpin_locked(key)
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
            if (
                self.degrade_after is not None
                and not self._degraded
                and self._consecutive_io_errors >= self.degrade_after
            ):
                self._degraded = True

    def _disk_io(self, operation, site: str):
        """Run one disk operation under the tier's retry policy.

        Transient failures (per the policy's classifier) are retried
        with backoff; the final failure is counted against the tier —
        advancing degradation — and re-raised for the caller to turn
        into its own fallback (skip the spill, miss the load).  Any
        success resets the consecutive-failure streak.
        """
        policy = self.retry
        attempt = 0
        while True:
            try:
                result = operation()
            except OSError as exc:
                if (
                    policy is not None
                    and attempt + 1 < policy.max_attempts
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
                size = os.stat(entry_path).st_size
            except OSError:
                size = 0
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
            self._tally_writes += 1
            if self._disk_tally is not None:
                entries, total = self._disk_tally
                self._disk_tally = (
                    max(entries - 1, 0), max(total - size, 0)
                )
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

        def write() -> int:
            """Write the payload to the temp file; return its length.

            One injection visit per attempt: a raise-spec becomes a
            (retried) I/O error, a torn-spec truncates the payload
            exactly as an interrupted write would.
            """
            data = mutate_payload("cache.spill.write", payload)
            with open(tmp, "w") as stream:
                stream.write(data)
            return len(data)

        try:
            written = self._disk_io(write, "cache.spill.write")
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        # stat + replace + tally update are one locked step, so two
        # racing spills of the same new key cannot both see "no
        # previous file" and double-count the entry
        with self._lock:
            try:
                previous_size: Optional[int] = os.stat(target).st_size
            except OSError:
                previous_size = None
            try:
                os.replace(tmp, target)
            except OSError:
                replaced = False
            else:
                replaced = True
                self._spilled.add(key)
                # bump unconditionally: gc()/_disk_usage() use this to
                # detect spills landing during their unlocked scans
                # even while the tally itself is still unseeded
                self._tally_writes += 1
                if self._disk_tally is not None:
                    entries, size = self._disk_tally
                    self._disk_tally = (
                        entries + (previous_size is None),
                        size + written - (previous_size or 0),
                    )
        if not replaced:
            self._record_disk_error("cache.spill.write")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        if self.max_entries is not None or self.max_bytes is not None:
            entries, size = self._disk_usage()
            if (
                self.max_entries is not None and entries > self.max_entries
            ) or (self.max_bytes is not None and size > self.max_bytes):
                # hysteresis: sweep ~25% below the budget so a tier
                # sitting at its cap does not pay a full directory
                # scan on every subsequent spill
                self.gc(
                    max_entries=_slack(self.max_entries),
                    max_bytes=_slack(self.max_bytes),
                )

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
            while len(self._entries) > self.maxsize:
                victim = None
                for candidate in self._entries:
                    # skip in-flight entries and the entry being
                    # inserted right now — never evicted; like gc(),
                    # prefer a transiently-over-budget tier to
                    # dropping either.  The scan stops at the first
                    # evictable key, so the common (pin-free) case
                    # stays O(1) per insert.
                    if candidate != key and not self._pins.get(candidate):
                        victim = candidate
                        break
                if victim is None:
                    break  # everything is pinned — allow the overflow
                del self._entries[victim]
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
                entry_path = self._entry_path(key)
                try:
                    size = os.stat(entry_path).st_size
                    os.unlink(entry_path)
                except FileNotFoundError:
                    pass  # never spilled or already evicted
                except OSError:
                    self._record_disk_error("cache.drop.unlink")
                else:
                    self._tally_writes += 1
                    if self._disk_tally is not None:
                        entries, total = self._disk_tally
                        self._disk_tally = (
                            max(entries - 1, 0), max(total - size, 0)
                        )

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
                self._disk_tally = None  # reseed on next use
                # invalidate any seeding scan that started pre-clear
                self._tally_resets += 1

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

    def _disk_usage(self) -> Tuple[int, int]:
        """Return this process's (entries, bytes) view of the tier.

        Seeded by one directory scan on first use, then maintained
        incrementally by spills/drops and resynced by every
        :meth:`gc`, so the hot path never re-walks the directory.
        Concurrent writers in other processes drift this view until
        the next :meth:`gc` (which rescans).
        """
        if self.path is None:
            return (0, 0)
        with self._lock:
            tally = self._disk_tally
            resets_before = self._tally_resets
        if tally is None:
            scan = self._scan_disk()
            tally = (len(scan), sum(item[3] for item in scan))
            with self._lock:
                if self._disk_tally is not None:
                    # another thread seeded (and kept current) first
                    tally = self._disk_tally
                elif self._tally_resets == resets_before:
                    # spills racing the scan leave this seed off by at
                    # most the in-flight writes (gc() resyncs); still
                    # installing it keeps sustained-contention spills
                    # from re-walking the directory every time
                    self._disk_tally = tally
                # else: a clear() landed mid-scan — never install
                # pre-clear totals; reseed on next use
        return tally

    def _unlink_if_unpinned(self, name: str, entry_path: str) -> Optional[bool]:
        """Delete one entry file unless its key is pinned right now.

        The pin check and the unlink happen under the cache lock —
        the same lock :meth:`pin`/:meth:`begin_compute` take — so a
        pin can never slip in between check and delete.

        Returns:
            ``True`` when unlinked, ``False`` when skipped because
            the key is in flight, ``None`` when the file was already
            gone (another process evicted it first) or the unlink
            itself failed (counted as a disk I/O error).
        """
        with self._lock:
            if self._pin_names.get(name, 0) > 0:
                return False
            try:
                fault_point("cache.gc.unlink")
                os.unlink(entry_path)
            except FileNotFoundError:
                return None
            except OSError:
                self._record_disk_error("cache.gc.unlink")
                return None
            return True

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        validate: bool = False,
    ) -> Dict[str, int]:
        """Sweep the disk tier down to its budgets (LRU order).

        Entries are evicted oldest-access-stamp first until both the
        entry and the byte budget hold.  Entries pinned in this cache
        instance — in flight in a pipeline — are never evicted, even
        if that leaves a budget exceeded (pins in other instances or
        processes are invisible here; evicting their entries costs a
        recompute, never corruption).  Leaked spill temp files older
        than five minutes are removed as well.

        Args:
            max_entries: per-call entry budget overriding the
                instance's ``max_entries``.
            max_bytes: per-call byte budget overriding ``max_bytes``.
            validate: additionally parse every entry file and move the
                corrupt or foreign-format ones into ``quarantine/``
                (CLI maintenance mode); quarantined files count as
                evicted and additionally under ``quarantined``.

        Returns:
            A dict with ``scanned``, ``evicted``, ``quarantined``,
            ``pinned`` (skipped in-flight entries) and the surviving
            ``entries``/``bytes``.
        """
        if self.path is None:
            return {
                "scanned": 0,
                "evicted": 0,
                "quarantined": 0,
                "pinned": 0,
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
                "pinned": 0,
                "entries": 0,
                "bytes": 0,
            }
        limit_entries = (
            max_entries if max_entries is not None else self.max_entries
        )
        limit_bytes = max_bytes if max_bytes is not None else self.max_bytes
        with self._lock:
            tally_writes_before = self._tally_writes
            tally_resets_before = self._tally_resets
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
                # corrupt entries are quarantined, not deleted: the
                # pin check and the move share the cache lock so an
                # in-flight key can never be swept out from under a
                # pipeline
                with self._lock:
                    if self._pin_names.get(name, 0) > 0:
                        moved: Optional[bool] = False
                    else:
                        moved = self._quarantine(entry_path)
                if moved:
                    evicted += 1
                    quarantined += 1
                elif moved is False:  # in flight — keep it
                    survivors.append((name, entry_path, stamp, size))
            entries = survivors
        entries.sort(key=lambda item: item[2])  # oldest access first
        total_entries = len(entries)
        total_bytes = sum(item[3] for item in entries)
        skipped_pins = 0
        for name, entry_path, _stamp, size in entries:
            over_budget = (
                limit_entries is not None and total_entries > limit_entries
            ) or (limit_bytes is not None and total_bytes > limit_bytes)
            if not over_budget:
                break
            unlinked = self._unlink_if_unpinned(name, entry_path)
            if unlinked is False:  # pinned at delete time — in flight
                skipped_pins += 1
                continue
            if unlinked is None:  # another process won the race
                total_entries -= 1
                total_bytes -= size
                continue
            evicted += 1
            total_entries -= 1
            total_bytes -= size
        with self._lock:
            self.disk_evictions += evicted
            if (
                self._tally_writes == tally_writes_before
                and self._tally_resets == tally_resets_before
            ):
                self._disk_tally = (total_entries, total_bytes)
            else:
                # a spill or clear landed during the (unlocked) scan,
                # so these totals are stale — drop the tally; the next
                # _disk_usage() reseeds it with one scan
                self._disk_tally = None
        return {
            "scanned": scanned,
            "evicted": evicted,
            "quarantined": quarantined,
            "pinned": skipped_pins,
            "entries": total_entries,
            "bytes": total_bytes,
        }

    def stats(self) -> Dict[str, int]:
        """Return the cache's counters and tier sizes.

        Returns:
            A dict with the in-memory ``entries``, the ``hits`` /
            ``misses`` / ``disk_hits`` counters, the total
            ``evictions`` (memory LRU plus disk gc, with the
            ``memory_evictions`` / ``disk_evictions`` split), the
            resilience counters — total ``io_errors`` with the
            ``memory_io_errors`` / ``disk_io_errors`` split, I/O
            ``retries``, ``quarantined`` entries, and ``degraded``
            (1 while the tier is memory-only) — and the disk tier's
            ``disk_entries`` / ``disk_bytes`` (this process's
            incrementally-maintained view — one directory scan on
            first use, resynced by every :meth:`gc`).
        """
        disk_entries, disk_bytes = self._disk_usage()
        with self._lock:
            return self._counters_locked(disk_entries, disk_bytes)

    def counters(self) -> Dict[str, Optional[int]]:
        """Return :meth:`stats` without ever scanning the directory.

        The hot-path variant (every compilation snapshots this): the
        ``disk_entries`` / ``disk_bytes`` figures come from the
        running tally when this process has already seeded it (budget
        enforcement or a prior :meth:`stats`/:meth:`gc` call) and are
        ``None`` otherwise — call :meth:`stats` when an exact disk
        view is worth a scan.
        """
        with self._lock:
            tally = self._disk_tally if self.path is not None else (0, 0)
            disk_entries, disk_bytes = tally if tally is not None else (
                None, None
            )
            return self._counters_locked(disk_entries, disk_bytes)

    def _counters_locked(
        self, disk_entries: Optional[int], disk_bytes: Optional[int]
    ) -> Dict[str, Optional[int]]:
        """Assemble the stats payload (caller holds the lock)."""
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
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
        }


_SHARED: Optional[PassCache] = None


def shared_cache() -> PassCache:
    """Return the process-wide cache shared by default pipelines."""
    global _SHARED
    if _SHARED is None:
        _SHARED = PassCache()
    return _SHARED
