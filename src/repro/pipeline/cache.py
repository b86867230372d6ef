"""Content-addressed schedule cache: record once, replay everywhere.

The paper's methodology is "record a schedule once, replay it with many
candidate universal schedulers".  The cache below makes that literal across
process and invocation boundaries: a recorded :class:`Schedule` is stored
under a key derived from everything that determines it — the topology spec,
the original scheduler, the workload fingerprint, and the seed — so any cell
of any experiment that needs the same original schedule gets the cached copy
instead of re-running the recording simulation.

Two layers:

* an in-memory dict (always on), so replay modes sharing a schedule within
  one process never touch disk;
* an optional on-disk layer (gzipped JSON-lines via
  :func:`repro.core.schedule.save_schedule`), shared between pool workers and
  across CLI invocations.  Writes are atomic, so workers racing to populate
  the same entry at worst duplicate the recording work — they can never
  corrupt an entry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.schedule import (
    MANIFEST_SUFFIX,
    Schedule,
    load_schedule,
    save_schedule,
    save_schedule_sharded,
)
from repro.topology.base import Topology
from repro.traffic.workload import WorkloadSpec

logger = logging.getLogger(__name__)

#: Schedules larger than this many packets are persisted sharded.  High
#: enough that every quick/smoke-tier entry stays a single file (their
#: layout, like their keys, is pinned by the golden fixtures), low enough
#: that scale-tier schedules split into chunks a worker can stream.
DEFAULT_SHARD_PACKETS = 100_000


def distribution_fingerprint(distribution) -> dict:
    """A JSON-serializable fingerprint of a flow-size distribution."""
    params = {}
    for name in sorted(vars(distribution)):
        value = vars(distribution)[name]
        if isinstance(value, (int, float, str, bool)) or value is None:
            params[name] = value
        elif isinstance(value, (list, tuple)):
            params[name] = list(value)
        else:  # pragma: no cover - future distribution types
            params[name] = repr(value)
    return {"kind": type(distribution).__name__, "params": params}


def workload_fingerprint(workload: WorkloadSpec) -> dict:
    """A JSON-serializable fingerprint of everything that shapes a workload.

    Perturbations enter the fingerprint only when present, so the cache keys
    of every pre-existing (unperturbed) scenario are bit-identical to those
    recorded before the perturbation layer existed — warm caches stay warm
    across the refactor (pinned by the golden-key regression test).
    """
    fingerprint = {
        "utilization": workload.utilization,
        "reference_bandwidth_bps": workload.reference_bandwidth_bps,
        "transport": workload.transport,
        "duration": workload.duration,
        "mss": workload.mss,
        "size_distribution": distribution_fingerprint(workload.size_distribution),
    }
    if workload.perturbations:
        fingerprint["perturbations"] = [p.to_dict() for p in workload.perturbations]
    return fingerprint


def schedule_cache_key(
    topology: Topology,
    original: str,
    workload: WorkloadSpec,
    seed: int,
    slack_policy=None,
    slack_mode: str = "replay",
    faults=None,
) -> str:
    """Content hash of (topology, original scheduler, workload, seed[, policy]).

    ``slack_policy`` (a :class:`~repro.core.slack_policy.SlackPolicyDef`, or
    ``None``) enters the hash only when set — exactly like workload
    perturbations — so every policy-less cell's key is bit-identical to the
    keys recorded before the slack-policy subsystem existed (pinned by the
    golden-key regression test), while cells replayed under a heuristic
    policy can never be mistaken for, or collide with, the default replay.
    Only the policy's behavioral fingerprint (kind + params) is hashed —
    renaming or re-describing a policy does not invalidate entries.

    ``slack_mode`` distinguishes the two ways a policy can apply:

    * ``"replay"`` (the default) — the policy stamps *replayed* packets; the
      recorded artifact itself does not depend on it, so two cells differing
      only in policy re-record identical baselines.  That redundancy is the
      deliberate price of keys that identify the cell's full provenance.
      The hashed payload is bit-identical to the pre-``slack_mode`` code.
    * ``"live"`` — the policy stamps packets at send time *during the
      recording*, so the recorded schedule genuinely depends on it; the
      fingerprint gains a ``"mode": "live"`` marker so a live cell can never
      collide with a replay-policy cell of the same kind and parameters.

    ``faults`` (a :class:`repro.faults.FaultPlan`, or ``None``) follows the
    replay-mode slack-policy precedent: the pipeline records fault-free and
    injects faults at replay time only, so the recorded artifact does not
    depend on the plan — but the key identifies the cell's full provenance,
    so a non-empty plan's fingerprint (fault list + fault seed) is hashed
    in.  ``None`` and an *empty* plan contribute nothing, which keeps every
    fault-free key bit-identical to the keys recorded before the fault layer
    existed (pinned by the golden-key regression test).
    """
    payload = {
        "topology": topology.to_dict(),
        "original": str(original),
        "workload": workload_fingerprint(workload),
        "seed": seed,
    }
    if slack_policy is not None:
        fingerprint = slack_policy.fingerprint()
        if slack_mode == "live":
            fingerprint["mode"] = "live"
        payload["slack_policy"] = fingerprint
    if faults is not None:
        fault_fingerprint = faults.fingerprint()
        if fault_fingerprint is not None:
            payload["faults"] = fault_fingerprint
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class ScheduleCache:
    """Two-layer (memory + optional disk) cache of recorded schedules.

    Args:
        root: Directory for the on-disk layer, or ``None`` for a purely
            in-memory (per-process) cache.
        memory_entries: Maximum schedules kept in the in-memory layer (LRU
            eviction beyond that).  Paper-scale schedules hold every packet's
            hop vector, so an unbounded memory layer would retain gigabytes
            across a full run; the default comfortably covers cells that
            share one schedule across replay modes.  ``None`` = unbounded.
        shard_packets: Schedules larger than this are persisted as
            ingress-time shards plus a manifest
            (:func:`repro.core.schedule.save_schedule_sharded`), which is
            also the per-shard chunk size.  Pure storage layout — cache
            *keys* never depend on it (pinned by the golden-key test) and
            lookups transparently accept either on-disk form.

    Attributes:
        hits: Number of ``get_or_record`` calls served from memory or disk.
        misses: Number of calls that had to record (i.e. run the original
            simulation).  A warm cache reports ``misses == 0``.
    """

    def __init__(
        self,
        root: Optional[Union[str, os.PathLike]] = None,
        memory_entries: Optional[int] = 8,
        shard_packets: int = DEFAULT_SHARD_PACKETS,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.memory_entries = memory_entries
        if shard_packets < 1:
            raise ValueError(f"shard_packets must be >= 1, got {shard_packets}")
        self.shard_packets = shard_packets
        self._memory: "OrderedDict[str, Schedule]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.corrupt_entries = 0

    def _remember(self, key: str, schedule: Schedule) -> None:
        self._memory[key] = schedule
        self._memory.move_to_end(key)
        if self.memory_entries is not None:
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Key / path helpers
    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Optional[Path]:
        """Single-file on-disk location for ``key`` (``None`` for memory-only caches)."""
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}.jsonl.gz"

    def manifest_path_for(self, key: str) -> Optional[Path]:
        """Sharded-form manifest location for ``key`` (``None`` for memory-only caches)."""
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}{MANIFEST_SUFFIX}"

    def entry_path(self, key: str) -> Optional[Path]:
        """The on-disk path ``key`` would load from, or ``None`` if absent.

        The sharded form wins when both exist (it is only ever written for
        schedules too large to sensibly live in one file); the returned path
        feeds :func:`repro.core.schedule.load_schedule` or
        :func:`~repro.core.schedule.iter_schedule_columns` directly.
        """
        for candidate in (self.manifest_path_for(key), self.path_for(key)):
            if candidate is not None and candidate.exists():
                return candidate
        return None

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.entry_path(key) is not None

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------ #
    # The cache protocol
    # ------------------------------------------------------------------ #
    def get_or_record(
        self,
        topology: Topology,
        original: str,
        workload: WorkloadSpec,
        seed: int,
        recorder: Callable[[], Schedule],
        slack_policy=None,
        slack_mode: str = "replay",
        faults=None,
    ) -> Tuple[Schedule, str]:
        """Fetch the schedule for this cell, recording it on first use.

        A corrupt on-disk entry (truncated gzip, undecodable JSON, a packet
        count that does not match its header) never aborts the run: the file
        is quarantined as ``<key>.jsonl.gz.corrupt``, a warning is logged,
        and the entry is re-recorded as if it had never existed.  A cache
        directory that cannot be written at all (read-only, disk full)
        degrades the same way — the quarantine rename and the re-persist
        are both best-effort, and the run continues on the in-memory copy.

        Args:
            topology: Topology spec (part of the key and stored as metadata).
            original: Original scheduler name.
            workload: Workload spec (fingerprinted into the key).
            seed: Workload seed.
            recorder: Zero-argument callable that records and returns the
                schedule; only invoked on a cache miss.
            slack_policy: The cell's slack-policy definition, if any; hashed
                into the key (see :func:`schedule_cache_key`).
            slack_mode: How the policy applies — ``"replay"`` (stamp replayed
                packets) or ``"live"`` (the policy shaped the recording
                itself; keyed separately).
            faults: The cell's :class:`repro.faults.FaultPlan`, if any;
                hashed into the key when non-empty (see
                :func:`schedule_cache_key`).

        Returns:
            ``(schedule, key)``.
        """
        key = schedule_cache_key(
            topology, original, workload, seed, slack_policy, slack_mode, faults
        )
        schedule = self._memory.get(key)
        if schedule is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return schedule, key
        stored = self.entry_path(key)
        if stored is not None:
            try:
                schedule, _ = load_schedule(stored)
            except (OSError, EOFError, ValueError, KeyError) as error:
                self._quarantine(stored, error)
            else:
                self._remember(key, schedule)
                self.hits += 1
                return schedule, key
        schedule = recorder()
        self.misses += 1
        self._remember(key, schedule)
        path = self.path_for(key)
        if path is not None:
            meta = {
                "key": key,
                "original": str(original),
                "seed": seed,
                "workload": workload_fingerprint(workload),
                "topology": topology.to_dict(),
            }
            if slack_policy is not None:
                meta["slack_policy"] = slack_policy.to_dict()
                if slack_mode != "replay":
                    meta["slack_mode"] = slack_mode
            if faults is not None and faults.fingerprint() is not None:
                meta["faults"] = faults.to_dict()
            try:
                if len(schedule) > self.shard_packets:
                    save_schedule_sharded(
                        self.manifest_path_for(key),
                        schedule,
                        meta=meta,
                        shard_packets=self.shard_packets,
                    )
                else:
                    save_schedule(path, schedule, meta=meta)
            except OSError as error:
                # A read-only or full cache directory degrades the disk
                # layer, it must not abort the run: the freshly recorded
                # in-memory schedule is still returned.
                logger.warning(
                    "cannot persist schedule cache entry %s (%s: %s); "
                    "continuing without the on-disk copy",
                    path,
                    type(error).__name__,
                    error,
                )
        return schedule, key

    def _quarantine(self, path: Path, error: Exception) -> None:
        """Move an unreadable cache entry aside so the run can re-record.

        The quarantined copy keeps the original bytes (``*.corrupt`` suffix)
        for post-mortem inspection; a racing worker may have quarantined the
        same entry first, so a missing source file is tolerated.
        """
        self.corrupt_entries += 1
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - lost the quarantine race
            quarantined = None
        logger.warning(
            "corrupt schedule cache entry %s (%s: %s); %s; re-recording",
            path,
            type(error).__name__,
            error,
            f"quarantined to {quarantined}" if quarantined is not None else "already quarantined",
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Hit/miss/corruption counters (misses == original schedules recorded)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_entries": self.corrupt_entries,
        }

    def disk_entries(self) -> int:
        """Number of schedule *entries* currently in the on-disk layer.

        A sharded entry counts once (its manifest), not once per shard file.
        """
        if self.root is None or not self.root.exists():
            return 0
        single = sum(
            1 for path in self.root.glob("*/*.jsonl.gz") if ".shard-" not in path.name
        )
        sharded = sum(1 for _ in self.root.glob(f"*/*{MANIFEST_SUFFIX}"))
        return single + sharded

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        where = str(self.root) if self.root is not None else "memory"
        return f"<ScheduleCache {where} hits={self.hits} misses={self.misses}>"
