"""Persistent content-addressed result store for experiment sweeps.

The runner memoizes repeated grid cells within one run, but that memo dies
with the process, so a grown grid re-pays every cell on every invocation.
:class:`ResultStore` keeps trial records on disk instead, keyed by
*everything that determines a trial's outcome*:

``(scenario, params, placer, placer_params, trial, seed, code_version)``

where ``code_version`` is a digest of the installed ``repro`` source tree.
Change any source file and every key changes, so a store can never serve
results computed by different code — stale cells are simply never addressed
again (and :meth:`ResultStore.prune_stale` reclaims their disk space).

Layout: one JSON file per cell, addressed by the SHA-256 of the canonical
JSON encoding of the key::

    <root>/<code_version[:16]>/<digest[:2]>/<digest>.json
    <root>/<code_version[:16]>/costs/<writer>.json   (observed-cost sidecars)

Each file carries the full key next to the record, so a hash collision (or
a corrupted file) is detected on read and treated as a miss.

The store is safe to share between concurrent writers — including N
machines mounting one network directory, which is how the ``remote``
backend's workers populate a single store.  Every write lands under a
unique temp name (pid + random token) and becomes visible only through an
atomic rename, so a partial file is never visible under a cell name and
two processes storing the same cell cannot collide mid-rename.  When both
complete, last-writer-wins is benign: the cell is content-addressed, so
both wrote records of the same deterministic trial.

Writers also accumulate *observed per-cell cost* — mean trial wall seconds
per ``(scenario, placer)`` — into per-writer sidecar files under
``costs/``.  :meth:`ResultStore.cost_table` merges all sidecars; the
remote backend's cost-aware chunker reads it so a chunk of expensive
cells does not strand a worker behind many times the work its siblings
got.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro import obs
from repro.experiments.results import TrialRecord

#: Schema tag written into every cell file.
CACHE_SCHEMA = "repro.experiments/cache/v1"

#: Schema tag of the per-writer observed-cost sidecar files.
COST_SCHEMA = "repro.experiments/costs/v1"

#: Directory (under the version dir) holding the cost sidecars.  Its files
#: are not cells: ``__len__`` and ``prune_stale`` exclude it.
_COSTS_DIRNAME = "costs"


# ---------------------------------------------------------------------------
# Code-version digest
# ---------------------------------------------------------------------------
def tree_digest(root: Union[str, Path]) -> str:
    """SHA-256 over the relative paths and contents of a source tree.

    Only ``*.py`` files count: bytecode caches, editor droppings, and result
    files must not invalidate the store.
    """
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the installed ``repro`` package source (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        _CODE_VERSION = tree_digest(Path(repro.__file__).resolve().parent)
    return _CODE_VERSION


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CacheKey:
    """Everything that determines one trial's outcome."""

    scenario: str
    params: Tuple[Tuple[str, object], ...]
    placer: str
    trial: int
    seed: int
    code_version: str
    placer_params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(
        cls,
        scenario: str,
        placer: str,
        trial: int,
        seed: int,
        params: Optional[Mapping[str, object]] = None,
        version: Optional[str] = None,
        placer_params: Optional[Mapping[str, object]] = None,
    ) -> "CacheKey":
        return cls(
            scenario=scenario,
            params=tuple(sorted((params or {}).items())),
            placer=placer,
            trial=trial,
            seed=seed,
            code_version=version if version is not None else code_version(),
            placer_params=tuple(sorted((placer_params or {}).items())),
        )

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "params": {key: value for key, value in self.params},
            "placer": self.placer,
            "placer_params": {key: value for key, value in self.placer_params},
            "trial": self.trial,
            "seed": self.seed,
            "code_version": self.code_version,
        }

    def digest(self) -> str:
        """Content address: SHA-256 of the canonical JSON encoding."""
        canonical = json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":"),
            default=repr,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------
class ResultStore:
    """Disk-backed content-addressed store of trial records.

    Args:
        root: directory holding the store (created on first write).
        version: the code version new keys default to; omit for the digest
            of the installed ``repro`` tree.  Tests inject explicit tokens
            to exercise invalidation without editing source files.
    """

    def __init__(self, root: Union[str, Path], version: Optional[str] = None):
        self.root = Path(root)
        self.version = version if version is not None else code_version()
        # Typed counters (thin-viewed by :attr:`stats`; aggregated
        # process-wide by ``obs.metrics.snapshot()`` under ``repro.store.*``).
        self._hits = obs.Counter("repro.store.hits")
        self._misses = obs.Counter("repro.store.misses")
        self._stored = obs.Counter("repro.store.stored")
        self._invalidated = obs.Counter("repro.store.invalidated")
        # Per-writer identity: temp files and the cost sidecar embed it so
        # concurrent writers (other processes, other machines) never share
        # a file name.
        self._writer_token = f"{os.getpid()}-{secrets.token_hex(4)}"
        self._costs: Dict[Tuple[str, str], List[float]] = {}

    # ------------------------------------------------------------- addressing
    def key_for(
        self,
        scenario: str,
        placer: str,
        trial: int,
        seed: int,
        params: Optional[Mapping[str, object]] = None,
        placer_params: Optional[Mapping[str, object]] = None,
    ) -> CacheKey:
        """A :class:`CacheKey` bound to this store's code version."""
        return CacheKey.make(
            scenario, placer, trial, seed, params=params, version=self.version,
            placer_params=placer_params,
        )

    def _path(self, key: CacheKey) -> Path:
        digest = key.digest()
        return self.root / key.code_version[:16] / digest[:2] / f"{digest}.json"

    # ---------------------------------------------------------------- access
    def get(self, key: CacheKey) -> Optional[TrialRecord]:
        """The stored record for ``key``, or ``None`` (counted as a miss).

        A cell file that fails to parse, carries the wrong schema, or whose
        embedded key disagrees with ``key`` (hash collision) is removed and
        counted under ``invalidated``.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self._misses.inc()
            return None
        # ValueError covers JSONDecodeError and UnicodeDecodeError alike.
        except (OSError, ValueError):
            self._invalidate(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or payload.get("key") != json.loads(json.dumps(key.to_json_dict(), default=repr))
        ):
            self._invalidate(path)
            return None
        try:
            record = TrialRecord(**payload["record"])
        except (KeyError, TypeError):
            self._invalidate(path)
            return None
        self._hits.inc()
        return record

    def put(self, key: CacheKey, record: TrialRecord) -> Path:
        """Store ``record`` under ``key`` (atomic write-then-rename).

        Concurrent-writer safe: the temp name embeds this writer's pid and
        a random token (``mkstemp``'s ``O_EXCL`` guarantee does not hold on
        all network filesystems, unique names do not need it), the bytes
        are fsynced before the rename so a machine crash cannot leave a
        renamed-but-empty cell, and the rename is atomic so readers only
        ever see complete cells.  Two writers racing the same cell is a
        benign last-writer-wins: the key determines the record.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "key": key.to_json_dict(),
            "record": asdict(record),
        }
        text = json.dumps(payload, sort_keys=True, default=repr)
        tmp_path = path.with_name(f"{path.name}.{self._writer_token}.tmp")
        try:
            with open(tmp_path, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._stored.inc()
        self._record_cost(key, record)
        return path

    def _invalidate(self, path: Path) -> None:
        self._misses.inc()
        self._invalidated.inc()
        try:
            path.unlink()
        except OSError:
            pass

    # -------------------------------------------------------------- cost model
    def _record_cost(self, key: CacheKey, record: TrialRecord) -> None:
        wall = getattr(record, "trial_wall_s", None)
        if not wall or wall <= 0:
            return
        entry = self._costs.setdefault((key.scenario, key.placer), [0, 0.0])
        entry[0] += 1
        entry[1] += float(wall)

    def flush_costs(self) -> Optional[Path]:
        """Persist this writer's observed per-cell costs (atomic rename).

        Each writer owns exactly one sidecar file (named by its writer
        token) under ``<root>/<version[:16]>/costs/``, so N concurrent
        writers never contend and no locking is needed;
        :meth:`cost_table` merges them all.  Returns the sidecar path, or
        ``None`` while nothing has been observed.
        """
        if not self._costs:
            return None
        cost_dir = self.root / self.version[:16] / _COSTS_DIRNAME
        cost_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": COST_SCHEMA,
            "costs": [
                {
                    "scenario": scenario,
                    "placer": placer,
                    "count": count,
                    "total_wall_s": total,
                }
                for (scenario, placer), (count, total) in sorted(
                    self._costs.items()
                )
            ],
        }
        path = cost_dir / f"{self._writer_token}.json"
        tmp_path = path.with_name(path.name + ".tmp")
        tmp_path.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp_path, path)
        return path

    def cost_table(self) -> Dict[Tuple[str, str], float]:
        """Mean observed trial wall seconds per ``(scenario, placer)`` cell.

        Merged across every writer's flushed sidecar; unreadable or
        foreign files are skipped, and the table is simply empty until
        some writer has flushed.  This is what the remote backend's
        cost-aware chunker weighs chunks with.
        """
        cost_dir = self.root / self.version[:16] / _COSTS_DIRNAME
        if not cost_dir.is_dir():
            return {}
        merged: Dict[Tuple[str, str], List[float]] = {}
        for path in sorted(cost_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict) or payload.get("schema") != COST_SCHEMA:
                continue
            for row in payload.get("costs", ()):
                try:
                    cell = (str(row["scenario"]), str(row["placer"]))
                    count = int(row["count"])
                    total = float(row["total_wall_s"])
                except (KeyError, TypeError, ValueError):
                    continue
                if count <= 0:
                    continue
                entry = merged.setdefault(cell, [0, 0.0])
                entry[0] += count
                entry[1] += total
        return {cell: total / count for cell, (count, total) in merged.items()}

    # ------------------------------------------------------------ maintenance
    def prune_stale(self) -> int:
        """Drop every cell written under a different code version.

        This is the store's eviction policy: old-version cells can never be
        addressed again (their keys embed the old digest), so reclaiming
        them is always safe.  Returns the number of cells removed.
        """
        removed = 0
        current = self.version[:16]
        if not self.root.is_dir():
            return 0
        for version_dir in self.root.iterdir():
            if not version_dir.is_dir() or version_dir.name == current:
                continue
            removed += sum(1 for _ in self._cell_files(version_dir))
            # rmtree, not per-cell unlink: stale dirs may also hold .tmp
            # droppings from writes interrupted mid-put.
            shutil.rmtree(version_dir, ignore_errors=True)
        self._invalidated.inc(removed)
        return removed

    # ------------------------------------------------------------- inspection
    @property
    def stats(self) -> Dict[str, int]:
        """Counters: ``hits``, ``misses``, ``stored``, ``invalidated``.

        A thin view over this store's :class:`repro.obs.Counter`
        instruments (process-wide aggregates live in
        ``obs.metrics.snapshot()`` under ``repro.store.*``).
        """
        return {
            "hits": self._hits.count,
            "misses": self._misses.count,
            "stored": self._stored.count,
            "invalidated": self._invalidated.count,
        }

    @staticmethod
    def _cell_files(version_dir: Path):
        """Cell files under one version dir (cost sidecars are not cells)."""
        return (
            path
            for path in version_dir.rglob("*.json")
            if path.parent.name != _COSTS_DIRNAME
        )

    def __len__(self) -> int:
        """Cells stored under the *current* code version."""
        version_dir = self.root / self.version[:16]
        if not version_dir.is_dir():
            return 0
        return sum(1 for _ in self._cell_files(version_dir))

    def __repr__(self) -> str:
        return (
            f"ResultStore(root={str(self.root)!r}, "
            f"version={self.version[:16]!r}, cells={len(self)})"
        )
