"""Persistent content-addressed result store for experiment sweeps.

Without a store, a grown grid re-pays every cell on every invocation, and
a sweep cut short by a dead pool worker starts over.
:class:`ResultStore` keeps trial records on disk, keyed by *everything
that determines a trial's outcome*:

``(scenario, params, placer, placer_params, trial, seed, code_version)``

where ``code_version`` is a digest of the installed ``repro`` source tree.
Change any source file and every key changes, so a store can never serve
results computed by different code — stale cells are simply never addressed
again (deleting an old version's directory reclaims their disk space).

Layout: immutable *packs* of JSON lines, one pack per write batch::

    <root>/<code_version[:16]>/packs/<writer>-<seq>.jsonl

Each line is ``<digest>\\t<payload>\\t<crc32>``: the SHA-256 of the canonical
JSON encoding of the key, one JSON object carrying the schema tag, the full
key and the record, and the CRC-32 of everything before it.  The checksum
catches a torn or bit-flipped line on load; the embedded key catches a hash
collision, or a line filed under the wrong digest, on read.

Durability: :meth:`ResultStore.put_many` writes its batch under a temp name,
fsyncs it and renames it into place, so every batch that returns is on disk
and no reader ever sees part of one.  A sweep hands all its executed
records to one ``put_many`` — one file and one flush per sweep, not one
per cell; :meth:`ResultStore.put` is the one-cell batch.

Concurrency: the store is safe to share between concurrent writers — two
sweeps given the same ``--cache-dir``, or machines mounting one network
directory.  A pack's name embeds its writer (pid + random token) and a
per-writer sequence number, so two writers never share a file name, and
packs are never rewritten once renamed.  Two writers storing the same
cell each leave a copy; either is good — the cell is content-addressed,
so both hold records of the same deterministic trial.

Reads go through an in-memory index ``digest -> raw payload text`` (text,
not parsed records: parsing happens per :meth:`ResultStore.get`).  Only a
miss lists ``packs/`` again, and it loads only packs not seen before, so a
miss costs O(packs listed) — one pack per sweep that wrote the store.
Compacting packs is not done.

Corruption: a bad line — torn, non-UTF-8, failing its checksum, another
schema, a key that disagrees, a record that does not fit
:class:`~repro.experiments.results.TrialRecord` — is a miss counted once
under ``invalidated``.  It is never deleted (its pack holds other good
cells) and never shadows a good copy of the same cell in another pack.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import logging
import os
import secrets
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro import obs
from repro.experiments.results import TrialRecord

logger = logging.getLogger("repro.experiments.cache")

#: Schema tag written into every cell payload.
CACHE_SCHEMA = "repro.experiments/cache/v1"

#: Directory (under the version dir) holding the packs.
_PACKS_DIRNAME = "packs"

_PACK_SUFFIX = ".jsonl"


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
# Packs
# ---------------------------------------------------------------------------
def _pack_line(key: CacheKey, record: TrialRecord) -> bytes:
    """One cell as a pack line: ``<digest>\\t<payload>\\t<crc32>\\n``."""
    payload = {"schema": CACHE_SCHEMA, "key": key.to_json_dict(), "record": asdict(record)}
    body = f"{key.digest()}\t{json.dumps(payload, sort_keys=True, default=repr)}".encode()
    return b"%s\t%08x\n" % (body, zlib.crc32(body))


def _read_pack(path: Path) -> Tuple[List[Tuple[str, str]], int]:
    """A pack's intact ``(digest, payload text)`` lines, and its bad-line count.

    A line is intact when its checksum matches and it decodes; an
    unreadable pack (vanished, I/O error) reads as empty.
    """
    lines: List[Tuple[str, str]] = []
    bad = 0
    try:
        with open(path, "rb") as handle:
            for raw in handle:
                body, _, crc = raw.rstrip(b"\n").rpartition(b"\t")
                try:
                    if crc != b"%08x" % zlib.crc32(body):
                        raise ValueError("checksum mismatch")
                    digest, payload = body.decode().split("\t", 1)
                except ValueError:  # torn, bit-flipped or non-UTF-8
                    bad += 1
                    continue
                lines.append((digest, payload))
    except OSError:
        pass
    return lines, bad


def _pack_names(packs_dir: Path) -> List[str]:
    """Renamed-into-place packs, in name order (temp files excluded)."""
    try:
        names = os.listdir(packs_dir)
    except OSError:  # nothing written yet
        return []
    return sorted(name for name in names if name.endswith(_PACK_SUFFIX))


def _parse_cell(text: str, expected_key: dict) -> Optional[TrialRecord]:
    """The record a payload holds for ``expected_key``, or ``None``."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != CACHE_SCHEMA
        or payload.get("key") != expected_key
    ):
        return None
    try:
        return TrialRecord(**payload["record"])
    except (KeyError, TypeError):
        return None


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
        self._packs = self.root / self.version[:16] / _PACKS_DIRNAME
        # Typed counters (thin-viewed by :attr:`stats`; aggregated
        # process-wide by ``obs.metrics.snapshot()`` under ``repro.store.*``).
        self._hits = obs.Counter("repro.store.hits")
        self._misses = obs.Counter("repro.store.misses")
        self._stored = obs.Counter("repro.store.stored")
        self._invalidated = obs.Counter("repro.store.invalidated")
        self._packs_written = obs.Counter("repro.store.packs_written")
        self._packs_loaded = obs.Counter("repro.store.packs_loaded")
        self._write_errors = obs.Counter("repro.store.write_errors")
        # Per-writer identity: pack names embed it so concurrent writers
        # (other processes, other machines) never share a file name.
        self._writer_token = f"{os.getpid()}-{secrets.token_hex(4)}"
        # ``next()`` on a count is atomic under the GIL, so threads sharing
        # this store never share a pack name.
        self._pack_seq = itertools.count(1)
        # digest -> payload texts not yet found bad, in pack-load order;
        # and the packs already indexed.
        self._index: Dict[str, List[str]] = {}
        self._loaded: Set[str] = set()

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

    # ---------------------------------------------------------------- access
    def get(self, key: CacheKey) -> Optional[TrialRecord]:
        """The stored record for ``key``, or ``None`` (counted as a miss).

        A line that fails to parse, carries the wrong schema, or whose
        embedded key disagrees with ``key`` (hash collision) is skipped —
        counted once under ``invalidated``, never deleted — and the next
        copy of the cell, if any pack holds one, is tried.
        """
        digest = key.digest()
        record = self._lookup(key, digest)
        if record is None and self._load():
            record = self._lookup(key, digest)
        if record is None:
            self._misses.inc()
            return None
        self._hits.inc()
        return record

    def _lookup(self, key: CacheKey, digest: str) -> Optional[TrialRecord]:
        texts = self._index.get(digest)
        if not texts:
            return None
        expected = json.loads(json.dumps(key.to_json_dict(), default=repr))
        while texts:
            record = _parse_cell(texts[0], expected)
            if record is not None:
                return record
            del texts[0]
            self._invalidated.inc()
        del self._index[digest]
        return None

    def _load(self) -> int:
        """Index every pack not seen yet; returns how many there were."""
        fresh = [name for name in _pack_names(self._packs) if name not in self._loaded]
        if not fresh:
            return 0
        with obs.span("store.load", packs=len(fresh)) as span:
            n_lines = n_bad = 0
            for name in fresh:
                self._loaded.add(name)
                lines, bad = _read_pack(self._packs / name)
                for digest, text in lines:
                    self._index.setdefault(digest, []).append(text)
                n_lines += len(lines) + bad
                n_bad += bad
            span.set(lines=n_lines, invalid=n_bad)
        self._packs_loaded.inc(len(fresh))
        self._invalidated.inc(n_bad)
        return len(fresh)

    def put_many(self, cells: Iterable[Tuple[CacheKey, TrialRecord]]) -> Path:
        """Store a batch of ``(key, record)`` cells as one new pack.

        The pack is written under a temp name, fsynced, and renamed into
        place: when this returns the whole batch is durable, and no reader
        ever sees part of it.  On any failure the temp file is removed and
        the exception propagates; an ``OSError`` is also logged and counted
        under ``repro.store.write_errors``.
        """
        cells = list(cells)
        data = b"".join(_pack_line(key, record) for key, record in cells)
        path = self._packs / f"{self._writer_token}-{next(self._pack_seq)}{_PACK_SUFFIX}"
        tmp_path = path.with_name(path.name + ".tmp")
        with obs.span(
            "store.put_many", cells=len(cells), bytes=len(data), pack=path.name
        ):
            try:
                self._packs.mkdir(parents=True, exist_ok=True)
                with open(tmp_path, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, path)
            except BaseException as exc:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                if isinstance(exc, OSError):
                    self._write_failed(exc)
                raise
        self._stored.inc(len(cells))
        self._packs_written.inc()
        return path

    def put(self, key: CacheKey, record: TrialRecord) -> Path:
        """Store one cell: a one-line :meth:`put_many`."""
        return self.put_many([(key, record)])

    def _write_failed(self, exc: OSError) -> None:
        self._write_errors.inc()
        logger.warning(
            "result store %s: write failed with %s (%s)",
            self.root, errno.errorcode.get(exc.errno, exc.errno), exc.strerror,
        )

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
    def _cells(version_dir: Path) -> Set[str]:
        """Digests of the intact lines in one version dir's packs."""
        packs = version_dir / _PACKS_DIRNAME
        return {
            digest
            for name in _pack_names(packs)
            for digest, _ in _read_pack(packs / name)[0]
        }

    def __len__(self) -> int:
        """Distinct cells stored under the *current* code version."""
        return len(self._cells(self._packs.parent))
