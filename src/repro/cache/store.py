"""Artifact stores behind the flow cache.

Two tiers with one contract (``get``/``put`` keyed by content hash):

* :class:`MemoryLRU` — in-process store of *live* Python objects, LRU
  over a bounded entry count.  Holds anything, including artifacts with
  no JSON codec (whole HLS projects).
* :class:`DiskStore` — durable store of JSON payloads under a cache
  directory (``objects/<key>.json`` plus an ``index.json`` of entry
  metadata, LRU clocks and lifetime hit/miss counters).  Loads are
  corruption-tolerant: a damaged index is rebuilt from the object files,
  a damaged object is treated as a miss and dropped.  Eviction is
  size-bounded (least-recently-used payloads leave first).

:class:`FlowCache` is the facade the flow layers use: layered lookup
(memory, then disk), per-layer statistics and telemetry counters
(``cache.hit`` / ``cache.miss`` / ``cache.evict``).
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from ..telemetry import Tracer

DEFAULT_MAX_ENTRIES = 1024
DEFAULT_MAX_BYTES = 256 * 1024 * 1024
INDEX_NAME = "index.json"
OBJECTS_DIR = "objects"

Decoder = Callable[[Dict[str, Any]], Any]
Encoder = Callable[[Any], Dict[str, Any]]


class CacheStoreError(Exception):
    pass


@dataclass
class LayerStats:
    """Lifetime cache accounting for one producer layer."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def to_json(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "LayerStats":
        return cls(hits=int(payload.get("hits", 0)),
                   misses=int(payload.get("misses", 0)),
                   stores=int(payload.get("stores", 0)),
                   evictions=int(payload.get("evictions", 0)))


class MemoryLRU:
    """Bounded in-process object store, least-recently-used eviction."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise CacheStoreError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Tuple[bool, Any]:
        with self._lock:
            if key not in self._entries:
                return False, None
            self._entries.move_to_end(key)
            return True, self._entries[key]

    def put(self, key: str, value: Any) -> int:
        """Store ``value``; returns how many entries were evicted."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskStore:
    """Durable JSON object store with an LRU index and size bound."""

    INDEX_VERSION = 1

    def __init__(self, root: Path,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise CacheStoreError("max_bytes must be positive")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / OBJECTS_DIR).mkdir(exist_ok=True)
        self._index = self._load_index()

    # -- index persistence -------------------------------------------------

    def _index_path(self) -> Path:
        return self.root / INDEX_NAME

    def _object_path(self, key: str) -> Path:
        return self.root / OBJECTS_DIR / f"{key}.json"

    def _fresh_index(self) -> Dict[str, Any]:
        return {"version": self.INDEX_VERSION, "seq": 0,
                "entries": {}, "stats": {}}

    def _load_index(self) -> Dict[str, Any]:
        """Load the index; rebuild from object files when damaged."""
        try:
            raw = json.loads(self._index_path().read_text())
            if (not isinstance(raw, dict)
                    or raw.get("version") != self.INDEX_VERSION
                    or not isinstance(raw.get("entries"), dict)):
                raise ValueError("malformed index")
            raw.setdefault("seq", 0)
            raw.setdefault("stats", {})
            return raw
        except (OSError, ValueError):
            index = self._fresh_index()
            for path in sorted((self.root / OBJECTS_DIR).glob("*.json")):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                index["seq"] += 1
                index["entries"][path.stem] = {
                    "layer": "unknown", "bytes": size,
                    "seq": index["seq"]}
            return index

    def _save_index(self) -> None:
        tmp = self._index_path().with_suffix(".tmp")
        tmp.write_text(json.dumps(self._index, sort_keys=True))
        os.replace(tmp, self._index_path())

    def _layer_stats(self, layer: str) -> Dict[str, int]:
        stats = self._index["stats"].setdefault(
            layer, {"hits": 0, "misses": 0, "stores": 0, "evictions": 0})
        return stats

    # -- store API ---------------------------------------------------------

    def get(self, key: str, layer: str = "default"
            ) -> Optional[Dict[str, Any]]:
        """Payload for ``key``, or None.  Corrupt objects become misses."""
        with self._lock:
            stats = self._layer_stats(layer)
            entry = self._index["entries"].get(key)
            payload: Optional[Dict[str, Any]] = None
            if entry is not None:
                try:
                    loaded = json.loads(self._object_path(key).read_text())
                    if isinstance(loaded, dict):
                        payload = loaded
                except (OSError, ValueError):
                    payload = None
                if payload is None:
                    # Corrupt or vanished object: drop it and miss.
                    self._index["entries"].pop(key, None)
                    self._object_path(key).unlink(missing_ok=True)
            if payload is None:
                stats["misses"] += 1
                self._save_index()
                return None
            self._index["seq"] += 1
            entry["seq"] = self._index["seq"]
            stats["hits"] += 1
            self._save_index()
            return payload

    def put(self, key: str, payload: Dict[str, Any],
            layer: str = "default") -> int:
        """Persist ``payload``; returns number of entries evicted."""
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._lock:
            path = self._object_path(key)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(text)
            os.replace(tmp, path)
            self._index["seq"] += 1
            self._index["entries"][key] = {
                "layer": layer, "bytes": len(text),
                "seq": self._index["seq"]}
            stats = self._layer_stats(layer)
            stats["stores"] += 1
            evicted = self._evict_locked()
            stats["evictions"] += evicted
            self._save_index()
            return evicted

    def _evict_locked(self) -> int:
        """Drop least-recently-used entries until under the size bound."""
        evicted = 0
        while self.total_bytes() > self.max_bytes \
                and len(self._index["entries"]) > 1:
            victim = min(self._index["entries"],
                         key=lambda k: self._index["entries"][k]["seq"])
            self._index["entries"].pop(victim)
            self._object_path(victim).unlink(missing_ok=True)
            evicted += 1
        return evicted

    # -- maintenance -------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(entry["bytes"]
                   for entry in self._index["entries"].values())

    def entry_count(self) -> int:
        return len(self._index["entries"])

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-layer lifetime counters plus entry/byte totals."""
        layers: Dict[str, Dict[str, int]] = {}
        for layer, counters in sorted(self._index["stats"].items()):
            layers[layer] = dict(counters)
            layers[layer].setdefault("entries", 0)
            layers[layer].setdefault("bytes", 0)
        for entry in self._index["entries"].values():
            layer = layers.setdefault(
                entry["layer"], {"hits": 0, "misses": 0, "stores": 0,
                                 "evictions": 0, "entries": 0, "bytes": 0})
            layer["entries"] = layer.get("entries", 0) + 1
            layer["bytes"] = layer.get("bytes", 0) + entry["bytes"]
        return layers

    def clear(self) -> int:
        """Delete every entry (counters reset too); returns count."""
        with self._lock:
            count = len(self._index["entries"])
            for key in list(self._index["entries"]):
                self._object_path(key).unlink(missing_ok=True)
            self._index = self._fresh_index()
            self._save_index()
            return count

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Re-validate objects and enforce the size bound.

        Drops index entries whose object file is missing or unreadable,
        deletes orphan object files, then evicts down to ``max_bytes``
        (default: the store's configured bound).  Returns the number of
        entries removed.
        """
        with self._lock:
            removed = 0
            for key in list(self._index["entries"]):
                try:
                    json.loads(self._object_path(key).read_text())
                except (OSError, ValueError):
                    self._index["entries"].pop(key)
                    self._object_path(key).unlink(missing_ok=True)
                    removed += 1
            known = set(self._index["entries"])
            for path in (self.root / OBJECTS_DIR).glob("*.json"):
                if path.stem not in known:
                    path.unlink(missing_ok=True)
            if max_bytes is not None:
                self.max_bytes = max_bytes
            removed += self._evict_locked()
            self._save_index()
            return removed


class FlowCache:
    """Layered content-addressed artifact cache for the HERMES flows.

    ``get``/``put`` are namespaced by producer *layer* ("hls", "fabric",
    "characterize", "radhard").  Values live in the in-memory LRU; when
    the cache has a directory and the caller supplies an encoder, a JSON
    payload is also persisted so later processes can warm-start.  Every
    lookup result is counted per layer, both on this object (``stats``)
    and — when a tracer is attached — as ``cache.hit`` / ``cache.miss``
    / ``cache.evict`` telemetry counters.
    """

    LAYERS = ("hls", "fabric", "characterize", "radhard", "mega",
              "service")

    def __init__(self, directory: Optional[Path] = None,
                 max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 tracer: Optional[Tracer] = None) -> None:
        self.memory = MemoryLRU(max_entries=max_entries)
        self.disk: Optional[DiskStore] = (
            DiskStore(Path(directory), max_bytes=max_bytes)
            if directory is not None else None)
        self.tracer = tracer
        self.stats: Dict[str, LayerStats] = {}
        self._lock = threading.Lock()

    # -- accounting --------------------------------------------------------

    def _count(self, layer: str, event: str, amount: int = 1) -> None:
        if amount <= 0:
            return
        with self._lock:
            stats = self.stats.setdefault(layer, LayerStats())
            if event == "hit":
                stats.hits += amount
            elif event == "miss":
                stats.misses += amount
            elif event == "store":
                stats.stores += amount
            else:
                stats.evictions += amount
            if self.tracer is not None and event != "store":
                name = {"hit": "cache.hit", "miss": "cache.miss",
                        "evict": "cache.evict"}[event]
                self.tracer.counter(f"{name}.{layer}", "cache").add(amount)

    def hit_count(self, layer: Optional[str] = None) -> int:
        layers = [layer] if layer else list(self.stats)
        return sum(self.stats[name].hits
                   for name in layers if name in self.stats)

    # -- lookup ------------------------------------------------------------

    def get(self, layer: str, key: str,
            decoder: Optional[Decoder] = None) -> Tuple[bool, Any]:
        """(hit, value) for ``key``; decoder revives disk payloads."""
        found, value = self.memory.get(key)
        if found:
            self._count(layer, "hit")
            return True, value
        if self.disk is not None and decoder is not None:
            payload = self.disk.get(key, layer)
            if payload is not None:
                try:
                    value = decoder(payload)
                except Exception:
                    # Payload decodes but doesn't revive (stale schema):
                    # treat as a miss; the next put overwrites it.
                    self._count(layer, "miss")
                    return False, None
                self.memory.put(key, value)
                self._count(layer, "hit")
                return True, value
        self._count(layer, "miss")
        return False, None

    def put(self, layer: str, key: str, value: Any,
            encoder: Optional[Encoder] = None) -> None:
        evicted = self.memory.put(key, value)
        self._count(layer, "evict", evicted)
        self._count(layer, "store")
        if self.disk is not None and encoder is not None:
            disk_evicted = self.disk.put(key, encoder(value), layer)
            self._count(layer, "evict", disk_evicted)

    def summary(self) -> str:
        parts = []
        for layer in sorted(self.stats):
            stats = self.stats[layer]
            parts.append(f"{layer}: {stats.hits} hit(s), "
                         f"{stats.misses} miss(es)")
        return "; ".join(parts) if parts else "cache idle"
