"""Canonical content hashing for the flow cache.

A cache key is the SHA-256 digest of a *canonical* JSON rendering of the
inputs that determine an artifact: source text, flow options, device
parameters and a package-version salt.  Canonicalization makes hashing
independent of incidental representation — dict insertion order, tuple
vs list, set ordering — so the same logical inputs always land on the
same key, and any semantic change (an option, a device parameter, a new
package version) lands on a different one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping

from .. import __version__


class CacheKeyError(Exception):
    """An object that cannot be canonicalized into key material."""


def canonicalize(value: Any) -> Any:
    """Normalize ``value`` into canonical JSON-able structure.

    Mappings sort by (stringified) key, sequences keep order but become
    lists, sets become sorted lists, dataclasses become their field
    mapping, bytes become hex text.  Anything else must already be a
    JSON scalar.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonicalize(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): canonicalize(value[key])
                for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(item) for item in value)
    raise CacheKeyError(
        f"cannot canonicalize {type(value).__name__} into key material")


def canonical_json(value: Any) -> str:
    """The canonical JSON text of ``value`` (stable across orderings)."""
    return json.dumps(canonicalize(value), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


def content_key(layer: str, material: Mapping[str, Any],
                salt: str = __version__) -> str:
    """The content-addressed key for one artifact.

    ``layer`` namespaces producers (two layers can hash the same
    material without colliding); ``salt`` defaults to the package
    version, so upgrading the toolchain invalidates every entry at once.
    """
    payload = canonical_json({"layer": layer, "salt": salt,
                              "material": material})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- domain fingerprints ----------------------------------------------------


def netlist_fingerprint(netlist) -> str:
    """Digest of a technology netlist's logical content.

    Covers cells (kind, connectivity, init words) and the port lists —
    but *not* the netlist's display name.
    """
    material = {
        "cells": [
            {"name": cell.name, "kind": cell.kind,
             "inputs": list(cell.inputs), "output": cell.output,
             "init": cell.init}
            for cell in sorted(netlist.cells.values(),
                               key=lambda c: c.name)
        ],
        "inputs": list(netlist.inputs),
        "outputs": list(netlist.outputs),
    }
    return hashlib.sha256(
        canonical_json(material).encode("utf-8")).hexdigest()


def device_fingerprint(device) -> str:
    """Digest of an FPGA device model's parameters."""
    return hashlib.sha256(
        canonical_json(dataclasses.asdict(device)).encode("utf-8")
    ).hexdigest()


def library_fingerprint(library) -> str:
    """Digest of a characterized component library's records."""
    material: Dict[str, Any] = {
        "name": library.name,
        "records": [canonicalize(dataclasses.asdict(record))
                    for record in library.records()],
    }
    return hashlib.sha256(
        canonical_json(material).encode("utf-8")).hexdigest()
