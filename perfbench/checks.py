"""Correctness checks applied to every benchmark operation.

A check returns ``None`` for a good output and a one-line reason otherwise;
the harness counts every reason as a failed operation.
"""
from __future__ import annotations

import hashlib
import json
import math


def canonical_checksum(result: dict) -> str:
    """sha256 of a CLI ``result`` payload, serialised as the CLI manifest does."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def document_errors(doc: dict, validator, pinned: str | None) -> str | None:
    """Schema, manifest checksum and (when pinned) byte identity of ``result``."""
    errors = sorted(validator.iter_errors(doc), key=str)
    if errors:
        return f"schema: {errors[0].message}"
    digest = canonical_checksum(doc["result"])
    if doc["manifest"]["checksum"] != digest:
        return f"manifest checksum {doc['manifest']['checksum'][:12]} != {digest[:12]}"
    if pinned is not None and digest != pinned:
        return f"result checksum {digest[:12]} != pinned {pinned[:12]}"
    return None


def within_sigma(name: str, value: float, expected: float, sigma: float, k: float = 5.0):
    """``value`` lies within k standard errors of ``expected``.  The small
    absolute floor lets a zero-variance expectation (perfect agreement) pass
    only when it is met exactly, up to rounding."""
    if not math.isfinite(value) or abs(value - expected) > k * sigma + 1e-12:
        return f"{name} {value!r} outside {expected:.6g} +/- {k}*{sigma:.3g}"
    return None


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else math.inf


def all_finite(obj) -> bool:
    """Every number inside a JSON-like value is finite (booleans are not numbers)."""
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True
