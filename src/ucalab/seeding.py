"""Deterministic seed derivation so every pipeline stage gets its own stream.

Stage seeds are hashes of (master seed, stage label); changing one stage's
label or seed never silently shifts the draws of another stage.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
