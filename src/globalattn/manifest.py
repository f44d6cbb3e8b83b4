"""Run manifests: what a command did, with what config, producing what.

Every CLI command writes one flat key-value manifest next to its outputs,
listing the resolved configuration, the seed, start/end timestamps, and a
hex-encoded 64-bit FNV-1a checksum per artifact (``seeding.fnv1a64``, a
vectorised form of the byte-at-a-time loop with the same digests), which
streams the file rather than reading it whole.
Replaying the command with the same config and seed reproduces identical
checksums (timestamps aside).
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

from .config import format_kv
from .seeding import _FNV_CHUNK, fnv1a64_chunks

__all__ = ["checksum_file", "RunManifest"]


def checksum_file(path: str | Path) -> str:
    """Hex 64-bit FNV-1a over the file's bytes, zero-padded to 16 digits,
    read ``_FNV_CHUNK`` bytes at a time."""
    with open(path, "rb") as fh:
        digest = fnv1a64_chunks(iter(lambda: fh.read(_FNV_CHUNK), b""))
    return f"{digest:016x}"


class RunManifest:
    """Collects command, config, outputs and checksums, then writes itself."""

    def __init__(self, command: str, config: dict[str, str], seed: int | None):
        self.command = command
        self.config = dict(config)
        self.seed = seed
        self.start_time = datetime.now(timezone.utc).isoformat()
        self.artifacts: list[Path] = []

    def add_artifact(self, path: str | Path) -> None:
        self.artifacts.append(Path(path))

    def add_artifacts(self, paths) -> None:
        for p in paths:
            self.add_artifact(p)

    def write(self, path: str | Path) -> Path:
        pairs: dict[str, str] = {"command": self.command}
        if self.seed is not None:
            pairs["seed"] = str(self.seed)
        for key, value in self.config.items():
            pairs[f"config.{key}"] = value
        pairs["start_time"] = self.start_time
        pairs["end_time"] = datetime.now(timezone.utc).isoformat()
        for artifact in self.artifacts:
            pairs[f"output.{artifact.name}"] = str(artifact)
            pairs[f"checksum.{artifact.name}"] = checksum_file(artifact)
        path = Path(path)
        path.write_text(format_kv(pairs))
        return path
