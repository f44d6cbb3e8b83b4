"""Run manifests: what a command did, with what config, producing what.

Every CLI command writes one flat key-value manifest next to its outputs,
listing the resolved configuration, the seed, start/end timestamps, and a
hex-encoded 64-bit FNV-1a checksum per artifact (``serialize.digest``),
taken by ``serialize.write_file`` as it wrote the artifact: no artifact is
read back.  ``checksum_file`` is the reader that verifies one.
Replaying the command with the same config and seed reproduces identical
checksums (timestamps aside).
"""

from __future__ import annotations

from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path

from .config import format_kv
from .serialize import digest, write_file

__all__ = ["checksum_file", "RunManifest"]


def checksum_file(path: str | Path) -> str:
    """The ``serialize.digest`` of the file's bytes, read 64 KiB at a time."""
    with open(path, "rb") as fh:
        return digest(iter(lambda: fh.read(1 << 16), b""))


class RunManifest:
    """Collects command, config and ``{artifact: digest}``, then writes itself.

    A manifest already at ``path`` is removed when this one is made, so a
    command that fails after rewriting some artifacts leaves no manifest
    whose checksums they no longer match.  Make it before the first write.
    """

    def __init__(self, path: str | Path, command: str,
                 config: dict[str, str], seed: int | None):
        self.path = Path(path)
        self.command = command
        self.config = dict(config)
        self.seed = seed
        self.start_time = datetime.now(timezone.utc).isoformat()
        self.artifacts: dict[Path, str] = {}
        with suppress(FileNotFoundError, NotADirectoryError):  # none there
            self.path.unlink()

    def add_artifacts(self, digests: dict[Path, str]) -> None:
        self.artifacts.update(digests)

    def write(self) -> str:
        pairs: dict[str, str] = {"command": self.command}
        if self.seed is not None:
            pairs["seed"] = str(self.seed)
        for key, value in self.config.items():
            pairs[f"config.{key}"] = value
        pairs["start_time"] = self.start_time
        pairs["end_time"] = datetime.now(timezone.utc).isoformat()
        for artifact, digest in self.artifacts.items():
            pairs[f"output.{artifact.name}"] = str(artifact)
            pairs[f"checksum.{artifact.name}"] = digest
        return write_file(self.path, [format_kv(pairs).encode("utf-8")])
