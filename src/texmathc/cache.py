"""Content-addressed render cache.

Keys hash the formula bytes together with the option fingerprint and the
registry's content digest, so identical inputs always hit the same entry
and any change to the registry invalidates everything by construction.
Entries are plain files under a two-level fan-out; writes go through a temp
file + rename so concurrent converters never see a torn entry.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from pathlib import Path

ENV_CACHE_DIR = "TEXMATHC_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return Path(base) / "texmathc"


class RenderCache:
    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    @staticmethod
    def key_for(formula: str, options_fingerprint: str, registry_digest: str) -> str:
        payload = "\x1f".join((formula, options_fingerprint, registry_digest))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / (key[2:] + ".mathml")

    def get(self, key: str) -> str | None:
        try:
            return self._path(key).read_text(encoding="utf-8")
        except OSError:
            return None

    def put(self, key: str, value: str) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(value)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> tuple[int, int]:
        """(entry count, total byte size)."""
        count = 0
        size = 0
        if not self.directory.is_dir():
            return (0, 0)
        for path in self.directory.rglob("*.mathml"):
            count += 1
            size += path.stat().st_size
        return (count, size)

    def purge(self) -> int:
        """Empty the cache atomically; returns the number of entries removed."""
        count, _ = self.stats()
        if not self.directory.is_dir():
            return 0
        graveyard = self.directory.with_name(self.directory.name + ".purged")
        suffix = 0
        while graveyard.exists():
            suffix += 1
            graveyard = self.directory.with_name(f"{self.directory.name}.purged{suffix}")
        os.replace(self.directory, graveyard)
        shutil.rmtree(graveyard, ignore_errors=True)
        return count
