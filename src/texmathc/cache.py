"""Content-addressed render cache.

Keys hash the formula bytes together with the option fingerprint and the
registry's content digest, so identical inputs always hit the same entry
and any change to the registry invalidates everything by construction.
Entries are plain files under a two-level fan-out, `<dir>/<k[:2]>/<k[2:]>.mathml`,
holding the value's UTF-8 bytes ("surrogatepass", so every `str` round-trips):
a hit is one open/read/close and returns exactly the string that was put, and
an entry that cannot be read or decoded is a miss.  A write goes to a temp
file created exclusively in the fan-out directory (made only when missing)
and is published by rename, so concurrent converters never see a torn entry.
A writer stopped mid-put leaves its temp file behind: `stats` counts such
files apart from the entries, and `purge` removes them with the entries.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path
from typing import NamedTuple

ENV_CACHE_DIR = "TEXMATHC_CACHE_DIR"

_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
_CHUNK = 1 << 16


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return Path(base) / "texmathc"


class CacheStats(NamedTuple):
    entries: int
    size: int  # bytes, entries only
    temp_files: int  # left by writes that never finished; not entries


class RenderCache:
    def __init__(self, directory: Path | str | None = None):
        self._root = os.fspath(directory or default_cache_dir())

    @property
    def directory(self) -> Path:
        return Path(self._root)

    @staticmethod
    def key_for(formula: str, options_fingerprint: str, registry_digest: str) -> str:
        payload = "\x1f".join((formula, options_fingerprint, registry_digest))
        return hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()

    def _path(self, key: str) -> str:
        return f"{self._root}/{key[:2]}/{key[2:]}.mathml"

    def get(self, key: str) -> str | None:
        try:
            fd = os.open(self._path(key), _READ_FLAGS)
        except OSError:
            return None
        try:
            chunks = []
            while chunk := os.read(fd, _CHUNK):
                chunks.append(chunk)
            return b"".join(chunks).decode("utf-8", "surrogatepass")
        except (OSError, UnicodeDecodeError):  # an unreadable or damaged entry is a miss
            return None
        finally:
            os.close(fd)

    def put(self, key: str, value: str) -> None:
        """Store `value` under `key`; raises OSError if it cannot be written."""
        data = memoryview(value.encode("utf-8", "surrogatepass"))
        path = self._path(key)
        fd, tmp = _create_temp(path)
        try:
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> CacheStats:
        """Entry count and byte size, and apart from them the temp files that
        writers stopped mid-put left behind."""
        entries = size = temp_files = 0
        for parent, _, names in os.walk(self._root):
            for name in names:
                if name.endswith(".mathml"):
                    entries += 1
                    size += os.stat(os.path.join(parent, name)).st_size
                elif name.endswith(".tmp"):
                    temp_files += 1
        return CacheStats(entries, size, temp_files)

    def purge(self) -> CacheStats:
        """Empty the cache atomically; returns the stats of what it removed."""
        removed = self.stats()
        if not self.directory.is_dir():
            return removed
        graveyard = self.directory.with_name(self.directory.name + ".purged")
        suffix = 0
        while graveyard.exists():
            suffix += 1
            graveyard = self.directory.with_name(f"{self.directory.name}.purged{suffix}")
        os.replace(self.directory, graveyard)
        shutil.rmtree(graveyard, ignore_errors=True)
        return removed


def _create_temp(path: str) -> tuple[int, str]:
    """A new file beside `path`, open for writing, and its name.  A name another
    writer holds is skipped; a missing fan-out directory is created once."""
    made_directory = False
    attempt = 0
    while True:
        tmp = f"{path}.{os.getpid()}.{attempt}.tmp"
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o600), tmp
        except FileExistsError:
            attempt += 1
        except FileNotFoundError:
            if made_directory:
                raise
            os.makedirs(os.path.dirname(path), exist_ok=True)
            made_directory = True
