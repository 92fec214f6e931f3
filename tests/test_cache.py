from __future__ import annotations

import errno
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import texmathc
from texmathc import convert_formula, default_registry
from texmathc.cache import RenderCache
from texmathc.registry import dump_registry, parse_registry_text

SRC = str(Path(texmathc.__file__).resolve().parents[1])


def test_key_is_deterministic():
    k1 = RenderCache.key_for("x^2", "display=inline", "1.0.0")
    k2 = RenderCache.key_for("x^2", "display=inline", "1.0.0")
    assert k1 == k2
    assert len(k1) == 64


def test_key_varies_with_each_component():
    base = RenderCache.key_for("x", "display=inline", "1.0.0")
    assert RenderCache.key_for("y", "display=inline", "1.0.0") != base
    assert RenderCache.key_for("x", "display=block", "1.0.0") != base
    # a registry upgrade self-invalidates every entry
    assert RenderCache.key_for("x", "display=inline", "2.0.0") != base


def test_put_get_roundtrip(tmp_path):
    cache = RenderCache(tmp_path / "c")
    key = RenderCache.key_for("x", "o", "v")
    assert cache.get(key) is None
    cache.put(key, "<math/>")
    assert cache.get(key) == "<math/>"
    count, size, _ = cache.stats()
    assert count == 1 and size == len("<math/>")


def test_two_level_fanout(tmp_path):
    cache = RenderCache(tmp_path / "c")
    key = RenderCache.key_for("x", "o", "v")
    cache.put(key, "data")
    assert (tmp_path / "c" / key[:2] / (key[2:] + ".mathml")).is_file()


def test_purge_counts_and_empties(tmp_path):
    cache = RenderCache(tmp_path / "c")
    for i in range(3):
        cache.put(RenderCache.key_for(str(i), "o", "v"), "d")
    assert cache.purge().entries == 3
    assert cache.stats() == (0, 0, 0)
    assert cache.purge().entries == 0


def test_registries_sharing_a_version_do_not_share_entries(tmp_path):
    text = dump_registry(default_registry())
    beta = parse_registry_text(
        text.replace("alpha\t0\tidentifier\t03B1", "alpha\t0\tidentifier\t03B2"))
    assert beta.version == default_registry().version
    cache = RenderCache(tmp_path / "c")
    alpha_out = convert_formula("\\alpha", registry=default_registry(), cache=cache)
    beta_out = convert_formula("\\alpha", registry=beta, cache=cache)
    assert "α" in alpha_out
    assert "β" in beta_out


# -- byte-exact hits ------------------------------------------------------


@pytest.mark.parametrize("value", ["a\r\nb", "a\rb", "é日", "a\ud800b"])
def test_roundtrip_is_byte_exact(tmp_path, value):
    cache = RenderCache(tmp_path / "c")
    key = RenderCache.key_for(value, "o", "v")
    cache.put(key, value)
    assert cache.get(key) == value
    assert cache.stats() == (1, len(value.encode("utf-8", "surrogatepass")), 0)


@pytest.mark.parametrize("source", [
    "\\text{a\rb}", "\\text{a\r\nb}", "\\operatorname{a\rb}", "\\text{a\ud800}",
])
def test_hit_returns_the_miss_bytes(tmp_path, source):
    cache = RenderCache(tmp_path / "c")
    events = []
    miss = convert_formula(source, cache=cache, log=events.append)
    hit = convert_formula(source, cache=cache, log=events.append)
    assert [e.split()[1] for e in events] == ["miss", "hit"]
    assert hit == miss == convert_formula(source)


# -- a cache that cannot serve or store -----------------------------------


def test_undecodable_entry_is_a_miss_and_is_rewritten(tmp_path):
    cache = RenderCache(tmp_path / "c")
    expected = convert_formula("x+y", cache=cache)
    (entry,) = cache.directory.rglob("*.mathml")
    entry.write_bytes(b"<math>\xff\xfe</math>")
    events = []
    assert convert_formula("x+y", cache=cache, log=events.append) == expected
    assert [e.split()[:2] for e in events] == [["cache", "miss"]]
    assert entry.read_bytes() == expected.encode("utf-8")


def test_unusable_directory_costs_a_rerender(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    cache = RenderCache(blocker)
    events = []
    assert convert_formula("x+y", cache=cache, log=events.append) == convert_formula("x+y")
    assert events[0].startswith("cache miss ")
    assert events[1].startswith("cache write skipped")
    assert len(events) == 2
    assert cache.get(RenderCache.key_for("x", "o", "v")) is None
    assert cache.stats() == (0, 0, 0)


def test_key_for_accepts_a_lone_surrogate():
    assert RenderCache.key_for("\ud800", "o", "v") != RenderCache.key_for("\udfff", "o", "v")


# -- concurrency and hygiene ----------------------------------------------

_WRITER = """
import sys
from texmathc.cache import RenderCache
cache = RenderCache(sys.argv[1])
for _ in range(int(sys.argv[3])):
    cache.put(sys.argv[2], sys.argv[4])
"""


def _temp_files(root):
    return [p for p in root.rglob("*") if p.is_file() and not p.name.endswith(".mathml")]


def test_concurrent_writers_never_show_a_torn_entry(tmp_path):
    root = tmp_path / "c"
    cache = RenderCache(root)
    key = RenderCache.key_for("x", "o", "v")
    values = ("<math>" + "a" * 7 + "</math>", "<math>" + "b" * 20000 + "</math>")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    writers = [subprocess.Popen([sys.executable, "-c", _WRITER, str(root), key, "300", value],
                                env=env)
               for value in values]
    reads = []
    deadline = time.monotonic() + 60
    try:
        while any(w.poll() is None for w in writers) and time.monotonic() < deadline:
            reads.append(cache.get(key))
    finally:
        codes = [w.wait(timeout=60) for w in writers]
    assert codes == [0, 0]
    assert set(reads) <= {None, *values}
    assert len(reads) > 0
    assert cache.get(key) in values
    assert _temp_files(root) == []
    count, _, _ = cache.stats()
    assert count == 1


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = RenderCache(tmp_path / "c")
    key = RenderCache.key_for("x", "o", "v")

    def full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    with pytest.raises(OSError):
        cache.put(key, "<math/>")
    monkeypatch.undo()
    assert _temp_files(tmp_path / "c") == []
    assert cache.get(key) is None


def test_put_succeeds_when_its_temp_name_is_taken(tmp_path, monkeypatch):
    cache = RenderCache(tmp_path / "c")
    key = RenderCache.key_for("x", "o", "v")
    cache.put(RenderCache.key_for("y", "o", "v"), "other")  # some entry exists
    real_open = os.open
    taken = []

    def open_after_another_writer(path, flags, *args, **kwargs):
        if flags & os.O_EXCL and not taken:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_bytes(b"left by another writer")
            taken.append(Path(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", open_after_another_writer)
    cache.put(key, "<math/>")
    monkeypatch.undo()
    assert len(taken) == 1
    assert cache.get(key) == "<math/>"
    assert taken[0].read_bytes() == b"left by another writer"


def _plant_temp_file(cache: RenderCache, key: str) -> Path:
    """What a writer stopped between creating its temp file and renaming it leaves."""
    temp = cache.directory / key[:2] / f"{key[2:]}.mathml.4242.0.tmp"
    temp.parent.mkdir(parents=True, exist_ok=True)
    temp.write_bytes(b"<math><mi>half")
    return temp


def test_stats_counts_temp_files_apart_from_entries(tmp_path):
    cache = RenderCache(tmp_path / "c")
    cache.put(RenderCache.key_for("x", "o", "v"), "<math/>")
    _plant_temp_file(cache, RenderCache.key_for("x", "o", "v"))
    _plant_temp_file(cache, RenderCache.key_for("y", "o", "v"))
    stats = cache.stats()
    assert stats == (1, len("<math/>"), 2)
    assert (stats.entries, stats.size, stats.temp_files) == (1, 7, 2)


def test_purge_reports_the_temp_files_it_removed(tmp_path):
    cache = RenderCache(tmp_path / "c")
    cache.put(RenderCache.key_for("x", "o", "v"), "<math/>")
    temp = _plant_temp_file(cache, RenderCache.key_for("y", "o", "v"))
    assert cache.purge() == (1, len("<math/>"), 1)
    assert not temp.exists()
    assert cache.stats() == (0, 0, 0)


def test_cache_commands_report_temp_files(tmp_path, monkeypatch, capsys):
    from texmathc.cli import main

    cache = RenderCache(tmp_path / "cli")
    monkeypatch.setenv("TEXMATHC_CACHE_DIR", str(cache.directory))
    cache.put(RenderCache.key_for("x", "o", "v"), "<math/>")
    _plant_temp_file(cache, RenderCache.key_for("y", "o", "v"))
    assert main(["cache", "stats"]) == 0
    assert capsys.readouterr().out == "1 entry, 7 bytes, 1 temp file\n"
    assert main(["cache", "purge"]) == 0
    assert capsys.readouterr().out == "1 entries and 1 temp file removed\n"
    assert main(["cache", "stats"]) == 0
    assert capsys.readouterr().out == "0 entries, 0 bytes\n"
