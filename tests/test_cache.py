from __future__ import annotations

from texmathc import convert_formula, default_registry
from texmathc.cache import RenderCache
from texmathc.registry import dump_registry, parse_registry_text


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
    count, size = cache.stats()
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
    assert cache.purge() == 3
    assert cache.stats() == (0, 0)
    assert cache.purge() == 0


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
