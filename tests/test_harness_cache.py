"""Content-hash result cache: keys, tiers, hit/cold equivalence."""

import json

from repro.atpg import RandomPhaseConfig
from repro.bench import load
from repro.harness import ExperimentConfig, render_table, \
    synthesize_flow_result
from repro.harness.cache import (BIT_INDEPENDENT_FLOWS, ResultCache,
                                 cell_key, run_cell_cached, synthesis_key)
from repro.runtime import Budget, restore_cell
from repro.synth import SynthesisParams


def _tiny_config(bits: int) -> ExperimentConfig:
    return ExperimentConfig(
        bits=bits, fault_fraction=0.25,
        random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                 sequence_length=12),
        max_backtracks=16)


class TestKeys:
    def test_synthesis_key_is_stable(self):
        dfg = load("ex")
        assert synthesis_key(dfg, "camad") == synthesis_key(dfg, "camad")

    def test_baseline_keys_are_bit_independent(self):
        dfg = load("ex")
        for flow in sorted(BIT_INDEPENDENT_FLOWS):
            assert synthesis_key(dfg, flow, bits=4) == \
                synthesis_key(dfg, flow, bits=16)

    def test_ours_key_covers_bits_and_params(self):
        dfg = load("ex")
        base = synthesis_key(dfg, "ours", SynthesisParams(), 4)
        assert base != synthesis_key(dfg, "ours", SynthesisParams(), 8)
        assert base != synthesis_key(dfg, "ours", SynthesisParams(k=6), 4)

    def test_key_covers_the_dfg(self):
        assert synthesis_key(load("ex"), "camad") != \
            synthesis_key(load("dct"), "camad")

    def test_cell_key_covers_the_config(self):
        dfg = load("ex")
        assert cell_key(dfg, "camad", 4, _tiny_config(4)) != \
            cell_key(dfg, "camad", 4, ExperimentConfig(bits=4))

    def test_cell_key_covers_narrowing_knobs(self):
        # A narrowed cell and a plain one must never share a key, nor
        # may two narrowed cells with different input assumptions.
        dfg = load("ex")
        plain = cell_key(dfg, "ours", 16, ExperimentConfig(bits=16))
        narrowed = cell_key(dfg, "ours", 16,
                            ExperimentConfig(bits=16, narrow_widths=True))
        assumed = cell_key(dfg, "ours", 16,
                           ExperimentConfig(bits=16, narrow_widths=True,
                                            narrow_input_bits=8))
        assert len({plain, narrowed, assumed}) == 3


class TestSynthesisTier:
    def test_baseline_synthesis_shared_across_widths(self):
        cache = ResultCache()
        synthesize_flow_result("ex", "camad", 4, cache=cache)
        before = cache.stats.snapshot()
        wide = synthesize_flow_result("ex", "camad", 16, cache=cache)
        delta = cache.stats.delta(before)
        assert delta.memory_hits == 1 and delta.misses == 0
        wide.design.validate()  # the restored design is structurally sound

    def test_unrestorable_payload_is_a_miss_not_a_hit(self, tmp_path):
        shared = tmp_path / "cache"
        synthesize_flow_result("ex", "camad", 4,
                               cache=ResultCache(cache_dir=shared))
        [entry] = shared.glob("*/*.json")
        data = json.loads(entry.read_text())
        data["payload"]["design"] = {"format": "not-a-design"}
        entry.write_text(json.dumps(data))
        fresh = ResultCache(cache_dir=shared)
        result = synthesize_flow_result("ex", "camad", 4, cache=fresh)
        result.design.validate()  # recomputed, not restored
        assert fresh.stats.hits == 0
        assert fresh.stats.misses == 1 and fresh.stats.stores == 1

    def test_degraded_synthesis_never_stored(self):
        class Starved:
            degraded = True
        cache = ResultCache()
        cache.put_synthesis("k", Starved())  # type: ignore[arg-type]
        assert len(cache) == 0


class TestCellTier:
    def test_hit_rows_equal_cold_rows(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path / "cache")
        cold = run_cell_cached("ex", "camad", _tiny_config(4), cache=cache)
        assert cache.stats.misses >= 1 and cache.stats.hits == 0
        before = cache.stats.snapshot()
        warm = run_cell_cached("ex", "camad", _tiny_config(4), cache=cache)
        delta = cache.stats.delta(before)
        assert delta.memory_hits == 1 and delta.misses == 0
        assert warm["provenance"]["cache_key"] == \
            cold["provenance"]["cache_key"]
        # The hit restores the stored record verbatim, wall clock and
        # all, so the rendered table is byte-identical to the cold run.
        assert warm == cold
        assert render_table("ex", [restore_cell(warm)]) == \
            render_table("ex", [restore_cell(cold)])

    def test_disk_tier_survives_a_new_process_worth_of_state(self, tmp_path):
        shared = tmp_path / "cache"
        first = ResultCache(cache_dir=shared)
        cold = run_cell_cached("ex", "camad", _tiny_config(4), cache=first)
        fresh = ResultCache(cache_dir=shared)   # empty memory tier
        warm = run_cell_cached("ex", "camad", _tiny_config(4), cache=fresh)
        assert warm == cold
        assert fresh.stats.disk_hits >= 1 and fresh.stats.misses == 0

    def test_degraded_cell_never_cached(self):
        cache = ResultCache()
        record = run_cell_cached(
            "ex", "ours", _tiny_config(4), cache=cache,
            budget=Budget(max_steps=1))
        assert record["row"]["degraded"] is True
        assert any("budget_exhausted" in reason
                   for reason in record["provenance"]["degradation"])
        assert cache.get_cell(record["provenance"]["cache_key"]) is None

    def test_returned_record_does_not_alias_the_cache(self):
        cache = ResultCache()
        cold = run_cell_cached("ex", "camad", _tiny_config(4), cache=cache)
        cold["row"]["coverage_pct"] = -1.0
        warm = run_cell_cached("ex", "camad", _tiny_config(4), cache=cache)
        assert warm["row"]["coverage_pct"] != -1.0

    def test_no_cache_record_has_no_cache_key(self):
        record = run_cell_cached("ex", "camad", _tiny_config(4))
        assert record["kind"] == "cell" and record["flow"] == "camad"
        assert "cache_key" not in record.get("provenance", {})

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        writer = ResultCache(cache_dir=tmp_path)
        writer.put("aa" + "0" * 62, {"kind": "cell"})
        entry = writer._disk_path("aa" + "0" * 62)
        entry.write_text("{ not json")
        reader = ResultCache(cache_dir=tmp_path)
        assert reader.get("aa" + "0" * 62) is None
        assert reader.stats.misses == 1

    def test_non_cell_payload_is_a_cell_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("dd" + "0" * 62, {"kind": "synthesis"})
        assert cache.get_cell("dd" + "0" * 62) is None
        assert cache.stats.hits == 0 and cache.stats.misses == 1
        assert len(cache) == 0  # dropped from the memory tier too

    def test_wrong_key_disk_entry_is_a_miss(self, tmp_path):
        writer = ResultCache(cache_dir=tmp_path)
        writer.put("bb" + "0" * 62, {"kind": "cell"})
        entry = writer._disk_path("bb" + "0" * 62)
        moved = entry.parent / ("cc" + "0" * 62 + ".json")
        moved.write_text(entry.read_text())
        reader = ResultCache(cache_dir=tmp_path)
        reader._disk_path = lambda key: moved  # type: ignore[method-assign]
        assert reader.get("cc" + "0" * 62) is None


class TestMemoryLru:
    def test_cap_evicts_the_least_recently_used(self):
        cache = ResultCache(memory_cap=2)
        for key in ("k1", "k2", "k3"):
            cache.put(key, {"kind": "cell", "id": key})
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.get("k1") is None  # no disk tier: evicted == gone
        assert cache.get("k3")["id"] == "k3"

    def test_get_refreshes_recency(self):
        cache = ResultCache(memory_cap=2)
        cache.put("old", {"kind": "cell"})
        cache.put("young", {"kind": "cell"})
        assert cache.get("old") is not None  # touch: old is now MRU
        cache.put("newest", {"kind": "cell"})
        assert cache.get("old") is not None
        assert cache.get("young") is None

    def test_zero_cap_means_unbounded(self):
        cache = ResultCache(memory_cap=0)
        for n in range(2000):
            cache.put(f"k{n}", {"kind": "cell"})
        assert len(cache) == 2000 and cache.evictions == 0

    def test_evicted_entry_is_still_a_disk_hit(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, memory_cap=1)
        cache.put("aa" + "0" * 62, {"kind": "cell", "id": "first"})
        cache.put("bb" + "0" * 62, {"kind": "cell", "id": "second"})
        assert cache.evictions == 1
        payload = cache.get("aa" + "0" * 62)
        assert payload is not None and payload["id"] == "first"
        assert cache.stats.disk_hits == 1  # served by the durable tier
