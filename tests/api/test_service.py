"""Tests for SolverService: fingerprinting, caching, batching, artifacts."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunRecord, SolverService, config_fingerprint, run_scenario
from repro.api.service import FingerprintError
from repro.compute.cost_models import CostModel, f_eval_paper
from repro.core.config import paper_config
from repro.utils.parallel import parallel_map


def _closure_cost_config(seed=2):
    """A config whose cost curve is a local closure (no stable identity)."""
    def eval_cycles(lam):
        return f_eval_paper(lam)

    base = paper_config(seed=seed)
    return dataclasses.replace(
        base, cost_model=dataclasses.replace(base.cost_model, eval_cycles=eval_cycles)
    )


class TestFingerprint:
    def test_stable_across_identical_configs(self):
        assert config_fingerprint(paper_config(seed=3)) == config_fingerprint(
            paper_config(seed=3)
        )

    def test_differs_across_seeds(self):
        assert config_fingerprint(paper_config(seed=3)) != config_fingerprint(
            paper_config(seed=4)
        )

    def test_sensitive_to_modified_budgets(self, typical_cfg):
        modified = typical_cfg.with_total_bandwidth(2e7)
        assert config_fingerprint(typical_cfg) != config_fingerprint(modified)

    def test_closure_cost_curve_refused(self):
        """Closures have no stable identity — never hash a memory address."""
        with pytest.raises(FingerprintError, match="no stable identity"):
            config_fingerprint(_closure_cost_config())

    def test_unserializable_component_raises_fingerprint_error(self):
        """Duck-typed components degrade to FingerprintError, not TypeError."""
        class Duck:
            pass

        with pytest.raises(FingerprintError, match="uncached"):
            config_fingerprint(Duck())


class TestCache:
    def test_cache_hit_returns_identical_object(self, typical_cfg):
        service = SolverService()
        first = service.solve(typical_cfg)
        second = service.solve(typical_cfg)
        assert second is first
        info = service.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_equivalent_config_instance_hits(self):
        """A freshly built but identical config hits the same cache entry."""
        service = SolverService()
        first = service.solve(paper_config(seed=2))
        second = service.solve(paper_config(seed=2))
        assert second is first

    def test_warm_start_bypasses_cache(self, typical_cfg):
        service = SolverService()
        baseline = service.solve(typical_cfg)
        warm = service.solve(typical_cfg, initial=baseline.allocation)
        assert warm is not baseline
        assert service.cache_info()["size"] == 1

    def test_unfingerprintable_config_solved_without_caching(self):
        service = SolverService()
        cfg = _closure_cost_config()
        result = service.solve(cfg)
        assert result.converged
        assert service.cache_info()["size"] == 0
        assert service.solve(cfg) is not result  # re-solved, never cached

    def test_solve_many_mixes_cacheable_and_uncacheable(self):
        service = SolverService()
        configs = [paper_config(seed=2), _closure_cost_config(), paper_config(seed=2)]
        results = service.solve_many(configs)
        assert results[0] is results[2]  # deduplicated via fingerprint
        assert service.cache_info()["size"] == 1  # closure config not cached
        assert results[1].objective == pytest.approx(results[0].objective, rel=1e-6)

    def test_lru_eviction(self):
        service = SolverService(cache_size=1)
        service.solve(paper_config(seed=2))
        service.solve(paper_config(seed=3))
        assert service.cache_info()["size"] == 1
        # seed-2 was evicted: solving it again is a miss.
        before = service.cache_info()["misses"]
        service.solve(paper_config(seed=2))
        assert service.cache_info()["misses"] == before + 1


class TestLRUResultCache:
    def test_eviction_order_is_least_recently_used(self):
        from repro.api.service import LRUResultCache

        cache = LRUResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # bump a: b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_capacity_zero_stores_nothing(self):
        from repro.api.service import LRUResultCache

        cache = LRUResultCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0 and cache.get("a") is None


class TestPluggableCacheBackend:
    def test_custom_backend_receives_puts_and_serves_gets(self, typical_cfg):
        class DictBackend:
            capacity = 99

            def __init__(self):
                self.store = {}

            def get(self, key):
                return self.store.get(key)

            def put(self, key, result):
                self.store[key] = result

            def clear(self):
                self.store.clear()

            def __len__(self):
                return len(self.store)

        backend = DictBackend()
        service = SolverService(cache=backend)
        assert service.cache_size == 99  # capacity read off the backend
        assert service.cache_backend is backend
        first = service.solve(typical_cfg)
        assert len(backend.store) == 1
        assert service.solve(typical_cfg) is first
        assert service.cache_info()["hits"] == 1

    def test_cache_lookup_counts_hit_and_miss(self, typical_cfg):
        service = SolverService()
        key = config_fingerprint(typical_cfg)
        assert service.cache_lookup(key) is None
        result = service.solve(typical_cfg)
        assert service.cache_lookup(key) is result
        info = service.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2


class TestCachedText:
    """The text protocol the serve daemon splices into replies."""

    def test_lru_memoizes_text_on_first_probe(self, typical_cfg):
        from repro import io as repro_io
        from repro.api.service import LRUResultCache

        result = SolverService().solve(typical_cfg)
        cache = LRUResultCache(capacity=2)
        cache.put("a", result)
        text = cache.get_text("a")
        assert text == repro_io.payload_text(repro_io.result_to_dict(result))
        assert cache.get_text("a") is text  # encoded once
        assert cache.get("a") is result  # the object path never decodes
        assert cache.get_text("missing") is None

    def test_lru_put_payload_keeps_given_text_and_object(self):
        from repro.api.service import LRUResultCache

        cache = LRUResultCache(capacity=1)
        marker = object()
        cache.put_payload("a", {}, text="T", result=marker)
        assert cache.get("a") is marker and cache.get_text("a") == "T"
        cache.put("a", marker)  # a plain put drops the stale text
        assert cache._texts == {}
        cache.put_payload("a", {}, text="T", result=marker)
        cache.put_payload("b", {}, text="U", result=marker)  # evicts a
        assert cache.get_text("a") is None and cache._texts == {"b": "U"}
        cache.clear()
        assert len(cache) == 0 and cache._texts == {}

    def test_lookup_text_counts_like_lookup(self, typical_cfg):
        from repro import io as repro_io

        service = SolverService()
        key = config_fingerprint(typical_cfg)
        assert service.cache_lookup_text(key) is None
        result = service.solve(typical_cfg)
        assert service.cache_lookup_text(key) == repro_io.payload_text(
            repro_io.result_to_dict(result)
        )
        info = service.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2

    def test_store_payload_then_library_solve_returns_the_object(
        self, typical_cfg
    ):
        from repro import io as repro_io

        result = SolverService().solve(typical_cfg)
        payload = repro_io.result_to_dict(result)
        text = repro_io.payload_text(payload)
        service = SolverService()
        key = config_fingerprint(typical_cfg)
        service.cache_store_payload(key, payload, text=text, result=result)
        assert service.solve(typical_cfg) is result
        assert service.cache_lookup_text(key) is text

    def test_plain_backend_gets_decoded_objects_and_encoded_text(
        self, typical_cfg
    ):
        from repro import io as repro_io

        class DictBackend(dict):
            capacity = 4

            def put(self, key, result):
                self[key] = result

        result = SolverService().solve(typical_cfg)
        payload = repro_io.result_to_dict(result)
        service = SolverService(cache=DictBackend())
        service.cache_store_payload("k", payload)
        assert repro_io.result_to_dict(service.cache_backend["k"]) == payload
        assert service.cache_lookup_text("k") == repro_io.payload_text(payload)

    def test_store_results_false_reads_but_does_not_write(self, typical_cfg):
        service = SolverService()
        key = config_fingerprint(typical_cfg)
        service.solve_many([typical_cfg], store_results=False)
        assert service.cache_lookup(key) is None
        cached = service.solve(typical_cfg)
        again = service.solve_many([typical_cfg], store_results=False)
        assert again[0] is cached


class TestConcurrencySafety:
    def test_threaded_prime_and_lookup_stay_consistent(self):
        """Hammer the cache from several threads: no exceptions, size
        bounded by capacity, counters sum to the number of operations."""
        import threading

        service = SolverService(cache_size=8)
        errors = []

        def worker(tag):
            try:
                for i in range(200):
                    key = f"{tag}-{i % 16}"
                    service._cache_put(key, object())
                    service._cache_get(key)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = service.cache_info()
        assert info["size"] <= 8
        assert info["hits"] + info["misses"] == 4 * 200

    def test_note_coalesced_is_atomic_across_threads(self):
        import threading

        service = SolverService()
        threads = [
            threading.Thread(
                target=lambda: [service.note_coalesced() for _ in range(500)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert service.cache_info()["coalesced"] == 2000

    def test_solve_many_duplicates_count_as_coalesced(self):
        service = SolverService()
        cfg = paper_config(seed=2)
        service.solve_many([cfg, cfg, cfg, paper_config(seed=3)])
        assert service.cache_info()["coalesced"] == 2

    def test_dispatch_booked_requests_count_exactly_once(self):
        """Regression (ISSUE 10): a dispatcher that books hit/miss itself
        at lookup time (the serve daemon pattern) must be able to hand the
        misses to ``solve_many``/``solve_batch`` without the solve path
        booking them a second time.  Each logical request lands in the
        counters exactly once — even when a waiter that coalesced behind an
        in-flight solve retries and finds the entry already cached."""
        import threading

        from repro.core.batch import ConfigBatch

        service = SolverService()
        cfg = paper_config(seed=2)
        key = config_fingerprint(cfg)
        n_threads, per_thread = 4, 3
        barrier = threading.Barrier(n_threads)
        errors = []

        def dispatcher(use_batch):
            try:
                barrier.wait()
                for _ in range(per_thread):
                    # Dispatch-time booking: cache_lookup counts the hit or
                    # the miss for this logical request.
                    if service.cache_lookup(key) is not None:
                        continue
                    if use_batch:
                        service.solve_batch(
                            ConfigBatch.from_configs([cfg]),
                            count_cache_stats=False,
                        )
                    else:
                        service.solve_many(
                            [cfg], count_cache_stats=False
                        )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=dispatcher, args=(t % 2 == 0,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = service.cache_info()
        # Every logical request was booked exactly once at dispatch; the
        # uncounted solve-path probes must not inflate either counter.
        assert info["hits"] + info["misses"] == n_threads * per_thread
        assert info["coalesced"] == 0

    def test_count_cache_stats_false_still_uses_cache(self):
        """Uncounted probes are probes, not bypasses: a warm entry is
        still served (identical object), just without touching counters."""
        service = SolverService()
        cfg = paper_config(seed=2)
        first = service.solve(cfg)
        info_before = service.cache_info()
        again = service.solve_many([cfg, cfg], count_cache_stats=False)
        assert again[0] is first and again[1] is first
        info_after = service.cache_info()
        assert info_after["hits"] == info_before["hits"]
        assert info_after["misses"] == info_before["misses"]
        assert info_after["coalesced"] == info_before["coalesced"]


class TestSolveMany:
    @pytest.fixture(scope="class")
    def configs(self):
        return [paper_config(seed=s) for s in (2, 3, 2)]

    def test_parallel_identical_to_serial(self, configs):
        serial = SolverService().solve_many(configs, backend="serial")
        pooled = SolverService().solve_many(
            configs, backend="pool", workers=2
        )
        batched = SolverService().solve_many(configs, backend="batched")
        for a, b, c in zip(serial, pooled, batched):
            # The pool runs the same scalar code bit-for-bit; the batched
            # backend shares the scalar core within the 1e-9 contract.
            assert a.objective == pytest.approx(b.objective, rel=1e-12)
            assert abs(a.objective - c.objective) <= 1e-9
            assert np.allclose(a.allocation.phi, b.allocation.phi)
            assert np.allclose(a.allocation.b, b.allocation.b)

    def test_duplicates_solved_once_and_shared(self, configs):
        service = SolverService()
        results = service.solve_many(configs)
        assert results[0] is results[2]
        assert service.cache_info()["size"] == 2

    def test_cached_entries_skip_solving(self, configs):
        service = SolverService()
        first = service.solve(configs[0])
        results = service.solve_many(configs)
        assert results[0] is first

    def test_progress_reaches_total(self, configs):
        ticks = []
        SolverService().solve_many(
            configs, progress=lambda done, total: ticks.append((done, total))
        )
        assert ticks[-1] == (len(configs), len(configs))
        done_values = [d for d, _ in ticks]
        assert done_values == sorted(done_values)

    def test_batched_progress_fires_per_config(self):
        """The batched backend must tick per input config, not once for
        the whole batch (or once per shape group)."""
        configs = [paper_config(seed=s) for s in (2, 3, 4)]
        ticks = []
        service = SolverService()
        service.solve_many(
            configs,
            backend="batched",
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert service.last_backend == "batched"
        assert ticks == [(1, 3), (2, 3), (3, 3)]

    def test_batched_progress_counts_duplicates_and_cache_hits(self):
        """Duplicates and pre-cached configs count toward done on the tick
        of the config that owns them; the final tick is (total, total)."""
        service = SolverService()
        a, b = paper_config(seed=2), paper_config(seed=3)
        service.solve(a)  # pre-cache a
        ticks = []
        service.solve_many(
            [a, b, a, b],
            backend="batched",
            progress=lambda done, total: ticks.append((done, total)),
        )
        # a (and its duplicate) are done before solving starts; b's solve
        # then completes b and its duplicate in one per-config tick.
        assert ticks[0] == (2, 4)
        assert ticks[-1] == (4, 4)

    def test_batched_progress_across_shape_groups(self):
        """A ragged batch spans shape groups; ticks stay per-config and
        monotonic, ending exactly at (total, total)."""
        from repro.quantum.topology import QKDNetwork

        small = QKDNetwork.from_edge_list(
            [("KC", "A", 8.0)], ["A"], key_center="KC"
        )
        configs = [
            paper_config(seed=2),
            paper_config(seed=5, network=small),
            paper_config(seed=3),
        ]
        ticks = []
        SolverService().solve_many(
            configs,
            backend="batched",
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert len(ticks) == 3
        assert ticks[-1] == (3, 3)
        done_values = [d for d, _ in ticks]
        assert done_values == sorted(done_values)


class TestSolveBatch:
    """Service-level columnar entry point: ``solve_batch(ConfigBatch)``."""

    def test_matches_solve_many_and_populates_cache(self):
        from repro.core.batch import ConfigBatch, SolutionBatch

        configs = [paper_config(seed=s) for s in (2, 3)]
        reference = SolverService().solve_many(
            configs, backend="batched", use_cache=False
        )
        service = SolverService()
        solution = service.solve_batch(ConfigBatch.from_configs(configs))
        assert isinstance(solution, SolutionBatch)
        assert service.last_backend == "batched"
        for view, ref in zip(solution, reference):
            assert view.objective == ref.objective
        # The batch solve primed the scalar cache: solve() now hits.
        assert service.solve(configs[0]).objective == reference[0].objective
        assert service.cache_info()["hits"] == 1

    def test_mixed_cached_and_pending_keeps_submission_order(self):
        from repro.core.batch import ConfigBatch

        service = SolverService()
        a, b, c = (paper_config(seed=s) for s in (2, 3, 4))
        service.solve(b)  # pre-cache the middle config only
        solution = service.solve_batch(ConfigBatch.from_configs([a, b, c]))
        fresh = SolverService().solve_batch(
            ConfigBatch.from_configs([a, b, c]), use_cache=False
        )
        for i in range(3):
            assert solution[i].objective == fresh[i].objective

    def test_duplicates_coalesce(self):
        from repro.core.batch import ConfigBatch

        service = SolverService()
        cfg = paper_config(seed=2)
        service.solve_batch(ConfigBatch.from_configs([cfg, cfg, cfg]))
        info = service.cache_info()
        assert info["coalesced"] == 2
        assert info["misses"] == 1


class TestParallelMap:
    def test_order_preserved(self):
        assert parallel_map(str, [3, 1, 2], workers=2) == ["3", "1", "2"]

    def test_unpicklable_fn_falls_back_to_serial(self):
        offset = 10
        result = parallel_map(lambda x: x + offset, [1, 2, 3], workers=2)
        assert result == [11, 12, 13]

    def test_progress_serial(self):
        ticks = []
        parallel_map(str, [1, 2], progress=lambda d, t: ticks.append((d, t)))
        assert ticks == [(1, 2), (2, 2)]


class TestRunRecords:
    def test_record_contains_params_seed_result_timings(self, tmp_path):
        record = run_scenario("fig3", {"samples": 2, "seed": 1})
        assert record.scenario == "fig3"
        assert record.seed == 1
        assert record.params["samples"] == 2
        assert record.runtime_s > 0
        payload = record.to_dict()
        assert payload["result"]["kind"] == "optimality_study"

    def test_save_and_load_roundtrip(self, tmp_path):
        record = run_scenario("fig3", {"samples": 2, "seed": 1})
        target = record.save(tmp_path)
        assert (target / "record.json").exists()
        assert (target / "result.json").exists()
        loaded = RunRecord.load(target)
        assert loaded.scenario == record.scenario
        assert loaded.params == record.params
        assert np.allclose(loaded.result.values, record.result.values)

    def test_out_dir_plumbing(self, tmp_path):
        record = run_scenario("fig3", {"samples": 2}, out_dir=str(tmp_path))
        assert (tmp_path / record.run_id / "record.json").exists()

    def test_record_carries_cache_stats_delta(self, tmp_path):
        """Scenario runs record the solver-cache activity they caused."""
        from repro.api.scenarios import SERVICE

        SERVICE.clear_cache()
        first = run_scenario("solve", {"seed": 6})
        assert first.cache_stats == {"hits": 0, "misses": 1, "coalesced": 0}
        second = run_scenario("solve", {"seed": 6})
        assert second.cache_stats == {"hits": 1, "misses": 0, "coalesced": 0}
        target = second.save(tmp_path)
        assert RunRecord.load(target).cache_stats == second.cache_stats

    def test_identical_runs_get_distinct_run_ids(self, tmp_path):
        """Same scenario + params within one second must not overwrite."""
        first = run_scenario("fig3", {"samples": 2}, out_dir=str(tmp_path))
        second = run_scenario("fig3", {"samples": 2}, out_dir=str(tmp_path))
        assert first.run_id != second.run_id
        assert len(list(tmp_path.glob("*/record.json"))) == 2
