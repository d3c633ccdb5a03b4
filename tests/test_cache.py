"""The content-addressed operator cache (repro.core.cache).

Three contracts, each tested here:

* **Canonical form** — :func:`fingerprint` is invariant under label
  renaming and *complete*: two corpus problems share a fingerprint
  exactly when :meth:`Problem.find_isomorphism` finds a witness.
* **Transparency** — cached, uncached-kernel, and reference engines
  produce identical problems (or identical ``InvalidProblem``
  verdicts) over the full differential corpus, and warm reruns of
  ``run_chain`` / ``build_certificate`` persist byte-identical
  checkpoints and render identically (modulo the observational
  ``cache:`` / ``trace:`` provenance lines).
* **Robustness** — a torn or tampered on-disk entry is detected by its
  seal, evicted, and recomputed, never trusted; a budget trip in the
  middle of a disk write leaves no partial entry behind.
"""

import functools
import random

import pytest

from repro.core import io as core_io
from repro.core.cache import (
    ENGINE_VERSION,
    OperatorCache,
    cache_key,
    cached_problem_operator,
    caching,
    canonical_form,
    fingerprint,
)
from repro.core.relaxation import find_label_relabeling
from repro.core.round_elimination import R, Rbar, rename_to_strings, speedup
from repro.core.solvability import zero_round_solvable_pn
from repro.lowerbound.certificate import build_certificate
from repro.lowerbound.sequence import run_chain
from repro.observability.metrics import (
    diff_semantic_profiles,
    semantic_profile,
    total_counters,
)
from repro.observability.schema import TIMING_COUNTERS
from repro.observability.trace import Tracer, tracing
from repro.problems.mis import mis_problem
from repro.robustness.checkpointing import CheckpointStore
from repro.robustness.errors import BudgetExceeded, InvalidProblem

from tests.faults import corrupt_checkpoint
from tests.oracle import (
    _outcome,
    assert_same_outcome,
    full_corpus,
    relabeling_is_valid,
)


def _mis_chain(delta, steps):
    """``steps`` kernel speedup steps from MIS at ``delta``."""
    problem = mis_problem(delta)
    for _ in range(steps):
        problem = speedup(problem, use_kernel=True).problem
    return problem


def _traced(fn):
    """``fn()`` under a fresh tracer: its result and the trace records."""
    tracer = Tracer()
    with tracing(tracer):
        result = fn()
    return result, tracer.finish()


def _random_renaming(problem, rng):
    """A bijection of the alphabet onto shuffled fresh string labels."""
    labels = list(problem.alphabet)
    fresh = [f"ren{index}" for index in range(len(labels))]
    rng.shuffle(fresh)
    return dict(zip(labels, fresh))


# ---------------------------------------------------------------------------
# Canonical form and fingerprint
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_invariant_under_renaming(self):
        """fingerprint(p) == fingerprint(p.rename(m)) for random m."""
        rng = random.Random(20210726)
        for name, problem in full_corpus():
            expected = fingerprint(problem)
            for _ in range(3):
                renamed = problem.rename(
                    _random_renaming(problem, rng), name=f"{name} renamed"
                )
                assert fingerprint(renamed) == expected, name

    def test_complete_for_isomorphism(self):
        """Fingerprints collide exactly on isomorphic corpus pairs."""
        corpus = full_corpus()
        prints = [(name, p, fingerprint(p)) for name, p in corpus]
        for i, (name_a, a, print_a) in enumerate(prints):
            for name_b, b, print_b in prints[i + 1:]:
                isomorphic = a.find_isomorphism(b) is not None
                assert (print_a == print_b) == isomorphic, (
                    f"{name_a} vs {name_b}: fingerprint equality "
                    f"{print_a == print_b} but isomorphic={isomorphic}"
                )

    def test_canonical_form_is_memoized(self):
        problem = mis_problem(3)
        assert canonical_form(problem) is canonical_form(problem)

    def test_key_schema_includes_engine_version(self):
        digest = fingerprint(mis_problem(3))
        assert cache_key("R", digest) == f"R-v{ENGINE_VERSION}-{digest}"


# ---------------------------------------------------------------------------
# The two-tier store
# ---------------------------------------------------------------------------

class TestOperatorCacheStore:
    def test_memory_lru_evicts_oldest(self):
        store = OperatorCache(max_entries=2)
        store.store("a", {"value": 1})
        store.store("b", {"value": 2})
        assert store.lookup("a") == {"value": 1}  # refreshes "a"
        store.store("c", {"value": 3})
        assert store.lookup("b") is None  # evicted, not "a"
        assert store.lookup("a") == {"value": 1}

    def test_disk_tier_round_trips(self, tmp_path):
        OperatorCache(tmp_path).store("key", {"value": 41})
        fresh = OperatorCache(tmp_path)
        assert fresh.lookup("key") == {"value": 41}
        assert fresh.hits == 1

    def test_corrupt_disk_entry_evicted_and_recomputed(self, tmp_path):
        first = OperatorCache(tmp_path)
        first.store("key", {"value": 41})
        corrupt_checkpoint(first.path_for("key"))
        fresh = OperatorCache(tmp_path)
        assert fresh.lookup("key") is None  # never trusted
        assert fresh.corrupt_evictions == 1
        assert not fresh.path_for("key").exists()  # evicted
        fresh.store("key", {"value": 41})  # recompute path works
        assert OperatorCache(tmp_path).lookup("key") == {"value": 41}

    def test_budget_trip_mid_write_leaves_no_partial_entry(
        self, tmp_path, monkeypatch
    ):
        def tripping_replace(source, destination):
            raise BudgetExceeded("out of fuel", phase="cache-write")

        monkeypatch.setattr(core_io.os, "replace", tripping_replace)
        store = OperatorCache(tmp_path)
        with pytest.raises(BudgetExceeded):
            store.store("key", {"value": 41})
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []  # no entry, no temp file
        assert OperatorCache(tmp_path).lookup("key") is None


# ---------------------------------------------------------------------------
# Memoized operators: transparency and transport
# ---------------------------------------------------------------------------

class TestCachedOperators:
    def test_warm_r_identical_to_cold_and_uncached(self):
        problem = mis_problem(4)
        plain = R(problem)
        with caching(OperatorCache()) as store:
            cold = R(problem)
            warm = R(problem)
        assert store.hits == 1 and store.misses == 1
        for result in (cold, warm):
            assert result == plain
            assert result.name == plain.name
            # alphabet *order* drives downstream renaming
            assert list(result.alphabet) == list(plain.alphabet)
            assert (
                rename_to_strings(result).problem.render()
                == rename_to_strings(plain).problem.render()
            )

    def test_hit_transports_across_renaming(self):
        """A result cached for P serves every isomorphic copy of P."""
        rng = random.Random(7)
        problem = mis_problem(4)
        renamed = problem.rename(_random_renaming(problem, rng), name="iso")
        with caching(OperatorCache()) as store:
            R(problem)  # cold fill
            transported = R(renamed)  # hit, transported
        assert store.hits == 1
        assert transported == R(renamed)  # equals direct computation
        assert (
            rename_to_strings(transported).problem.render()
            == rename_to_strings(R(renamed)).problem.render()
        )

    def test_invalid_problem_verdict_is_cached_and_reraised(self):
        problem = mis_problem(3)
        calls = []

        def compute():
            calls.append(1)
            raise InvalidProblem("degenerate", closed_sets=0)

        with caching(OperatorCache()):
            with pytest.raises(InvalidProblem) as cold:
                cached_problem_operator("fail-op", problem, compute)
            with pytest.raises(InvalidProblem) as warm:
                cached_problem_operator("fail-op", problem, compute)
        assert len(calls) == 1  # the verdict was served from the cache
        assert str(warm.value) == str(cold.value)
        assert warm.value.context == cold.value.context

    def test_zero_round_verdicts_are_cached(self):
        problem = mis_problem(3)
        plain = zero_round_solvable_pn(problem)
        with caching(OperatorCache()) as store:
            assert zero_round_solvable_pn(problem) == plain
            assert zero_round_solvable_pn(problem) == plain
        assert store.hits == 1 and store.misses == 1

    def test_relabeling_witness_transported_and_valid(self):
        source, target = mis_problem(3), mis_problem(3)
        with caching(OperatorCache()) as store:
            cold = find_label_relabeling(source, target)
            warm = find_label_relabeling(source, target)
        assert store.hits == 1
        assert (cold is None) == (warm is None)
        if warm is not None:
            assert relabeling_is_valid(source, target, warm)

    def test_cache_counters_land_in_traces(self):
        problem = mis_problem(4)
        tracer = Tracer()
        with tracing(tracer), caching(OperatorCache()):
            R(problem)
            R(problem)
        totals = total_counters(tracer.finish())
        assert totals["cache.miss"] == 1
        assert totals["cache.hit"] == 1
        assert totals["cache.bytes"] > 0
        # cache behavior must never count as semantic drift
        for counter in ("cache.hit", "cache.miss", "cache.bytes",
                        "cache.corrupt"):
            assert counter in TIMING_COUNTERS


# ---------------------------------------------------------------------------
# Differential guarantee over the oracle corpus
# ---------------------------------------------------------------------------

class TestCachedDifferential:
    def test_cached_engines_agree_over_corpus(self):
        """Reference, cold-cached kernel, and warm-cached kernel agree
        on every corpus problem — on results and on failures."""
        store = OperatorCache()
        for name, problem in full_corpus():
            reference = _outcome(R, problem)
            with caching(store):
                cold = _outcome(R, problem, use_kernel=True)
                warm = _outcome(R, problem, use_kernel=True)
            assert_same_outcome(f"R({name}) cold", reference, cold)
            assert_same_outcome(f"R({name}) warm", reference, warm)
        assert store.hits > 0 and store.misses > 0

    def test_cached_speedup_matches_uncached_on_mis(self):
        """Cold and warm cached chains equal the uncached one, and the
        cold chain's semantic counters match it (Delta=5 runs two steps)."""
        for delta, steps in ((3, 1), (4, 1), (5, 2)):
            chain = functools.partial(_mis_chain, delta, steps)
            plain, plain_records = _traced(chain)
            with caching(OperatorCache()):
                cold, cold_records = _traced(chain)
                warm = chain()
            assert cold == plain
            assert warm == plain
            assert cold.render() == plain.render()
            assert warm.render() == plain.render()
            assert not diff_semantic_profiles(
                semantic_profile(plain_records), semantic_profile(cold_records)
            )


# ---------------------------------------------------------------------------
# Checkpoint interplay: warm and cold runs persist identical state
# ---------------------------------------------------------------------------

def _observational(line: str) -> bool:
    text = line.strip()
    if text.startswith("[provenance]"):
        text = text[len("[provenance]"):].strip()
    return text.startswith("cache:") or text.startswith("trace:")


class TestCheckpointInterplay:
    def test_run_chain_checkpoints_byte_identical_warm_vs_cold(
        self, tmp_path
    ):
        store = OperatorCache()
        with caching(store):
            cold = run_chain(
                16, 0,
                store=CheckpointStore(tmp_path / "cold"),
                verify_steps=True, use_kernel=True,
            )
            warm = run_chain(
                16, 0,
                store=CheckpointStore(tmp_path / "warm"),
                verify_steps=True, use_kernel=True,
            )
        plain = run_chain(
            16, 0,
            store=CheckpointStore(tmp_path / "plain"),
            verify_steps=True, use_kernel=True,
        )
        assert cold.chain == warm.chain == plain.chain
        cold_files = sorted(p.name for p in (tmp_path / "cold").iterdir())
        assert cold_files == sorted(
            p.name for p in (tmp_path / "warm").iterdir()
        )
        for name in cold_files:
            cold_bytes = (tmp_path / "cold" / name).read_bytes()
            assert cold_bytes == (tmp_path / "warm" / name).read_bytes()
            assert cold_bytes == (tmp_path / "plain" / name).read_bytes()
        # warm provenance records hits where the cold run recorded misses
        assert any(
            line.startswith("cache: step") and line.endswith("miss")
            for line in cold.provenance
        )
        assert any(
            line.startswith("cache: step") and line.endswith("hit")
            for line in warm.provenance
        )
        # ... and nothing else differs
        assert [
            line for line in cold.provenance if not _observational(line)
        ] == [line for line in warm.provenance if not _observational(line)]

    def test_certificate_byte_identical_warm_vs_cold(self, tmp_path):
        plain = build_certificate(4, 0)
        store = OperatorCache()
        with caching(store):
            cold = build_certificate(
                4, 0, store=CheckpointStore(tmp_path / "cold")
            )
            warm = build_certificate(
                4, 0, store=CheckpointStore(tmp_path / "warm")
            )
        assert store.hits > 0

        def filtered(certificate):
            return [
                line for line in certificate.render().splitlines()
                if not _observational(line.strip())
            ]

        assert filtered(cold) == filtered(plain)
        assert filtered(warm) == filtered(plain)
        cold_files = sorted(p.name for p in (tmp_path / "cold").iterdir())
        assert cold_files == sorted(
            p.name for p in (tmp_path / "warm").iterdir()
        )
        for name in cold_files:
            assert (tmp_path / "cold" / name).read_bytes() == (
                tmp_path / "warm" / name
            ).read_bytes()
