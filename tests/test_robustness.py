"""Tests for the resource-governance subsystem (budgets, typed errors)
and its integration into the engine's hot loops."""

import pytest

from repro.core.constraints import Constraint
from repro.core.problem import Problem
from repro.core.round_elimination import R, speedup
from repro.lowerbound.sequence import lemma13_chain, run_chain
from repro.problems.family import family_problem
from repro.robustness.budget import (
    Budget,
    checkpoint,
    current_budget,
    governed,
)
from repro.robustness.errors import (
    AlphabetExplosion,
    BudgetExceeded,
    CheckpointCorrupt,
    InvalidProblem,
    ReproError,
)
from repro.sim.brute_force import uniform_algorithm_exists
from repro.sim.generators import cycle_graph

from tests.faults import FaultInjector, InjectedFault, tripping_budget


class TestErrorHierarchy:
    """The dual-inheritance contract: typed, but backward compatible."""

    def test_invalid_problem_is_a_value_error(self):
        assert issubclass(InvalidProblem, ValueError)
        assert issubclass(InvalidProblem, ReproError)

    def test_budget_exceeded_is_a_runtime_error(self):
        assert issubclass(BudgetExceeded, RuntimeError)
        assert issubclass(BudgetExceeded, ReproError)

    def test_alphabet_explosion_is_a_budget_error(self):
        assert issubclass(AlphabetExplosion, BudgetExceeded)

    def test_checkpoint_corrupt_is_repro_only(self):
        assert issubclass(CheckpointCorrupt, ReproError)
        assert not issubclass(CheckpointCorrupt, ValueError)

    def test_context_is_recorded_and_rendered(self):
        error = ReproError("boom", size=9, operator="R")
        assert error.message == "boom"
        assert error.context == {"size": 9, "operator": "R"}
        assert "boom" in str(error)
        assert "size=9" in str(error)
        assert "operator=R" in str(error)

    def test_injected_fault_is_not_a_value_error(self):
        # The certificate builder swallows ValueError for proof checks;
        # injected faults must propagate instead.
        assert issubclass(InjectedFault, ReproError)
        assert not issubclass(InjectedFault, ValueError)


class TestBudget:
    def test_alphabet_cap_trips_with_context(self):
        budget = Budget(max_alphabet=4)
        budget.check_alphabet(4, operator="R")
        with pytest.raises(AlphabetExplosion) as excinfo:
            budget.check_alphabet(5, operator="R")
        assert excinfo.value.context["operator"] == "R"

    def test_configuration_cap_trips(self):
        budget = Budget(max_configurations=10)
        budget.check_configurations(10)
        with pytest.raises(BudgetExceeded):
            budget.check_configurations(11)

    def test_chain_step_cap_trips(self):
        budget = Budget(max_chain_steps=2)
        budget.check_chain_step(0)
        budget.check_chain_step(1)
        with pytest.raises(BudgetExceeded):
            budget.check_chain_step(2)

    def test_wall_clock_trips_once_elapsed(self):
        budget = Budget(wall_clock_seconds=0.0)
        budget.start()
        with pytest.raises(BudgetExceeded):
            budget.checkpoint()

    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        budget.start()
        budget.checkpoint()
        budget.check_alphabet(10**9)
        budget.check_configurations(10**9)
        budget.check_chain_step(10**9)

    def test_governed_installs_the_ambient_budget(self):
        budget = Budget(max_alphabet=100)
        assert current_budget() is None
        with governed(budget):
            assert current_budget() is budget
        assert current_budget() is None

    def test_module_level_checkpoint_is_a_noop_without_budget(self):
        checkpoint(phase="nowhere")

    def test_probe_fires_at_every_checkpoint(self):
        injector = FaultInjector()
        budget = Budget(probe=injector)
        budget.start()
        budget.checkpoint(phase="one")
        budget.checkpoint(phase="two")
        assert injector.calls == 2
        assert injector.contexts[0]["phase"] == "one"

    def test_probe_trips_at_the_configured_call(self):
        budget, injector = tripping_budget(trip_at=3)
        budget.start()
        budget.checkpoint()
        budget.checkpoint()
        with pytest.raises(InjectedFault) as excinfo:
            budget.checkpoint()
        assert injector.calls == 3
        assert excinfo.value.context["call"] == 3


class TestEngineIntegration:
    def test_speedup_trips_alphabet_budget(self):
        # speedup(Pi(4, 4, 0)) produces alphabets of sizes 8 and 13.
        problem = family_problem(4, 4, 0)
        with governed(Budget(max_alphabet=3)):
            with pytest.raises(AlphabetExplosion) as excinfo:
                speedup(problem)
        assert excinfo.value.context["operator"] in ("R", "Rbar")
        assert "alphabet_before" in excinfo.value.context

    def test_r_passes_under_a_loose_budget(self):
        problem = family_problem(4, 4, 0)
        with governed(Budget(max_alphabet=64)):
            assert len(R(problem).alphabet) == 8

    def test_brute_force_honors_ambient_configuration_cap(self):
        problem = family_problem(3, 2, 1)
        graph = cycle_graph(12)
        with governed(Budget(max_configurations=10)):
            with pytest.raises(BudgetExceeded) as excinfo:
                uniform_algorithm_exists(problem, graph, 2)
        assert excinfo.value.context["limit"] == 10

    def test_chain_step_budget_truncates_construction(self):
        with governed(Budget(max_chain_steps=2)):
            with pytest.raises(BudgetExceeded):
                lemma13_chain(2**9, 0)

    def test_fault_injection_reaches_the_brute_force_loop(self):
        budget, injector = tripping_budget(trip_at=5)
        problem = family_problem(2, 1, 1)
        graph = cycle_graph(4)
        with governed(budget):
            with pytest.raises(InjectedFault):
                uniform_algorithm_exists(problem, graph, 1)
        assert injector.contexts[-1]["phase"] == "brute-force"


class TestProblemValidation:
    def test_edge_arity_must_be_two(self):
        node = Constraint.from_condensed(["A A"])
        edge = Constraint.from_condensed(["A A A"])
        with pytest.raises(InvalidProblem) as excinfo:
            Problem(["A"], node, edge)
        assert excinfo.value.context["arity"] == 3

    def test_stray_labels_name_the_offending_configuration(self):
        node = Constraint.from_condensed(["A B"])
        edge = Constraint.from_condensed(["A A"])
        with pytest.raises(InvalidProblem) as excinfo:
            Problem(["A"], node, edge)
        assert "A B" in excinfo.value.context["configuration"]

    def test_duplicate_node_lines_rejected(self):
        with pytest.raises(InvalidProblem) as excinfo:
            Problem.from_text(["M X^2", "X^2 M"], ["M X", "X X"])
        assert "configuration" in excinfo.value.context

    def test_identical_repeated_line_tolerated(self):
        problem = Problem.from_text(["X^3", "X^3"], ["X X"])
        assert problem.delta == 3

    def test_malformed_lines_raise_invalid_problem(self):
        with pytest.raises(InvalidProblem):
            Problem.from_text(["M X^2", "P O"], ["M X"])

    def test_non_injective_rename_rejected(self):
        problem = family_problem(3, 2, 1)
        with pytest.raises(InvalidProblem):
            problem.rename({"M": "X"})

    def test_still_catchable_as_value_error(self):
        with pytest.raises(ValueError):
            Problem.from_text(["M X^2", "P O"], ["M X"])


class TestRunChainEquivalence:
    @pytest.mark.parametrize("delta,x", [(8, 0), (16, 1), (64, 0), (512, 0)])
    def test_run_chain_matches_lemma13_chain(self, delta, x):
        assert run_chain(delta, x).chain == lemma13_chain(delta, x)

    def test_run_chain_reports_completion(self):
        result = run_chain(64, 0)
        assert result.complete
        assert result.resumed_from_step is None
        assert result.certified_rounds == len(result.chain) - 1
