"""The library API that the benchmark in `perfbench/` relies on.

`perfbench/spans.py` wraps each function it names in `TRACED` and binds the
arguments of each call to the function's signature for its hooks, and
`perfbench/workloads.py` calls the library with keyword arguments and
expects every search scan to end ExhaustedNone.  A renamed function or
parameter, or a budget that would answer a scan with its certificate, would
break the benchmark only when it runs; these checks make it fail the test
suite at once.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from fiidlab import graphs, homsearch, rules

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the arguments each hook reads from the bound call, by traced function
BOUND = {
    "rules.enumerate_canonical_balls_weighted": ("d", "t", "model"),
    "rules.edge_pair_table": ("d", "t", "model"),
    "entropy.exact_marginals": ("rule",),
    "entropy.mc_marginals": ("rule", "n_samples"),
    "simulate.run_on_graph": ("G",),
}

# the keyword arguments the workloads pass, by called function or class
CALLED = {
    "entropy.audit": ("r",),
    "simulate.theorem_pipeline": ("mode",),
    "homsearch.search": ("budget", "force_enumeration"),
    "homsearch.SearchBudget": ("rng_seed",),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans")
TRACED = [
    f"{module}.{name}" for module, names in SPANS.TRACED.items() for name in names
]


@pytest.mark.parametrize("qualname", TRACED)
def test_traced_function_exists(qualname):
    module_name, name = qualname.split(".")
    module = importlib.import_module(f"fiidlab.{module_name}")
    assert callable(getattr(module, name, None)), qualname


def test_every_bound_function_has_a_hook():
    assert set(BOUND) <= set(SPANS.HOOKS)


def _missing(qualname, names):
    module_name, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"fiidlab.{module_name}"), name)
    params = inspect.signature(fn).parameters
    return [p for p in names if p not in params]


@pytest.mark.parametrize("qualname", sorted(SPANS.HOOKS))
def test_hook_arguments_are_parameters(qualname):
    missing = _missing(qualname, BOUND.get(qualname, ()))
    assert not missing, f"{qualname} lacks {missing}"


@pytest.mark.parametrize("qualname", sorted(CALLED))
def test_workload_keywords_are_parameters(qualname):
    missing = _missing(qualname, CALLED[qualname])
    assert not missing, f"{qualname} lacks {missing}"


def test_search_scans_fit_the_budgets():
    # every scan is at t = 1; one past either budget would end Impossible,
    # not ExhaustedNone
    workloads = _load("workloads")
    max_rules = homsearch.SearchBudget().max_rules
    for name, model, target, _ in workloads.SCANS:
        rules.check_edge_budget(workloads.D, 1, model)
        balls = rules.enumerate_canonical_balls(workloads.D, 1, model)
        assert graphs.named_graph(target).n ** len(balls) <= max_rules, name
