"""The names the benchmark in perfbench/ reaches inside saslab.

The traced run wraps the functions and methods listed in perfbench/tracing.py,
the micro-timings import saslab names directly, and the other scripts call
harness functions. A refactor that renames or merges one of them breaks the
benchmark silently, so each name is checked here.
"""

import ast
import importlib.util
from pathlib import Path

import saslab
from saslab import attacks, harness
from saslab.protocols import Machine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist_and_are_distinct():
    tracing = _load("tracing")
    for layer, names in tracing.FUNCTIONS.items():
        module = getattr(saslab, layer)
        functions = [getattr(module, name, None) for name in names]
        for name, fn in zip(names, functions):
            assert callable(fn), f"{layer}.{name}"
        # an alias would be wrapped twice, once under each name
        assert len({id(fn) for fn in functions}) == len(functions), layer


def test_traced_methods_are_defined_on_their_class():
    tracing = _load("tracing")
    for layer, pairs in tracing.METHODS.items():
        module = getattr(saslab, layer)
        for cls_name, method in pairs:
            cls = getattr(module, cls_name)
            assert method in vars(cls), f"{layer}.{cls_name}.{method}"
    assert "advance" in vars(Machine)


def test_micro_imports_resolve():
    tree = ast.parse((PERFBENCH / "micro.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("saslab")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_harness_names_used_by_the_scripts_exist():
    names = {
        node.attr
        for path in PERFBENCH.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "harness"
    }
    assert {"run_experiment", "build_report"} <= names
    for name in names:
        assert hasattr(harness, name), f"harness.{name}"
    for method in ("strategy_enum", "expectation", "theoretical_bound"):
        assert callable(getattr(harness.ExperimentConfig, method)), method


def test_honest_trials_call_run_honest_through_the_harness(monkeypatch):
    # smoke.py forces a gate failure by replacing harness.run_honest
    real = harness.run_honest

    def mismatched(world, *args):
        init, resp = real(world, *args)
        resp.kappa = bytes(32)
        return init, resp

    monkeypatch.setattr(harness, "run_honest", mismatched)
    summary = harness.run_experiment(harness.ExperimentConfig(protocol="mt-auth", trials=3))
    assert summary.successes == 0


def test_trial_outcomes_carry_a_detail_dict():
    # tracing counts aborted trials through outcome.detail["aborted"]
    assert attacks.AttackOutcome(False, 1).detail == {}
