"""The package holds only what the library uses: the brute-force oracle is a
test-only reference that imports nothing from ``sinkgames`` but data types,
and the frozen references import nothing from it at all."""

import ast
import importlib.util
from pathlib import Path

import pytest

import sinkgames

REMOVED_NAMES = (
    "BudgetExceededError",
    "EnumerationBudget",
    "brute_force_winners",
    "enumerate_optimal_response",
    "enumerate_optimal_strategy",
    "is_admissible_bruteforce",
    "play_values",
    "add_priority",
    "compare",
)
DATA_TYPES = {"ParityGame", "Strategy", "PLAYER0", "PLAYER1", "PlayValue", "NEG_INF", "POS_INF"}
ORACLE = Path(__file__).with_name("oracle_reference.py")
FROZEN = (
    "valuation_reference.py",
    "zielonka_reference.py",
    "winning_check.py",
    "reduction_reference.py",
)


def test_the_oracle_is_not_a_package_module():
    assert importlib.util.find_spec("sinkgames.oracle") is None


def test_the_package_exports_no_oracle_names():
    assert [name for name in REMOVED_NAMES if hasattr(sinkgames, name)] == []


def _package_imports(path):
    """The names ``path`` imports from ``sinkgames`` or by a relative import."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "sinkgames"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "sinkgames":
                imported += [a.name for a in node.names]
    return imported


def test_the_oracle_imports_only_data_types_from_the_package():
    imported = _package_imports(ORACLE)
    assert imported, "the oracle should import its data types from sinkgames"
    assert set(imported) <= DATA_TYPES, sorted(set(imported) - DATA_TYPES)


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_reference_imports_nothing_from_the_package(name):
    assert _package_imports(Path(__file__).with_name(name)) == []
