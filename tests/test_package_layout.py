"""The package holds only what the library uses: the brute-force oracle is a
test-only reference that imports nothing from ``sinkgames`` but data types."""

import ast
import importlib.util
from pathlib import Path

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


def test_the_oracle_is_not_a_package_module():
    assert importlib.util.find_spec("sinkgames.oracle") is None


def test_the_package_exports_no_oracle_names():
    assert [name for name in REMOVED_NAMES if hasattr(sinkgames, name)] == []


def test_the_oracle_imports_only_data_types_from_the_package():
    imported = []
    for node in ast.walk(ast.parse(ORACLE.read_text())):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "sinkgames"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "sinkgames":
                imported += [a.name for a in node.names]
    assert imported, "the oracle should import its data types from sinkgames"
    assert set(imported) <= DATA_TYPES, sorted(set(imported) - DATA_TYPES)
