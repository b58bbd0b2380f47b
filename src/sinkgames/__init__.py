"""Sink parity games: strategy improvement solvers, worst-case instance
generators, winner computation for arbitrary parity games, and file-format
tooling."""

from .game import (
    PLAYER0,
    PLAYER1,
    ParityGame,
    Strategy,
    Violation,
    check_strategy,
    infer_sink,
    validate_game,
)
from .playvalues import NEG_INF, POS_INF, PlayValue, ValueCodec
from .valuation import (
    NotAdmissibleError,
    Valuation,
    improving_moves,
    is_admissible,
    j_set,
    valuate,
)
from .rules import (
    ImprovementRule,
    RuleContext,
    make_rule,
    random_subset_rule,
    single_lowest_rule,
    switch_all_rule,
)
from .solvers import (
    IterationRecord,
    IterationTrace,
    NotSinkGameError,
    OptimalityCertificate,
    SolveResult,
    SolverInvariantError,
    replay_trace,
    run_gssi,
    run_si,
    run_ssi,
    verify_optimal,
)
from .families import (
    LabeledInstance,
    expected_iterations,
    gen_table1,
    gen_table2,
    generate,
    optimal_table1,
)
from .reduction import (
    ReductionMap,
    WinnerResult,
    extract_winners,
    reduce_game,
    solve_winners,
    trivial_strategies,
)
from .pgsolver import ParseError, parse_pgsolver, pgsolver_lines, write_pgsolver
from .traces import (
    TraceFile,
    TraceHeader,
    build_trace_file,
    from_csv,
    from_json,
    parse_strategy_text,
    to_csv,
    to_json,
    write_strategy_text,
)

__version__ = "0.1.0"
