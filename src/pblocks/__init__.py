"""Exact block theory invariants for small finite permutation groups."""

__version__ = "0.1.0"

from .blocks import (
    Block,
    BlockSystem,
    block_orbit,
    block_system,
    brauer_orbit,
    brauer_restriction_multiplicities,
    check_conjectures,
    covered_blocks,
    induced_block,
    inflation_correspondence,
)
from .chartab import CharacterTable, character_table, class_fusion, lifting_prime
from .corpus import (
    DEFAULT_CORPUS,
    DEFAULT_SCENARIOS,
    FIXTURES,
    CartanFixture,
    CorpusEntry,
    PairedScenario,
    corpus_entry,
    prime_factors,
)
from .cyclotomic import Cyc, cyc_to_field
from .errors import BlockEngineError
from .ffield import Field, field_create
from .harness import (
    analyze_group,
    fixture_checks,
    format_fraction,
    render_report,
    report_passed,
    run_corpus,
    run_scenario,
    tau_rayleigh,
    verify_system,
)
from .linalg import Mat, mat_charpoly, mat_inv, mat_kron, mat_rank, mat_rref, mat_solve_left
from .modrep import BrauerTable, GModule, ReductionContext, brauer_table, module_iso
from .perm import (
    PermGroup,
    abelian_p_invariants,
    perm_from_cycles,
    perm_inv,
    perm_mul,
    sectional_rank,
)
