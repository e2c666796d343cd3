"""Corpus runner with fixture validation, paired-subgroup suites, and report emission.

Each verdict is written once, where it is defined: the six system-level
checks of verify_system in its own dict and the nine per-block ones in
_block_checks; the four per-block bound checks in blocks.check_conjectures,
named in block_record; the seven fixture verdicts in fixture_checks; and
each paired-subgroup check in its _check_* function.  build_report folds
them into the one report that verify-corpus and analyze print.

Every block system, a scenario's quotient included, comes from _system.
Inside one run_corpus it is computed once per (generators, prime) and
reused: the corpus analyses and the paired-subgroup scenarios get their
systems from a per-run memo that run_corpus opens and closes.  The
systems do not depend on the seed, so the report is the same as if each
were computed again.  Outside a run, every call computes its own.
"""

import contextvars
import hashlib
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .blocks import (
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
from .corpus import (
    DEFAULT_CORPUS,
    DEFAULT_SCENARIOS,
    FIXTURES,
    CartanFixture,
    PairedScenario,
)
from .chartab import class_gram
from .errors import BindingUnsatisfiable, ShapeMismatch
from .intmath import int_det, is_int, is_p_power, p_valuation
from .perm import PermGroup, abelian_p_invariants, perm_mul


# (degree, generators, prime) -> BlockSystem, set only while run_corpus runs
_RUN_SYSTEMS = contextvars.ContextVar("_RUN_SYSTEMS", default=None)


def _system(group: PermGroup, p: int, seed: int) -> BlockSystem:
    """Return the block system of a group at p, from the open run's memo if there is one."""
    memo = _RUN_SYSTEMS.get()
    if memo is None:
        return block_system(group, p, seed=seed)
    key = (group.degree, group.generators, p)
    if key not in memo:
        memo[key] = block_system(group, p, seed=seed)
    return memo[key]


def format_fraction(value) -> str:
    """Render an exact rational as a num/den string."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def _derive_seed(seed: int, *parts) -> int:
    """Derive a stable per-task seed from a base seed and a label path."""
    text = ":".join([str(seed)] + [str(part) for part in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def tau_rayleigh(rows, degrees) -> Fraction:
    """Evaluate the quadratic form of a Cartan matrix against the squared norm of a degree vector."""
    size = len(rows)
    if size == 0 or any(len(row) != size for row in rows):
        raise ShapeMismatch("Cartan matrix must be square and nonempty")
    if len(degrees) != size:
        raise ShapeMismatch(
            f"degree vector length {len(degrees)} does not match matrix size {size}"
        )
    if not all(is_int(d) and d >= 1 for d in degrees):
        raise ValueError("degrees must be positive integers")
    degrees = [int(d) for d in degrees]
    num = sum(
        rows[i][j] * degrees[i] * degrees[j] for i in range(size) for j in range(size)
    )
    den = sum(d * d for d in degrees)
    return Fraction(num, den)


def _minor_det(rows, skip_row: int, skip_col: int) -> int:
    """Compute the determinant of a matrix with one row and one column removed."""
    sub = [
        [rows[i][j] for j in range(len(rows)) if j != skip_col]
        for i in range(len(rows))
        if i != skip_row
    ]
    if not sub:
        return 1
    return int_det(sub)


def _top_elementary_divisor(rows) -> int:
    """Compute the largest elementary divisor of a nonsingular integer matrix."""
    det = int_det(rows)
    if det == 0:
        return 0
    size = len(rows)
    g = 0
    for i in range(size):
        for j in range(size):
            g = math.gcd(g, abs(_minor_det(rows, i, j)))
    return abs(det) // g


def _positive_definite(rows) -> bool:
    """Check that every leading principal minor of a symmetric integer matrix is positive."""
    for size in range(1, len(rows) + 1):
        lead = [row[:size] for row in rows[:size]]
        if int_det(lead) <= 0:
            return False
    return True


def fixture_checks(fix: CartanFixture, seed: int = 0) -> dict:
    """Validate one reference Cartan matrix against its claimed block data.

    The Rayleigh sweep draws 1000 degree vectors d with entries in 1..64
    and evaluates every d^T C d and d^T d in one integer product.  It
    holds when each quotient is at most the trace and below the bound;
    rayleigh_max is the largest quotient, or 0 when none is positive.
    """
    samples = 1000
    rows = fix.rows
    size = fix.size()
    p = fix.prime
    trace = fix.trace()
    bound = fix.bound()
    det = int_det(rows)
    top = _top_elementary_divisor(rows)
    rng = random.Random(_derive_seed(seed, "fixture", fix.name))
    draws = [rng.randint(1, 64) for _ in range(samples * size)]
    # |d^T C d| <= max |C_ij| size^2 64^2 bounds every partial sum of the product
    largest = max(abs(v) for row in rows for v in row)
    kind = np.int64 if largest * size * size * 64 * 64 < 2 ** 63 else object
    D = np.array(draws, dtype=kind).reshape(samples, size)
    nums = ((D @ np.array(rows, dtype=kind)) * D).sum(axis=1).tolist()
    dens = (D * D).sum(axis=1).tolist()
    rayleigh_ok = all(n <= trace * d and n < bound * d for n, d in zip(nums, dens))
    # the largest quotient by cross-multiplication (every d > 0), floored at 0/1
    worst_num, worst_den = 0, 1
    for n, d in zip(nums, dens):
        if n * worst_den > worst_num * d:
            worst_num, worst_den = n, d
    worst = Fraction(worst_num, worst_den)
    verdicts = {
        "symmetric": all(rows[i][j] == rows[j][i] for i in range(size) for j in range(size)),
        "diagonal_ok": fix.max_diagonal() <= fix.defect_order,
        "trace_ok": fix.trace_expected is None or trace == fix.trace_expected,
        "det_p_power": is_p_power(det, p),
        "top_divisor_ok": top == fix.defect_order,
        "positive_definite": _positive_definite(rows),
        "rayleigh_ok": rayleigh_ok,
    }
    return {
        "name": fix.name,
        "prime": p,
        "size": size,
        "trace": trace,
        "max_diagonal": fix.max_diagonal(),
        "determinant": det,
        "top_elementary_divisor": top,
        "bound": bound,
        "samples": samples,
        "rayleigh_max": format_fraction(worst),
        **verdicts,
        "holds": all(verdicts.values()),
    }


def _verdict(key: str, items: list, left: str, relation: str, right: str) -> dict:
    """Bundle the measured items of a scenario check with its verdict and summary.

    The check holds when there is at least one item and every item holds;
    the summary lists each item as "left relation right".
    """
    return {
        key: items,
        "holds": bool(items) and all(item["holds"] for item in items),
        "summary": ", ".join(f"{item[left]} {relation} {item[right]}" for item in items),
    }


def _check_stabilizer_induction(gsys: BlockSystem, nsys: BlockSystem) -> dict:
    """Compare the dim ratio of fully mobile subgroup blocks with their induced blocks."""
    index = gsys.group.order() // nsys.group.order()
    pairs = []
    for sub_block in nsys.blocks:
        orbit = block_orbit(gsys, nsys, sub_block.index)
        if len(orbit) != index:
            continue
        target, _ = induced_block(gsys, nsys, sub_block)
        if target is None:
            continue
        pairs.append(
            {
                "sub_block": sub_block.index,
                "ambient_block": target.index,
                "sub_tau": format_fraction(sub_block.tau),
                "ambient_tau": format_fraction(target.tau),
                "holds": sub_block.tau == target.tau,
            }
        )
    if not pairs:
        raise BindingUnsatisfiable(
            "no subgroup block has a full conjugation orbit and a defined induced block"
        )
    return _verdict("comparisons", pairs, "ambient_tau", "=", "sub_tau")


def _check_central_scaling(gsys: BlockSystem, sub: PermGroup, seed: int) -> dict:
    """Check Cartan scaling and dim ratio monotonicity across a central p-quotient."""
    group = gsys.group
    p = gsys.p
    n_order = sub.order()
    if not is_p_power(n_order, p) or n_order == 1:
        raise BindingUnsatisfiable("subgroup must be a nontrivial p-group")
    for x in sub.generators:
        if any(perm_mul(x, g) != perm_mul(g, x) for g in group.generators):
            raise BindingUnsatisfiable("subgroup is not central in the ambient group")
    action = group.coset_action(sub)
    # Z is a central p-group, so G/Z has the p'-exponent, and so the field, of G
    qsys = _system(action.quotient, p, seed)
    char_map, ibr_map = inflation_correspondence(gsys, action, qsys)
    comparisons = []
    scaled = True
    for qb in qsys.blocks:
        owners = {gsys.block_of_char[char_map[ci]] for ci in qb.chars}
        if len(owners) != 1:
            scaled = False
            continue
        block = gsys.blocks[owners.pop()]
        position = {ibr: n for n, ibr in enumerate(block.ibrs)}
        if len(qb.ibrs) != len(block.ibrs):
            scaled = False
        else:
            for a, qi in enumerate(qb.ibrs):
                for c, qj in enumerate(qb.ibrs):
                    lifted = block.cartan[position[ibr_map[qi]]][position[ibr_map[qj]]]
                    if lifted != n_order * qb.cartan[a][c]:
                        scaled = False
        left = block.tau / (p ** block.sectional * block.defect_group.order())
        right = qb.tau / (p ** qb.sectional * qb.defect_group.order())
        comparisons.append(
            {
                "ambient_block": block.index,
                "quotient_block": qb.index,
                "left": format_fraction(left),
                "right": format_fraction(right),
                "holds": left <= right,
            }
        )
    verdict = _verdict("comparisons", comparisons, "left", "<=", "right")
    prefix = "cartan scale ok, " if scaled else "cartan scale broken, "
    return {**verdict, "cartan_scaled": scaled, "holds": scaled and verdict["holds"],
            "summary": prefix + verdict["summary"]}


def _check_degree_sum(gsys: BlockSystem, nsys: BlockSystem) -> dict:
    """Check the squared degree sum identity for simple modules over a coprime quotient."""
    group = gsys.group
    sub = nsys.group
    index = group.order() // sub.order()
    if index % gsys.p == 0:
        raise BindingUnsatisfiable("quotient order must be coprime to the prime")
    mult = brauer_restriction_multiplicities(gsys, nsys)
    ambient_dims = gsys.brauer.dims
    sub_dims = nsys.brauer.dims
    identities = []
    for j, phi in enumerate(sub_dims):
        above = [i for i in range(len(ambient_dims)) if mult[i][j] != 0]
        left = sum(ambient_dims[i] ** 2 for i in above)
        orbit = brauer_orbit(gsys, nsys, j)
        right = len(orbit) * index * phi * phi
        identities.append(
            {
                "sub_simple": j,
                "covering_simples": above,
                "orbit_size": len(orbit),
                "left": left,
                "right": right,
                "holds": left == right,
            }
        )
    return _verdict("identities", identities, "left", "=", "right")


def _check_coprime_quotient(gsys: BlockSystem, nsys: BlockSystem) -> dict:
    """Check that the dim ratio matches between blocks and their covered blocks."""
    index = gsys.group.order() // nsys.group.order()
    if index % gsys.p == 0:
        raise BindingUnsatisfiable("quotient order must be coprime to the prime")
    covering = covered_blocks(gsys, nsys)
    pairs = []
    for bi in sorted(covering):
        block = gsys.blocks[bi]
        for ci in covering[bi]:
            sub_block = nsys.blocks[ci]
            pairs.append(
                {
                    "ambient_block": bi,
                    "sub_block": ci,
                    "ambient_tau": format_fraction(block.tau),
                    "sub_tau": format_fraction(sub_block.tau),
                    "holds": block.tau == sub_block.tau,
                }
            )
    return _verdict("comparisons", pairs, "ambient_tau", "=", "sub_tau")


def _check_sylow_product(gsys: BlockSystem, nsys: BlockSystem) -> dict:
    """Check the dim ratio inequality when a defect group and the subgroup fill the ambient group."""
    group = gsys.group
    sub = nsys.group
    p = gsys.p
    covering = covered_blocks(gsys, nsys)
    comparisons = []
    for bi in sorted(covering):
        block = gsys.blocks[bi]
        P = block.defect_group
        inside = sum(1 for x in P.elements() if sub.contains(x))
        if P.order() * sub.order() != group.order() * inside:
            continue
        for ci in covering[bi]:
            sub_block = nsys.blocks[ci]
            left = block.tau / (p ** block.sectional * P.order())
            right = sub_block.tau / (p ** sub_block.sectional * inside)
            comparisons.append(
                {
                    "ambient_block": bi,
                    "sub_block": ci,
                    "intersection_order": inside,
                    "left": format_fraction(left),
                    "right": format_fraction(right),
                    "holds": left <= right,
                }
            )
    if not comparisons:
        raise BindingUnsatisfiable(
            "no block has a defect group filling the ambient group over the subgroup"
        )
    return _verdict("comparisons", comparisons, "left", "<=", "right")


def _on_subsystem(check):
    """Adapt a check of two block systems to take the subgroup and its seed."""
    return lambda gsys, sub, seed: check(gsys, _system(sub, gsys.p, seed))


# scenario kind -> check(ambient system, normal subgroup, subgroup seed)
_SCENARIO_CHECKS = {
    "stabilizer_induction_tau": _on_subsystem(_check_stabilizer_induction),
    "central_quotient_scaling": _check_central_scaling,
    "restriction_degree_sum": _on_subsystem(_check_degree_sum),
    "coprime_quotient_tau": _on_subsystem(_check_coprime_quotient),
    "sylow_product_ratio": _on_subsystem(_check_sylow_product),
}
SCENARIO_KINDS = tuple(_SCENARIO_CHECKS)


def run_scenario(scenario: PairedScenario, seed: int = 0) -> dict:
    """Run one paired-subgroup scenario and report its measured identities."""
    group, sub = scenario.build()
    p = scenario.prime
    gseed = _derive_seed(seed, "scenario", scenario.name, "ambient")
    nseed = _derive_seed(seed, "scenario", scenario.name, "subgroup")
    check = _SCENARIO_CHECKS.get(scenario.kind)
    if check is None:
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")
    body = check(_system(group, p, gseed), sub, nseed)
    result = {
        "name": scenario.name,
        "kind": scenario.kind,
        "prime": p,
        "ambient_order": group.order(),
        "subgroup_order": sub.order(),
    }
    result.update(body)
    return result


def block_record(system: BlockSystem, block) -> dict:
    """Serialize one block into plain JSON-ready data."""
    P = block.defect_group
    abelian = P.is_abelian()
    verdicts = check_conjectures(block)
    return {
        "index": block.index,
        "principal": block.principal,
        "ordinary_count": len(block.chars),
        "simple_count": len(block.ibrs),
        "ordinary_degrees": [int(d) for d in block.degrees],
        "simple_degrees": [int(d) for d in block.ibr_degrees],
        "defect": block.defect,
        "defect_group_order": P.order(),
        "defect_group_abelian": abelian,
        "defect_group_type": (
            abelian_p_invariants(P, block.p) if abelian and P.order() > 1 else []
        ),
        "sectional_rank": block.sectional,
        "dimension": block.dim,
        "tau": format_fraction(block.tau),
        "tau_equality_attained": verdicts["tau_equality"],
        "cartan": [list(row) for row in block.cartan],
        "decomposition": [
            [system.decomposition[ci][bj] for bj in block.ibrs] for ci in block.chars
        ],
        "checks": {
            "tau_bound": verdicts["tau_bound_holds"],
            "equality_iff_one_simple": verdicts["equality_iff_one_simple"],
            "simple_count_bound": verdicts["simple_count_bound_holds"],
            "strict_tau_bound": verdicts["strict_tau_bound_holds"],
        },
    }


def _block_checks(system: BlockSystem, block) -> dict:
    """Re-assert the structural invariants of one block, one verdict per key."""
    p = system.p
    cartan = block.cartan
    size = len(block.ibrs)
    dmat = [[system.decomposition[ci][bj] for bj in block.ibrs] for ci in block.chars]
    gram = [[sum(row[a] * row[b] for row in dmat) for b in range(size)] for a in range(size)]
    pairs = [(a, b) for a in range(size) for b in range(size)]
    by_chars = sum(d * d for d in block.degrees)
    by_cartan = sum(cartan[a][b] * block.ibr_degrees[a] * block.ibr_degrees[b] for a, b in pairs)
    D = block.defect_group
    return {
        "decomposition_full_rank": int_det(gram) != 0,
        "cartan_symmetric": all(cartan[a][b] == cartan[b][a] for a, b in pairs),
        "cartan_is_gram": [list(row) for row in cartan] == gram,
        "cartan_det_p_power": is_p_power(int_det(cartan), p),
        "two_route_dimension": block.dim == by_chars == by_cartan,
        "tau_floor": block.tau >= 1 and (block.tau == 1) == (block.defect == 0),
        "tau_trace_bound": block.tau <= sum(cartan[a][a] for a in range(size)),
        "defect_consistency": D.order() == p ** block.defect
        and (not block.principal or block.defect == p_valuation(system.group.order(), p)),
        "abelian_diagonal_bound": not (p == 2 and D.is_abelian())
        or all(cartan[a][a] <= D.order() for a in range(size)),
    }


def verify_system(system: BlockSystem) -> dict:
    """Re-assert the structural invariants of a computed block system independently.

    The first six keys are checked here on the whole system; the other
    nine are defined per block in _block_checks and hold when they hold
    for every block.
    """
    tab = system.chartab
    blocks = system.blocks
    checks = {
        "char_partition": sorted(ci for block in blocks for ci in block.chars)
        == list(range(len(tab.rows))),
        "ibr_partition": sorted(j for block in blocks for j in block.ibrs)
        == list(range(len(system.brauer.dims))),
        "simple_count_total": len(system.brauer.dims) == len(system.regular),
        "dimension_total": sum(block.dim for block in blocks) == system.group.order(),
        "orthogonality": all(
            x == (1 if i == j else 0)
            for i, line in enumerate(class_gram(tab.rows, tab.rows, tab.classes))
            for j, x in enumerate(line)
        ),
        "decomposition_nonnegative": all(
            value >= 0 for row in system.decomposition for value in row
        ),
    }
    per_block = [_block_checks(system, block) for block in blocks]
    checks.update({key: all(c[key] for c in per_block) for key in per_block[0]})
    return checks


def system_violations(name: str, system: BlockSystem, records: list) -> list:
    """Collect conjecture verdict failures with full block data attached.

    The verdicts are the record's checks, defined by check_conjectures and
    named in block_record, in their order.  The strict tau bound is proved
    only at p = 2 for a block of positive defect with an abelian defect
    group, so only there does its failure count.
    """
    out = []
    for block, record in zip(system.blocks, records):
        strict = system.p == 2 and block.defect > 0 and record["defect_group_abelian"]
        failed = [
            key for key, ok in record["checks"].items()
            if not ok and (strict or key != "strict_tau_bound")
        ]
        if failed:
            out.append({"group": name, "prime": system.p, "failed": failed, "block": record})
    return out


def analyze_group(group: PermGroup, p: int, seed: int = 0, name: str = "group") -> dict:
    """Run the full block pipeline on one group at one prime and package the results."""
    system = _system(group, p, seed)
    records = [block_record(system, block) for block in system.blocks]
    verify = verify_system(system)
    violations = system_violations(name, system, records)
    passed = all(verify.values()) and not violations
    return {
        "group": name,
        "prime": p,
        "order": group.order(),
        "class_count": len(system.chartab.rows),
        "regular_class_count": len(system.regular),
        "block_count": len(system.blocks),
        "blocks": records,
        "verify": verify,
        "violations": violations,
        "passed": passed,
    }


def run_corpus(seed: int = 0, include_large: bool = False, entries=None,
               scenarios=None, fixtures=None) -> dict:
    """Analyze the corpus, run all scenario and fixture checks, and build the report.

    The analyses and scenarios share one block system per (generators,
    prime) for the length of the run.
    """
    if entries is None:
        entries = DEFAULT_CORPUS
    if scenarios is None:
        scenarios = DEFAULT_SCENARIOS
    if fixtures is None:
        fixtures = FIXTURES
    chosen = [entry for entry in entries if include_large or not entry.large]
    timings = {}
    analyses = []
    lemma_results = []
    token = _RUN_SYSTEMS.set({})
    try:
        for entry in chosen:
            group = entry.build()
            for p in entry.target_primes(group):
                started = time.perf_counter()
                result = analyze_group(
                    group, p, seed=_derive_seed(seed, entry.name, p), name=entry.name
                )
                timings[f"{entry.name}:{p}"] = round(time.perf_counter() - started, 6)
                analyses.append(result)
        for scenario in scenarios:
            started = time.perf_counter()
            lemma_results.append(run_scenario(scenario, seed=seed))
            timings[f"scenario:{scenario.name}"] = round(time.perf_counter() - started, 6)
    finally:
        _RUN_SYSTEMS.reset(token)
    fixture_results = [fixture_checks(fix, seed=seed) for fix in fixtures]
    return build_report(seed, include_large, [entry.name for entry in chosen], analyses,
                        lemma_results, fixture_results, timings)


def build_report(seed: int, include_large: bool, names: list, analyses: list,
                 lemmas: list, fixtures: list, timings: dict) -> dict:
    """Assemble the report of analyze_group, run_scenario and fixture_checks results.

    The report passes when every analysis passed (its verify_system checks
    hold and system_violations is empty), every paired-subgroup check holds
    (run_scenario) and every fixture holds (fixture_checks).
    """
    passed = (
        all(item["passed"] for item in analyses)
        and all(item["holds"] for item in lemmas)
        and all(item["holds"] for item in fixtures)
    )
    return {
        "meta": {
            "version": __version__,
            "seed": seed,
            "include_large": bool(include_large),
            "entries": names,
            "passed": passed,
            "timings": timings,
        },
        "blocks": analyses,
        "lemmas": lemmas,
        "fixtures": fixtures,
    }


def report_passed(report: dict) -> bool:
    """Tell whether every check in a report passed."""
    return bool(report["meta"]["passed"])


def report_json(report: dict) -> str:
    """Render a report as stable JSON text."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _block_rows(report: dict) -> list:
    """Flatten a report into one summary row per block."""
    rows = []
    for analysis in report["blocks"]:
        for record in analysis["blocks"]:
            failures = [key for key, ok in sorted(analysis["verify"].items()) if not ok]
            failures += [
                key for key, ok in sorted(record["checks"].items()) if not ok
            ]
            rows.append(
                [
                    analysis["group"],
                    analysis["prime"],
                    record["index"],
                    record["ordinary_count"],
                    record["simple_count"],
                    record["defect"],
                    record["defect_group_order"],
                    "yes" if record["defect_group_abelian"] else "no",
                    record["sectional_rank"],
                    record["tau"],
                    "+".join(failures) if failures else "ok",
                ]
            )
    return rows


_ROW_HEADER = [
    "group", "prime", "block", "ordinary", "simple", "defect",
    "defect_group_order", "abelian", "sectional", "tau", "verdicts",
]


def report_csv(report: dict) -> str:
    """Render the per-block summary table as CSV text."""
    lines = [",".join(_ROW_HEADER)]
    for row in _block_rows(report):
        lines.append(",".join(str(value) for value in row))
    return "\n".join(lines) + "\n"


def report_markdown(report: dict) -> str:
    """Render a report as a markdown document."""
    meta = report["meta"]
    out = ["# Block invariant report", ""]
    out.append(
        f"Version {meta['version']}, seed {meta['seed']}, "
        f"entries: {', '.join(meta['entries']) if meta['entries'] else 'none'}."
    )
    out.append("")
    out.append(f"Overall: {'all checks passed' if meta['passed'] else 'FAILURES PRESENT'}.")
    out.append("")
    if report["blocks"]:
        out.append("## Blocks")
        out.append("")
        out.append("| " + " | ".join(_ROW_HEADER) + " |")
        out.append("|" + "---|" * len(_ROW_HEADER))
        for row in _block_rows(report):
            out.append("| " + " | ".join(str(value) for value in row) + " |")
        out.append("")
    if report["lemmas"]:
        out.append("## Paired-subgroup checks")
        out.append("")
        out.append("| name | kind | prime | holds | measured |")
        out.append("|---|---|---|---|---|")
        for item in report["lemmas"]:
            out.append(
                f"| {item['name']} | {item['kind']} | {item['prime']} | "
                f"{'yes' if item['holds'] else 'NO'} | {item['summary']} |"
            )
        out.append("")
    if report["fixtures"]:
        out.append("## Cartan fixtures")
        out.append("")
        out.append("| name | size | trace | max diagonal | bound | rayleigh max | holds |")
        out.append("|---|---|---|---|---|---|---|")
        for item in report["fixtures"]:
            out.append(
                f"| {item['name']} | {item['size']} | {item['trace']} | "
                f"{item['max_diagonal']} | {item['bound']} | {item['rayleigh_max']} | "
                f"{'yes' if item['holds'] else 'NO'} |"
            )
        out.append("")
    return "\n".join(out)


def render_report(report: dict, fmt: str = "json") -> str:
    """Render a report in the requested format."""
    if fmt == "json":
        return report_json(report)
    if fmt == "md":
        return report_markdown(report)
    if fmt == "csv":
        return report_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
