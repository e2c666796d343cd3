"""Corpus runner with fixture validation, paired-subgroup suites, and report emission."""

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from typing import Optional

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
    CorpusEntry,
    PairedScenario,
)
from .chartab import class_inner_product
from .errors import BindingUnsatisfiable, ShapeMismatch
from .intmath import int_det, is_p_power, p_valuation
from .modrep import ReductionContext
from .perm import PermGroup, abelian_p_invariants, perm_mul


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
    degrees = [int(d) for d in degrees]
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive integers")
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


def fixture_checks(fix: CartanFixture, seed: int = 0, samples: int = 1000) -> dict:
    """Validate one reference Cartan matrix against its claimed block data."""
    rows = fix.rows
    size = fix.size()
    p = fix.prime
    trace = fix.trace()
    bound = fix.bound()
    symmetric = all(rows[i][j] == rows[j][i] for i in range(size) for j in range(size))
    diagonal_ok = fix.max_diagonal() <= fix.defect_order
    trace_ok = fix.trace_expected is None or trace == fix.trace_expected
    det = int_det(rows)
    det_p_power = is_p_power(det, p)
    top = _top_elementary_divisor(rows)
    top_divisor_ok = top == fix.defect_order
    definite = _positive_definite(rows)
    rng = random.Random(_derive_seed(seed, "fixture", fix.name))
    rayleigh_ok = True
    worst = Fraction(0)
    for _ in range(samples):
        degrees = [rng.randint(1, 64) for _ in range(size)]
        value = tau_rayleigh(rows, degrees)
        if value > worst:
            worst = value
        if not (value <= trace and value < bound):
            rayleigh_ok = False
    result = {
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
        "symmetric": symmetric,
        "diagonal_ok": diagonal_ok,
        "trace_ok": trace_ok,
        "det_p_power": det_p_power,
        "top_divisor_ok": top_divisor_ok,
        "positive_definite": definite,
        "rayleigh_ok": rayleigh_ok,
    }
    result["holds"] = all(
        result[key]
        for key in (
            "symmetric",
            "diagonal_ok",
            "trace_ok",
            "det_p_power",
            "top_divisor_ok",
            "positive_definite",
            "rayleigh_ok",
        )
    )
    return result


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
    return {
        "comparisons": pairs,
        "holds": all(pair["holds"] for pair in pairs),
        "summary": ", ".join(
            f"{p['ambient_tau']} = {p['sub_tau']}" for p in pairs
        ),
    }


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
    quotient = action.quotient
    qsys = block_system(
        quotient,
        p,
        seed=seed,
        context=ReductionContext(quotient, p, field=gsys.context.field),
    )
    char_map, ibr_map = inflation_correspondence(gsys, action, qsys, seed=seed)
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
    holds = scaled and bool(comparisons) and all(c["holds"] for c in comparisons)
    summary = "cartan scale ok, " if scaled else "cartan scale broken, "
    summary += ", ".join(f"{c['left']} <= {c['right']}" for c in comparisons)
    return {"comparisons": comparisons, "cartan_scaled": scaled, "holds": holds,
            "summary": summary}


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
    return {
        "identities": identities,
        "holds": all(item["holds"] for item in identities),
        "summary": ", ".join(f"{item['left']} = {item['right']}" for item in identities),
    }


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
    return {
        "comparisons": pairs,
        "holds": bool(pairs) and all(pair["holds"] for pair in pairs),
        "summary": ", ".join(f"{p['ambient_tau']} = {p['sub_tau']}" for p in pairs),
    }


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
    return {
        "comparisons": comparisons,
        "holds": all(c["holds"] for c in comparisons),
        "summary": ", ".join(f"{c['left']} <= {c['right']}" for c in comparisons),
    }


def _on_subsystem(check):
    """Adapt a check of two block systems to take the subgroup and its seed."""
    return lambda gsys, sub, seed: check(gsys, block_system(sub, gsys.p, seed=seed))


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
    body = check(block_system(group, p, seed=gseed), sub, nseed)
    result = {
        "name": scenario.name,
        "kind": scenario.kind,
        "prime": p,
        "ambient_order": group.order(),
        "subgroup_order": sub.order(),
    }
    result.update(body)
    return result


def scenario_suite(scenarios=None, seed: int = 0) -> list:
    """Run every paired-subgroup scenario."""
    if scenarios is None:
        scenarios = DEFAULT_SCENARIOS
    return [run_scenario(scenario, seed=seed) for scenario in scenarios]


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


def verify_system(system: BlockSystem) -> dict:
    """Re-assert the structural invariants of a computed block system independently."""
    order = system.group.order()
    p = system.p
    tab = system.chartab
    count = len(tab.rows)
    simple_total = len(system.brauer.dims)
    blocks = system.blocks
    checks = {}
    checks["char_partition"] = sorted(
        ci for block in blocks for ci in block.chars
    ) == list(range(count))
    checks["ibr_partition"] = sorted(
        j for block in blocks for j in block.ibrs
    ) == list(range(simple_total))
    checks["simple_count_total"] = simple_total == len(system.regular)
    checks["dimension_total"] = sum(block.dim for block in blocks) == order
    checks["orthogonality"] = all(
        class_inner_product(tab.rows[i], tab.rows[j], tab.classes) == (1 if i == j else 0)
        for i in range(count)
        for j in range(i, count)
    )
    checks["decomposition_nonnegative"] = all(
        value >= 0 for row in system.decomposition for value in row
    )
    full_rank = True
    symmetric = True
    product = True
    det_power = True
    two_route = True
    tau_floor = True
    tau_trace = True
    defect_ok = True
    diagonal_ok = True
    for block in blocks:
        dmat = [
            [system.decomposition[ci][bj] for bj in block.ibrs] for ci in block.chars
        ]
        size = len(block.ibrs)
        gram = [
            [sum(row[a] * row[b] for row in dmat) for b in range(size)]
            for a in range(size)
        ]
        if [list(row) for row in block.cartan] != gram:
            product = False
        if int_det(gram) == 0:
            full_rank = False
        if any(
            block.cartan[a][b] != block.cartan[b][a]
            for a in range(size)
            for b in range(size)
        ):
            symmetric = False
        if not is_p_power(int_det(block.cartan), p):
            det_power = False
        by_chars = sum(d * d for d in block.degrees)
        by_cartan = sum(
            block.cartan[a][b] * block.ibr_degrees[a] * block.ibr_degrees[b]
            for a in range(size)
            for b in range(size)
        )
        if not (block.dim == by_chars == by_cartan):
            two_route = False
        if block.tau < 1 or (block.tau == 1) != (block.defect == 0):
            tau_floor = False
        if block.tau > sum(block.cartan[a][a] for a in range(size)):
            tau_trace = False
        if block.defect_group.order() != p ** block.defect:
            defect_ok = False
        if block.principal and block.defect != p_valuation(order, p):
            defect_ok = False
        if p == 2 and block.defect_group.is_abelian():
            if any(block.cartan[a][a] > block.defect_group.order() for a in range(size)):
                diagonal_ok = False
    checks["decomposition_full_rank"] = full_rank
    checks["cartan_symmetric"] = symmetric
    checks["cartan_is_gram"] = product
    checks["cartan_det_p_power"] = det_power
    checks["two_route_dimension"] = two_route
    checks["tau_floor"] = tau_floor
    checks["tau_trace_bound"] = tau_trace
    checks["defect_consistency"] = defect_ok
    checks["abelian_diagonal_bound"] = diagonal_ok
    return checks


def system_violations(name: str, system: BlockSystem, records: list) -> list:
    """Collect conjecture verdict failures with full block data attached."""
    out = []
    for block, record in zip(system.blocks, records):
        verdicts = record["checks"]
        failed = []
        if not verdicts["tau_bound"]:
            failed.append("tau_bound")
        if not verdicts["equality_iff_one_simple"]:
            failed.append("equality_iff_one_simple")
        if not verdicts["simple_count_bound"]:
            failed.append("simple_count_bound")
        if (
            system.p == 2
            and block.defect > 0
            and record["defect_group_abelian"]
            and not verdicts["strict_tau_bound"]
        ):
            failed.append("strict_tau_bound")
        if failed:
            out.append(
                {
                    "group": name,
                    "prime": system.p,
                    "failed": failed,
                    "block": record,
                }
            )
    return out


def analyze_group(group: PermGroup, p: int, seed: int = 0, name: str = "group") -> dict:
    """Run the full block pipeline on one group at one prime and package the results."""
    system = block_system(group, p, seed=seed)
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
    """Analyze the corpus, run all scenario and fixture checks, and build the report."""
    if entries is None:
        entries = DEFAULT_CORPUS
    if scenarios is None:
        scenarios = DEFAULT_SCENARIOS
    if fixtures is None:
        fixtures = FIXTURES
    chosen = [entry for entry in entries if include_large or not entry.large]
    timings = {}
    analyses = []
    for entry in chosen:
        group = entry.build()
        for p in entry.target_primes(group):
            started = time.perf_counter()
            result = analyze_group(
                group, p, seed=_derive_seed(seed, entry.name, p), name=entry.name
            )
            timings[f"{entry.name}:{p}"] = round(time.perf_counter() - started, 6)
            analyses.append(result)
    lemma_results = []
    for scenario in scenarios:
        started = time.perf_counter()
        lemma_results.append(run_scenario(scenario, seed=seed))
        timings[f"scenario:{scenario.name}"] = round(time.perf_counter() - started, 6)
    fixture_results = [fixture_checks(fix, seed=seed) for fix in fixtures]
    passed = (
        all(item["passed"] for item in analyses)
        and all(item["holds"] for item in lemma_results)
        and all(item["holds"] for item in fixture_results)
    )
    return {
        "meta": {
            "version": __version__,
            "seed": seed,
            "include_large": bool(include_large),
            "entries": [entry.name for entry in chosen],
            "passed": passed,
            "timings": timings,
        },
        "blocks": analyses,
        "lemmas": lemma_results,
        "fixtures": fixture_results,
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
