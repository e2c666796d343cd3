"""Command line interface for exact block invariant analysis."""

import argparse
import json
import sys

from .corpus import (
    DEFAULT_CORPUS,
    DEFAULT_SCENARIOS,
    FIXTURES,
    CartanFixture,
    CorpusEntry,
    PairedScenario,
)
from .errors import BlockEngineError
from .harness import (
    SCENARIO_KINDS,
    analyze_group,
    fixture_checks,
    format_fraction,
    render_report,
    report_passed,
    run_corpus,
    tau_rayleigh,
)
from . import __version__
from .perm import PermGroup, verify_normal


def _load_json(path: str):
    """Read a JSON document from a file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _images_to_perm(images) -> tuple:
    """Convert a 1-based image list into a 0-based permutation tuple."""
    return tuple(int(v) - 1 for v in images)


def _group_from_json(obj) -> tuple:
    """Build a named permutation group from its JSON description."""
    name = str(obj["name"])
    degree = int(obj["degree"])
    generators = [_images_to_perm(images) for images in obj["generators"]]
    return name, PermGroup(degree, generators)


def _corpus_from_json(doc) -> tuple:
    """Build corpus entries and paired scenarios from a corpus document."""
    groups = {}
    entries = []
    for obj in doc.get("groups", []):
        name, group = _group_from_json(obj)
        if name in groups:
            raise ValueError(f"duplicate group name {name!r}")
        groups[name] = group
        primes = tuple(int(p) for p in obj["primes"]) if "primes" in obj else None
        entries.append(
            CorpusEntry(
                name,
                (lambda g: lambda: g)(group),
                large=bool(obj.get("large", False)),
                primes=primes,
            )
        )
    subgroups = {}
    for obj in doc.get("normal_subgroups", []):
        name = str(obj["name"])
        parent_name = str(obj["parent"])
        if parent_name not in groups:
            raise ValueError(f"normal subgroup {name!r} names unknown parent {parent_name!r}")
        parent = groups[parent_name]
        sub = PermGroup(
            parent.degree, [_images_to_perm(images) for images in obj["generators"]]
        )
        verify_normal(parent, sub)
        subgroups[name] = (parent_name, parent, sub)
    scenarios = []
    for obj in doc.get("lemma_bindings", []):
        kind = str(obj["check"])
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown check kind {kind!r}")
        sub_name = str(obj["subgroup"])
        if sub_name not in subgroups:
            raise ValueError(f"binding names unknown normal subgroup {sub_name!r}")
        parent_name, parent, sub = subgroups[sub_name]
        if "group" in obj and str(obj["group"]) != parent_name:
            raise ValueError(
                f"binding group {obj['group']!r} does not own subgroup {sub_name!r}"
            )
        scenarios.append(
            PairedScenario(
                f"{kind}:{parent_name}/{sub_name}",
                kind,
                int(obj["prime"]),
                (lambda pair: lambda: pair)((parent, sub)),
            )
        )
    fixtures = None
    if "fixtures" in doc:
        fixtures = [
            CartanFixture(
                str(obj["name"]),
                str(obj.get("note", "")),
                int(obj["prime"]),
                obj["rows"],
                defect_order=int(obj["defect_order"]),
                sectional=int(obj["sectional"]),
                trace_expected=obj.get("trace"),
            )
            for obj in doc["fixtures"]
        ]
    return entries, scenarios, fixtures


def _single_group_from_file(path: str) -> tuple:
    """Load one named group from a group file."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "groups" in doc:
        listed = doc["groups"]
        if len(listed) != 1:
            raise ValueError("group file must describe exactly one group")
        return _group_from_json(listed[0])
    return _group_from_json(doc)


def _cmd_analyze(args) -> int:
    """Analyze one group at one prime and print the report."""
    name, group = _single_group_from_file(args.group)
    result = analyze_group(group, args.prime, seed=args.seed, name=name)
    report = {
        "meta": {
            "version": __version__,
            "seed": args.seed,
            "include_large": False,
            "entries": [name],
            "passed": result["passed"],
            "timings": {},
        },
        "blocks": [result],
        "lemmas": [],
        "fixtures": [],
    }
    sys.stdout.write(render_report(report, args.format))
    return 0 if result["passed"] else 1


def _cmd_verify_corpus(args) -> int:
    """Run the corpus verification sweep and print the report."""
    entries = None
    scenarios = None
    fixtures = None
    if args.corpus is not None:
        entries, scenarios, fixtures = _corpus_from_json(_load_json(args.corpus))
    report = run_corpus(
        seed=args.seed,
        include_large=args.include_large,
        entries=entries,
        scenarios=scenarios,
        fixtures=fixtures,
    )
    sys.stdout.write(render_report(report, args.format))
    return 0 if report_passed(report) else 1


def _cmd_tau(args) -> int:
    """Evaluate the Cartan quadratic form ratio for an explicit matrix and degrees."""
    doc = _load_json(args.cartan)
    rows = doc["rows"] if isinstance(doc, dict) else doc
    rows = [[int(value) for value in row] for row in rows]
    degrees = [int(part) for part in args.degrees.split(",") if part.strip()]
    sys.stdout.write(format_fraction(tau_rayleigh(rows, degrees)) + "\n")
    return 0


def _cmd_fixtures(args) -> int:
    """Check every embedded Cartan fixture and print one line per fixture."""
    all_hold = True
    for fix in FIXTURES:
        result = fixture_checks(fix, seed=args.seed)
        verdict = "ok" if result["holds"] else "FAIL"
        sys.stdout.write(
            f"{fix.name}: size {result['size']}, trace {result['trace']}, "
            f"max diagonal {result['max_diagonal']}, bound {result['bound']}, "
            f"{verdict}\n"
        )
        all_hold = all_hold and result["holds"]
    return 0 if all_hold else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="pblocks",
        description="Exact p-block invariants of small finite permutation groups.",
    )
    parser.add_argument("--version", action="version", version=f"pblocks {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="analyze one group at one prime")
    analyze.add_argument("--group", required=True, help="JSON group file")
    analyze.add_argument("--prime", required=True, type=int, help="prime to analyze at")
    analyze.add_argument("--seed", type=int, default=0, help="base random seed")
    analyze.add_argument("--format", choices=("json", "md", "csv"), default="json")
    analyze.set_defaults(func=_cmd_analyze)

    verify = commands.add_parser(
        "verify-corpus", help="run the full corpus, scenario, and fixture sweep"
    )
    verify.add_argument("--corpus", default=None, help="JSON corpus file (default: built-in)")
    verify.add_argument("--seed", type=int, default=0, help="base random seed")
    verify.add_argument(
        "--include-large", action="store_true", help="include entries marked large"
    )
    verify.add_argument("--format", choices=("json", "md", "csv"), default="json")
    verify.set_defaults(func=_cmd_verify_corpus)

    tau = commands.add_parser("tau", help="evaluate tau from a Cartan matrix and degrees")
    tau.add_argument("--cartan", required=True, help="JSON file holding the matrix rows")
    tau.add_argument("--degrees", required=True, help="comma separated positive degrees")
    tau.set_defaults(func=_cmd_tau)

    fixtures = commands.add_parser("fixtures", help="check the embedded Cartan fixtures")
    fixtures.add_argument("--seed", type=int, default=0, help="base random seed")
    fixtures.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    """Run the command line interface and return the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlockEngineError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (OSError, KeyError, TypeError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
