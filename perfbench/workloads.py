"""The benchmark workloads: their inputs, one pass over them, and the output gate.

Each workload is a closed loop with one caller: every operation starts when
the previous one has returned.  The seed a pass receives is passed unchanged
as ``seed=`` to the public API; the inputs themselves are fixed groups, so
one reference digest per operation serves every seed.

An operation fails when it raises, when its own verdict fails, or when the
digest of its seed-independent output differs from the stored reference.
"""

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from pblocks import chartab, corpus, harness

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def digest(payload) -> str:
    """Hash a JSON-ready payload canonically."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    """Read the stored reference digests, keyed by workload and operation id."""
    return json.loads(REFERENCE_PATH.read_text())


@dataclass(frozen=True)
class Outcome:
    """Result of one operation: its id, verdict, output digest and error."""

    op: str
    verdict: bool = False
    digest: str = ""
    error: str = ""


def gate(outcomes: list, reference: dict) -> list:
    """Return the ids of the operations that failed against the reference."""
    return [
        o.op for o in outcomes
        if o.error or not o.verdict or reference.get(o.op) != o.digest
    ]


# -- corpus -------------------------------------------------------------------------

def _fixture_payload(record: dict) -> dict:
    """Drop the one fixture field that depends on the seed (a sampled maximum)."""
    return {k: v for k, v in record.items() if k != "rayleigh_max"}


class CorpusWorkload:
    """One ``run_corpus(seed)`` over the default corpus, as ``pblocks verify-corpus`` runs it."""

    name = "corpus"

    def __init__(self, entries=None, scenarios=None, fixtures=None):
        self.entries = corpus.DEFAULT_CORPUS if entries is None else entries
        self.scenarios = corpus.DEFAULT_SCENARIOS if scenarios is None else scenarios
        self.fixtures = corpus.FIXTURES if fixtures is None else fixtures

    def setup(self) -> list:
        """Build each corpus group once to list the (group, prime) operations."""
        ops = [
            f"{entry.name}:{p}"
            for entry in self.entries if not entry.large
            for p in entry.target_primes(entry.build())
        ]
        ops += [f"scenario:{s.name}" for s in self.scenarios]
        ops += [f"fixture:{f.name}" for f in self.fixtures]
        return ops

    def run(self, ops: list, seed: int) -> tuple:
        """Run the corpus once; return outcomes, wall seconds and per-item seconds."""
        started = time.perf_counter()
        try:
            report = harness.run_corpus(
                seed=seed, entries=self.entries, scenarios=self.scenarios,
                fixtures=self.fixtures,
            )
        except Exception as exc:  # run_corpus stops at its first error: every op fails
            wall = time.perf_counter() - started
            return [Outcome(op, error=f"{type(exc).__name__}: {exc}") for op in ops], wall, {}
        wall = time.perf_counter() - started
        found = {}
        for item in report["blocks"]:
            found[f"{item['group']}:{item['prime']}"] = (item["passed"], digest(item))
        for item in report["lemmas"]:
            found[f"scenario:{item['name']}"] = (item["holds"], digest(item))
        for item in report["fixtures"]:
            found[f"fixture:{item['name']}"] = (item["holds"], digest(_fixture_payload(item)))
        outcomes = [
            Outcome(op, *found[op]) if op in found
            else Outcome(op, error="missing from the report")
            for op in ops + sorted(set(found) - set(ops))
        ]
        return outcomes, wall, dict(report["meta"]["timings"])


# -- per-group workloads ----------------------------------------------------------

MODULAR_CHAR2_GROUPS = (
    ("A7", lambda: corpus.alternating_group(7)),
    ("S7", lambda: corpus.symmetric_group(7)),
    ("S6", lambda: corpus.symmetric_group(6)),
    ("SL(2,8)", corpus.special_linear_2_8),
    ("PSL(2,7)", corpus.projective_special_linear_2_7),
    ("A5", lambda: corpus.alternating_group(5)),
)

ORDINARY_TABLE_GROUPS = (
    ("S6", lambda: corpus.symmetric_group(6)),
    ("A7", lambda: corpus.alternating_group(7)),
    ("S7", lambda: corpus.symmetric_group(7)),
    ("M11", corpus.mathieu_group_11),
)


class _PerGroupWorkload:
    """One public call per freshly built group; subclasses name the call."""

    name = ""
    groups = ()

    def __init__(self, groups=None):
        if groups is not None:
            self.groups = groups

    def op_id(self, name: str) -> str:
        return name

    def setup(self) -> list:
        """Build every input group; their lazy data is left for the timed calls."""
        return [(self.op_id(name), build()) for name, build in self.groups]

    def call(self, op: str, group, seed: int):
        """Run the workload's public call on one group."""
        raise NotImplementedError

    def check(self, group, result) -> tuple:
        """Return the verdict and the seed-independent payload of one result."""
        raise NotImplementedError

    def run(self, inputs: list, seed: int) -> tuple:
        """Run every operation back to back, then gate the results."""
        results = []
        items = {}
        started = time.perf_counter()
        for op, group in inputs:
            t0 = time.perf_counter()
            try:
                results.append((op, group, self.call(op, group, seed), ""))
            except Exception as exc:  # one failing operation must not hide the others
                results.append((op, group, None, f"{type(exc).__name__}: {exc}"))
            items[op] = time.perf_counter() - t0
        wall = time.perf_counter() - started
        outcomes = []
        for op, group, result, error in results:
            if error:
                outcomes.append(Outcome(op, error=error))
                continue
            verdict, payload = self.check(group, result)
            outcomes.append(Outcome(op, verdict, digest(payload)))
        return outcomes, wall, items


class ModularChar2Workload(_PerGroupWorkload):
    """``analyze_group(G, 2, seed)`` on groups whose splitting fields have characteristic 2."""

    name = "modular-char2"
    groups = MODULAR_CHAR2_GROUPS

    def op_id(self, name: str) -> str:
        return f"{name}:2"

    def call(self, op: str, group, seed: int):
        return harness.analyze_group(group, 2, seed=seed, name=op.rsplit(":", 1)[0])

    def check(self, group, result) -> tuple:
        return result["passed"], result["blocks"]


class OrdinaryTablesWorkload(_PerGroupWorkload):
    """``character_table(G, seed)``: classes, the class algebra and cyclotomic lifting only."""

    name = "ordinary-tables"
    groups = ORDINARY_TABLE_GROUPS

    def call(self, op: str, group, seed: int):
        return chartab.character_table(group, seed=seed)

    def check(self, group, result) -> tuple:
        payload = [
            list(result.degrees),
            [[[v.conductor, [str(c) for c in v.coords]] for v in row] for row in result.rows],
        ]
        return sum(d * d for d in result.degrees) == group.order(), payload


WORKLOADS = {
    w.name: w for w in (CorpusWorkload, ModularChar2Workload, OrdinaryTablesWorkload)
}
