"""The pblocks benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Each timed pass is a fresh interpreter (``one_pass.py``) that imports
pblocks, builds the workload's groups and runs every operation once, one
after another, on a single thread.  New passes start until ``--seconds``
have gone by; at least one always runs.  The last line of standard
output is one JSON object: with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics.  A traced run alternates
untraced and traced passes so that it can report the tracing overhead and
take per-item times from passes the tracer did not slow.  Every reported
time is rescaled to a reference host speed (see ``hostprobe.py``).

``--write-reference`` stores the output digests of the current program
(seed 0) in ``perfbench/reference.json``; ``--write-spec`` writes
``BENCHMARK.json``.  Both are maintenance commands, not part of a run.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
RUN_LIMIT_S = 170.0
SETUP_PASSES = 2

WORKLOADS = {
    "corpus": "the default corpus as verify-corpus runs it; odd-characteristic extension "
              "fields dominate; M11 and --include-large are left out: M11 at p=2 did not "
              "finish in 15 min",
    "modular-char2": "analyze_group at p=2 on A7, S7, S6, SL(2,8), PSL(2,7), A5: the same "
                     "modrep layer on characteristic-2 table fields, where add is XOR",
    "ordinary-tables": "character_table of S6, A7, S7 and M11: only perm, chartab and "
                       "cyclotomic run, so a modrep or ffield change must stay flat here",
}

END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.001),
]

# per-layer metrics that count work without a _calls suffix; the others are
# ratios (_ratio, _share), call counts (_calls) or times in seconds
COUNTS = {"cyclotomic.cyc_ops", "modrep.chop_input_dim", "modrep.tensor_tried",
          "modrep.max_module_dim", "modrep.field_q"}
TRACE_METRICS = ("trace.overhead_s", "trace.traced_wall_s", "trace.untraced_wall_s")


def item_metric(workload: str, op: str) -> str:
    """Name the per-item time metric of one operation, e.g. SL(2,8):7 -> ...SL_2_8.p7."""
    def clean(text):
        return re.sub(r"[^A-Za-z0-9-]+", "_", text).strip("_")
    if op.startswith("scenario:"):
        return f"harness.scenario_s.{clean(op.split(':', 1)[1])}"
    if workload == "ordinary-tables":
        return f"chartab.table_s.{clean(op)}"
    group, prime = op.rsplit(":", 1)
    return f"harness.analysis_s.{clean(group)}.p{prime}"


def timed_items(workload: str) -> list:
    """List the operation ids whose times a run reports one by one."""
    reference = json.loads((HERE / "reference.json").read_text())[workload]
    return [op for op in reference if not op.startswith("fixture:")]


def _use_sources() -> None:
    """Make the program under ``src`` and the benchmark's modules importable here."""
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def layer_metric_names() -> list:
    """List every per-layer metric name in the order BENCHMARK.json gives them."""
    _use_sources()
    from tracer import Tracer, layer_metrics
    names = list(layer_metrics(Tracer())) + list(TRACE_METRICS)
    for workload in WORKLOADS:
        for op in timed_items(workload):
            name = item_metric(workload, op)
            if name not in names:
                names.append(name)
    return names


def layer_unit(name: str) -> tuple:
    """Return the unit of a per-layer metric and which direction is better."""
    if name.endswith(("_ratio", "_share")):
        return ("ratio", "higher")
    if name in COUNTS or name.endswith("_calls"):
        return ("count", "lower")
    return ("s", "lower")


def spec() -> dict:
    """Return the BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 40,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": layer_unit(n)[0], "better": layer_unit(n)[1]}
            for n in layer_metric_names()
        ],
    }


# -- passes --------------------------------------------------------------------------

def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one pass (mode run, trace or setup) in a fresh interpreter; return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spans = []
    if mode == "trace":
        SPANS_DIR.mkdir(exist_ok=True)
        spans = [str(SPANS_DIR / f"spans-{workload}.json")]
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed), repr(spawned),
           mode] + spans
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_seed(seed: int, k: int) -> int:
    """Derive the seed of the k-th round of a run from the run's seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:4], "big")


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Start rounds until ``seconds`` have gone by; at least one always runs.

    A round is an untraced pass, a traced pass on the same seed when tracing,
    and SETUP_PASSES processes that stop after set-up, so that even a run of
    five corpus passes has enough set-up samples for a steady median.

    Each round gets its own seed derived from the run's seed: the work of
    the chop depends on its random draws (rescaled corpus passes take 4.7 s
    to 10.7 s across seeds), so a run that repeated one seed would measure
    that seed's luck rather than the program.
    """
    started = time.monotonic()
    rounds = []

    def left():
        return RUN_LIMIT_S - (time.monotonic() - started)

    while not rounds or time.monotonic() - started < seconds:
        k_seed = pass_seed(seed, len(rounds))
        round_ = {"run": run_pass(workload, k_seed, "run", left())}
        if trace:
            round_["trace"] = run_pass(workload, k_seed, "trace", left())
        round_["setups"] = [run_pass(workload, k_seed, "setup", left())["setup_s"]
                            for _ in range(SETUP_PASSES)]
        rounds.append(round_)
    return rounds


def tail_note(walls: list) -> str:
    """Give the median pass time and the highest percentile with ten samples beyond it."""
    n = len(walls)
    text = f"pass time: median {statistics.median(walls):.6g} s over {n} passes"
    if n < 11:
        return text + "; too few for a percentile with ten samples beyond it"
    return text + f", p{100 * (n - 10) // n} = {walls[n - 11]:.6g} s"


def summarize(workload: str, rounds: list, trace: bool) -> tuple:
    """Turn the rounds of one run into (attempted, failed, metrics, notes)."""
    untraced = [r["run"] for r in rounds]
    passes = untraced + [r["trace"] for r in rounds if "trace" in r]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    notes = [
        f"python {passes[0]['python']}, numpy {passes[0]['numpy']}, nproc {os.cpu_count()}",
        tail_note(sorted(u["wall_s"] for u in untraced)),
        "measured wall time before rescaling: median "
        f"{statistics.median(u['measured_wall_s'] for u in untraced):.6g} s",
        "passes (seed: measured wall s, cpu s, median probe ms): " + ", ".join(
            f"{u['seed']}: {u['measured_wall_s']:.3f} {u['cpu_s']:.3f} {u['probe_ms']:.4f}"
            for u in untraced),
    ]
    for p in passes:
        if p["failed"]:
            notes.append(f"failed: {', '.join(p['failed'])} {'; '.join(p['errors'])}")
    if not trace:
        setups = [u["setup_s"] for u in untraced] + [s for r in rounds for s in r["setups"]]
        metrics = {
            # the mean, not the median: once rescaled, passes differ by the
            # chop's seed-dependent work (a quartile spread of 27 % of the
            # median on corpus), and the mean of four to six passes is the
            # steadier estimate of the expected cost
            "wall_s": statistics.fmean(u["wall_s"] for u in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in untraced),
            "ok_ratio": 1.0 - failed / attempted,
        }
        notes.append(f"setup_s: median of {len(setups)} set-ups")
        notes.append(f"fail_ratio {failed / attempted} ({failed} of {attempted} operations)")
        return attempted, failed, metrics, notes
    traced = [r["trace"] for r in rounds]
    metrics = {name: 0.0 for name in layer_metric_names()}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(t["layers"][name] for t in traced)
    metrics["trace.untraced_wall_s"] = statistics.fmean(u["wall_s"] for u in untraced)
    metrics["trace.traced_wall_s"] = statistics.fmean(t["wall_s"] for t in traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    for op in timed_items(workload):
        metrics[item_metric(workload, op)] = statistics.median(
            u["items"].get(op, 0.0) for u in untraced)
    for op, facts in sorted(traced[-1]["op_facts"].items()):
        if facts:
            notes.append(f"{op}: " + ", ".join(f"{k} {v}" for k, v in sorted(facts.items())))
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pblocks" / "__init__.py").is_file():
        print(f"pblocks sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, metrics, notes = summarize(args.workload, rounds, bool(args.trace))
    units = {n: u for n, u, _, _ in END_TO_END}
    for note in notes:
        print(f"# {note}")
    out = {}
    for name, value in metrics.items():
        unit = units.get(name) or layer_unit(name)[0]
        print(f"{args.workload} {name} = {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def write_reference() -> int:
    """Record the output digests of every operation of every workload at seed 0."""
    _use_sources()
    from workloads import WORKLOADS as classes
    reference = {}
    for name in WORKLOADS:
        workload = classes[name]()
        outcomes, _, _ = workload.run(workload.setup(), 0)
        bad = [o.op for o in outcomes if o.error or not o.verdict]
        if bad:
            print(f"{name}: refusing to record failing operations {bad}", file=sys.stderr)
            return 1
        reference[name] = {o.op: o.digest for o in outcomes}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
