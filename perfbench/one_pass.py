"""One cold pass of a workload in a fresh interpreter.

Usage: python3 perfbench/one_pass.py WORKLOAD SEED SPAWNED MODE [SPANS_PATH]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, ``import pblocks`` and
building the input groups.  MODE is ``run`` for an untraced pass, ``trace``
for a pass under the layer tracer (which writes its spans to SPANS_PATH),
or ``setup`` to stop after set-up.  Prints one JSON object.

Every time it reports is rescaled to the reference host speed of
``hostprobe``: set-up by probes taken right after it, the pass by probes
taken through it.  The measured wall time is kept as ``measured_wall_s``.
"""

import json
import resource
import sys
import time

SETUP_PROBES = 5


def main(argv: list) -> int:
    workload_name, seed, spawned, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]

    import numpy
    import pblocks  # noqa: F401  (the import is part of the measured set-up)
    from hostprobe import REFERENCE_PROBE_S, HostProbe, probe, reference_factor
    from workloads import WORKLOADS, gate, load_reference

    tracer = None
    workload = WORKLOADS[workload_name]()
    if mode == "trace":
        from tracer import Tracer, layer_metrics
        tracer = Tracer().install()
        if hasattr(workload, "call"):
            call = workload.call

            def traced_call(op, group, seed):
                tracer.set_op(op)
                return call(op, group, seed)
            workload.call = traced_call
    reference = load_reference()[workload_name]
    inputs = workload.setup()
    setup_s = time.monotonic() - spawned
    setup_factor = reference_factor([probe() for _ in range(SETUP_PROBES)])
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s * setup_factor}))
        return 0

    cpu_started = time.process_time()
    with HostProbe() as host:
        outcomes, wall_s, items = workload.run(inputs, seed)
    cpu_s = time.process_time() - cpu_started
    factor = host.factor()

    failed = gate(outcomes, reference)
    result = {
        "setup_s": setup_s * setup_factor,
        "wall_s": wall_s * factor,
        "measured_wall_s": wall_s,
        "cpu_s": cpu_s,
        "probe_ms": REFERENCE_PROBE_S * 1e3 / factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(outcomes),
        "failed": failed,
        "errors": sorted({o.error for o in outcomes if o.error}),
        "items": {op: seconds * factor for op, seconds in items.items()},
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = {
            name: value * factor if name.endswith("_s") else value
            for name, value in layer_metrics(tracer).items()
        }
        result["op_facts"] = {str(k): v for k, v in tracer.op_facts.items()}
        with open(argv[4], "w") as fh:
            json.dump({"workload": workload_name, "seed": seed,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans, "op_facts": result["op_facts"]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
