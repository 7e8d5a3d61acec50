#!/usr/bin/env python3
"""Run one benchmark workload on the fhmm package and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

Workloads are ``train``, ``baseline`` and ``replay`` (see README.md).  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones from a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine facts and
the run's details.  Results and span traces are also written under
``perfbench/out/``.  The package is imported from ``src/`` of the checkout
the script sits in; without it the script exits with code 1.
"""

import os

# One BLAS/OpenMP thread before numpy loads (the benchmark's command sets it
# too): two threads on two shared cores spend more CPU for the same wall time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("train", "baseline", "replay")


def import_program():
    """Put the checkout's src/ first on the path; exit if it is missing."""
    if not (SRC / "fhmm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fhmm package under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    return json.loads(spec_path.read_text())


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="serve whole passes until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every check in seconds, for tests")
    parser.add_argument("--make-model", nargs=3,
                        metavar=("SESSIONS", "MODEL_DIR", "K"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--serve", nargs=3, metavar=("KIND", "PATH", "SESSIONS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not (args.make_model or args.serve):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds, so subprocess.run stops and waits for its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = import_program()
    import workloads
    from checks import Ledger
    from speed import REFERENCE_BLOCK_S, Speed
    from tracing import Tracer

    if args.make_model:
        sessions, model_dir, k = args.make_model
        print(json.dumps(workloads.make_model(sessions, model_dir, int(k))))
        return 0
    if args.serve:
        print(json.dumps(workloads.serve_saved(*args.serve, args.seconds)))
        return 0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    speed = Speed()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    ctx = workloads.Context(
        scale=workloads.SCALES[args.scale], seed=args.seed,
        seconds=args.seconds, work=work, run_py=Path(__file__).resolve(),
        ledger=Ledger(), speed=speed,
        tracer=Tracer(speed.clock, speed.at_reference) if args.trace else None,
    )
    run = {
        "train": workloads.train_workload,
        "baseline": workloads.baseline_workload,
        "replay": workloads.replay_workload,
    }[args.workload]
    try:
        with speed:
            values = run(ctx)
    except Exception:
        traceback.print_exc()
        values = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace and values:
        # a layer this workload never calls did no work in it
        values = {m["name"]: 0 for m in wanted} | values
    missing = [m["name"] for m in wanted if m["name"] not in values]
    result = {
        "correct": ctx.ledger.correct and not missing,
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "machine": machine_facts(),
        "speed": {
            "samples": len(speed.blocks),
            "block_median_s": statistics.median(speed.blocks),
            "reference_block_s": REFERENCE_BLOCK_S,
        },
        "extra": {k: v for k, v in values.items()
                  if k not in {m["name"] for m in wanted}},
        "problems": ctx.ledger.problems,
    }
    if ctx.tracer is not None:
        details["self_time_s"] = ctx.tracer.self_times()
        ctx.tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.json", details
        )
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n"
    )
    for problem in ctx.ledger.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if values and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
