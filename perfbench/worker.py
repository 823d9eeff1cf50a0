"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; a fresh process per repetition starts with the
program's in-process caches empty, as a CLI invocation does.  Modes:

- ``setup``: import and write the inputs, then stop (a set-up sample);
- ``timed``: run the body untraced and time it;
- ``traced``: run the body with spans around every layer, then the probes;
- ``verify``: the checks that need extra computation, on the outputs of an
  earlier repetition (never timed).

The worker writes one JSON result file; its standard output stays unused.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced", "verify"),
                        required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--round-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (SRC / "mmwcluster" / "__init__.py").is_file():
        print(f"error: no mmwcluster sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import mmwcluster
    if Path(mmwcluster.__file__).resolve().parent != SRC / "mmwcluster":
        print(f"error: imported mmwcluster from {mmwcluster.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracing import SpanIndex

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir, args.smoke)
    ready = time.perf_counter()
    result: dict = {"ready": ready}
    if args.mode == "setup":
        return _write(args.result, result)

    args.round_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "verify":
        outcome = _load_outcome(args.round_dir)
        result["problems"] = workload.verify(outcome)
        return _write(args.result, result)

    tracer = workloads.install_tracer() if args.mode == "traced" else None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        outcome = workload.run(args.round_dir)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_kb / 1024.0,
                  attempted=outcome.attempted, failed=outcome.failed,
                  notes=outcome.notes, files=outcome.files,
                  problems=workload.check(outcome))
    _save_outcome(args.round_dir, outcome)
    if tracer is not None:
        index = SpanIndex(tracer.spans)
        layers = workloads.layer_metrics(index, len(outcome.data.get("rows", [])))
        layers["process.cpu_s"] = cpu
        layers.update(workloads.run_probes(workload.base_config(), args.seed))
        result["layers"] = layers
        spans = [[s.id, s.name, s.start - t0, s.end - t0, s.parent, s.tags]
                 for s in tracer.spans]
        (args.round_dir / "spans.json").write_text(json.dumps(
            {"columns": ["id", "name", "start_s", "end_s", "parent", "tags"],
             "spans": spans}))
    return _write(args.result, result)


def _save_outcome(round_dir: Path, outcome) -> None:
    (round_dir / "outcome.json").write_text(json.dumps(
        {"attempted": outcome.attempted, "failed": outcome.failed,
         "notes": outcome.notes, "files": outcome.files,
         "data": {str(k): v for k, v in outcome.data.items()}}))


def _load_outcome(round_dir: Path):
    import workloads
    raw = json.loads((round_dir / "outcome.json").read_text())
    return workloads.Outcome(raw["attempted"], raw["failed"], raw["notes"],
                             raw["data"], raw["files"])


def _write(path: Path, result: dict) -> int:
    path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
