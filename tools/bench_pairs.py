"""Paired benchmark runs of two checkouts, summarized into a BENCH JSON file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        [--seed S] [--out BENCH.json]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, on the
same seed (``S + pair index``), with each checkout's own benchmark code and
sources, for the ``run_seconds`` that the parent's ``BENCHMARK.json`` fixes.
The parent goes first on even pairs and the change on odd ones, so a drift of
the host between runs falls on both sides alike.

Each call appends one round to the list ``workloads[W]`` of the output file:
the first seed, both sides' revisions, source digests and source line counts
(``src/mmwcluster/*.py``, as ``cat | wc -l`` counts them), the per-pair
end-to-end metrics and, per metric, each side's median and quartiles, the
pairs the change won and lost (lower is better; ties count for neither) and
the ratio of the medians.  Earlier rounds are kept.  Exits 1, writing
nothing, when a run fails or reports a failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its printed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: a check failed: {proc.stderr.strip()}")
    return result


def revision(checkout: Path) -> str | None:
    """``git describe`` of a checkout, or None outside a git work tree."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def source_digest(checkout: Path) -> str:
    """SHA-256 over the paths and bytes of the ``.py`` files under ``src/`` and
    ``perfbench/``: the code a run measured, also in an uncommitted tree."""
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "perfbench") for p in (checkout / d).rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def source_lines(checkout: Path) -> int:
    """Newlines in ``src/mmwcluster/*.py``: the tracked size of the package."""
    return sum(p.read_bytes().count(b"\n")
               for p in (checkout / "src" / "mmwcluster").glob("*.py"))


def summarize(pairs: list[dict]) -> dict:
    """Median, quartiles and win counts of each metric over the pairs."""
    out = {}
    for name in METRICS:
        sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        stats = {}
        for side, values in sides.items():
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else values * 3)
            stats[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        diffs = [c - p for p, c in zip(sides["parent"], sides["change"])]
        out[name] = {
            **stats,
            "change_wins": sum(d < 0 for d in diffs),
            "parent_wins": sum(d > 0 for d in diffs),
            "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds = json.loads((args.parent / "BENCHMARK.json").read_text())["run_seconds"]

    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run_once(getattr(args, side), args.workload, seed, seconds)
                pair[side] = {name: result["metrics"][name]["value"] for name in METRICS}
                pair[side]["attempted"] = result["attempted"]
                pair[side]["failed"] = result["failed"]
            pairs.append(pair)
            print(json.dumps(pair), file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record.setdefault("workloads", {}).setdefault(args.workload, []).append({
        "first_seed": args.seed,
        "run_seconds": seconds,
        **{side: {"revision": revision(getattr(args, side)),
                  "source_sha256": source_digest(getattr(args, side)),
                  "source_lines": source_lines(getattr(args, side))}
           for side in ("parent", "change")},
        "summary": summarize(pairs),
        "pairs": pairs,
    })
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
