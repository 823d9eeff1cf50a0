"""Byte comparison of two source trees' outputs over a fixed command set.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds the ``mmwcluster`` package.
Every command of ``COMMANDS`` runs as ``python -m mmwcluster.cli`` against
each tree in turn, with that tree alone on ``PYTHONPATH``, in one output
directory per tree under a fresh temporary directory.  A command's exit code,
stdout and stderr are saved next to the files it writes; the tree's own path
is replaced by ``SRC`` in them, so only what the program computes is compared.

The tool prints the first file whose bytes differ (or that one side lacks) and
exits 1, keeping the temporary directory for inspection, or prints how many
files matched, removes the directory and exits 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

INPUTS = {
    # a fig. 4a-shaped Monte Carlo load sweep with every Monte Carlo engine variant
    "mc_variants.spec": """\
axis = mean_active
values = 1, 3, 5
engines = montecarlo, montecarlo:intra_only, montecarlo:inter_only, \
montecarlo:no_interference, montecarlo:los_only, montecarlo:nlos_only, montecarlo:losball
scatter_std = 20
gamma_th_db = 20
""",
    # the closed-form lower bound needs alpha_los > 2 (the default is 2)
    "alpha_los_2.5.cfg": "alpha_los = 2.5\n",
}

COMMANDS = {
    **{f"coverage_{engine}": ["coverage", "--engine", engine]
       for engine in ("analytical", "analytical_approx", "montecarlo")},
    "coverage_lower_bound": ["coverage", "--engine", "lower_bound", "--model", "uniform",
                             "--config", "{inputs}/alpha_los_2.5.cfg"],
    **{f"optimize_{engine}": ["optimize-s", "--model", "all", "--engine", engine]
       for engine in ("analytical", "analytical_approx")},
    "validate": ["validate", "--trials", "4000"],
    "sweep_2a": ["sweep", "--figure", "2a", "--trials", "300", "--threads", "2",
                 "--out", "fig2a.csv"],
    "sweep_mc_variants": ["sweep", "--spec", "{inputs}/mc_variants.spec", "--trials", "2000",
                          "--out", "mc_variants.csv"],
}


def run_commands(src: Path, out: Path, inputs: Path) -> None:
    """Run every command against ``src`` with ``out`` as working directory and
    the files of ``INPUTS`` in ``inputs``."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, args in COMMANDS.items():
        argv = [arg.format(inputs=inputs) for arg in args]
        proc = subprocess.run([sys.executable, "-m", "mmwcluster.cli", *argv], cwd=out,
                              env=env, capture_output=True, text=True, check=False)
        record = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        (out / f"{name}.log").write_text(record.replace(str(src), "SRC"))


def first_difference(a: Path, b: Path) -> str | None:
    """Relative path of the first file, in sorted order, that differs between
    the trees ``a`` and ``b`` or exists in one only; None if all match."""
    files = sorted({p.relative_to(root).as_posix()
                    for root in (a, b) for p in root.rglob("*") if p.is_file()})
    for rel in files:
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()) or pa.read_bytes() != pb.read_bytes():
            return rel
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    srcs = [Path(arg).resolve() for arg in argv]
    for src in srcs:
        if not (src / "mmwcluster" / "cli.py").is_file():
            print(f"{src}: no mmwcluster package here", file=sys.stderr)
            return 2
    tmp = Path(tempfile.mkdtemp(prefix="same_outputs-"))
    inputs = tmp / "inputs"
    inputs.mkdir()
    for name, text in INPUTS.items():
        (inputs / name).write_text(text)
    sides = [tmp / "parent", tmp / "change"]
    for src, out in zip(srcs, sides):
        run_commands(src, out, inputs)
    diff = first_difference(*sides)
    if diff is not None:
        print(f"differs: {diff} (outputs kept in {tmp})")
        return 1
    count = sum(1 for p in sides[0].rglob("*") if p.is_file())
    print(f"identical: {count} files, {len(COMMANDS)} commands")
    shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
