"""CLI: regenerate EXPERIMENTS.md's E1–E16 tables.

Usage::

    python -m repro.bench                      # E1-E16
    python -m repro.bench e3 e11               # a subset
    python -m repro.bench --experiment faults  # one, by name or alias
    python -m repro.bench --experiment faults --smoke   # CI smoke run
    python -m repro.bench e10 --profile        # + search-kernel counters

E17–E20 run as scripts: ``python benchmarks/bench_e18_durability.py``
(likewise ``bench_e17_kernel.py``, ``bench_e19_analysis.py`` and
``bench_e20_service.py``), each with ``--smoke``.
"""

from __future__ import annotations

import sys

from .experiments import EXPERIMENTS, run_all


def main(argv: list[str]) -> int:
    names: list[str] = []
    smoke = False
    profile = False
    it = iter(argv)
    for arg in it:
        if arg == "--smoke":
            smoke = True
        elif arg == "--profile":
            profile = True
        elif arg == "--experiment":
            name = next(it, None)
            if name is None:
                print("--experiment requires a name", file=sys.stderr)
                return 2
            names.append(name.lower())
        elif arg.startswith("-"):
            print(f"unknown option {arg!r}", file=sys.stderr)
            print(__doc__)
            return 2
        else:
            names.append(arg.lower())
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"known: {', '.join(EXPERIMENTS)}")
        return 2
    run_all(tuple(names) or None, smoke=smoke)
    if profile:
        from ..core.kernel import GLOBAL_STATS

        print(f"search kernel: {GLOBAL_STATS.summary()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
