"""Wall time and peak RSS of each nonrecip command, in fresh processes.

Usage (from the repository root):

    python tools/cli_times.py [--repeat N] [--only NAME]... PYTHONPATH [PYTHONPATH]

Each PYTHONPATH (say `src`, or the `src` of a second checkout) selects the
nonrecip package that is measured.  Every command runs as a fresh
`python -m nonrecip.cli` process, with OMP, OpenBLAS and MKL pinned to
one thread, its scenario file (if it has one) and outputs in a temporary
directory.  Two commands are the benchmark's operations, on the scenario
texts that tools/same_outputs.py defines.  Given two paths,
the runs alternate between them, command by command, so that a change in
the host's load falls on both.  Prints one JSON object: for each path and
command the best, median and [min, max] spread of the wall times over N
runs (s) and the largest peak RSS (MB), read from the child's resource
usage.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from same_outputs import DESIGN_VERIFY, NOISY_SE

CLI = [sys.executable, "-m", "nonrecip.cli"]

# name: (scenario text or None, argv); each model at its default step and
# config unless the scenario sets them
COMMANDS = {
    "design": (None, CLI + ["design"]),
    "solve_lambda": (None, CLI + ["solve-lambda"]),
    "sweep_lambda": (None, CLI + ["sweep-lambda"]),
    # the one command that needs the 512- to 2048-node phase rules
    "sweep_lambda_near_pi": (None, CLI + ["sweep-lambda", "--lo", "3.0", "--hi", "3.138",
                                          "-n", "35"]),
    "se_transfer": (None, CLI + ["--model", "single_excitation", "simulate",
                                 "--initial", "100"]),
    "se_ensemble": (None, CLI + ["--model", "single_excitation", "simulate",
                                 "--initial", "ensemble"]),
    "se_closed_transfer": (None, CLI + ["--model", "single_excitation", "--no-noise",
                                        "simulate", "--initial", "100"]),
    # the benchmark's operations: a design-verify verify, a noisy-se transfer
    "design_verify_verify": (DESIGN_VERIFY, CLI + ["--model", "ideal", "--no-noise",
                                                   "simulate", "--initial", "100"]),
    "noisy_se_transfer": (NOISY_SE, CLI + ["simulate", "--initial", "010"]),
    "full_qubit_transfer": (None, CLI + ["--model", "full_qubit", "simulate",
                                         "--initial", "100"]),
    "three_level_transfer": (None, CLI + ["--model", "full_three_level", "simulate",
                                          "--initial", "100"]),
    "three_level_ensemble": (None, CLI + ["--model", "full_three_level", "simulate",
                                          "--initial", "ensemble"]),
    "closed_three_level_transfer": (None, CLI + ["--model", "full_three_level",
                                                 "--no-noise", "simulate",
                                                 "--initial", "100"]),
    "reproduce_fig3": (None, CLI + ["reproduce-fig3"]),
    "import_cli": (None, [sys.executable, "-c", "import nonrecip.cli"]),
}


def run(text: str | None, argv: list[str], pythonpath: str) -> tuple[float, float]:
    """(wall s, peak RSS MB) of one process running argv with nonrecip
    from pythonpath, on the scenario text if one is given; raises if it
    fails."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(pythonpath),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as out, open(os.path.join(out, "stderr"), "w+") as err:
        if argv[:len(CLI)] == CLI:
            options = ["--out", out]
            if text is not None:
                with open(os.path.join(out, "scenario.ini"), "w", encoding="utf-8") as f:
                    f.write(text)
                options += ["--config", os.path.join(out, "scenario.ini")]
            argv = CLI + options + argv[len(CLI):]
        start = time.perf_counter()
        pid = subprocess.Popen(argv, env=env, cwd=out, stdout=subprocess.DEVNULL,
                               stderr=err).pid
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status):
            err.seek(0)
            raise RuntimeError(f"{' '.join(argv)} exited "
                               f"{os.waitstatus_to_exitcode(status)}: {err.read()}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in kB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", metavar="PYTHONPATH")
    parser.add_argument("--repeat", type=int, default=5, help="runs per command (5)")
    parser.add_argument("--only", action="append", choices=sorted(COMMANDS),
                        metavar="NAME", help="measure this command only (repeatable)")
    args = parser.parse_args(argv)
    if len(args.paths) > 2 or args.repeat < 1:
        parser.error("give one or two paths and --repeat >= 1")
    names = args.only or list(COMMANDS)
    times = {p: {name: [] for name in names} for p in args.paths}
    rss = {p: {name: 0.0 for name in names} for p in args.paths}
    for i in range(args.repeat):
        for name in names:
            # alternate which path goes first, round by round
            for path in args.paths[::1 if i % 2 == 0 else -1]:
                wall, peak = run(*COMMANDS[name], path)
                times[path][name].append(wall)
                rss[path][name] = max(rss[path][name], peak)
    result = {path: {name: {"best_s": round(min(walls), 3),
                            "median_s": round(statistics.median(walls), 3),
                            "spread_s": [round(min(walls), 3), round(max(walls), 3)],
                            "peak_rss_mb": round(rss[path][name], 1)}
                     for name, walls in times[path].items()} for path in args.paths}
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
