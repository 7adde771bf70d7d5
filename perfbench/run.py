"""nonrecip benchmark: design, then verify by propagation.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a list of targets, each a list of nonrecip.cli.main
operations; the seed makes the targets.  Every process that runs them is
a fresh worker (worker.py) that calls nonrecip.cli.main in sequence: a
closed loop with one client, no threads or pools, BLAS and OpenMP pinned
to one thread.

With --trace 0 the run spawns WORKERS workers one after another.  Each
runs the targets round robin, from where the last one stopped, for its
share of S seconds, and times a fixed probe after every operation.  It
reports the end-to-end metrics, with times scaled to a reference machine
speed by the probes (see Run.end_to_end): pass_s, the sum over the
operations of each one's median latency; setup_s, the median over the
workers of the time from spawn to the first call into nonrecip.metrics;
and peak_rss_mb, the median of the workers' peak RSS.  With --trace 1
each round runs one untraced and one traced worker, each once over every
target and without probes, until S seconds have passed; it reports the
per-layer metrics, unscaled, as medians over the rounds.

Every execution is checked: exit code 0, the fidelity in its report
against a converged reference, the paper anchors, and CSV/JSON outputs
byte-identical to those of every other execution of the same operation in
the run, in whichever worker.  A failed check counts in `failed`; it never
drops the run.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Set-ups per --trace 0 run; setup_s is their median.
WORKERS = 10
# The probe's time (worker.probe) at the reference speed: its best time on
# a quiet 2-vCPU Xeon virtual machine.  Latencies are reported at this
# speed, see Run.end_to_end.
PROBE_REF_S = 0.022
# No trace round starts that would end after DEADLINE_S; a worker still
# running KILL_S after the start is killed, and what it wrote is kept.
DEADLINE_S = 165.0
KILL_S = 170.0
# Files under the byte-identical contract; wall-clock timings are not.
DIGEST_SUFFIXES = (".csv", ".json")
NOT_DIGESTED = ("timings.json",)

# The reference scenario of the paper, single excitation with noise on,
# designed from the circulator phase 3*pi/2 (lambda = 0.497473; the paper
# gives 0.4974).  The step is pinned at 0.05 ns, where every fidelity
# below is within 1e-7 of its converged value, so that one operation
# takes under a second.
REFERENCE_INI = """\
[scenario]
model = single_excitation
tau_ns = 145
target_phase_rad = 4.71238898038469
noise = true
step_ns = 0.05

[coupling]
g_a_mhz = 10
g_b_mhz = 10
delta_mhz = 345
nu_mhz = 345
omega_m_ghz = 5

[transmon_a]
alpha_mhz = 220
gamma_khz = 3

[transmon_m]
alpha_mhz = 210
gamma_khz = 4

[transmon_b]
alpha_mhz = 230
gamma_khz = 5
"""

# Converged F_s at the reference scenario, step 0.0025 ns.  At step
# 0.05 ns the seed code is within 4.5e-8 of each; at 0.1 ns two of them
# miss by about 1.3e-6.
REFERENCE_F_S = {"100": 0.98819171995, "010": 0.98949588773,
                 "001": 0.98931231625}
REFERENCE_TOL = 1e-6
# Paper anchors at the acceptance-test tolerances.
ANCHOR_F_S = {"100": 0.9908, "010": 0.9928, "001": 0.9925}
ANCHOR_F_S_TOL = 5e-3
# An exact design propagated on the ideal model transfers |100> fully.
DESIGN_MIN_FIDELITY = 1.0 - 1e-6
DESIGN_PHASE_TOL = 1e-6

# design-verify: every (phase, tau) in this box is attainable
# (tau_min is about 165 ns across the phase range).
DESIGN_TARGETS = 6
PHASE_RANGE = (4.0, 5.2)
TAU_RANGE = (180.0, 260.0)

WORKLOADS = ("design-verify", "noisy-se")


def within(value, ref, tol):
    return value is not None and abs(value - ref) <= tol


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_transfer(initial):
    def check(out: Path) -> list[str]:
        f_s = (read_json(out / "report.json") or {}).get("fidelity")
        errors = []
        if not within(f_s, REFERENCE_F_S[initial], REFERENCE_TOL):
            errors.append(f"F_s[{initial}] {f_s} not within {REFERENCE_TOL} "
                          f"of {REFERENCE_F_S[initial]}")
        if not within(f_s, ANCHOR_F_S[initial], ANCHOR_F_S_TOL):
            errors.append(f"F_s[{initial}] {f_s} misses the paper anchor "
                          f"{ANCHOR_F_S[initial]}")
        return errors
    return check


def check_design(phase):
    def check(out: Path) -> list[str]:
        theta = (read_json(out / "design_summary.json") or {}).get("theta_plus_rad")
        errors = [f"missing {name}" for name in ("pulses.csv", "eta.csv")
                  if not (out / name).is_file()]
        if not within(theta, phase, DESIGN_PHASE_TOL):
            errors.append(f"designed phase {theta} is not the target {phase}")
        return errors
    return check


def check_verify(out: Path) -> list[str]:
    f_s = (read_json(out / "report.json") or {}).get("fidelity")
    if f_s is None or f_s < DESIGN_MIN_FIDELITY:
        return [f"ideal F_s {f_s} below {DESIGN_MIN_FIDELITY}"]
    return []


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One jittered sample per equal slice of [lo, hi], shuffled, so the
    spread of values (and of run times) is the same for every seed."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def make_targets(workload: str, seed: int, inputs: Path) -> list[list[dict]]:
    """Targets of the workload, each a list of operations; an operation is
    a name, an argv (without --out) and its check.  The program sees only
    the INI files written here and the argv."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if workload == "design-verify":
        phases = stratified(rng, *PHASE_RANGE, DESIGN_TARGETS)
        taus = stratified(rng, *TAU_RANGE, DESIGN_TARGETS)
        targets = []
        for i, (phase, tau) in enumerate(zip(phases, taus)):
            ini = inputs / f"target{i:02d}.ini"
            ini.write_text(f"[scenario]\nmodel = single_excitation\n"
                           f"tau_ns = {tau!r}\ntarget_phase_rad = {phase!r}\n"
                           f"noise = true\n", encoding="utf-8")
            targets.append([
                {"name": "design", "argv": ["--config", str(ini), "design"],
                 "check": check_design(phase)},
                {"name": "verify", "argv": ["--config", str(ini), "--model", "ideal",
                                            "--no-noise", "simulate", "--initial", "100"],
                 "check": check_verify},
            ])
        return targets
    ini = inputs / "reference.ini"
    ini.write_text(REFERENCE_INI, encoding="utf-8")
    simulate = ["--config", str(ini), "simulate", "--initial"]
    targets = [[{"name": f"transfer-{initial}", "argv": simulate + [initial],
                 "check": check_transfer(initial)}]
               for initial in REFERENCE_F_S]
    rng.shuffle(targets)
    return targets


def digest_dir(out: Path) -> str:
    """One hash over the names and bytes of the CSV/JSON files in out."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if (path.is_file() and path.suffix in DIGEST_SUFFIXES
                and path.name not in NOT_DIGESTED):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with at least ten samples
    beyond it; the maximum when there are too few samples for that."""
    return n - 10 if n > 10 else n


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.seconds, self.trace = seconds, trace
        self.start = time.monotonic()
        self.work = RUNS / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.targets = make_targets(workload, seed, self.work / "inputs")
        self.ops = [op for target in self.targets for op in target]
        for index, op in enumerate(self.ops):
            op["index"] = index
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.environment: dict | None = None
        self.first_digest: dict[int, str] = {}
        self.latencies: dict[int, list[dict]] = {i: [] for i in range(len(self.ops))}

    def spawn(self, name: str, mode: str, start: int,
              deadline: float | None) -> dict | None:
        """Run one worker and check every execution it reports; None when
        it left no result."""
        wdir = self.work / name
        wdir.mkdir(parents=True)
        plan, result = wdir / "plan.json", wdir / "result.json"
        plan.write_text(json.dumps({
            "mode": mode, "start": start, "deadline": deadline, "dir": str(wdir),
            "targets": [[{"index": op["index"], "argv": op["argv"]} for op in target]
                        for target in self.targets]}), encoding="utf-8")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(wdir / "log.txt", "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(plan), str(result)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            try:
                code = proc.wait(timeout=max(1.0, self.start + KILL_S - spawned))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            ended = time.monotonic()
        data = read_json(result)
        if code != 0:
            self.errors.append(f"{name}: worker exit {code}, see {wdir / 'log.txt'}")
        if data is None:
            return None
        previous = None
        for record in data["execs"]:
            if mode == "measure":
                probes = [p for p in (previous, record["probe_after"]) if p]
                record["scaled"] = (record["seconds"] * PROBE_REF_S
                                    / statistics.fmean(probes))
                previous = record["probe_after"]
            self.check(name, record)
        self.environment = data["env"] or self.environment
        data["wall_s"] = ended - spawned
        data["import_s"] = data["import_end"] - spawned
        data["setup_s"] = (data["setup_end"] - spawned
                           if data["setup_end"] is not None else None)
        if mode == "measure" and data["setup_s"] is not None:
            data["setup_s"] *= PROBE_REF_S / data["execs"][0]["probe_after"]
        return data if code == 0 else None

    def check(self, worker: str, record: dict) -> None:
        op, out = self.ops[record["op"]], Path(record["out"])
        self.attempted += 1
        if record["code"] != 0:
            errors = [f"exit code {record['code']}"]
        else:
            errors = op["check"](out)
            digest = digest_dir(out)
            if digest != self.first_digest.setdefault(op["index"], digest):
                errors.append("outputs differ from the first execution of "
                              "this operation in the run")
        if errors:
            self.failed += 1
            self.errors.extend(f"{worker} {out.name} op{op['index']:02d} "
                               f"{op['name']}: {e}" for e in errors)
        else:
            self.latencies[op["index"]].append(record)

    def end_to_end(self) -> dict:
        """WORKERS workers, each for an equal share of the measuring time,
        continuing round robin where the last one stopped.

        The host is shared, and its neighbours slow this program by up to
        1.5x for minutes at a time, more than a run is long.  So every
        latency is scaled to the reference speed: multiplied by
        PROBE_REF_S and divided by the mean of the probes just before and
        after it, which the same slow-down stretches alike.  Each
        operation counts at the median of its scaled latencies, and
        setup_s is scaled by the probe that follows the first operation."""
        setups, rss = [], []
        start, measuring = 0, time.monotonic()
        for k in range(WORKERS):
            deadline = measuring + self.seconds * (k + 1) / WORKERS
            data = self.spawn(f"w{k}", "measure", start, deadline)
            if data is None:
                break
            start = data["next"]
            rss.append(data["peak_rss_mb"])
            if data["setup_s"] is not None:
                setups.append(data["setup_s"])
        missing = [op["name"] for op, records in zip(self.ops, self.latencies.values())
                   if not records]
        if missing or not setups:
            self.errors.append("not measured: " + ", ".join(missing or ["setup_s"]))
            return {}
        self.latency_notes()
        self.notes.append("setup_s samples: " + " ".join(f"{x:.4f}" for x in setups))
        return {
            "pass_s": (sum(statistics.median(r["scaled"] for r in records)
                           for records in self.latencies.values()), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def latency_notes(self) -> None:
        """Unscaled best, median and tail latency per kind of operation,
        with the sample count, and the spread of the probe."""
        by_name: dict[str, list[float]] = {}
        for op, records in zip(self.ops, self.latencies.values()):
            by_name.setdefault(op["name"], []).extend(r["seconds"] for r in records)
        for name, times in by_name.items():
            times = sorted(1e3 * x for x in times)
            n, rank = len(times), tail_rank(len(times))
            self.notes.append(
                f"{name} latency over {n} executions, unscaled: best "
                f"{times[0]:.1f} ms, p50 {statistics.median(times):.1f} ms, "
                f"p{100.0 * rank / n:.0f} {times[rank - 1]:.1f} ms")
        probes = sorted(1e3 * r["probe_after"] for records in self.latencies.values()
                        for r in records)
        self.notes.append(f"probe over {len(probes)} samples: best {probes[0]:.2f} ms, "
                          f"p50 {statistics.median(probes):.2f} ms, "
                          f"reference {1e3 * PROBE_REF_S:.2f} ms")

    def per_layer(self) -> dict:
        rows = []
        measuring = time.monotonic()
        while True:
            began = time.monotonic()
            plain = self.spawn(f"plain{len(rows)}", "plain", 0, None)
            traced = plain and self.spawn(f"traced{len(rows)}", "trace", 0, None)
            if not traced:
                break
            rows.append(layer_metrics(traced, plain, self.notes))
            now = time.monotonic()
            if (now - measuring >= self.seconds
                    or now + (now - began) > self.start + DEADLINE_S):
                break
        if not rows:
            return {}
        return {name: (statistics.median(r[name][0] for r in rows), rows[0][name][1])
                for name in rows[0]}


def layer_metrics(traced: dict, plain: dict, notes: list[str]) -> dict:
    """Per-layer metrics of one traced worker.  Times named after a function
    include the traced calls it makes; *.self_s exclude them."""
    stats = traced["trace"]["stats"]
    missing = traced["trace"]["not_measured"]
    prop = stats["propagation"]
    new = ["per call: " + per_call_summary(stats)]
    if missing:
        new.append("not measured (hook missing): " + ", ".join(missing))
    if prop.get("uncounted"):
        new.append(f"propagation.steps: {prop['uncounted']} calls not counted")
    notes.extend(note for note in new if note not in notes)
    h = stats["devices.h_eval"]
    layer_self = sum(s["self_s"] for key, s in stats.items() if key != "cli.main")
    accounted = traced["import_s"] + layer_self

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "cli.import_s": (traced["import_s"], "s"),
        "cli.self_s": (stats["cli.main"]["self_s"], "s"),
        "reporting.calls": (stats["reporting"]["calls"], "count"),
        "reporting.write_s": (stats["reporting"]["total_s"], "s"),
        "invariant.lr_phase.calls": (stats["invariant.lr_phase"]["calls"], "count"),
        "invariant.lr_phase_s": (stats["invariant.lr_phase"]["total_s"], "s"),
        "invariant.solve_lambda.calls": (stats["invariant.solve_lambda"]["calls"], "count"),
        "invariant.solve_lambda_s": (stats["invariant.solve_lambda"]["total_s"], "s"),
        "invariant.synthesize_pulses_s": (stats["invariant.synthesize_pulses"]["total_s"], "s"),
        "devices.invert_bessel_drive_s": (stats["devices.invert_bessel_drive"]["total_s"], "s"),
        "devices.model_build_s": (stats["devices.model_build"]["self_s"], "s"),
        "devices.h_eval.calls": (h["calls"], "count"),
        "devices.h_eval_s": (h["total_s"], "s"),
        "devices.h_eval_us": (per(h["total_s"], h["calls"], 1e6), "us"),
        "propagation.calls": (prop["calls"], "count"),
        "propagation.steps": (prop["steps"], "count"),
        "propagation.self_s": (prop["self_s"], "s"),
        "propagation.us_per_step": (per(prop["self_s"], prop["steps"], 1e6), "us"),
        "propagation.flops_per_step": (per(prop["flops"], prop["steps"]), "flop"),
        "propagation.gflops": (per(prop["flops"], prop["self_s"], 1e-9), "GFLOP/s"),
        "metrics.calls": (stats["metrics"]["calls"], "count"),
        "metrics.self_s": (stats["metrics"]["self_s"], "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
        "trace.accounted_frac": (accounted / traced["wall_s"], "ratio"),
    }


def per_call_summary(traced_stats: dict) -> str:
    parts = []
    for key in ("invariant.solve_lambda", "invariant.lr_phase",
                "devices.invert_bessel_drive", "devices.h_eval", "propagation"):
        s = traced_stats[key]
        if s["calls"]:
            parts.append(f"{key}={s['total_s'] / s['calls']:.6g}s/call")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nonrecip" / "cli.py").is_file():
        print(f"error: no nonrecip sources under {SRC}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = run.per_layer() if run.trace else run.end_to_end()
    for line in run.errors:
        print(f"failed: {line}")
    for line in run.notes:
        print(f"note: {line}")
    print("env: " + json.dumps(run.environment, sort_keys=True))
    if not run.errors:
        shutil.rmtree(run.work, ignore_errors=True)
    result = {
        "correct": run.failed == 0 and not run.errors and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
