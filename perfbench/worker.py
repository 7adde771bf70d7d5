"""One benchmark worker: a fresh process that calls nonrecip.cli.main in turn.

Usage: python3 worker.py PLAN_JSON RESULT_JSON

The plan holds the mode, the targets (each a list of operations, an
operation being an argv list for nonrecip.cli.main without --out), the
target to start at, a deadline and a directory.  The worker runs whole
targets round robin from the start: until the deadline, but at least one
target, or exactly one cycle over all targets when the deadline is null.
Each execution writes to a fresh directory under the plan's directory,
where the parent checks it.  Modes:

- "measure": only the set-up hook is installed, and every execution is
  followed by a timed probe (see probe());
- "plain": only the set-up hook is installed;
- "trace": also time the public functions of the layers from outside, by
  rebinding them wherever nonrecip modules look them up.

RESULT_JSON is rewritten after every target, so a worker that is killed
still leaves what it measured.  All timestamps in it are time.monotonic()
values, which share one clock across processes, so the parent can subtract
its spawn time.  Hooks fail soft: a name that no longer exists is listed as
not measured.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import platform
import resource
import sys
import time
import traceback
from time import perf_counter

# (module, function, trace key) hooked in "trace" mode; every public
# function of nonrecip.metrics is hooked as well, under the key "metrics".
LAYER_HOOKS = (
    ("nonrecip.invariant", "solve_lambda", "invariant.solve_lambda"),
    ("nonrecip.invariant", "lr_phase", "invariant.lr_phase"),
    ("nonrecip.invariant", "synthesize_pulses", "invariant.synthesize_pulses"),
    ("nonrecip.devices", "invert_bessel_drive", "devices.invert_bessel_drive"),
    ("nonrecip.devices", "ideal_model", "devices.model_build"),
    ("nonrecip.devices", "single_excitation_model", "devices.model_build"),
    ("nonrecip.devices", "full_chain_model", "devices.model_build"),
    ("nonrecip.propagation", "integrate_master", "propagation"),
    ("nonrecip.propagation", "propagate_schrodinger", "propagation"),
    ("nonrecip.reporting", "write_csv", "reporting"),
    ("nonrecip.reporting", "write_json", "reporting"),
)
# Every trace key, so that a key whose hook is missing is reported.
TRACE_KEYS = sorted({key for _, _, key in LAYER_HOOKS}
                    | {"devices.h_eval", "metrics", "cli.main"})


def rebind(module_name: str, attr: str, make) -> bool:
    """Replace module_name.attr by make(original) in every nonrecip module
    that binds the same object.  False when the name does not exist."""
    module = sys.modules.get(module_name)
    original = getattr(module, attr, None)
    if not callable(original):
        return False
    replacement = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "nonrecip" or name.startswith("nonrecip."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
    return True


def metrics_functions() -> list[str]:
    module = sys.modules.get("nonrecip.metrics")
    if module is None:
        return []
    return [name for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__]


def hook_first_metrics_call(callback) -> None:
    """Call callback() once, on the first call into nonrecip.metrics."""
    fired = []

    def make(fn):
        @functools.wraps(fn)
        def first_call(*args, **kwargs):
            if not fired:
                fired.append(True)
                callback()
            return fn(*args, **kwargs)
        return first_call

    for name in metrics_functions():
        rebind("nonrecip.metrics", name, make)


class Tracer:
    """Calls, inclusive time and self time per key.  Self time excludes
    the time of traced calls made inside, whatever their key."""

    def __init__(self):
        self.stats = {key: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                      for key in TRACE_KEYS}
        self.stats["propagation"].update(steps=0, flops=0.0)
        self.stack: list[float] = []
        self.installed: set[str] = set()

    def timed(self, key, fn, on_call=None):
        stats, stack = self.stats[key], self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
        return traced

    def hook(self, module_name, attr, key):
        if key == "devices.model_build":
            make = self.model_builder
        elif key == "propagation":
            make = lambda fn: self.timed(key, fn, self.propagation_counter(fn))
        else:
            make = lambda fn: self.timed(key, fn)
        if rebind(module_name, attr, make):
            self.installed.add(key)

    def model_builder(self, fn):
        """Time the build, and time H(t) on the model it returns."""
        build = self.timed("devices.model_build", fn)

        @functools.wraps(fn)
        def traced_build(*args, **kwargs):
            model = build(*args, **kwargs)
            try:
                h_of_t = model.h_of_t
                model = dataclasses.replace(
                    model, h_of_t=self.timed("devices.h_eval", h_of_t))
            except (AttributeError, TypeError):
                return model
            self.installed.add("devices.h_eval")
            return model
        return traced_build

    def propagation_counter(self, fn):
        """Steps and computed flops of one propagation, from its
        arguments: 4 derivative calls per RK4 step, each (2 + 4C) complex
        d x d matmuls for C Lindblad channels, or one complex mat-vec for
        a pure state.  A complex multiply-add is 8 real flops."""
        signature = inspect.signature(fn)
        stats = self.stats["propagation"]

        def count(args, kwargs):
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                cfg = a.get("cfg") or sys.modules[
                    "nonrecip.propagation"].PropagationConfig()
                steps = max(1, int(round(a["tau"] / cfg.step)))
                if "rho0" in a:
                    d, channels = len(a["rho0"]), len(a["channels"])
                    flops = 4 * (2 + 4 * channels) * 8 * d**3
                else:
                    d = len(a["psi0"].amplitudes)
                    flops = 4 * 8 * d**2
            except (KeyError, AttributeError, TypeError):
                stats["uncounted"] = stats.get("uncounted", 0) + 1
                return
            stats["steps"] += steps
            stats["flops"] += float(steps * flops)
        return count

    def install(self):
        for module_name, attr, key in LAYER_HOOKS:
            self.hook(module_name, attr, key)
        for name in metrics_functions():
            self.hook("nonrecip.metrics", name, "metrics")

    def report(self) -> dict:
        return {"stats": self.stats,
                "not_measured": sorted(set(TRACE_KEYS) - self.installed)}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_result(path, result):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, path)


def probe() -> float:
    """Seconds taken by a fixed piece of work like the program's own: small
    complex matrix products driven from Python, about 22 ms on a quiet
    2-vCPU Xeon.  The parent divides each operation's latency by the
    probes around it, so that what the host's neighbours take is left out."""
    import numpy as np

    a = np.full((8, 8), 0.1j) + 0.5 * np.eye(8)
    b = np.eye(8, dtype=complex)
    start = perf_counter()
    for _ in range(5000):
        b = 0.5 * (a @ b + b)
    return perf_counter() - start


def run_op(run_cli, argv) -> int:
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # noqa: BLE001 - a failed operation must not end the worker
        traceback.print_exc()
        return 1


def main(plan_path, result_path) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import nonrecip.cli as cli

    result = {"import_end": time.monotonic(), "setup_end": None, "execs": [],
              "peak_rss_mb": None, "env": None}

    def setup_done():
        result["setup_end"] = time.monotonic()

    hook_first_metrics_call(setup_done)
    tracer = None
    if plan["mode"] == "trace":
        tracer = Tracer()
        tracer.install()
        run_cli = tracer.timed("cli.main", cli.main)
        tracer.installed.add("cli.main")
    else:
        run_cli = cli.main

    probes = plan["mode"] == "measure"
    targets, deadline = plan["targets"], plan["deadline"]
    t = plan["start"]
    while True:
        for op in targets[t % len(targets)]:
            out = os.path.join(plan["dir"], f"e{len(result['execs']):04d}")
            start = perf_counter()
            code = run_op(run_cli, ["--out", out] + op["argv"])
            seconds = perf_counter() - start
            result["execs"].append({"op": op["index"], "code": code,
                                    "seconds": seconds, "out": out,
                                    "probe_after": probe() if probes else None})
        t += 1
        result["next"] = t
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace"] = tracer.report()
        write_result(result_path, result)
        if (t - plan["start"] >= len(targets) if deadline is None
                else time.monotonic() >= deadline):
            break
    result["env"] = environment()
    write_result(result_path, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
