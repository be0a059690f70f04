"""One simulation in its own process: ``python3 perfbench/child.py``.

Reads one JSON request from standard input::

    {"spec": "<ScenarioSpec JSON>", "mode": "setup" | "timed" | "traced",
     "spans": "<path>"}

It imports the simulator, decodes the spec and builds ``Deployment(spec)``,
then prints ``READY`` so the parent can time set-up from process start, and
samples the host's speed.  In ``setup`` mode it stops there.  Otherwise it
runs the deployment to its horizon in :data:`SLICES` slices of simulated
time, sampling the host's speed before each slice, then collects and checks
the outcome.  ``traced`` profiles the slices with ``cProfile`` and keeps
spans around the control-plane calls, written to the ``spans`` path.  The
last line printed is the JSON result.
"""

import json
import resource
import sys
import time
from pathlib import Path

import outcome as oc
from hostspeed import NOMINAL, HostSpeed

ROOT = Path(__file__).resolve().parent.parent

#: The run advances in this many equal slices of simulated time.  Slicing
#: leaves the event sequence untouched: ``run(until=t)`` stops before the
#: first event later than ``t`` and consumes no sequence number.
SLICES = 200
#: Host-speed iterations sampled before each slice (a few milliseconds).
SPEED_ROUNDS = 2000


def count_calls(obj, attr: str) -> list:
    """Count calls of ``obj.attr``; returns the one-element counter."""
    counter = [0]
    inner = getattr(obj, attr)

    def counted(*args, **kwargs):
        counter[0] += 1
        return inner(*args, **kwargs)

    setattr(obj, attr, counted)
    return counter


def run_sliced(dep, speed: HostSpeed, profiler=None) -> tuple:
    """Run ``dep`` to its horizon; returns (host s, nominal s).

    Nominal seconds weight each slice's host seconds by the host speed
    sampled just before it (see :mod:`hostspeed`).
    """
    dep.start()
    host_s = nominal_s = 0.0
    for k in range(1, SLICES + 1):
        rate = speed.sample(SPEED_ROUNDS)
        until = dep.duration if k == SLICES else dep.duration * k / SLICES
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        dep.run(until=until)
        if profiler is not None:
            profiler.disable()
        elapsed = time.perf_counter() - start
        host_s += elapsed
        nominal_s += elapsed * rate / NOMINAL
    return host_s, nominal_s


def main() -> int:
    request = json.loads(sys.stdin.read())
    mode = request["mode"]

    t_imp = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.scenario import Deployment, ScenarioSpec
    t_spec = time.perf_counter()
    spec = ScenarioSpec.from_json(request["spec"])
    dep = Deployment(spec)
    t_ready = time.perf_counter()
    print("READY", flush=True)
    speed = HostSpeed()
    result = {
        "setup_speed": speed.sample(20 * SPEED_ROUNDS),
        "seed": spec.seed,
        "import_s": t_spec - t_imp,
        "build_s": t_ready - t_spec,
    }
    if mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    lookups = None
    if dep.system.cache is not None:
        lookups = count_calls(dep.system.cache, "lookup")
    if mode == "traced":
        import cProfile

        from layers import SPAN_TARGETS, SpanTracer, fold_profile

        tracer = SpanTracer()
        for owner, method, name in SPAN_TARGETS:
            tracer.wrap(getattr(dep, owner), method, name)
        profiler = cProfile.Profile()
        result["run_s"], result["nominal_s"] = run_sliced(dep, speed, profiler)
        tracer.unwrap()
        profiler.create_stats()
        result["layer_s"] = fold_profile(profiler.stats)
        result["spans"] = tracer.totals()
        tracer.write(request["spans"])
    else:
        result["run_s"], result["nominal_s"] = run_sliced(dep, speed)

    out = oc.collect(dep, None if lookups is None else lookups[0])
    dep.stop()
    result["outcome"] = out
    result["problems"] = oc.check(out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
