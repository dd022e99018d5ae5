"""Closed-loop benchmark of the hanoispec library.

    python3 perfbench/run.py --workload count-inertia --seed 1 --seconds 27 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The seed gives three experiment inputs (see ``workloads.py``).
One caller in this process runs experiments back to back, cycling through
the inputs, until ``--seconds`` have passed.  Every run of an input must
return the same counts or resistances as its first run; the first output
of each input is checked after the timed loop.

``result_s`` is the mean over the inputs of each input's mean experiment
time; ``outputs_per_s`` is the counts or resistance pairs the experiments
returned per second of experiment time.  The median over the inputs, which
the mean replaced, spread three times as wide over seeds on count-dense,
whose inputs all cost the same and get five runs each.

Times are normalised to a reference host speed.  On a shared host the
same experiment's wall time drifts by tens of percent within minutes as
neighbours contend for the cores, and interpreter-bound and LAPACK-bound
code slow down by different amounts.  So after every experiment the loop
runs a short probe of the kind of code that dominates the workload
(``Workload.probe``) for a tenth of the experiment's time, and every time
of the run is scaled by ``PROBE_REF_S / mean probe time``: the seconds the
run would have taken on a host where the probe takes ``PROBE_REF_S``.  The
raw wall times and the scale are kept in the result file.  Set-up time is
reported raw, as the median of several samples: import time did not
follow the probe.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced rounds over the inputs and reports the
per-layer metrics as medians over the traced experiments; the spans go to
``.bench_out/``.  Every run writes its full result, with the inputs and an
environment stamp, to ``.bench_out/`` for ``compare.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when an output check fails and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5           # one in this process, the rest in fresh interpreters
PROBE_SHARE = 0.1           # probe time after each experiment, as a share of its time
# a probe's time on the host the benchmark was written on (2-vCPU Xeon VM)
PROBE_REF_S = {"python": 0.010, "blas": 0.006}


def _set_blas_threads():
    """One BLAS thread; must run before numpy is first imported.

    With one thread per core, LAPACK's parallel phases wait on whichever
    core a neighbour slows, which the probe cannot follow: on 2 vCPUs the
    count-dense result_s spread over seeds was 0.12 with two threads and
    0.025 with one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _python_probe():
    table = {}
    acc = 0
    for i in range(30000):
        table[i % 1000] = table.get(i % 1000, 0) + i
        acc += i * i
    return acc


def make_probe(kind: str):
    """A fixed piece of work, independent of hanoispec, that tracks host speed."""
    if kind == "python":
        return _python_probe
    import numpy as np
    import scipy.linalg

    a = np.random.default_rng(0).standard_normal((300, 300))
    a = a + a.T
    return lambda: scipy.linalg.eigh(a, eigvals_only=True)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def timed_setup() -> float:
    """Import hanoispec and touch every kernel once: graph, inertia, dense, LU."""
    start = time.perf_counter()
    import hanoispec as hs

    seq = hs.constant(0.5)
    p = hs.assemble_neumann(hs.build_graph(seq, 2, 2, 0.25))
    hs.count_below(p, 1.0)
    hs.eig_dense(p)
    hs.compatibility_check(seq, 1)
    return time.perf_counter() - start


def measure_setup() -> list:
    samples = [timed_setup()]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment_stamp() -> dict:
    import numpy
    import scipy
    from hanoispec import eigensolve

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "hanoispec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():    # an exported checkout has no history; the digest remains
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "have_numba": bool(eigensolve.HAVE_NUMBA),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "hanoispec" / "__init__.py").is_file():
        print(f"error: no hanoispec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _set_blas_threads()
    if args.setup_probe:
        print(repr(timed_setup()))
        return 0

    setup = measure_setup()
    import workloads                     # imports hanoispec, already loaded above
    from tracing import Tracer, experiment_metrics, median_metrics

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = workloads.generate_inputs(wl.name, args.seed)
    probe = make_probe(wl.probe)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    k_in = len(inputs)
    times = [([], []) for _ in inputs]                # untraced, traced wall times
    probe_times = []                                  # after each untraced experiment
    first = [None] * k_in                             # first output of each input
    prints = [None] * k_in
    errors = [None] * k_in
    roots = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    # every input runs at least once, and once traced in a traced run
    min_attempts = k_in * (2 if tracer else 1)
    while time.perf_counter() - loop_start < args.seconds or attempted < min_attempts:
        k = attempted % k_in
        # in a traced run every input alternates between traced and untraced
        traced = tracer is not None and (attempted // k_in) % 2 == 1
        attempted += 1
        if traced:
            roots.append(len(tracer.spans))
            tracer.active = True
            (out, err), dt = _timed(tracer.span, "experiment", workloads.run_experiment, wl,
                                    inputs[k])
            tracer.active = False
        else:
            (out, err), dt = _timed(workloads.run_experiment, wl, inputs[k])
            budget = PROBE_SHARE * dt
            while budget > 0:
                probe_times.append(_timed(probe)[1])
                budget -= probe_times[-1]
        if err is None:
            fp = wl.fingerprint(out)
            if first[k] is None:
                first[k], prints[k] = out, fp
            elif fp != prints[k]:
                err = "output differs from this input's first run"
        if err is not None:
            failed += 1
            errors[k] = errors[k] or err
            continue
        times[k][traced].append(dt)
        del out

    if tracer:
        tracer.uninstall()
    rng = random.Random(f"check/{wl.name}/{args.seed}")
    for k, inp in enumerate(inputs):
        if first[k] is not None:
            problems = wl.check(first[k], inp, rng)
            if problems:
                errors[k] = errors[k] or "; ".join(problems[:3])
                failed += len(times[k][0]) + len(times[k][1])   # all returned this output
    measured = [k for k in range(k_in) if first[k] is not None and times[k][0]]
    if not measured:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    mean_s = {k: statistics.mean(times[k][0]) for k in measured}
    scale = PROBE_REF_S[wl.probe] / statistics.mean(probe_times)
    raw = {
        "result_s": statistics.mean(mean_s.values()),
        "outputs_per_s": (sum(wl.outputs(first[k]) * len(times[k][0]) for k in measured)
                          / sum(sum(times[k][0]) for k in measured)),
    }
    if tracer is None:
        metrics = {
            "result_s": (raw["result_s"] * scale, "s"),
            "outputs_per_s": (raw["outputs_per_s"] / scale, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        layer = median_metrics([experiment_metrics(tracer.spans, r) for r in roots])
        layer["trace.overhead_s"] = statistics.median(
            statistics.mean(times[k][1]) - mean_s[k] for k in measured if times[k][1])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}

    fits = [first[k].fit.deviation for k in measured
            if getattr(first[k], "fit", None) is not None and first[k].fit.deviation is not None]
    stamp = environment_stamp()
    report = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "stamp": stamp, "inputs": inputs,
        "wall_s_per_input": [list(t) for t in times], "errors": errors,
        "probe": wl.probe, "probe_s": probe_times, "host_scale": scale,
        "setup_samples_s": setup, "raw_wall": raw,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "fit_deviation": statistics.median(fits) if fits else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"spans-{stem}.json")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  closed loop, 1 caller, "
          f"{attempted} experiments on {k_in} inputs in {time.perf_counter() - loop_start:.1f} s")
    print(f"why: {wl.why}")
    print("stamp: " + json.dumps(stamp))
    print("inputs: " + json.dumps(inputs))
    print(f"host scale {scale:.4f} from {len(probe_times)} {wl.probe} probes; raw wall: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for k, err in enumerate(errors):
        if err is not None:
            print(f"FAILED input {k}: {err}")
    for name, (value, unit) in metrics.items():
        label = wl.output_name if name == "outputs_per_s" else name
        print(f"{label:40s} {value:.6g} {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted:.6g} ({failed}/{attempted})")
    if fits:
        print(f"{'fit_deviation':40s} {report['fit_deviation']:.6g}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
