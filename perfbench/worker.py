"""One pass of a workload in a fresh interpreter.

Started by ``run.py``, never by hand:

    python3 perfbench/worker.py --root DIR --workload W --seed N
                                --trace 0|1 --out DIR

The process imports the package from ``DIR/src``, builds the seeded op
list, runs every op once under its deadline, checks every result
against its oracle after the timed pass, and prints one JSON record as
the last line of standard output.  Each op record is ``[key, seconds,
status, reason, kernel seconds, returned]``: the kernel seconds are the
calibration kernel's median time around the op, by which ``run.py``
scales the op to a reference speed, and ``returned`` is false when the
op raised or missed its deadline, so that its time is no latency.  The parent pins BLAS to one thread
in the environment before this interpreter starts, so before numpy is
imported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time


class DeadlineMiss(Exception):
    """Raised by SIGALRM when an op passes its deadline."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise DeadlineMiss()


def _openblas(np):
    """(config string, runtime thread count) of numpy's bundled OpenBLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            return (lib.scipy_openblas_get_config64_().decode(),
                    int(lib.scipy_openblas_get_num_threads64_()))
        except (OSError, AttributeError):
            continue
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')} (build)", None


#: A calibration sample is taken between ops once this much time has
#: passed since the previous one.
CALIBRATION_EVERY_S = 0.25
#: An op is scaled by the samples taken within this distance of it.
CALIBRATION_WINDOW_S = 1.0


def _calibrate(np, samples, count):
    """Append ``count`` (start, seconds) timings of a fixed ~10 ms kernel.

    The kernel is a pure-Python loop plus twenty 40x40 ``eigvalsh``
    calls.  ``run.py`` scales each op latency by ``CALIBRATION_REF_S``
    over the kernel's median time near that op, which cancels most of
    the drift in the host's speed.
    """
    a = np.add.outer(np.arange(40.0), np.arange(40.0)) / 40.0 + np.eye(40)
    for _ in range(count):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        for _ in range(20):
            np.linalg.eigvalsh(a)
        samples.append((t0, time.perf_counter() - t0))


def _near(samples, t0, t1):
    """Median kernel time of the samples within the window around [t0, t1]."""
    return statistics.median(d for s, d in samples
                             if t0 - CALIBRATION_WINDOW_S <= s
                             <= t1 + CALIBRATION_WINDOW_S)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy as np
    import scipy
    import collapse_spectra
    if not os.path.abspath(collapse_spectra.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise SystemExit(f"collapse_spectra imported from "
                         f"{collapse_spectra.__file__}, not from {src}")
    import spans
    import workloads

    tmp = tempfile.mkdtemp(prefix="pass-", dir=args.out)
    ops = workloads.build(args.workload, args.seed, tmp)
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    ready = time.monotonic()

    global _armed
    records, results, samples = [], {}, []
    sink = io.StringIO()
    _calibrate(np, samples, 5)
    setup_kernel_s = statistics.median(d for _, d in samples)
    with contextlib.redirect_stdout(sink):
        for i, op in enumerate(ops):
            tracer.begin_op(i)
            status, reason = "ok", None
            t0 = time.perf_counter()
            try:
                try:
                    _armed = True
                    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
                    result = op.call()
                finally:
                    _armed = False
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineMiss:
                status = f"known:{op.deadline_defect}" if op.deadline_defect \
                    else "fail"
                reason = f"missed its {op.deadline_s} s deadline"
            except Exception as exc:  # an op that raises is a failed op
                status, reason = "fail", f"{type(exc).__name__}: {exc}"
            else:
                results[op.key] = result
            t1 = time.perf_counter()
            tracer.end_op()
            records.append([op.key, t1 - t0, status, reason, t0, t1])
            if t1 - samples[-1][0] >= CALIBRATION_EVERY_S:
                _calibrate(np, samples, 1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _calibrate(np, samples, 5)
    for rec in records:
        rec[4:] = [_near(samples, rec[4], rec[5]), rec[2] == "ok"]

    for rec, op in zip(records, ops):
        if rec[2] != "ok":
            continue
        try:
            verdict = op.check(results[op.key], results)
        except Exception as exc:  # a crashing oracle is a failed check
            verdict = (f"oracle raised {type(exc).__name__}: {exc}", None)
        if verdict is not None:
            reason, defect = verdict
            rec[2] = f"known:{defect}" if defect else "fail"
            rec[3] = reason

    blas_config, blas_threads = _openblas(np)
    record = {
        "ready": ready,
        "setup_kernel_s": setup_kernel_s,
        "rss_mb": rss_mb,
        "ops": records,
        "fingerprint": workloads.fingerprint(args.workload, tmp),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": blas_config,
            "openblas_threads": blas_threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(),
        },
    }
    if args.trace:
        record["layers"] = tracer.layer_metrics()
        tracer.dump(os.path.join(
            args.out, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
