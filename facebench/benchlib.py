"""Helpers of the facealign benchmark that call no package code: the host
drift reference loop and the normalisation built on it, the choice of the
tail percentile, an independent NME, and the run's environment record.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# Seconds one reference_loop call takes at the fixed reference speed.
# Normalised times are "what the work would take if the reference loop ran
# in exactly this long"; it is about the loop's median on the 2-core x86-64
# machine whose figures facebench/README.md gives.
REF_NOMINAL_S = 1.0e-3

# Tail percentiles in per mille, highest first.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900)
MIN_TAIL_SAMPLES = 40
BEYOND_TAIL = 10

_rng = np.random.default_rng(20190205)
_REF_POINTS = _rng.normal(size=(6, 3))
_REF_RHS = _rng.normal(size=12)
_REF_GRID = _rng.normal(size=(160, 160))
# the loop writes into this buffer rather than allocating: it also runs
# from a signal handler, and fresh 200 KB arrays there would shift the
# measured process's heap, and so its peak RSS, from run to run
_REF_BUF = np.empty_like(_REF_GRID)
# a copy the size of one float32 map file, out of the faster caches
_REF_COPY_SRC = np.ones(24 * 160 * 160, dtype=np.float32)
_REF_COPY_DST = np.empty_like(_REF_COPY_SRC)

_SCHEDSTAT = "/proc/thread-self/schedstat"
_schedstat_fd: int | None = None


def run_queue_wait_s() -> float:
    """Seconds the calling thread has spent runnable but waiting for a CPU
    (Linux schedstat); 0.0 where the kernel does not report it.

    Timed sections subtract its growth, so time other processes held the
    CPU does not count as the program's. The file is opened once, by the
    first thread that asks; the benchmark times only its main thread.
    """
    global _schedstat_fd
    if _schedstat_fd is None:
        try:
            _schedstat_fd = os.open(_SCHEDSTAT, os.O_RDONLY)
        except OSError:
            _schedstat_fd = -1
    if _schedstat_fd < 0:
        return 0.0
    return int(os.pread(_schedstat_fd, 128, 0).split()[1]) / 1e9


def busy_since(t0: float, wait0: float) -> float:
    """Wall seconds since perf_counter() read t0, less the run-queue wait
    since run_queue_wait_s() read wait0."""
    return (time.perf_counter() - t0) - (run_queue_wait_s() - wait0)


def reference_loop() -> float:
    """Run a fixed mix of work and return its busy time in seconds.

    The mix imitates the package's kinds of cost without calling it: a
    Python loop that fills a small Jacobian and solves it (pose fitting,
    tree building), plain interpreter arithmetic, a vectorised exponential
    over a 160x160 grid (map synthesis) and a 2.5 MB copy (map file reads).
    """
    wait0, t0 = run_queue_wait_s(), time.perf_counter()
    R = np.eye(3)
    for _ in range(4):
        J = np.zeros((12, 6))
        for i in range(6):
            v = _REF_POINTS[i]
            S = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
            d = -R @ S
            J[2 * i, 0:3] = d[0]
            J[2 * i + 1, 0:3] = d[1]
            J[2 * i, 3] = 1.0
            J[2 * i + 1, 4] = 1.0
        np.linalg.lstsq(J, _REF_RHS, rcond=None)
    acc = 0.0
    for i in range(2500):
        acc += (i * 0.5) % 7.0
    np.multiply(_REF_GRID, _REF_GRID, out=_REF_BUF)
    np.multiply(_REF_BUF, -0.5, out=_REF_BUF)
    float(np.exp(_REF_BUF, out=_REF_BUF).sum())
    np.copyto(_REF_COPY_DST, _REF_COPY_SRC)
    return busy_since(t0, wait0)


def normalise(raw_s: float, ref_s: float) -> float:
    """Scale a raw time taken while the reference loop took ref_s to the
    fixed reference speed."""
    if ref_s <= 0:
        raise ValueError("reference time must be positive")
    return raw_s * REF_NOMINAL_S / ref_s


def normalise_series(raw, ref, half_window: int = 10) -> list[float]:
    """Normalise raw[i] by the median of the reference samples ref[i-h..i+h].

    raw and ref are paired: ref[i] was taken just before raw[i] was timed.
    """
    if len(raw) != len(ref):
        raise ValueError("raw and reference series differ in length")
    out = []
    for i, r in enumerate(raw):
        lo, hi = max(0, i - half_window), min(len(ref), i + half_window + 1)
        out.append(normalise(r, statistics.median(ref[lo:hi])))
    return out


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least BEYOND_TAIL of n samples
    above it; None below MIN_TAIL_SAMPLES, where only a median is
    reported."""
    if n < MIN_TAIL_SAMPLES:
        return None
    for pm in TAIL_LADDER_PERMILLE:
        if n * (1000 - pm) >= BEYOND_TAIL * 1000:
            return pm / 10.0
    return None


def nme_pct(pred_coords, gt_coords, annotated, bboxes) -> float:
    """Mean over faces of the annotated-landmark mean distance, in percent
    of sqrt(bbox width * height)."""
    pred = np.asarray(pred_coords, dtype=np.float64)
    gt = np.asarray(gt_coords, dtype=np.float64)
    w = np.asarray(annotated, dtype=np.float64)
    b = np.asarray(bboxes, dtype=np.float64)
    dist = np.sqrt(((pred - gt) ** 2).sum(axis=2))
    d = np.sqrt(b[:, 2] * b[:, 3])
    per_face = 100.0 * (w * dist).sum(axis=1) / (w.sum(axis=1) * d)
    return float(per_face.mean())


def gather_score(maps: np.ndarray, coords: np.ndarray) -> float:
    """Sum over landmarks of maps[l] at the rounded (x, y) of coords[l];
    points off the map read 0."""
    L, H, W = maps.shape
    c = np.rint(coords).astype(np.int64)
    x, y = c[:, 0], c[:, 1]
    ok = (x >= 0) & (x < W) & (y >= 0) & (y < H)
    vals = np.zeros(L)
    vals[ok] = maps[np.flatnonzero(ok), y[ok], x[ok]]
    return float(vals.sum())


class RefSampler:
    """Runs reference_loop from a periodic SIGALRM timer while entered.

    Keeps every sample and the total busy time its handler took, so a
    timed section can subtract the handler's time and normalise by the
    samples taken during it.
    """

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._prev = None

    def _on_alarm(self, signum, frame):
        wait0, t0 = run_queue_wait_s(), time.perf_counter()
        self.samples.append(reference_loop())
        self.overhead_s += busy_since(t0, wait0)

    def __enter__(self):
        self._prev = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._prev)
        return False

    def timed(self, fn, *args, **kwargs):
        """Call fn; return (result, busy seconds without the handler's time,
        reference samples from just before, during and just after)."""
        self.samples.append(reference_loop())
        first, over0 = len(self.samples) - 1, self.overhead_s
        wait0, t0 = run_queue_wait_s(), time.perf_counter()
        out = fn(*args, **kwargs)
        raw = busy_since(t0, wait0) - (self.overhead_s - over0)
        self.samples.append(reference_loop())
        return out, raw, self.samples[first:]


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(package_dir: str) -> str:
    """sha256 over the package's files, in sorted path order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, package_dir).encode("utf-8"))
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, package_dir: str) -> dict:
    """What the run's numbers depend on besides the code."""
    import scipy

    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    probes = [reference_loop() for _ in range(21)]
    return {
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(package_dir),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "reference_loop_ms": statistics.median(probes) * 1e3,
        "reference_nominal_ms": REF_NOMINAL_S * 1e3,
    }


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the spread measure the bounds are judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf
