"""Monte Carlo estimation of logical failure rates and threshold fits.

Trials are reproducible by construction.  Point i under master seed s is
keyed once, K = SeedSequence([s, i]).generate_state(2, np.uint64), and trial
t draws Generator(Philox(key=K, counter=t * w)).random(n), with w =
ceil(n / 4): Philox4x64 is a counter-based generator, and each counter
step gives one block of four doubles, so trial t owns blocks t * w + 1 ..
(t + 1) * w.  A chunk of consecutive trials is then one contiguous draw
(:meth:`TrialRunner.uniforms`), results do not depend on how trials are
split into chunks or across workers, and a rerun with the same arguments
is byte-identical.  Trials run in chunks sized by :func:`chunk_size` from
the working set that the schedule's workspace learned on its first
``errors=`` call, so a new schedule's first chunk is one trial.  Sampling
works on a chunk's bit-packed numpy words at once.  One
``likelihoods_network`` call decodes the chunk's sampled errors E
themselves along a batch axis, reading every outer-ring node's message
(the seed's at radius 1) as one row of the
:class:`~tenqec.decoder.NodeTables` of the runner's noise model, at the
pattern of E's codes on that node; the schedule's workspace fills those
tables on the first chunk and keeps them until it serves another noise
model.  Row L of E's decode holds the likelihood of the class of E times
L.  Every pure error has class 0, which the runner checks on
construction, so permuting each row's columns by E's class bits gives the
decode of E's syndrome's pure error, in canonical label order, with no
syndrome or pure error formed.  Each row is decided on those canonical
mantissas, so a trial's decision depends on its own error alone, never on
its chunk, and the CSV bytes do not depend on the chunk size or worker
count.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .decoder import NoiseModel, argmax_labels, likelihoods_network
from .holographic import ContractionSchedule, HolographicLayout

CSV_HEADER = ("radius", "n", "p", "trials", "failures", "failure_rate", "std_err")
CSV_TYPES = (int, int, float, int, int, float, float)
# Bytes of the learned errors= layout that one chunk of trials may fill (see
# chunk_size): larger chunks cut per-call overhead but raise the peak RSS.
CHUNK_BYTES = 3 << 19
# fit_threshold: (p_th, nu) search box, grid points per axis, stages, shrink.
FIT_P_RANGE = (0.05, 0.40)
FIT_NU_RANGE = (0.8, 6.0)
FIT_GRID = 21
FIT_STAGES = 5
FIT_SHRINK = 0.25


@dataclass(frozen=True, slots=True)
class McPoint:
    """One (radius, p) sample of the logical failure rate."""

    radius: int
    n: int
    p: float
    trials: int
    failures: int
    failure_rate: float
    std_err: float


@dataclass(frozen=True, slots=True)
class ThresholdFit:
    """Scaling-collapse fit: rates against x = (p - p_th) * n^(1/nu).

    ``coeffs`` are the quadratic's coefficients, constant term first.
    """

    p_th: float
    nu: float
    coeffs: tuple[float, float, float]
    rss: float


def chunk_size(schedule: ContractionSchedule) -> int:
    """Trials per chunk, each one row of its ``likelihoods_network`` call:
    CHUNK_BYTES // the bytes per row of the schedule's learned ``errors=``
    layout, or 1 until a call on the schedule has learned it.

    A schedule's workspace lays out the working set of its first
    ``errors=`` call per batch row (:class:`~tenqec.decoder._Workspace`), so
    a first one-trial chunk teaches the size of every later one: 24,576
    trials at radius 1, 1,365 at radius 2, 68 at radius 3, 5 at radius 4
    (64, 1,152, 23,040 and 286,720 bytes per row), and 1 from radius 5 on.
    """
    # a workspace keys its layouts by whether the source is a leaf table,
    # and counts their totals in float64 per batch row
    rows = [8 * work.layouts[False][2] for work in schedule.workspaces if False in work.layouts]
    return max(1, CHUNK_BYTES // rows[0]) if rows else 1


class TrialRunner:
    """Bit-packed chunked sampling and decoding.

    A logical class is held as the code's class bits
    (:meth:`~tenqec.stabilizer.StabilizerCode.class_bits`), so label L has
    bits L.x | L.z << k.  Its decodes read the node tables that the
    schedule's workspace fills for ``noise`` on the first chunk; the runner
    keeps none of its own.  ``cols[c, M]`` is the column, in the decode of
    an error of class bits c, of canonical label M: the label with bits M's
    XOR c.  A code with a pure error outside class 0 raises ValueError.
    """

    def __init__(
        self,
        layout: HolographicLayout,
        schedule: ContractionSchedule,
        noise: NoiseModel,
    ) -> None:
        code = layout.code
        if code is None:
            raise ValueError("layout carries no code; rebuild with with_code=True")
        if noise.n != code.n:
            raise ValueError("noise model size must match the code")
        m = code.n - code.k
        if code.class_bits(code.x[m : 2 * m], code.z[m : 2 * m]).any():
            raise ValueError("every pure error must commute with every logical operator")
        self.layout = layout
        self.schedule = schedule
        self.noise = noise
        self.code = code
        self.label_bits = np.array([label.x | label.z << code.k for label in schedule.labels],
                                   dtype=np.uint64)
        column = np.argsort(self.label_bits)  # the column of each label's bits
        self.cols = column[self.label_bits ^ np.arange(len(column), dtype=np.uint64)[:, None]]
        self.cum = np.cumsum(noise.probs, axis=1)

    def uniforms(self, seed: int, point_index: int, trials: range) -> np.ndarray:
        """(len(trials), n) uniforms: row j is trial trials[j]'s stream.

        Trial t draws Generator(Philox(key=K, counter=t * w)).random(n),
        where K = SeedSequence([seed, point_index]).generate_state(2,
        np.uint64) and w = ceil(n / 4).  Those streams fill consecutive
        blocks of four doubles, so the chunk is one draw of len(trials)
        rows of 4w doubles, each cut to its first n.
        """
        if trials.step != 1:
            raise ValueError(f"trials must be a range of step 1, got {trials!r}")
        w = -(-self.code.n // 4)
        key = np.random.SeedSequence([seed, point_index]).generate_state(2, np.uint64)
        philox = np.random.Philox(key=key, counter=trials.start * w)
        return np.random.Generator(philox).random((len(trials), 4 * w))[:, :self.code.n]

    def run_trial(self, seed: int, point_index: int, trials: range) -> int:
        """Sample and decode a chunk of trials; returns how many failed.

        Trial t draws its own counter range of the point's Philox stream
        (see :meth:`uniforms`), whatever chunk it runs in.  A trial fails
        when the label decided on its :meth:`canonical` mantissas is not
        its error's class.
        """
        code, n = self.code, self.code.n
        u = self.uniforms(seed, point_index, trials)
        # cum is nondecreasing: X or Y below cum[:, 2], Y or Z from cum[:, 1]
        bits = np.zeros((2, len(trials), 64 * code.x.shape[1]), dtype=np.uint8)
        bits[0, :, :n] = (u >= self.cum[:, 0]) & (u < self.cum[:, 2])
        bits[1, :, :n] = u >= self.cum[:, 1]
        ex, ez = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)
        mantissas, classes = self.canonical(ex, ez)
        return int(np.count_nonzero(self.label_bits[argmax_labels(mantissas)] != classes))

    def canonical(self, ex: np.ndarray, ez: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B, labels) mantissas of (B, words) packed errors, each decoded
        against itself and read in canonical label order (``cols``), and
        their (B,) class bits."""
        out = likelihoods_network(self.layout, self.schedule, self.noise, errors=(ex, ez))
        classes = self.code.class_bits(ex, ez)
        return np.take_along_axis(out.mantissas, self.cols[classes], axis=1), classes


def _count_failures(job) -> int:
    """Failures among trials [lo, hi) of one point, in chunks whose size
    :func:`chunk_size` reads afresh for each, so the first chunk on a new
    schedule is one trial and teaches the rest theirs."""
    layout, schedule, noise, seed, point_index, lo, hi = job
    runner = TrialRunner(layout, schedule, noise)
    failures = 0
    while lo < hi:
        chunk = range(lo, min(lo + chunk_size(schedule), hi))
        failures += runner.run_trial(seed, point_index, chunk)
        lo = chunk.stop
    return failures


def run_point(
    layout: HolographicLayout,
    schedule: ContractionSchedule,
    p: float,
    trials: int,
    *,
    seed: int,
    point_index: int = 0,
    workers: int = 1,
) -> McPoint:
    """Estimate the failure rate at one noise strength.

    The trials split into one job per worker, and every job runs through
    :func:`_count_failures`: a single non-empty job runs in-process, two or
    more in forked processes.  Each trial draws its own counter range of the
    point's Philox stream, so the result is the same for every worker count.
    """
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0),
                               ("point_index", point_index, 0), ("workers", workers, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError("need at least one trial" if name == "trials"
                             else f"{name} must be at least 1, got {value}" if least
                             else f"{name} must be nonnegative, got {value}")
    trials, workers = int(trials), int(workers)
    noise = NoiseModel.depolarizing(layout.n, p)
    bounds = np.linspace(0, trials, workers + 1).astype(int)
    jobs = [(layout, schedule, noise, seed, point_index, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(jobs) == 1:
        failures = _count_failures(jobs[0])
    else:
        with multiprocessing.get_context("fork").Pool(len(jobs)) as pool:
            failures = sum(pool.map(_count_failures, jobs))
    rate = failures / trials
    return McPoint(
        radius=layout.radius,
        n=layout.n,
        p=p,
        trials=trials,
        failures=failures,
        failure_rate=rate,
        std_err=math.sqrt(rate * (1.0 - rate) / trials),
    )


def run_mc(
    layout: HolographicLayout,
    schedule: ContractionSchedule,
    ps: list[float],
    trials: int,
    *,
    seed: int,
    workers: int = 1,
) -> list[McPoint]:
    """Sweep failure rates over a grid of depolarizing strengths."""
    return [
        run_point(
            layout, schedule, p, trials,
            seed=seed, point_index=i, workers=workers,
        )
        for i, p in enumerate(ps)
    ]


def write_points(path: str, points: list[McPoint]) -> None:
    """Write points as CSV; floats use repr so reruns match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for pt in points:
            writer.writerow([
                pt.radius,
                pt.n,
                repr(float(pt.p)),
                pt.trials,
                pt.failures,
                repr(float(pt.failure_rate)),
                repr(float(pt.std_err)),
            ])


def read_text(path: str) -> str:
    """A file's UTF-8 text; a bad byte raises ValueError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None


def read_points(path: str) -> list[McPoint]:
    """Read a sweep CSV; a bad byte, header or row raises ValueError naming its line.

    A row must be one :func:`write_points` could write: finite p,
    failure_rate and std_err, p in [0, 1], at least one trial,
    0 <= failures <= trials, failure_rate in [0, 1] and std_err >= 0.
    failure_rate is not checked against failures / trials, so idealized
    rates load.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = tuple(next(reader, ()))
    if header != CSV_HEADER:
        raise ValueError(f"{path}: line 1: expected header {','.join(CSV_HEADER)}")
    points = []
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        if len(row) != len(CSV_HEADER):
            raise ValueError(
                f"{where}: expected {len(CSV_HEADER)} fields, got {len(row)}"
            )
        try:
            pt = McPoint(*(parse(v) for parse, v in zip(CSV_TYPES, row)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        for name in ("p", "failure_rate", "std_err"):
            if not math.isfinite(getattr(pt, name)):
                raise ValueError(f"{where}: {name} {getattr(pt, name)!r} is not finite")
        if pt.trials < 1:
            raise ValueError(f"{where}: trials {pt.trials} below 1")
        if not 0 <= pt.failures <= pt.trials:
            raise ValueError(
                f"{where}: failures {pt.failures} outside [0, {pt.trials}]"
            )
        for name in ("p", "failure_rate"):
            value = getattr(pt, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{where}: {name} {value!r} outside [0, 1]")
        if pt.std_err < 0:
            raise ValueError(f"{where}: std_err {pt.std_err!r} is negative")
        points.append(pt)
    return points


def crossing_point(
    a: list[McPoint], b: list[McPoint]
) -> float:
    """Linear-interpolated p where two radii's failure-rate curves cross.

    Both lists must sample the same p grid.  Looks for the first sign
    change of rate(a) - rate(b) and interpolates within that interval.
    """
    a = sorted(a, key=lambda pt: pt.p)
    b = sorted(b, key=lambda pt: pt.p)
    if [pt.p for pt in a] != [pt.p for pt in b]:
        raise ValueError("both curves must sample the same p values")
    diffs = [pa.failure_rate - pb.failure_rate for pa, pb in zip(a, b)]
    for i in range(len(diffs) - 1):
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 == 0.0:
            return a[i].p
        if d0 * d1 < 0:
            frac = d0 / (d0 - d1)
            return a[i].p + frac * (a[i + 1].p - a[i].p)
    if diffs and diffs[-1] == 0.0:
        return a[-1].p
    raise ValueError("curves do not cross on the sampled grid")


def fit_threshold(points: list[McPoint]) -> ThresholdFit:
    """Fit (p_th, nu) by collapsing all radii onto one quadratic.

    For each candidate pair, the points of the largest code are fit by a
    quadratic in x = (p - p_th) * n^(1/nu) and the residual sum of squares
    is taken over every point; a deterministic coarse-to-fine grid search
    minimizes it.  Needs at least two radii with four points each, and
    rates that actually vary.
    """
    groups: dict[int, list[McPoint]] = {}
    for pt in points:
        groups.setdefault(pt.n, []).append(pt)
    if len(groups) < 2:
        raise ValueError("need points from at least two different radii")
    if any(len(g) < 4 for g in groups.values()):
        raise ValueError("need at least four points per radius")
    rates = np.array([pt.failure_rate for pt in points])
    if np.ptp(rates) == 0.0:
        raise ValueError("failure rates are constant; nothing to fit")

    ns = np.array([pt.n for pt in points], dtype=np.float64)
    ps = np.array([pt.p for pt in points])
    n_big = max(groups)
    big = np.array([pt.n == n_big for pt in points])

    def objective(p_th: float, nu: float) -> tuple[float, np.ndarray]:
        x = (ps - p_th) * ns ** (1.0 / nu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coeffs = np.polynomial.polynomial.polyfit(x[big], rates[big], 2)
        resid = rates - np.polynomial.polynomial.polyval(x, coeffs)
        return float(resid @ resid), coeffs

    p_lo, p_hi = FIT_P_RANGE
    nu_lo, nu_hi = FIT_NU_RANGE
    best = None
    for _ in range(FIT_STAGES):
        for p_th in np.linspace(p_lo, p_hi, FIT_GRID):
            for nu in np.linspace(nu_lo, nu_hi, FIT_GRID):
                rss, coeffs = objective(float(p_th), float(nu))
                key = (rss, float(p_th), float(nu))
                if best is None or key < best[0]:
                    best = (key, coeffs)
        (_, p_c, nu_c), _ = best
        p_half = (p_hi - p_lo) * FIT_SHRINK / 2
        nu_half = (nu_hi - nu_lo) * FIT_SHRINK / 2
        p_lo = max(FIT_P_RANGE[0], p_c - p_half)
        p_hi = min(FIT_P_RANGE[1], p_c + p_half)
        nu_lo = max(FIT_NU_RANGE[0], nu_c - nu_half)
        nu_hi = min(FIT_NU_RANGE[1], nu_c + nu_half)

    (rss, p_th, nu), coeffs = best
    return ThresholdFit(
        p_th=p_th,
        nu=nu,
        coeffs=(float(coeffs[0]), float(coeffs[1]), float(coeffs[2])),
        rss=rss,
    )
