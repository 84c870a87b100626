"""Monte Carlo estimation of logical failure rates and threshold fits.

Trials are reproducible by construction: trial t of point i under master
seed s draws the stream of default_rng(SeedSequence([s, i, t])), so
results do not depend on how trials are split across workers, and a rerun
with the same arguments is byte-identical.  Trials run in chunks sized by
:func:`chunk_size`.  A chunk computes its trials' stream seeds at once: it
runs SeedSequence's hash as uint32 array operations across the trials and
sets each resulting PCG64 state on one generator that draws that trial's
row.  Sampling works on a chunk's bit-packed numpy words at once.  One
``likelihoods_network`` call decodes the chunk's sampled errors E
themselves along a batch axis, reading every outer-ring node's message
(the seed's at radius 1) as one row of the runner's
:class:`~tenqec.decoder.NodeTables`, at the pattern of E's codes on that
node; the runner fills those tables once for its noise model and owns
them.  Row L of E's decode holds the likelihood of the class of E times
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
import functools
import io
import math
import multiprocessing
import numbers
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .decoder import NodeTables, NoiseModel, argmax_labels, likelihoods_network
from .holographic import ContractionSchedule, HolographicLayout

CSV_HEADER = ("radius", "n", "p", "trials", "failures", "failure_rate", "std_err")
CSV_TYPES = (int, int, float, int, int, float, float)
# Bytes of decoder temporaries that one chunk of trials may take (see
# chunk_size): larger chunks cut per-call overhead but raise the peak RSS.
CHUNK_BYTES = 1 << 20
# fit_threshold: (p_th, nu) search box, grid points per axis, stages, shrink.
FIT_P_RANGE = (0.05, 0.40)
FIT_NU_RANGE = (0.8, 6.0)
FIT_GRID = 21
FIT_STAGES = 5
FIT_SHRINK = 0.25
# SeedSequence's hash (numpy.random.SeedSequence, pool of 4 uint32 words):
# (initial value, multiplier) of the running constants of mix_entropy's
# hashmix and of generate_state, and the two factors of mix
HASH_A = (0x43B0D7E5, 0x931E8875)
HASH_B = (0x8B51F9DD, 0x58F38DED)
MIX_L, MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's multiplier: seeded with (initstate, initseq), it starts from
# inc = initseq << 1 | 1 and state = (initstate + inc) * PCG_MULT + inc
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32 = (1 << 32) - 1
MASK128 = (1 << 128) - 1


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
    CHUNK_BYTES // schedule.row_bytes.

    512 at radius 1, 85 at radius 2, 21 at radius 3 and 4 at radius 4 (an
    inner ring's bond matrices), and 1 from radius 5 on.  At radii 1-3 the
    charge is the entry-by-entry leaf weights, which the runner's
    ``errors=`` calls do not allocate, so those chunks peak well under
    CHUNK_BYTES; the sizes stay pinned as policy.
    """
    return max(1, CHUNK_BYTES // schedule.row_bytes)


class TrialRunner:
    """Bit-packed chunked sampling and decoding.

    A logical class is held as the code's class bits
    (:meth:`~tenqec.stabilizer.StabilizerCode.class_bits`), so label L has
    bits L.x | L.z << k.  ``tables`` holds the
    :class:`~tenqec.decoder.NodeTables` of the runner's schedule and noise
    model, filled once, on construction.  ``cols[c, M]`` is the column, in
    the decode of an error of class bits c, of canonical label M: the label
    with bits M's XOR c.  A code with a pure error outside class 0 raises
    ValueError.
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
        self.chunk = chunk_size(schedule)
        self.label_bits = np.array([label.x | label.z << code.k for label in schedule.labels],
                                   dtype=np.uint64)
        column = np.argsort(self.label_bits)  # the column of each label's bits
        self.cols = column[self.label_bits ^ np.arange(len(column), dtype=np.uint64)[:, None]]
        self.cum = np.cumsum(noise.probs, axis=1)
        self.tables = NodeTables(schedule, noise)
        # one generator per runner; uniforms sets its state for each trial
        self.bits = np.random.PCG64(0)
        self.rng = np.random.Generator(self.bits)

    def uniforms(self, seed: int, point_index: int, trials: range) -> np.ndarray:
        """(len(trials), n) uniforms: row j is the stream of
        default_rng(SeedSequence([seed, point_index, trials[j]])).random(n).

        The chunk's PCG64 seeds come from one vectorized SeedSequence hash;
        each row then sets its seeded state on ``self.bits`` and draws.
        """
        if trials.step != 1:
            raise ValueError(f"trials must be a range of step 1, got {trials!r}")
        head = _words(seed) + _words(point_index)
        # pieces of the range that share t >> 32, so each has one word count
        cuts = [trials.start,
                *range((trials.start >> 32) + 1 << 32, trials.stop, 1 << 32),
                trials.stop]
        seeds = np.concatenate(
            [_pcg_seeds(_entropy(head, lo, hi)) for lo, hi in zip(cuts, cuts[1:])],
            axis=1,
        )
        u = np.empty((len(trials), self.code.n))
        for row, (s_hi, s_lo, q_hi, q_lo) in zip(u, zip(*seeds.tolist())):
            inc = (q_hi << 65 | q_lo << 1 | 1) & MASK128
            state = ((s_hi << 64 | s_lo) + inc) * PCG_MULT + inc & MASK128
            self.bits.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
            self.rng.random(out=row)
        return u

    def run_trial(self, seed: int, point_index: int, trials: range) -> int:
        """Sample and decode a chunk of trials; returns how many failed.

        Trial t draws the stream of default_rng(SeedSequence([seed,
        point_index, t])), whatever chunk it runs in; the chunk computes
        those streams' seeds at once (see :meth:`uniforms`).  A trial
        fails when the label decided on its :meth:`canonical` mantissas is
        not its error's class.
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
        out = likelihoods_network(self.layout, self.schedule, self.noise,
                                  errors=(ex, ez), tables=self.tables)
        classes = self.code.class_bits(ex, ez)
        return np.take_along_axis(out.mantissas, self.cols[classes], axis=1), classes


def _words(value: int) -> list[int]:
    """A nonnegative integer's little-endian uint32 words, as SeedSequence
    splits it (0 is one word)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed entropy must be nonnegative, got {value}")
    return [value >> shift & MASK32
            for shift in range(0, max(value.bit_length(), 1), 32)]


def _entropy(head: list[int], lo: int, hi: int) -> np.ndarray:
    """SeedSequence entropy words of head + words(t) for t in [lo, hi),
    trials that share t >> 32, as a (words, hi - lo) uint32 array.

    Fewer than 4 words are zero-padded to 4: SeedSequence hashes a missing
    pool word as 0, so the padding changes no state.
    """
    words = head + [0] + (_words(lo >> 32) if lo >> 32 else [])
    out = np.zeros((max(len(words), 4), hi - lo), dtype=np.uint32)
    out[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    out[len(head)] = np.arange(lo & MASK32, (lo & MASK32) + hi - lo)
    return out


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values init * mult**j mod 2**32 of a running hash
    constant, as a (count, 1) uint32 column."""
    return np.array(
        [init * pow(mult, j, 1 << 32) & MASK32 for j in range(count)],
        dtype=np.uint32,
    )[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray, j: int, m: int) -> np.ndarray:
    """SeedSequence's hashmix calls j .. j + m - 1 on ``value``, one per row
    of the (m, rows) result."""
    value = (value ^ consts[j:j + m]) * consts[j + 1:j + m + 1]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    out = MIX_L * x - MIX_R * y
    return out ^ out >> 16


# mix_entropy's cross-mix: each pool word in turn into the three others
CROSS_MIX = tuple((src, [dst for dst in range(4) if dst != src]) for src in range(4))


def _pcg_seeds(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(column).generate_state(4, np.uint64) for each column of
    a (words >= 4, rows) uint32 entropy array, as a (4, rows) uint64 array.

    This is mix_entropy into a pool of 4 words, then generate_state, with
    each step one uint32 operation across the rows.
    """
    consts = _hash_constants(*HASH_A, 4 * len(entropy) + 1)
    pool = _hashmix(entropy[:4], consts, 0, 4)
    j = 4
    for src, dst in CROSS_MIX:
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, j, 3))
        j += 3
    # entropy past the pool mixes each word into every pool word
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, consts, j, 4))
        j += 4
    state = _hashmix(np.concatenate([pool, pool]), _hash_constants(*HASH_B, 9), 0, 8)
    # 8 uint32 words read as 4 little-endian uint64 words
    state = state.astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _count_failures(job) -> int:
    """Failures among trials [lo, hi) of one point, run in the runner's chunks."""
    layout, schedule, noise, seed, point_index, lo, hi = job
    runner = TrialRunner(layout, schedule, noise)
    return sum(
        runner.run_trial(seed, point_index, range(t, min(t + runner.chunk, hi)))
        for t in range(lo, hi, runner.chunk)
    )


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
    more in forked processes.  The per-trial seeding makes the result the
    same for every worker count.
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
