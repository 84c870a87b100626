"""The three benchmark workloads, driven only through tenqec's public API.

Each workload is closed-loop in one process: ``setup`` builds what the
timed phase needs, ``run_pass`` does one fixed unit of work and may be
repeated, and ``check`` verifies outputs afterwards.  ``steps`` names the
timed steps of one pass, with how many times a pass runs each.  Inputs
come from the workload seed alone.  Every operation that raises and every
failed output check is counted in ``Record.failed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tenqec import decoder, harness, holographic, oracle, stabilizer, tensor
from tenqec.pauli import PauliString

REFERENCE_PATH = Path(__file__).parent / "reference.json"

SWEEP_PS = (0.16, 0.18, 0.20)
# Trials per (radius, p) in one pass, chosen so that each radius takes a
# similar share of the pass on a 2-core x86 machine.
SWEEP_TRIALS = {1: 1800, 2: 320, 3: 90, 4: 16}
DECODE_P = 0.18
DECODES_PER_PASS = 5
MIN_DECODES = 200  # at least 10 samples beyond p95
R3_BUILDS_PER_PASS = 10

# The speed of a shared machine swings by up to 2x, for seconds or for
# minutes, with the load of other tenants.  So a fixed pure-Python loop, the
# probe, runs just before and just after every timed step, and the step's
# time is scaled by PROBE_REF_S over the mean probe time around it: it
# reads as on a machine where the probe takes PROBE_REF_S.  The probe never
# calls tenqec, so a change to tenqec moves the scaled time by the same
# share as the measured one.  PROBE_REF_S is about the probe's fastest time
# on a shared 2-core x86_64 machine (2.1 GHz, Python 3.11).  The speed also
# flips within tens of milliseconds, so a step that took long the last time
# is framed by several probes on each side, about PROBE_SHARE of its time.
PROBE_LOOPS = 15000
PROBE_REF_S = 0.002
PROBE_SHARE = 0.02


@dataclass
class Record:
    """What one run did: operation timings, counts and check outcomes."""

    seed: int
    times: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def step(self, key: str, label: str, fn, *args, **kwargs):
        """Run ``fn`` as one operation timed between probes.

        Its time goes to ``times[key]`` as measured and to ``scaled[key]``
        at the probe's reference speed.  Returns None if ``fn`` raised.
        """
        seen = self.times.setdefault(key, [])
        count = max(1, round(PROBE_SHARE / 2 * seen[-1] / PROBE_REF_S)) if seen else 1
        before = [probe_s() for _ in range(count)]
        out, dt = timed(self.op, label, fn, *args, **kwargs)
        after = [probe_s() for _ in range(count)]
        seen.append(dt)
        self.scaled.setdefault(key, []).append(
            scale(dt, statistics.fmean(before), statistics.fmean(after)))
        self.times.setdefault("probe", []).extend(before + after)
        return out

    def op(self, label: str, fn, *args, **kwargs):
        """Run one operation; a raise counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check {label} failed {detail}".rstrip())


def probe_s() -> float:
    """Time of the probe loop, which measures how fast the machine runs now."""
    t0 = time.perf_counter()
    acc, slots = 0, {}
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFFFFFFFFFFFFFF
        slots[i & 511] = acc
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the probe times around it."""
    return seconds * 2 * PROBE_REF_S / (before + after)


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _median(values) -> float:
    return float(statistics.median(values))


def scaled_pass_s(steps: dict[str, int], rec: Record) -> float:
    """Time of one pass at reference speed: each step's median scaled time,
    times how often a pass runs it."""
    return sum(count * _median(rec.scaled[key]) for key, count in steps.items())


def _p95(values) -> float:
    return float(np.percentile(np.asarray(values), 95))


# ---------------------------------------------------------------------------
# threshold-sweep
# ---------------------------------------------------------------------------


class ThresholdSweep:
    """run_mc at radii 1-4 over p in SWEEP_PS, one process, workers=1."""

    name = "threshold-sweep"
    steps = {f"sweep.r{r}": 1 for r in SWEEP_TRIALS}

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.failures: dict[tuple[int, float], int] = {}
        self.trials: dict[tuple[int, float], int] = {}

    def setup(self):
        nets = {}
        for r in SWEEP_TRIALS:
            layout = holographic.build_layout(r)
            nets[r] = (layout, holographic.schedule_for(layout))
        return nets

    def run_pass(self, nets, j: int, rec: Record) -> None:
        points = []
        for r, trials in SWEEP_TRIALS.items():
            layout, schedule = nets[r]
            pts = rec.step(
                f"sweep.r{r}", f"run_mc r{r}", harness.run_mc, layout, schedule,
                list(SWEEP_PS), trials, seed=_seed(rec.seed, j, r), workers=1,
            )
            for pt in pts or ():
                key = (r, pt.p)
                self.failures[key] = self.failures.get(key, 0) + pt.failures
                self.trials[key] = self.trials.get(key, 0) + pt.trials
                points.append(pt)
        if j == 0:
            path = self.out_dir / f"{self.name}-seed{rec.seed}.csv"
            harness.write_points(str(path), points)
            rec.notes["csv_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()

    def enough(self, rec: Record) -> bool:
        return True

    def check(self, nets, rec: Record) -> None:
        layout, schedule = nets[1]
        for p in SWEEP_PS:
            noise = decoder.NoiseModel.depolarizing(layout.n, p)

            def chooser(syn, noise=noise):
                return decoder.likelihoods_network(
                    layout, schedule, noise, syn).argmax_class()

            exact = oracle.exhaustive_failure_rate(layout.code, noise, chooser)
            n = self.trials.get((1, p), 0)
            rate = self.failures.get((1, p), 0) / max(n, 1)
            sigma = math.sqrt(exact * (1 - exact) / max(n, 1))
            rec.check(f"r1 p={p} within 4 sigma of exhaustive rate",
                      n > 0 and abs(rate - exact) <= 4 * sigma,
                      f"(rate {rate:.5f} over {n} trials, exact {exact:.5f})")
        ref = json.loads(REFERENCE_PATH.read_text())["threshold_sweep"]
        for r in (2, 3, 4):
            for p in SWEEP_PS:
                want = ref[f"r{r}"][repr(p)]
                q = want["failures"] / want["trials"]
                n = self.trials.get((r, p), 0)
                rate = self.failures.get((r, p), 0) / max(n, 1)
                sigma = math.sqrt(q * (1 - q) * (1 / max(n, 1) + 1 / want["trials"]))
                rec.check(f"r{r} p={p} within 4 combined sigma of reference",
                          n > 0 and abs(rate - q) <= 4 * sigma,
                          f"(rate {rate:.5f} over {n} trials, reference {q:.5f})")

    def report(self, rec: Record) -> dict[str, tuple[float, str]]:
        out = {}
        for r, trials in SWEEP_TRIALS.items():
            step_s = _median(rec.scaled[f"sweep.r{r}"])
            out[f"trials_per_s.r{r}"] = (len(SWEEP_PS) * trials / step_s, "1/s")
        return out


# ---------------------------------------------------------------------------
# decode-deep
# ---------------------------------------------------------------------------


class DecodeDeep:
    """One radius-5 network decode at a time on the topology-only layout."""

    name = "decode-deep"
    steps = {"decode": DECODES_PER_PASS}

    def __init__(self, out_dir: Path) -> None:
        self.decodes = 0

    def setup(self):
        layout = holographic.build_layout(5, with_code=False)
        schedule = holographic.schedule_for(layout)
        return layout, schedule, decoder.NoiseModel.depolarizing(layout.n, DECODE_P)

    def run_pass(self, net, j: int, rec: Record) -> None:
        layout, schedule, noise = net
        for i in range(DECODES_PER_PASS):
            error = _depolarizing_error(layout.n, DECODE_P, _seed(rec.seed, j, i))
            table = rec.step("decode", f"decode {j}.{i}",
                             _decode, layout, schedule, noise, error)
            if table is not None:
                m = table.mantissas
                rec.check(f"decode {j}.{i} table finite with max mantissa 1",
                          bool(np.isfinite(m).all()) and math.isfinite(table.log_scale)
                          and float(m.max()) == 1.0)
            self.decodes += 1

    def enough(self, rec: Record) -> bool:
        return self.decodes >= MIN_DECODES

    def check(self, net, rec: Record) -> None:
        layout, schedule, noise = net
        ones = decoder.likelihoods_network(
            layout, schedule, noise, leaves=np.ones((layout.n, 4)))
        want = (layout.n - 1) * math.log(2)
        rec.check("all-ones leaves give equal mantissas",
                  len(set(ones.mantissas.tolist())) == 1)
        rec.check("all-ones leaves give log_scale (n-1) ln 2",
                  abs(ones.log_scale - want) <= 1e-12 * want,
                  f"({ones.log_scale!r} vs {want!r})")
        _check_class_symmetry(rec)

    def report(self, rec: Record) -> dict[str, tuple[float, str]]:
        ms = [1e3 * t for t in rec.scaled["decode"]]
        return {
            "decode_ms.p50": (_median(ms), "ms"),
            "decode_ms.p95": (_p95(ms), "ms"),
            "decode_samples": (len(ms), "count"),
        }


def _depolarizing_error(n: int, p: float, seed: int) -> PauliString:
    rng = np.random.default_rng(seed)
    codes = rng.choice(4, size=n, p=[1 - p, p / 3, p / 3, p / 3])
    return PauliString.from_codes(codes.tolist())


def _decode(layout, schedule, noise, error):
    return decoder.likelihoods_network(
        layout, schedule, noise, leaves=decoder.leaf_probabilities(noise, error))


def _check_class_symmetry(rec: Record) -> None:
    """At radius 3, stabilizers leave class likelihoods alone; X_0 swaps them."""
    layout = holographic.build_layout(3)
    schedule = holographic.schedule_for(layout)
    code = layout.code
    noise = decoder.NoiseModel.depolarizing(layout.n, DECODE_P)
    rng = np.random.default_rng(_seed(rec.seed, 3))
    error = _depolarizing_error(layout.n, DECODE_P, _seed(rec.seed, 3, 0))
    base = _absolute(_decode(layout, schedule, noise, error))
    for t in range(3):
        shifted = error
        for s, pick in zip(code.stabilizers, rng.integers(0, 2, len(code.stabilizers))):
            if pick:
                shifted = shifted * s
        got = _absolute(_decode(layout, schedule, noise, shifted))
        rec.check(f"r3 stabilizer shift {t} keeps class likelihoods",
                  _close(got, base, 1e-10))
    got = _absolute(_decode(layout, schedule, noise, error * code.logical_x[0]))
    swapped = {"I": base["X"], "X": base["I"], "Z": base["Y"], "Y": base["Z"]}
    rec.check("r3 logical X shift swaps I<->X and Z<->Y", _close(got, swapped, 1e-10))


def _absolute(table) -> dict[str, float]:
    return {label.to_text(): table.absolute(label) for label in table.labels}


def _close(a: dict, b: dict, rel: float) -> bool:
    return all(abs(a[k] - b[k]) <= rel * abs(b[k]) for k in b)


# ---------------------------------------------------------------------------
# code-build
# ---------------------------------------------------------------------------


class CodeBuild:
    """Radius-3 and radius-4 code assembly, then an 11-qubit self_check."""

    name = "code-build"
    steps = {"build.r3": R3_BUILDS_PER_PASS, "build.r4": 1, "build.11q": 1,
             "self_check": 1}

    def __init__(self, out_dir: Path) -> None:
        self.codes: dict[str, stabilizer.StabilizerCode] = {}

    def setup(self):
        return (tensor.CodeTensor.from_code(stabilizer.six_qubit_code()),
                tensor.CodeTensor.from_code(stabilizer.seven_qubit_state()))

    def _keep(self, key: str, code, rec: Record) -> None:
        first = self.codes.setdefault(key, code)
        if first is not code:
            rec.check(f"{key} code repeats", code == first)

    def run_pass(self, tensors, j: int, rec: Record) -> None:
        for r, repeats in ((3, R3_BUILDS_PER_PASS), (4, 1)):
            for _ in range(repeats):
                layout = rec.step(f"build.r{r}", f"build_layout({r})",
                                  holographic.build_layout, r)
                if layout is not None:
                    self._keep(f"r{r}", layout.code, rec)
        t11 = rec.step("build.11q", "contract and from_code 11q", _eleven_qubit, *tensors)
        if t11 is None:
            return
        report = rec.step("self_check", "self_check 11q", t11.self_check,
                          seed=_seed(rec.seed, j))
        if report is not None:
            rec.check(f"11q self_check pass {j}", report.passed,
                      "; ".join(report.violations[:3]))
        self._keep("11q", t11.code, rec)

    def enough(self, rec: Record) -> bool:
        return True

    def check(self, tensors, rec: Record) -> None:
        ref = json.loads(REFERENCE_PATH.read_text())["code_build"]
        for r in (3, 4):
            code = self.codes.get(f"r{r}")
            if code is None:
                rec.check(f"r{r} built", False)
                continue
            try:
                code.validate()
                ok, detail = True, ""
            except ValueError as exc:
                ok, detail = False, str(exc)
            rec.check(f"r{r} validate", ok, detail)
            rec.check(f"r{r} has n-k stabilizers",
                      len(code.stabilizers) == code.n - code.k)
            digests = row_space_digests(code)
            for key, got in digests.items():
                rec.check(f"r{r} {key} row space digest",
                          got == ref[f"r{r}"][key], f"({got})")

    def report(self, rec: Record) -> dict[str, tuple[float, str]]:
        return {
            "build_s.r3": (_median(rec.scaled["build.r3"]), "s"),
            "build_s.r4": (_median(rec.scaled["build.r4"]), "s"),
            "self_check_s": (_median(rec.scaled["self_check"]), "s"),
        }


def _eleven_qubit(six, block) -> tensor.CodeTensor:
    """The six-qubit code with the seven-qubit block on its last leg."""
    eleven = tensor.contract(six, block, tensor.LegBinding((5,), (0,)))
    return tensor.CodeTensor.from_code(eleven.code)


def row_space_digests(code) -> dict[str, str]:
    """Digests of the stabilizer group, and of it with the logicals.

    Both depend only on the groups, not on which generators represent them.
    """
    def row(op: PauliString) -> int:
        return op.z | (op.x << op.n)

    stabs = [row(s) for s in code.stabilizers]
    logicals = [row(op) for op in code.logical_x + code.logical_z]

    def digest(rows) -> str:
        space = stabilizer.gf2_row_space(rows)
        return hashlib.sha256(",".join(map(hex, space)).encode()).hexdigest()

    return {"stabilizers": digest(stabs), "with_logicals": digest(stabs + logicals)}


WORKLOADS = {w.name: w for w in (ThresholdSweep, DecodeDeep, CodeBuild)}
