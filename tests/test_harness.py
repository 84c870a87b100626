"""Monte Carlo harness: reproducibility, statistics, and the scaling fit."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from conftest import first_call_memory, learned_chunk, learned_row_bytes
from tenqec import (
    McPoint,
    NoiseModel,
    PauliString,
    StabilizerCode,
    Syndrome,
    build_layout,
    crossing_point,
    decode,
    exhaustive_failure_rate,
    fit_threshold,
    likelihoods_network,
    read_points,
    run_mc,
    run_point,
    schedule_for,
    write_points,
)
from tenqec import decoder, harness
from tenqec.decoder import TIE_RTOL


def test_run_point_deterministic(holo):
    layout, schedule = holo[2]
    a = run_point(layout, schedule, 0.18, 150, seed=42)
    b = run_point(layout, schedule, 0.18, 150, seed=42)
    assert a == b


def test_run_point_zero_noise(holo):
    layout, schedule = holo[2]
    point = run_point(layout, schedule, 0.0, 50, seed=1)
    assert point.failures == 0
    assert point.failure_rate == 0.0
    assert point.std_err == 0.0


def test_point_metadata(holo):
    layout, schedule = holo[2]
    point = run_point(layout, schedule, 0.2, 100, seed=9)
    assert (point.radius, point.n, point.trials) == (2, 36, 100)
    expect = math.sqrt(
        point.failure_rate * (1 - point.failure_rate) / point.trials
    )
    assert point.std_err == pytest.approx(expect)


def test_csv_round_trip(tmp_path, holo):
    layout, schedule = holo[2]
    points = run_mc(layout, schedule, [0.16, 0.2], 80, seed=3)
    path = tmp_path / "points.csv"
    write_points(str(path), points)
    assert read_points(str(path)) == points


def test_csv_byte_identical(tmp_path, holo):
    layout, schedule = holo[2]
    out = []
    for name in ("a.csv", "b.csv"):
        points = run_mc(layout, schedule, [0.17, 0.21], 120, seed=77)
        path = tmp_path / name
        write_points(str(path), points)
        out.append(path.read_bytes())
    assert out[0] == out[1]
    header = out[0].split(b"\n", 1)[0]
    assert header == b"radius,n,p,trials,failures,failure_rate,std_err"


def test_read_points_rejects_other_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_points(str(path))


HEADER = "radius,n,p,trials,failures,failure_rate,std_err\n"
BAD_CSVS = {
    "empty": ("", "line 1: expected header"),
    "short row": (HEADER + "2,36,0.18,100,7\n", "line 2: expected 7 fields"),
    "long row": (HEADER + "2,36,0.18,100,7,0.07,0.02,9\n", "line 2: expected 7"),
    "bad field": (HEADER + "2,36,0.18,many,7,0.07,0.02\n", "line 2: invalid"),
    "too many failures": (
        HEADER + "2,36,0.18,100,7,0.07,0.02\n3,174,0.18,100,101,1.01,0.0\n",
        "line 3: failures 101 outside [0, 100]",
    ),
    "negative failures": (
        HEADER + "2,36,0.18,100,-1,0.0,0.0\n", "line 2: failures -1",
    ),
    "nan p": (HEADER + "3,174,nan,0,0,0.9,0.0\n", "line 2: p nan is not finite"),
    "infinite rate": (
        HEADER + "2,36,0.18,100,7,inf,0.02\n", "line 2: failure_rate inf is not finite",
    ),
    "nan std_err": (
        HEADER + "2,36,0.18,100,7,0.07,nan\n", "line 2: std_err nan is not finite",
    ),
    "p above one": (
        HEADER + "2,36,1.5,100,7,0.07,0.02\n", "line 2: p 1.5 outside [0, 1]",
    ),
    "negative p": (HEADER + "2,36,-0.1,100,7,0.07,0.02\n", "line 2: p -0.1 outside"),
    "no trials": (HEADER + "2,36,0.18,0,0,0.0,0.0\n", "line 2: trials 0 below 1"),
    "rate above one": (
        HEADER + "2,36,0.18,100,7,1.5,0.02\n",
        "line 2: failure_rate 1.5 outside [0, 1]",
    ),
    "negative std_err": (
        HEADER + "2,36,0.18,100,7,0.07,-0.2\n", "line 2: std_err -0.2 is negative",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CSVS))
def test_read_points_names_file_and_line(tmp_path, case):
    text, message = BAD_CSVS[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_points(str(path))


def test_read_points_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(HEADER.encode() + b"2,36,0.18,100,7,0.07,0.02\n2,36,\xff\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: not UTF-8")):
        read_points(str(path))


def test_workers_match_single_thread(holo):
    layout, schedule = holo[2]
    serial = run_point(layout, schedule, 0.19, 60, seed=13)
    forked = run_point(layout, schedule, 0.19, 60, seed=13, workers=2)
    assert serial == forked


def test_a_single_job_runs_in_process(monkeypatch, holo):
    # one trial over three workers leaves one non-empty job: no pool is made
    layout, schedule = holo[2]
    serial = run_point(layout, schedule, 0.19, 1, seed=13)

    def no_pool(method):
        raise AssertionError(f"a {method} pool was started for one job")

    monkeypatch.setattr(harness.multiprocessing, "get_context", no_pool)
    assert run_point(layout, schedule, 0.19, 1, seed=13, workers=3) == serial


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 17])
@pytest.mark.parametrize("point_index", [0, 2**33])
@pytest.mark.parametrize("radius", [1, 4], ids=["n6", "n834"])
def test_chunk_draw_matches_per_trial_default_rng(holo, seed, point_index, radius):
    # trial t's stream is a fresh generator on the point's Philox key,
    # started at counter t * ceil(n / 4)
    layout, schedule = holo[radius]
    runner = harness.TrialRunner(
        layout, schedule, NoiseModel.depolarizing(layout.n, 0.18)
    )
    key = np.random.SeedSequence([seed, point_index]).generate_state(2, np.uint64)
    width = -(-layout.n // 4)
    # a plain chunk, and one that straddles t = 2**32
    for trials in (range(5, 12), range(2**32 - 3, 2**32 + 3)):
        want = np.array([
            np.random.default_rng(
                np.random.Philox(key=key, counter=t * width)
            ).random(layout.n)
            for t in trials
        ])
        assert np.array_equal(runner.uniforms(seed, point_index, trials), want)
        # split anywhere, the two chunks give the same rows
        for cut in range(trials.start, trials.stop + 1):
            rows = np.concatenate([
                runner.uniforms(seed, point_index, range(trials.start, cut)),
                runner.uniforms(seed, point_index, range(cut, trials.stop)),
            ])
            assert np.array_equal(rows, want)


def test_trial_streams_keep_their_values(holo):
    # the first doubles of trials 0 and 1 at radius 1: a numpy change to
    # Philox or Generator.random fails here instead of moving the CSVs
    layout, schedule = holo[1]
    runner = harness.TrialRunner(
        layout, schedule, NoiseModel.depolarizing(layout.n, 0.18)
    )
    first = runner.uniforms(2026, 0, range(0, 2))[:, 0]
    assert first.tolist() == [float.fromhex("0x1.5fbdea307106cp-3"),
                              float.fromhex("0x1.9bbd09806768ap-1")]


def test_chunk_draw_needs_consecutive_trials(holo):
    layout, schedule = holo[1]
    runner = harness.TrialRunner(
        layout, schedule, NoiseModel.depolarizing(layout.n, 0.18)
    )
    with pytest.raises(ValueError, match="range of step 1"):
        runner.uniforms(1, 0, range(0, 10, 2))


def test_runners_keep_their_own_generator(holo):
    # and their own node tables: runners at two noise strengths, run in
    # turn, count what each counts alone
    layout, schedule = holo[2]
    chunks = (range(0, 40), range(40, 85), range(85, 120))

    def runners():
        return [harness.TrialRunner(layout, schedule, NoiseModel.depolarizing(layout.n, p))
                for p in (0.2, 0.12)]

    a, b = runners()
    one_after_other = ([a.run_trial(5, 0, c) for c in chunks],
                       [b.run_trial(9, 1, c) for c in chunks])
    a, b = runners()
    interleaved = ([], [])
    for c in chunks:
        interleaved[0].append(a.run_trial(5, 0, c))
        interleaved[1].append(b.run_trial(9, 1, c))
    assert interleaved == one_after_other
    assert sum(one_after_other[0]) > sum(one_after_other[1]) > 0


def test_decodes_leave_the_operator_tuples_unbuilt():
    # a syndrome= decode and a Monte Carlo chunk read the code's packed
    # rows only; a fresh layout, since other tests build the shared ones'
    layout = build_layout(3)
    schedule = schedule_for(layout)
    code = layout.code
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    result = decode(layout, schedule, noise, Syndrome(code.n - code.k, 0b1011001))
    assert code._groups is None
    assert code.syndrome(result.correction).bits == 0b1011001
    harness.TrialRunner(layout, schedule, noise).run_trial(3, 0, range(learned_chunk(layout, schedule)))
    assert code._groups is None


@pytest.mark.parametrize("radius", [2, 3])
def test_runner_with_per_qubit_noise_decides_as_leaf_tables(holo, monkeypatch, radius):
    # each qubit takes one of three noise rows, so some nodes share their
    # leaf rows' table and others have their own; every chunk's decisions
    # must be those of the entry-by-entry leaf stage on the same errors
    layout, schedule = holo[radius]
    rows = np.array([[0.7, 0.1, 0.1, 0.1], [0.8, 0.02, 0.1, 0.08], [0.75, 0.15, 0.05, 0.05]])
    noise = NoiseModel(rows[np.random.default_rng(radius).integers(0, 3, layout.n)])
    runner = harness.TrialRunner(layout, schedule, noise)
    chunk = learned_chunk(layout, schedule)
    assert any(entry is not None and len(set(entry[1])) > 1
               for entry in decoder.NodeTables(schedule, noise).groups)
    calls = []

    def both(layout, schedule, noise, *, errors):
        got = likelihoods_network(layout, schedule, noise, errors=errors)
        want = likelihoods_network(
            layout, schedule, noise,
            leaves=decoder.packed_leaf_probabilities(noise, *errors))
        np.testing.assert_allclose(got.mantissas, want.mantissas, rtol=1e-12)
        assert np.array_equal(decoder.argmax_labels(got.mantissas),
                              decoder.argmax_labels(want.mantissas))
        calls.append(len(got.mantissas))
        return got

    monkeypatch.setattr(harness, "likelihoods_network", both)
    failures = sum(runner.run_trial(4, 0, range(t, t + chunk))
                   for t in range(0, 3 * chunk, chunk))
    assert len(calls) == 3 and failures > 0


def _syndrome_route(runner, ex, ez):
    """Reference: the route that decoded a trial against its syndrome's pure
    error T(s).  Each row's syndrome maps to T(s), T(s) is decoded, and the
    recovery's class is the chosen label's bits XOR T(s)'s.  Batched rows
    are bit-identical to one-row calls, so rows are decoded as they come,
    with no dedup by syndrome.  Returns the (B,) class bits and the (B,
    labels) mantissas."""
    code = runner.code
    px, pz = code.pure_error_rows(code.syndromes(ex, ez))
    out = likelihoods_network(runner.layout, runner.schedule, runner.noise,
                              errors=(px, pz))
    chosen = runner.label_bits[decoder.argmax_labels(out.mantissas)]
    return chosen ^ code.class_bits(px, pz), out.mantissas


def _recorded(monkeypatch):
    """A list that the runners' chunks fill, in turn, with their packed
    errors and the mantissas they decide on."""
    seen = []

    def network(*args, errors):
        seen.append(errors)
        return likelihoods_network(*args, errors=errors)

    def decide(mantissas):
        seen.append(mantissas)
        return decoder.argmax_labels(mantissas)

    monkeypatch.setattr(harness, "likelihoods_network", network)
    monkeypatch.setattr(harness, "argmax_labels", decide)
    return seen


@pytest.mark.parametrize("radius, chunks", [(1, 4), (2, 6), (3, 8), (4, 12), ("chain", 2)])
@pytest.mark.parametrize("p", [0.16, 0.18, 0.20])
def test_own_error_decisions_equal_the_syndrome_route(holo, three_block_chain, monkeypatch,
                                                      radius, chunks, p):
    # a trial decoded against its own error E, with its columns permuted by
    # E's class bits, decides as the decode of its syndrome's pure error
    # does, tied trials included, and counts the same failures
    layout, schedule = three_block_chain if radius == "chain" else holo[radius]
    runner = harness.TrialRunner(layout, schedule, NoiseModel.depolarizing(layout.n, p))
    chunk = learned_chunk(layout, schedule)
    seen = _recorded(monkeypatch)
    ties = 0
    for start in range(0, chunks * chunk, chunk):
        failures = runner.run_trial(11, round(100 * p), range(start, start + chunk))
        (ex, ez), canonical = seen[-2:]
        want, mantissas = _syndrome_route(runner, ex, ez)
        np.testing.assert_allclose(canonical, mantissas, rtol=1e-12)
        assert np.array_equal(runner.label_bits[decoder.argmax_labels(canonical)], want)
        assert failures == np.count_nonzero(want != runner.code.class_bits(ex, ez))
        tied = mantissas >= mantissas.max(axis=1, keepdims=True) * (1 - TIE_RTOL)
        ties += np.count_nonzero(tied.sum(axis=1) > 1)
    assert len(seen) == 2 * chunks
    if radius in (1, 2):
        assert ties > 0


def test_tied_trials_take_the_earliest_canonical_label(holo, monkeypatch):
    # a radius-1 trial whose error has nonzero class bits and whose own
    # decode ties takes the earliest tied label in canonical order (I, X,
    # Z, Y); the earliest tied column of its own decode is another class in
    # some of those trials
    layout, schedule = holo[1]
    runner = harness.TrialRunner(layout, schedule, NoiseModel.depolarizing(layout.n, 0.18))
    chunk = learned_chunk(layout, schedule)
    seen = _recorded(monkeypatch)
    runner.run_trial(11, 18, range(chunk))
    (ex, ez), canonical = seen
    classes = runner.code.class_bits(ex, ez)
    own = likelihoods_network(layout, schedule, runner.noise, errors=(ex, ez)).mantissas
    tied = own >= own.max(axis=1, keepdims=True) * (1 - TIE_RTOL)
    rows = np.flatnonzero((tied.sum(axis=1) > 1) & (classes != 0))
    assert rows.size
    order = runner.label_bits.tolist()
    decided = decoder.argmax_labels(canonical)
    for row in rows:
        labels = runner.label_bits[tied[row]] ^ classes[row]
        assert decided[row] == min(order.index(bits) for bits in labels)
    naive = runner.label_bits[decoder.argmax_labels(own[rows])] ^ classes[rows]
    assert np.any(naive != runner.label_bits[decided[rows]])
    assert np.array_equal(runner.label_bits[decided], _syndrome_route(runner, ex, ez)[0])


def test_a_pure_error_times_a_logical_is_refused(holo):
    # the own-error route reads class bits 0 off every pure error; a code
    # whose pure error 0 carries a logical X fails validate, and no runner
    # is built on it
    layout, schedule = holo[1]
    code = layout.code
    m = code.n - code.k
    x, z = code.x.copy(), code.z.copy()
    x[m] ^= x[2 * m]
    z[m] ^= z[2 * m]
    bad = StabilizerCode(code.n, code.k, x, z)
    with pytest.raises(ValueError, match="pure error 0 and logical Z 0 must commute"):
        bad.validate()
    with pytest.raises(ValueError, match="every pure error must commute with every logical"):
        harness.TrialRunner(dataclasses.replace(layout, code=bad), schedule,
                            NoiseModel.depolarizing(code.n, 0.18))


@pytest.mark.parametrize("field, value", [
    ("point_index", 1.0), ("seed", "7"), ("seed", True), ("point_index", False),
])
def test_run_point_rejects_seed_fields_that_are_not_integers(holo, field, value):
    layout, schedule = holo[1]
    kwargs = {"seed": 3, "point_index": 0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        run_point(layout, schedule, 0.18, 5, **kwargs)
    if field == "seed":
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_mc(layout, schedule, [0.18], 5, seed=value)


def test_run_point_takes_numpy_integer_seeds(holo):
    layout, schedule = holo[1]
    want = run_point(layout, schedule, 0.18, 600, seed=3, point_index=2)
    got = run_point(layout, schedule, 0.18, 600,
                    seed=np.int64(3), point_index=np.uint32(2))
    assert got == want
    with pytest.raises(ValueError, match="point_index must be nonnegative"):
        run_point(layout, schedule, 0.18, 5, seed=3, point_index=np.int64(-1))


def test_workers_must_be_positive(holo):
    layout, schedule = holo[2]
    with pytest.raises(ValueError):
        run_point(layout, schedule, 0.19, 10, seed=13, workers=0)
    with pytest.raises(ValueError):
        run_mc(layout, schedule, [0.19], 10, seed=13, workers=-1)


def test_runs_need_a_trial_a_code_and_matching_noise(holo):
    layout, schedule = holo[1]
    with pytest.raises(ValueError, match="need at least one trial"):
        run_point(layout, schedule, 0.19, 0, seed=13)
    # a fractional or boolean count would run a rounded number of trials
    # and divide the failures by another
    for trials in (2.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_point(layout, schedule, 0.1, trials, seed=1)
    point = run_point(layout, schedule, 0.19, np.int64(40), seed=13)
    assert type(point.trials) is int and point == run_point(layout, schedule, 0.19, 40,
                                                           seed=13)
    # a fractional worker count failed inside np.linspace, and True ran as
    # one worker
    for workers in (1.5, True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_point(layout, schedule, 0.19, 40, seed=13, workers=workers)
    assert run_point(layout, schedule, 0.19, 40, seed=13, workers=np.int64(1)) == point
    topology = build_layout(1, with_code=False)
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    with pytest.raises(ValueError, match="layout carries no code"):
        harness.TrialRunner(topology, schedule_for(topology), noise)
    with pytest.raises(ValueError, match="noise model size must match the code"):
        harness.TrialRunner(layout, schedule, NoiseModel.depolarizing(layout.n + 1, 0.1))


@pytest.mark.parametrize("layout_radius, schedule_radius", [(2, 3), (3, 2)])
def test_run_point_rejects_a_schedule_from_another_layout(holo, layout_radius,
                                                          schedule_radius):
    layout, _ = holo[layout_radius]
    _, schedule = holo[schedule_radius]
    with pytest.raises(ValueError, match="leaf qubits"):
        run_point(layout, schedule, 0.18, 10, seed=1)


def test_pinned_radius_three_csv(tmp_path, holo):
    # radius 3 has no near-tied classes at these p, so its decisions do
    # not hang on the last ulp of the contraction
    layout, schedule = holo[3]
    points = run_mc(layout, schedule, [0.16, 0.18, 0.20], 200, seed=2026)
    assert [pt.failures for pt in points] == [19, 46, 69]
    path = tmp_path / "r3.csv"
    write_points(str(path), points)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "105de6f0006acb5ff64765c3630034e2d26273ef5642d80be4c4c4cd6987d4df"
    )


@pytest.mark.parametrize("radius, trials, failures, digest", [
    pytest.param(1, 2000, [396, 496, 598],
                 "7e3acb4d077435ca9dd5769dc5189a1ae437f4d1d02490dcb8bc0fd52ce4a734", id="r1"),
    pytest.param(2, 400, [65, 80, 140],
                 "b1552216a29f4be6bea382f8eda64683f9f19ed61f459bb2d0fdaebadd0d9358", id="r2"),
])
def test_pinned_radius_one_and_two_csv(tmp_path, holo, radius, trials,
                                       failures, digest):
    # radii 1 and 2 have many exactly tied classes at these p; the tie
    # rule, not the last ulp of the contraction, settles their decisions
    layout, schedule = holo[radius]
    points = run_mc(layout, schedule, [0.16, 0.18, 0.20], trials, seed=2026)
    assert [pt.failures for pt in points] == failures
    path = tmp_path / f"r{radius}.csv"
    write_points(str(path), points)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _sweep_bytes(tmp_path, layout, schedule, trials, workers=1):
    points = run_mc(layout, schedule, [0.16, 0.18, 0.20], trials, seed=2026,
                    workers=workers)
    path = tmp_path / "sweep.csv"
    write_points(str(path), points)
    return path.read_bytes()


@pytest.mark.parametrize("radius, trials", [(1, 2000), (2, 400), (3, 200), (4, 60)])
def test_csv_bytes_ignore_chunk_size_and_workers(tmp_path, monkeypatch, holo,
                                                 radius, trials):
    # the pinned runs at the learned chunks, then with chunks of 1, 7 and
    # every trial at once, and with chunks of 7 and the learned ones split
    # across two workers (whose copies of the schedule start at one trial)
    layout, schedule = holo[radius]
    want = _sweep_bytes(tmp_path, layout, schedule, trials)
    learned, per_trial = harness.chunk_size(schedule), learned_row_bytes(schedule)
    for chunk, workers in ((1, 1), (7, 1), (trials, 1), (7, 2), (learned, 2)):
        monkeypatch.setattr(harness, "CHUNK_BYTES", chunk * per_trial)
        assert harness.chunk_size(schedule) == chunk
        got = _sweep_bytes(tmp_path, layout, schedule, trials, workers)
        assert got == want, (chunk, workers)


def test_chunk_sizes_follow_the_schedule(holo, holo5_topology):
    # a fresh schedule runs one trial, and the errors= layout that trial
    # learns sizes every later chunk: bytes per row grow with the seed's
    # bond matrices from radius 3 on
    rows, sizes = [], []
    for radius in (1, 2, 3, 4, 5):
        layout = holo5_topology[0] if radius == 5 else holo[radius][0]
        schedule = schedule_for(layout)
        assert harness.chunk_size(schedule) == 1
        if radius == 5:  # no code to sample from; one errors= call alike
            sizes.append(learned_chunk(layout, schedule))
        else:
            run_point(layout, schedule, 0.18, 1, seed=0)
            sizes.append(harness.chunk_size(schedule))
        rows.append(learned_row_bytes(schedule))
    assert rows == [64, 1152, 23040, 286720, 4587520]
    assert sizes == [24576, 1365, 68, 5, 1]


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_full_chunk_memory_stays_near_the_budget(holo, radius):
    # a full chunk's errors= call, as the runner makes it, learns a layout
    # within CHUNK_BYTES, and allocates little beside it
    layout, schedule = holo[radius]
    chunk = learned_chunk(layout, schedule)
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    words = np.random.default_rng(radius).integers(
        0, 2**63, size=(2, chunk, (layout.n + 63) // 64), dtype=np.uint64)
    peak, learned = first_call_memory(layout, noise, errors=tuple(words))
    assert learned <= harness.CHUNK_BYTES
    assert peak < 2 * harness.CHUNK_BYTES


def test_monte_carlo_convergence_rate(holo):
    # the estimate tightens like 1/sqrt(trials) against the exact rate
    layout, schedule = holo[1]
    code = layout.code
    noise = NoiseModel.depolarizing(6, 0.2)

    def chooser(syn):
        return likelihoods_network(layout, schedule, noise, syn).argmax_class()

    exact = exhaustive_failure_rate(code, noise, chooser)
    errs = []
    for trials in (400, 1600, 6400):
        point = run_point(layout, schedule, 0.2, trials, seed=8)
        assert abs(point.failure_rate - exact) <= 5 * point.std_err
        errs.append(point.std_err)
    assert errs[0] > errs[1] > errs[2]
    # each fourfold trial increase halves the standard error
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.1)
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.1)


def test_radius_ordering_flips_across_threshold(holo):
    # well below the crossing the bigger code wins, well above it loses
    sep = {}
    for p in (0.10, 0.30):
        rates = {}
        for r in (2, 4):
            layout, schedule = holo[r]
            rates[r] = run_point(layout, schedule, p, 2000, seed=31)
        gap = rates[2].failure_rate - rates[4].failure_rate
        sigma = math.hypot(rates[2].std_err, rates[4].std_err)
        sep[p] = gap / sigma
    assert sep[0.10] >= 5.0
    assert sep[0.30] <= -5.0


def test_crossing_point_interpolates():
    def mk(radius, n, ps, rates):
        return [
            McPoint(radius, n, p, 100, int(100 * r), r, 0.01)
            for p, r in zip(ps, rates)
        ]

    ps = [0.1, 0.2, 0.3]
    a = mk(3, 174, ps, [0.10, 0.20, 0.30])
    b = mk(4, 834, ps, [0.05, 0.25, 0.45])
    # curves cross where 0.1+x == 0.05+2x within the first interval
    assert crossing_point(a, b) == pytest.approx(0.15)
    with pytest.raises(ValueError):
        crossing_point(a, mk(4, 834, [0.1, 0.2], [0.1, 0.2]))


def test_crossing_point_requires_sign_change():
    def mk(radius, ps, rates):
        return [
            McPoint(radius, 10, p, 100, int(100 * r), r, 0.01)
            for p, r in zip(ps, rates)
        ]

    ps = [0.1, 0.2]
    with pytest.raises(ValueError):
        crossing_point(mk(3, ps, [0.1, 0.2]), mk(4, ps, [0.05, 0.15]))


@pytest.mark.parametrize("rates_b, want", [
    ([0.05, 0.2, 0.45], 0.2),  # equal rates inside the grid
    ([0.05, 0.15, 0.3], 0.3),  # equal only at the grid's end
])
def test_crossing_point_at_an_exact_tie_is_that_grid_p(rates_b, want):
    def mk(radius, rates):
        return [McPoint(radius, 10, p, 100, int(100 * r), r, 0.01)
                for p, r in zip([0.1, 0.2, 0.3], rates)]

    assert crossing_point(mk(3, [0.1, 0.2, 0.3]), mk(4, rates_b)) == want


def synthetic_points(p_th, nu, coeffs, pairs, ps):
    points = []
    for radius, n in pairs:
        for p in ps:
            x = (p - p_th) * n ** (1.0 / nu)
            rate = coeffs[0] + coeffs[1] * x + coeffs[2] * x * x
            points.append(McPoint(radius, n, p, 2000, 0, rate, 0.01))
    return points


def test_fit_threshold_recovers_synthetic_parameters():
    pairs = [(2, 36), (3, 174), (4, 834)]
    ps = [0.14 + 0.005 * i for i in range(21)]
    points = synthetic_points(0.188, 2.970, (0.12, 0.9, 1.4), pairs, ps)
    fit = fit_threshold(points)
    assert fit.p_th == pytest.approx(0.188, abs=2e-3)
    assert fit.nu == pytest.approx(2.970, abs=2e-2)
    assert fit.rss < 1e-6
    assert len(fit.coeffs) == 3


def test_fit_threshold_needs_two_radii():
    ps = [0.1, 0.15, 0.2, 0.25]
    points = synthetic_points(0.18, 3.0, (0.1, 1.0, 1.0), [(2, 36)], ps)
    with pytest.raises(ValueError):
        fit_threshold(points)


def test_fit_threshold_rejects_flat_rates():
    pairs = [(2, 36), (3, 174)]
    ps = [0.1, 0.15, 0.2, 0.25]
    points = [
        McPoint(radius, n, p, 100, 10, 0.1, 0.01)
        for radius, n in pairs
        for p in ps
    ]
    with pytest.raises(ValueError):
        fit_threshold(points)
