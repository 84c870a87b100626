"""Command-line interface, exercised through main() with argv lists."""

import json

import numpy as np
import pytest

from tenqec import harness, read_points
from tenqec.cli import main

# `tenqec decode` output, recorded from the network decoder at radius 1
# byte for byte: the seed's slot sums there are numpy reductions, with no
# BLAS call, so no kernel may move a printed digit
DECODE_R1 = {
    0: (
        "syndrome: +++++\n"
        "log_scale: -0.6307705006910436\n"
        "class I: 0.9987371378353507\n"
        "class X: 0.0004209540548831824\n"
        "class Z: 0.0004209540548831824\n"
        "class Y: 0.0004209540548831824\n"
        "argmax: I\n"
        "correction: IIIIII\n"
    ),
    2: (
        "syndrome: +-+++\n"
        "log_scale: -3.922001846975806\n"
        "class I: 0.8302584452060089\n"
        "class X: 0.03771032492463088\n"
        "class Z: 0.09432090494472932\n"
        "class Y: 0.03771032492463088\n"
        "argmax: I\n"
        "correction: ZIZIZI\n"
    ),
    19: (
        "syndrome: --++-\n"
        "log_scale: -7.073277179764645\n"
        "class I: 0.24999999999999997\n"
        "class X: 0.25\n"
        "class Z: 0.24999999999999997\n"
        "class Y: 0.24999999999999994\n"
        "argmax: I\n"
        "correction: ZZXYYX\n"
    ),
}

# at radii 2 and 3 the seed's trace and the GEMMs may reach BLAS: the
# decision and correction exactly, each class share to 1e-12 relative
# (radius, syndrome, p, shares of I, X, Z, Y, argmax, correction)
DECODE_DECISIONS = [
    (2, 25894380271, 0.1,
     (0.048566053305029215, 0.1043399855924037, 0.8139645065629053, 0.03312945453966173),
     "Z", "XYYIZIXXXXIIXXXXIXXYYIZXIXYIXIXIZIYI"),
    (2, 33800, 0.05,
     (0.9131229537887365, 0.01865206863027588, 0.06629645929142973, 0.0019285182895578527),
     "I", "IXYXYIIIIIIXIXYXYXIIIIIIIIIIIIIXYXYI"),
    (3, 1133871628288, 0.05,
     (1.0, 5.107164520337327e-19, 9.262629504983855e-23, 1.9752869156190258e-22),
     "I", ("IXIIIIYXYXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"
      "IIIIIZZXIIXXYZIIXXYZIIIZZXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"
      "IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII")),
    (3, 20654293155783277431577156696389697986062680353052, 0.01,
     (0.48866592678776577, 0.009200157249219213, 0.24855251366463824, 0.25358140229837683),
     "I", ("IXZZXXXYYXXIIZXXIXIIIIXXXXYZIXXXIZXYYXIIXZZXZIIIIIIIIYXXYIII"
      "ZZXXZZXZXXXXXIIXIZIYXIYXXYIXIIIIIXYZYIIZZXZIIXXZIIIXYYXIIIII"
      "IXYYZIXXIZYYXIIZIYIIYYYZXXIYYXXXXYZIXIZIYIIXYXYXIIIIII")),
]


def test_build_code_builtin(tmp_path, capsys):
    out = tmp_path / "six.json"
    assert main(["build-code", "--builtin", "six_qubit", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 6 and data["k"] == 1
    assert data["stabilizers"][0] == "ZIZIII"
    capsys.readouterr()
    # without --out the same JSON goes to stdout
    assert main(["build-code", "--builtin", "six_qubit"]) == 0
    assert json.loads(capsys.readouterr().out) == data


def test_build_code_holographic_with_sidecar(tmp_path):
    out = tmp_path / "r2.json"
    assert main(
        ["build-code", "--holographic", "--radius", "2", "--out", str(out)]
    ) == 0
    code = json.loads(out.read_text())
    assert code["n"] == 36
    sidecar = json.loads((tmp_path / "r2.layout.json").read_text())
    assert sidecar["radius"] == 2
    assert len(sidecar["boundary"]) == 36
    assert len(sidecar["nodes"]) == 7


def test_build_code_sidecar_beside_a_dotted_directory(tmp_path, monkeypatch):
    # the sidecar takes the extension off the file name, never the directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.d").mkdir()
    assert main(["build-code", "--holographic", "--out", "out.d/code"]) == 0
    sidecar = json.loads((tmp_path / "out.d" / "code.layout.json").read_text())
    assert sidecar["radius"] == 2
    assert not (tmp_path / "out.layout.json").exists()


def test_build_code_builtin_rejects_radius(capsys):
    argv = ["build-code", "--builtin", "six_qubit", "--radius", "7"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "--radius" in captured.err
    assert captured.out == ""


def test_build_code_needs_a_source(capsys):
    with pytest.raises(SystemExit) as info:
        main(["build-code"])
    assert info.value.code == 1


def test_build_code_takes_one_source(capsys):
    argv = ["build-code", "--builtin", "six_qubit", "--holographic", "--radius", "2"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert "not allowed with" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_decode_prints_table(capsys):
    code = main(
        ["decode", "--radius", "1", "--syndrome", "+-+++", "--p", "0.1"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "argmax" in text
    assert "correction" in text
    # a leading minus sign needs the equals spelling
    assert main(
        ["decode", "--radius", "1", "--syndrome=-++++", "--p", "0.1"]
    ) == 0


def test_decode_holographic(capsys):
    assert main(
        ["decode", "--radius", "2", "--syndrome", "1", "--p", "0.15"]
    ) == 0
    text = capsys.readouterr().out
    assert "class I" in text


def test_decode_defaults_to_radius_two(capsys):
    assert main(["decode", "--syndrome", "1", "--p", "0.1"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("syndrome: -" + "+" * 34 + "\n")


def test_decode_rejects_wrong_syndrome_length(capsys):
    assert main(
        ["decode", "--radius", "1", "--syndrome", "++", "--p", "0.1"]
    ) == 1
    assert capsys.readouterr().err.startswith("error: syndrome has 2 signs")
    # an integer syndrome must fit the code's n - k = 5 bits
    for value in ("32", "-1"):
        assert main(["decode", "--radius", "1", f"--syndrome={value}", "--p", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: syndrome value {value} out of range for 5 bits")


@pytest.mark.parametrize("syndrome", sorted(DECODE_R1))
def test_decode_output_is_pinned_at_radius_one(capsys, syndrome):
    assert main(["decode", "--radius", "1", "--syndrome", str(syndrome), "--p", "0.1"]) == 0
    assert capsys.readouterr().out == DECODE_R1[syndrome]


@pytest.mark.parametrize("radius, syndrome, p, shares, label, correction", DECODE_DECISIONS,
                         ids=[f"r{case[0]}-p{case[2]}" for case in DECODE_DECISIONS])
def test_decode_decision_is_pinned(capsys, radius, syndrome, p, shares, label, correction):
    argv = ["decode", "--radius", str(radius), "--syndrome", str(syndrome), "--p", str(p)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [f"argmax: {label}", f"correction: {correction}"]
    names, values = zip(*(line.split(": ") for line in lines[2:6]))
    assert names == ("class I", "class X", "class Z", "class Y")
    np.testing.assert_allclose([float(v) for v in values], shares, rtol=1e-12, atol=0)


def test_mc_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(
        ["mc-run", "--radius", "2", "--p", "0.16,0.2", "--trials", "50",
         "--seed", "7", "--out", str(out)]
    ) == 0
    points = read_points(str(out))
    assert [pt.p for pt in points] == [0.16, 0.2]
    assert all(pt.trials == 50 for pt in points)


def test_mc_run_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius=2\np=0.18\ntrials=40\nseed=3\n")
    out = tmp_path / "mc.csv"
    assert main(
        ["mc-run", "--config", str(cfg), "--trials", "25", "--out", str(out)]
    ) == 0
    points = read_points(str(out))
    assert len(points) == 1
    assert points[0].trials == 25  # the flag wins over the config value
    assert points[0].p == 0.18


def test_mc_run_config_skips_blank_and_comment_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a radius-1 point\n\nradius=1\n  \np=0.1\n  # trials next\ntrials=4\n")
    assert main(["mc-run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("radius 1 n 6 p 0.1: ")
    cfg.write_text("radius=1\n\np 0.1\n")
    assert main(["mc-run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: line 3: bad config line: p 0.1")


@pytest.mark.parametrize("flags, message", [
    (["--p", "0.1", "--trials", "2"], "a radius of at least 1 is required"),
    (["--radius", "1", "--trials", "2"], "a comma-separated p list is required"),
    (["--radius", "1", "--p", "0.1"], "a positive trial count is required"),
], ids=["radius", "p", "trials"])
def test_mc_run_names_a_missing_setting(capsys, flags, message):
    assert main(["mc-run"] + flags) == 1
    assert capsys.readouterr().err.startswith(f"error: {message} (flag or config)")


def test_mc_run_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius=1\np=0.1\ntrials=5\nsead=5\n")
    assert main(["mc-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 4: unknown key 'sead'")


def test_mc_run_config_rejects_repeated_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius=1\np=0.1\ntrials=5\ntrials=7\n")
    assert main(["mc-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 4: key 'trials' repeats {cfg}: line 3")


def test_mc_run_config_names_a_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=0.1\nradius=abc\ntrials=5\n")
    assert main(["mc-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 2: bad radius value: invalid literal")


def test_mc_run_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"radius=1\np=0.1\ntrials=\xff\n")
    assert main(["mc-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 3: not UTF-8")


@pytest.mark.parametrize("p, message", [
    (",", "error: --p: bad p value: no p values"),
    ("0.1,abc", "error: --p: bad p value: could not convert"),
])
def test_mc_run_names_a_bad_flag_value(capsys, p, message):
    assert main(["mc-run", "--radius", "1", "--p", p, "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "failed" not in captured.out  # nothing ran


@pytest.mark.parametrize("flags, message", [
    (["--p", "0.1", "--p", "1.5"], "error: --p: bad p value: 1.5 outside [0, 1]"),
    (["--p", "0.1", "--workers", "0"], "error: --workers: bad workers value: 0 is below 1"),
    (["--p", "0.1", "--seed", "-1"], "error: --seed: bad seed value: -1 is below 0"),
], ids=["p", "workers", "seed"])
def test_mc_run_names_the_flag_of_an_out_of_range_value(capsys, flags, message):
    assert main(["mc-run", "--radius", "1", "--trials", "2"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "failed" not in captured.out  # nothing ran


def test_mc_run_names_the_config_line_of_an_out_of_range_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius=1\np=0.1\ntrials=2\nworkers=0\n")
    assert main(["mc-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 4: bad workers value: 0 is below 1")


def test_fit_threshold_from_csv(tmp_path, capsys):
    # synthetic curves with a known collapse; the fit must find it.  The
    # rates stay within [0.005, 0.952], since read_points rejects a
    # failure_rate outside [0, 1]
    from tenqec import McPoint, write_points

    rows = []
    for radius, n in ((2, 36), (3, 174), (4, 834)):
        for i in range(21):
            p = 0.14 + 0.005 * i
            x = (p - 0.188) * n ** (1 / 2.97)
            rows.append(
                McPoint(radius, n, p, 2000, 0, 0.15 + 0.9 * x + 1.4 * x * x, 0.01)
            )
    path = tmp_path / "synth.csv"
    write_points(str(path), rows)
    out = tmp_path / "fit.json"
    assert main(["fit-threshold", str(path), "--out", str(out)]) == 0
    fit = json.loads(out.read_text())
    assert fit["p_th"] == pytest.approx(0.188, abs=2e-3)
    assert fit["nu"] == pytest.approx(2.97, abs=2e-2)
    assert len(fit["coeffs"]) == 3
    capsys.readouterr()
    # without --out the same JSON goes to stdout
    assert main(["fit-threshold", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == fit


def test_fit_threshold_single_radius_fails(tmp_path, capsys):
    from tenqec import McPoint, write_points

    rows = [McPoint(2, 36, 0.1 + 0.02 * i, 100, i, 0.01 * i, 0.01)
            for i in range(5)]
    path = tmp_path / "one.csv"
    write_points(str(path), rows)
    assert main(["fit-threshold", str(path)]) == 1


def test_fit_threshold_names_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["fit-threshold", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 1: not UTF-8")


def test_missing_file_is_reported(capsys):
    assert main(["fit-threshold", "/nonexistent.csv"]) == 1


@pytest.mark.parametrize("text", [
    "",
    "radius,n,p,trials,failures,failure_rate,std_err\n2,36,0.18\n",
    "radius,n,p,trials,failures,failure_rate,std_err\n2,36,x,100,7,0.07,0.02\n",
    "radius,n,p,trials,failures,failure_rate,std_err\n2,36,0.18,100,700,7.0,0.0\n",
    "radius,n,p,trials,failures,failure_rate,std_err\n3,174,nan,0,0,0.9,0.0\n",
    "radius,n,p,trials,failures,failure_rate,std_err\n2,36,1.5,100,7,0.07,0.02\n",
    "radius,n,p,trials,failures,failure_rate,std_err\n2,36,0.18,0,0,0.0,0.0\n",
], ids=["empty", "short-row", "bad-field", "failures-over-trials", "nan-p",
        "p-above-one", "no-trials"])
def test_fit_threshold_reports_bad_csv(tmp_path, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["fit-threshold", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line ")
    assert "Traceback" not in err


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    text = capsys.readouterr().out
    assert text.count("ok") >= 5
    # the exhaustive radius-1 check of the Monte Carlo runner's own-error route
    assert "ok   own-error decodes match pure-error decodes\n" in text


def test_verify_fails_on_own_error_columns_left_in_place(capsys, monkeypatch):
    # deciding on an error's own columns, unpermuted, is what the check catches
    init = harness.TrialRunner.__init__

    def unpermuted(self, *args):
        init(self, *args)
        self.cols = np.broadcast_to(np.arange(self.cols.shape[1]), self.cols.shape)

    monkeypatch.setattr(harness.TrialRunner, "__init__", unpermuted)
    assert main(["verify"]) == 2
    assert ("FAIL own-error decodes match pure-error decodes (worst relative gap"
            in capsys.readouterr().out)
