"""Command-line interface.

Subcommands build codes, decode syndromes, run Monte Carlo sweeps, fit
thresholds from CSV results, and run the built-in verification battery.
Exit codes: 0 on success, 1 on usage errors, 2 when verification fails.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .decoder import NoiseModel, OpCounter, argmax_labels, decode, likelihoods_network
from .harness import (
    TrialRunner,
    fit_threshold,
    read_points,
    read_text,
    run_mc,
    write_points,
)
from .holographic import build_layout, predicted_op_count, schedule_for
from .oracle import ExhaustiveDecoder, exhaustive_contract
from .pauli import PauliString, pack
from .stabilizer import (
    Syndrome,
    code_to_json_dict,
    six_qubit_code,
    seven_qubit_state,
)
from .tensor import CodeTensor, LegBinding, contract


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


# the built-in small codes: the --builtin choices and their constructors
BUILTINS = {"six_qubit": six_qubit_code, "seven_qubit_state": seven_qubit_state}


def _layout_sidecar(layout) -> dict:
    return {
        "radius": layout.radius,
        "n": layout.n,
        "boundary": [[name, leg] for name, leg in layout.boundary],
        "nodes": {
            name: {
                "kind": node.kind,
                "layer": node.layer,
                "in_links": [list(link) for link in node.in_links],
                "children": [list(link) for link in node.children],
                "leaf_legs": list(node.leaf_legs),
            }
            for name, node in layout.nodes.items()
        },
    }


def _write_json(payload: dict, path: str | None) -> None:
    """Write ``payload`` as indented JSON to ``path``, or to stdout."""
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    else:
        json.dump(payload, sys.stdout, indent=1)
        print()


def _cmd_build_code(args) -> int:
    if args.holographic:
        layout = build_layout(2 if args.radius is None else args.radius)
        _write_json(code_to_json_dict(layout.code), args.out)
        if args.out:
            sidecar = os.path.splitext(args.out)[0] + ".layout.json"
            _write_json(_layout_sidecar(layout), sidecar)
        return 0
    if args.radius is not None:
        raise ValueError("--radius applies only to --holographic")
    _write_json(code_to_json_dict(BUILTINS[args.builtin]()), args.out)
    return 0


def _parse_syndrome(text: str, length: int) -> Syndrome:
    if set(text) <= {"+", "-"} and text:
        if len(text) != length:
            raise ValueError(
                f"syndrome has {len(text)} signs but the code expects {length}"
            )
        return Syndrome.from_text(text)
    bits = int(text, 0)
    if bits < 0 or bits >> length:
        raise ValueError(f"syndrome value {text} out of range for {length} bits")
    return Syndrome(length, bits)


def _cmd_decode(args) -> int:
    layout = build_layout(args.radius)
    code = layout.code
    syndrome = _parse_syndrome(args.syndrome, code.n - code.k)
    noise = NoiseModel.depolarizing(code.n, args.p)
    schedule = schedule_for(layout)
    result = decode(layout, schedule, noise, syndrome)
    table = result.table
    print(f"syndrome: {syndrome.to_text()}")
    print(f"log_scale: {table.log_scale!r}")
    for label, share in table.normalized().items():
        name = label.to_text() if not label.is_identity() else "I"
        print(f"class {name}: {share!r}")
    print(f"argmax: {result.label.to_text()}")
    print(f"correction: {result.correction.to_text()}")
    return 0


CONFIG_KEYS = ("radius", "p", "trials", "seed", "workers", "out")


def _read_config(path: str) -> dict[str, tuple[str, str]]:
    """Config values by key, each with the file and line it came from."""
    out = {}
    for number, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        where = f"{path}: line {number}"
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{where}: bad config line: {line}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"{where}: key {key!r} repeats {out[key][1]}")
        out[key] = (value, where)
    return out


def _p_list(text: str) -> list[float]:
    ps = [float(tok) for tok in text.split(",") if tok]
    if not ps:
        raise ValueError("no p values")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{p!r} outside [0, 1]")
    return ps


def _at_least(low: int):
    """A parser of ints no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{value} is below {low}")
        return value
    return parse


def _cmd_mc_run(args) -> int:
    settings = _read_config(args.config) if args.config else {}
    for key in CONFIG_KEYS:  # flags win over the config file
        if getattr(args, key) is not None:
            settings[key] = (str(getattr(args, key)), f"--{key}")

    def setting(key: str, parse, default):
        """The parsed value of ``key``; a bad one names its flag or line."""
        if key not in settings:
            return default
        text, where = settings[key]
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"{where}: bad {key} value: {exc}") from None

    radius = setting("radius", _at_least(1), None)
    if radius is None:
        raise ValueError("a radius of at least 1 is required (flag or config)")
    ps = setting("p", _p_list, None)
    if ps is None:
        raise ValueError("a comma-separated p list is required (flag or config)")
    trials = setting("trials", _at_least(1), None)
    if trials is None:
        raise ValueError("a positive trial count is required (flag or config)")
    seed = setting("seed", _at_least(0), 0)
    workers = setting("workers", _at_least(1), 1)
    out = setting("out", str, None)

    layout = build_layout(radius)
    schedule = schedule_for(layout)
    points = run_mc(layout, schedule, ps, trials, seed=seed, workers=workers)
    if out:
        write_points(out, points)
        print(f"wrote {out}")
    for pt in points:
        print(
            f"radius {pt.radius} n {pt.n} p {pt.p!r}: "
            f"{pt.failures}/{pt.trials} failed "
            f"(rate {pt.failure_rate!r} +- {pt.std_err!r})"
        )
    return 0


def _cmd_fit_threshold(args) -> int:
    points = []
    for path in args.csv:
        points.extend(read_points(path))
    fit = fit_threshold(points)
    payload = {
        "p_th": fit.p_th,
        "nu": fit.nu,
        "coeffs": list(fit.coeffs),
        "rss": fit.rss,
    }
    _write_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        status = "ok" if ok else "FAIL"
        line = f"{status:4s} {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures.append(name)

    code = six_qubit_code()
    tensor = CodeTensor.from_code(code)
    report = tensor.self_check()
    check("six-qubit class listings", report.passed,
          "; ".join(report.violations[:3]))

    layout = build_layout(1)
    schedule = schedule_for(layout)
    noise = NoiseModel.depolarizing(6, 0.1)
    oracle = ExhaustiveDecoder(code)
    worst = 0.0
    for bits in range(32):
        syndrome = Syndrome(5, bits)
        net = likelihoods_network(layout, schedule, noise, syndrome)
        ref = oracle.likelihoods(noise, syndrome)
        for label in net.labels:
            got = net.absolute(label)
            want = ref.absolute(label)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    check("network likelihoods match enumeration", worst <= 1e-10,
          f"worst relative error {worst:.3e}")

    # all 4^6 errors, each decoded against itself in canonical label order,
    # against the decodes of their syndromes' pure errors
    runner = TrialRunner(layout, schedule, noise)
    ex, ez = pack([PauliString.from_key(6, key) for key in range(4 ** 6)], 6)
    own, _ = runner.canonical(ex, ez)
    ref = likelihoods_network(layout, schedule, noise,
                              errors=code.pure_error_rows(code.syndromes(ex, ez)))
    gap = float(abs(own / ref.mantissas - 1).max())
    same = bool((argmax_labels(own) == argmax_labels(ref.mantissas)).all())
    check("own-error decodes match pure-error decodes", gap <= 1e-12 and same,
          f"worst relative gap {gap:.3e}, decisions {'equal' if same else 'differ'}")

    t0 = CodeTensor.from_code(seven_qubit_state())
    binding = LegBinding((5,), (0,))
    built = contract(tensor, t0, binding)
    ref = exhaustive_contract(code, seven_qubit_state(), binding)
    same = built.class_tables == ref.classes
    check("contraction matches brute-force sum", same)

    r2 = build_layout(2)
    observed: dict[str, tuple[int, int]] = {}
    sched2 = schedule_for(r2)
    noise2 = NoiseModel.depolarizing(r2.n, 0.1)
    counter = OpCounter()
    likelihoods_network(r2, sched2, noise2, leaves=noise2.probs,
                        counter=counter, bond_observer=observed)
    bonds_ok = all(dims == (1, 1) for dims in observed.values())
    bound = predicted_op_count(r2)
    check("radius-2 bond dims and work bound",
          bonds_ok and counter.total <= bound,
          f"bonds {observed}, {counter.total} > {bound}")

    if failures:
        print(f"{len(failures)} verification check(s) failed")
        return 2
    print("all verification checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="tenqec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-code", help="emit a code as JSON")
    source = p_build.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", choices=BUILTINS,
                        help="one of the built-in small codes")
    source.add_argument("--holographic", action="store_true",
                        help="build the nested-ring code instead")
    p_build.add_argument("--radius", type=int,
                         help="nested-ring radius for --holographic (default 2)")
    p_build.add_argument("--out", help="output JSON path (default stdout)")
    p_build.set_defaults(func=_cmd_build_code)

    p_dec = sub.add_parser("decode", help="decode one syndrome")
    p_dec.add_argument("--radius", type=int, default=2,
                       help="nested-ring radius (1 is the six-qubit code)")
    p_dec.add_argument("--syndrome", required=True,
                       help="sign string like '+-+..' or an integer")
    p_dec.add_argument("--p", type=float, required=True,
                       help="depolarizing strength")
    p_dec.set_defaults(func=_cmd_decode)

    p_mc = sub.add_parser("mc-run", help="Monte Carlo failure-rate sweep")
    p_mc.add_argument("--radius", type=int)
    p_mc.add_argument("--p", help="comma-separated depolarizing strengths")
    p_mc.add_argument("--trials", type=int)
    p_mc.add_argument("--seed", type=int)
    p_mc.add_argument("--workers", type=int)
    p_mc.add_argument("--out", help="CSV output path")
    p_mc.add_argument("--config", help="key=value file; flags win")
    p_mc.set_defaults(func=_cmd_mc_run)

    p_fit = sub.add_parser("fit-threshold", help="fit a threshold from CSVs")
    p_fit.add_argument("csv", nargs="+", help="CSV files from mc-run")
    p_fit.add_argument("--out", help="JSON output path (default stdout)")
    p_fit.set_defaults(func=_cmd_fit_threshold)

    p_ver = sub.add_parser("verify", help="run built-in cross-checks")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
