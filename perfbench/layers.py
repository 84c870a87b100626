"""Per-layer metrics from the spans of one traced run.

Each metric reads spans of one workload section (see spans.Tracer.section).
Self time is a span's duration minus the durations of its direct children.
MAC counts come from the OpCounter the trace passes to every
likelihoods_network call; message sizes are computed from the bond
dimensions that bond_observer reports, as 8 bytes per float64 entry.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tenqec import holographic

SWEEP, DEEP, BUILD = "threshold-sweep", "decode-deep", "code-build"
MAC_CATEGORIES = ("leaf", "matmul", "combine", "trace")


def _median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no spans to take a median of")
    return float(statistics.median(values))


class _Index:
    def __init__(self, tracer) -> None:
        self.spans = tracer.spans
        self.kids: dict[int | None, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            self.kids[s.parent].append(i)

    def select(self, name: str, section: str, **attrs) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name and s.section == section
            and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def children(self, i: int, name: str | None = None) -> list[int]:
        return [c for c in self.kids[i] if name is None or self.spans[c].name == name]

    def within(self, i: int, name: str) -> list[int]:
        out, todo = [], list(self.kids[i])
        while todo:
            c = todo.pop()
            if self.spans[c].name == name:
                out.append(c)
            todo.extend(self.kids[c])
        return out

    def secs(self, i: int) -> float:
        return self.spans[i].seconds

    def self_secs(self, i: int) -> float:
        return self.secs(i) - sum(self.secs(c) for c in self.kids[i])


def mac_totals(tracer) -> dict[int, set[int]]:
    """Every distinct MAC total seen per radius; exact counts repeat."""
    seen: dict[int, set[int]] = defaultdict(set)
    for s in tracer.spans:
        if s.name == "decoder.likelihoods_network":
            seen[s.attrs["radius"]].add(s.attrs["macs"])
    return seen


def per_layer(tracer, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, by name."""
    ix = _Index(tracer)
    m: dict[str, float] = {}

    for r in (1, 2, 3, 4):
        trials = ix.select("harness.run_trial", SWEEP, radius=r)
        decodes = [c for t in trials for c in ix.children(t, "decoder.likelihoods_network")]
        m[f"harness.trial_ms.r{r}"] = 1e3 * sum(map(ix.secs, trials)) / len(trials)
        m[f"harness.trial_self_ms.r{r}"] = (
            1e3 * sum(map(ix.self_secs, trials)) / len(trials))
        m[f"harness.decode_calls_per_trial.r{r}"] = len(decodes) / len(trials)

    for r in (1, 2, 3, 4, 5):
        section = DEEP if r == 5 else SWEEP
        calls = ix.select("decoder.likelihoods_network", section, radius=r)
        m[f"decoder.likelihoods_network_ms.r{r}"] = 1e3 * _median(map(ix.secs, calls))

    totals = mac_totals(tracer)
    for r in (2, 3, 4, 5):
        layout = tracer.last_decode[r][0]
        m[f"decoder.macs_total.r{r}"] = max(totals[r])
        m[f"decoder.macs_over_bound.r{r}"] = (
            max(totals[r]) / holographic.predicted_op_count(layout))
    for r in (4, 5):
        counter = tracer.last_decode[r][1]
        for c in MAC_CATEGORIES:
            m[f"decoder.macs.{c}.r{r}"] = counter.by_category.get(c, 0)
    layout, counter, bonds = tracer.last_decode[5]
    for layer in range(5):
        m[f"decoder.macs.layer{layer}"] = sum(
            v for node, v in counter.by_node.items()
            if layout.nodes[node].layer == layer)
    m["decoder.gmacs_per_s.r5"] = (
        m["decoder.macs_total.r5"] / (m["decoder.likelihoods_network_ms.r5"] * 1e6))
    for layer in range(1, 5):
        m[f"decoder.msg_bytes.layer{layer}"] = sum(
            8 * 4 ** len(layout.nodes[node].in_links) * d_l * d_r
            for node, (d_l, d_r) in bonds.items()
            if layout.nodes[node].layer == layer)

    def builds(r: int, section: str, with_code: bool) -> list[int]:
        return ix.select("holographic.build_layout", section,
                         radius=r, with_code=with_code)

    for r in (3, 4, 5):
        section = DEEP if r == 5 else BUILD
        m[f"holographic.build_layout_topology_s.r{r}"] = _median(
            map(ix.secs, builds(r, section, False)))
    for r, section in ((4, SWEEP), (5, DEEP)):
        m[f"holographic.schedule_for_s.r{r}"] = _median(
            map(ix.secs, ix.select("holographic.schedule_for", section, radius=r)))
    for r in (3, 4):
        full = builds(r, BUILD, True)
        m[f"holographic.assembly_self_s.r{r}"] = _median(map(ix.self_secs, full))
        per_build = [ix.children(b, "tensor.contract") for b in full]
        m[f"tensor.contract_calls.r{r}"] = _median(map(len, per_build))
        m[f"tensor.contract_s.r{r}"] = _median(
            sum(map(ix.secs, calls)) for calls in per_build)

    r4 = builds(4, BUILD, True)[-1]
    contracts = ix.children(r4, "tensor.contract")
    decile = max(1, len(contracts) // 10)
    m["tensor.contract_s.first_decile.r4"] = sum(map(ix.secs, contracts[:decile]))
    m["tensor.contract_s.last_decile.r4"] = sum(map(ix.secs, contracts[-decile:]))
    for name in ("canonicalized_on", "distinguishes_errors_on", "permuted"):
        m[f"stabilizer.{name}_s.r4"] = sum(
            map(ix.secs, ix.within(r4, f"stabilizer.{name}")))
    for slot, name in enumerate(("mul", "without", "concat")):
        m[f"pauli.{name}_calls.r4"] = tracer.spans[r4].counts[slot]

    top = set(ix.kids[None])
    m["tensor.from_code_s.11q"] = _median(
        ix.secs(i) for i in ix.select("tensor.from_code", BUILD, n=11) if i in top)
    check = ix.select("tensor.self_check", BUILD, n=11)[-1]
    m["stabilizer.logical_class_s.self_check"] = sum(
        map(ix.secs, ix.within(check, "stabilizer.logical_class")))
    m["pauli.mul_calls.self_check"] = tracer.spans[check].counts[0]
    m["benchmark.trace_overhead_s"] = overhead_s
    return m
