"""In-memory spans and call counters around tenqec's public entry points.

The traced run replaces the entry points in ``ENTRY_POINTS`` with wrappers
that record one span per call (name, start, end, parent, a few attributes)
and counts calls to three ``PauliString`` methods.  Nothing in the package
changes on disk, and private helpers are never wrapped, so a refactor that
keeps the public API keeps the trace working.  A missing entry point, or
one that the run never calls, raises ``TraceError`` instead of reporting a
silent zero.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from tenqec import decoder, harness, holographic, pauli, stabilizer, tensor

# Pauli methods whose calls are counted (no span: there are millions).
COUNTED = ("__mul__", "without", "concat")


class TraceError(RuntimeError):
    """An entry point to wrap is missing, or the traced run never called it."""


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    section: str | None
    attrs: dict = field(default_factory=dict)
    end: float = 0.0
    counts_at_start: tuple[int, ...] = ()
    counts: tuple[int, ...] = ()  # counted calls made inside this span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``section`` tags each span with the workload that ran it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts = [0] * len(COUNTED)
        self.calls: dict[str, int] = {}
        self.section: str | None = None
        self.last_decode: dict[int, tuple] = {}  # radius -> (layout, counter, bonds)

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self.stack[-1] if self.stack else None
        sp = Span(name, 0.0, parent, self.section, attrs,
                  counts_at_start=tuple(self.counts))
        self.spans.append(sp)
        self.stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            sp.counts = tuple(
                now - before for now, before in zip(self.counts, sp.counts_at_start)
            )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "section": s.section,
                    "attrs": {k: v for k, v in s.attrs.items()
                              if isinstance(v, (int, float, str, bool))},
                    "counts": dict(zip(COUNTED, s.counts)),
                }) + "\n")


def _radius_of_first(args, kwargs) -> dict:
    return {"radius": args[0].radius}


def _n_of_self(args, kwargs) -> dict:
    return {"n": args[0].n}


def _build_attrs(args, kwargs) -> dict:
    return {"radius": args[0], "with_code": kwargs.get("with_code", True)}


def _trial_attrs(args, kwargs) -> dict:
    return {"radius": args[0].layout.radius}


def _point_attrs(args, kwargs) -> dict:
    return {"radius": args[0].radius, "p": args[2]}


# (span name, owner, attribute, span attributes from the call arguments)
ENTRY_POINTS = (
    ("harness.run_point", harness, "run_point", _point_attrs),
    ("harness.run_trial", harness.TrialRunner, "run_trial", _trial_attrs),
    ("holographic.build_layout", holographic, "build_layout", _build_attrs),
    ("holographic.schedule_for", holographic, "schedule_for", _radius_of_first),
    ("tensor.contract", holographic, "contract", lambda a, k: {}),
    ("stabilizer.canonicalized_on", stabilizer.StabilizerCode,
     "canonicalized_on", _n_of_self),
    ("stabilizer.distinguishes_errors_on", stabilizer.StabilizerCode,
     "distinguishes_errors_on", _n_of_self),
    ("stabilizer.permuted", stabilizer.StabilizerCode, "permuted", _n_of_self),
    ("stabilizer.logical_class", stabilizer.StabilizerCode,
     "logical_class", _n_of_self),
    ("tensor.self_check", tensor.CodeTensor, "self_check",
     lambda a, k: {"n": a[0].code.n}),
)
# likelihoods_network is wrapped in both modules that bind it: the harness
# calls it from TrialRunner, the benchmark calls it through the decoder.
NETWORK_OWNERS = (harness, decoder)


def _lookup(owner, attr: str):
    try:
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (KeyError, AttributeError):
        raise TraceError(
            f"entry point {getattr(owner, '__name__', owner)}.{attr} is missing"
        ) from None


def _spanned(tracer: Tracer, name: str, fn, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        with tracer.span(name, **attrs_of(args, kwargs)):
            return fn(*args, **kwargs)
    return wrapper


def _network(tracer: Tracer, fn):
    name = "decoder.likelihoods_network"

    @functools.wraps(fn)
    def wrapper(layout, schedule, noise, *args, counter=None,
                bond_observer=None, **kwargs):
        tracer.calls[name] += 1
        counter = decoder.OpCounter() if counter is None else counter
        bond_observer = {} if bond_observer is None else bond_observer
        with tracer.span(name, radius=layout.radius) as sp:
            out = fn(layout, schedule, noise, *args, counter=counter,
                     bond_observer=bond_observer, **kwargs)
        sp.attrs["macs"] = counter.total
        tracer.last_decode[layout.radius] = (layout, counter, bond_observer)
        return out
    return wrapper


def _counted(tracer: Tracer, slot: int, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[slot] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Patch every entry point for the duration of the block."""
    saved = []
    try:
        for name, owner, attr, attrs_of in ENTRY_POINTS:
            fn = _lookup(owner, attr)
            saved.append((owner, attr, fn))
            tracer.calls[name] = 0
            setattr(owner, attr, _spanned(tracer, name, fn, attrs_of))
        fn = _lookup(decoder, "likelihoods_network")
        tracer.calls["decoder.likelihoods_network"] = 0
        wrapped = _network(tracer, fn)
        for owner in NETWORK_OWNERS:
            saved.append((owner, "likelihoods_network",
                          _lookup(owner, "likelihoods_network")))
            owner.likelihoods_network = wrapped
        for slot, attr in enumerate(COUNTED):
            fn = _lookup(pauli.PauliString, attr)
            saved.append((pauli.PauliString, attr, fn))
            tracer.calls[f"pauli.{attr}"] = 0
            setattr(pauli.PauliString, attr, _counted(tracer, slot, fn))
        # from_code is a classmethod: wrap the bound method, restore the
        # descriptor.
        name = "tensor.from_code"
        saved.append((tensor.CodeTensor, "from_code",
                      _lookup(tensor.CodeTensor, "from_code")))
        tracer.calls[name] = 0
        setattr(tensor.CodeTensor, "from_code", staticmethod(_spanned(
            tracer, name, tensor.CodeTensor.from_code, _n_of_self)))
        # contract is also called directly, through the tensor module.
        saved.append((tensor, "contract", tensor.contract))
        tensor.contract = holographic.contract
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    for slot, attr in enumerate(COUNTED):
        tracer.calls[f"pauli.{attr}"] = tracer.counts[slot]
    never = sorted(name for name, n in tracer.calls.items() if n == 0)
    if never:
        raise TraceError(f"traced run never called: {', '.join(never)}")
