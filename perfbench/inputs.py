"""Seeded inputs for the fibrephi benchmark.

Every request gets its own diagonal rescaling ``v -> c_v * v`` of all
variables, with ``c_v = (a/b)^2`` for ``1 <= b < a <= 5``.  The rescaling is
an automorphism of the ambient affine space, so

* every verdict in the source's ``expect`` block still holds;
* reduced Groebner bases keep their leading monomials, so the Groebner work
  is combinatorially the same for every seed;
* requests seldom share an input ideal, so a cache kept across requests
  gains little from repeated inputs.

The factors are squares, so the sampling oracle finds a rational square root
exactly where it would on the unscaled input.  They are all above 1, so no
product of them is 1 and a scaled generator never equals the monic form of
another.  Both keep every count of ``tracing.py`` the same for every seed.

This module imports nothing from fibrephi: the inputs are plain setup-file
text, as a user would write them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

WORKLOADS = ("corpus", "powers", "deep-power")

_POLY_KEYS = ("ambient_target_ideal", "target_ideal", "source_ideal")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Request:
    """One user command: ``analyze FILE --max-power P`` or ``verify-power FILE --i P``."""

    label: str
    command: str
    power: int
    text: str
    expect: dict[str, str]

    def argv(self, setup_path: str, json_path: str) -> list[str]:
        flag = "--max-power" if self.command == "analyze" else "--i"
        return [self.command, setup_path, flag, str(self.power), "--json", json_path]


def _body(line: str) -> str:
    cut = line.find("#")
    return (line if cut < 0 else line[:cut]).rstrip()


def parse_expect(text: str) -> dict[str, str]:
    """The indented ``expect:`` block of a setup file, as ``key -> value`` text."""
    expect: dict[str, str] = {}
    inside = False
    for raw in text.splitlines():
        line = _body(raw)
        if not line.strip():
            continue
        if inside and line[0].isspace():
            key, _, value = line.strip().partition(":")
            expect[key.strip()] = value.strip()
            continue
        inside = line.strip() == "expect:"
    return expect


def required_power(expect: dict[str, str]) -> int:
    """Largest fibred power an expect block lists, 0 when it lists none."""
    if "fibred_powers" not in expect:
        return 0
    return max(int(chunk.partition(":")[0]) for chunk in expect["fibred_powers"].split(","))


_FACTORS = sorted({Fraction(a, b) ** 2 for a in range(2, 6) for b in range(1, a)})


def _scale(rng: Random) -> str:
    return str(rng.choice(_FACTORS))


def rescale(text: str, rng: Random) -> str:
    """Setup text with every variable ``v`` replaced by ``(c_v*v)``.

    Comments are dropped; every other line, the expect block included, is
    kept as it is.
    """
    names: list[str] = []
    for raw in text.splitlines():
        key, _, value = _body(raw).partition(":")
        if key.strip() in ("vars_target", "vars_source"):
            names += value.replace(",", " ").split()
    scale = {name: _scale(rng) for name in names}

    def substitute(match: re.Match) -> str:
        name = match.group(0)
        return f"({scale[name]}*{name})" if name in scale else name

    out = []
    for raw in text.splitlines():
        line = _body(raw)
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if key.strip() in _POLY_KEYS and not line[0].isspace():
            line = f"{key}{sep} {_NAME.sub(substitute, value.strip())}"
        out.append(line)
    return "\n".join(out) + "\n"


def cyclic_text(n: int, l: int, max_power: int) -> str:
    """The cyclic-forms instance (n, l) with the expect block its formula gives.

    ``g1 = y1*x1 + ... + yl*xl + x_{n+1}^2`` and ``g2 = y2*x1 + ... + yl*x_{l-1}
    + y1*xl`` over ``Y = C^n``.  Fibres have dimension n-1 and jump to n over
    the codimension-l locus ``y1 = ... = yl = 0``, the source is a complete
    intersection of dimension 2n-1, and phi = l-1: fibred powers 1..l-1 have
    no vertical component and power l has one.
    """
    ys = [f"y{i}" for i in range(1, n + 1)]
    xs = [f"x{i}" for i in range(1, n + 2)]
    g1 = " + ".join(f"{ys[i]}*{xs[i]}" for i in range(l)) + f" + {xs[n]}^2"
    g2 = " + ".join(f"{ys[(i + 1) % l]}*{xs[i]}" for i in range(l))
    powers = ", ".join(f"{i}:{'true' if i == l else 'false'}" for i in range(1, max_power + 1))
    lines = [
        f"vars_target: {' '.join(ys)}",
        f"vars_source: {' '.join(xs)}",
        "ambient_target_ideal: 0",
        "target_equals_ambient: true",
        f"source_ideal: {g1}, {g2}",
        "assert_target_locally_irreducible: true",
        "assert_target_pure_dimensional: true",
        "expect:",
        "  pure: true",
        f"  pure_dim: {2 * n - 1}",
        f"  strata: {n - 1}:{n}, {n}:{n - l}",
        f"  lambda: {n - 1}",
        f"  vertical: {'true' if l == 1 else 'false'}",
        f"  phi_upper: {l - 1}",
        f"  phi_lower: {l - 1}",
        f"  phi_exact: {l - 1}",
        "  exactness_tag: smooth-target",
    ]
    if max_power:
        lines.append(f"  fibred_powers: {powers}")
    return "\n".join(lines) + "\n"


def _analyze(label: str, text: str, power: int, rng: Random) -> Request:
    scaled = rescale(text, rng)
    return Request(label, "analyze", power, scaled, parse_expect(scaled))


def workload_pass(workload: str, seed: int, index: int) -> list[Request]:
    """Requests of pass ``index`` of a workload; the same arguments give the same text."""
    rng = Random(f"{workload}:{seed}:{index}")
    if workload == "corpus":
        requests = []
        for path in sorted(FIXTURES.glob("*.setup")):
            text = path.read_text(encoding="utf-8")
            requests.append(_analyze(path.stem, text, required_power(parse_expect(text)), rng))
        if not requests:
            raise FileNotFoundError(f"no *.setup fixtures under {FIXTURES}")
        return requests
    if workload == "powers":
        # (4, 4) stops at power 2: its power 3 takes minutes.  An odd count of
        # requests puts the median latency inside one instance's samples, not
        # on the edge between two; the quadric cone's power scan is in corpus.
        return [
            _analyze("cyclic_n3_l3", cyclic_text(3, 3, 3), 3, rng),
            _analyze("cyclic_n4_l3", cyclic_text(4, 3, 3), 3, rng),
            _analyze("cyclic_n4_l4", cyclic_text(4, 4, 2), 2, rng),
        ]
    if workload == "deep-power":
        # power 3 (16 variables, a 60-element basis, about 1.5 s) rather than
        # power 4 (20 variables, 137 elements, about 10 s): three requests a
        # run were too few for a steady median on a noisy machine
        scaled = rescale(cyclic_text(3, 3, 0), rng)
        return [Request("cyclic_n3_l3_power3", "verify-power", 3, scaled, {"vertical": "true"})]
    raise ValueError(f"unknown workload {workload!r}")
