"""Named example structures, stored as plain config data.

The registry is the data half of the CLI: each entry names a bracket
(by derivation images or an exact potential), a search
bound, and optionally the expected spectrum as generator lists.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .deriv import Derivation, exact_derivation
from .parser import parse_poly
from .poisson import DeltaBracket
from .polycore import IdealPres, Poly, canonical_ring

# Expected-spectrum strings may mention the fiber parameters.
EXPECTED_RING = ("x", "y", "z", "alpha", "lambda")


def basis_set(gens: Iterable[Poly]) -> frozenset[str]:
    """An ideal as its set of reduced basis strings over EXPECTED_RING."""
    return frozenset(IdealPres(EXPECTED_RING, gens).basis_strings())


@dataclass(frozen=True)
class ExampleConfig:
    name: str
    kind: str
    ring: tuple[str, ...]
    images: tuple[tuple[str, str], ...] = ()
    potential: str | None = None
    dmax: int = 2
    expected: tuple[tuple[str, ...], ...] | None = None
    summary: str = ""

    def derivation(self) -> Derivation:
        if self.kind == "delta":
            return Derivation(
                self.ring,
                {v: parse_poly(src, self.ring) for v, src in self.images},
            )
        if self.kind == "exact":
            return exact_derivation(parse_poly(self.potential, self.ring))
        raise ValueError(f"{self.name}: no derivation for kind {self.kind!r}")

    def structure(self) -> DeltaBracket:
        return DeltaBracket(self.derivation())

    def expected_basis_sets(self) -> set[frozenset[str]] | None:
        """Expected entries as reduced-basis string sets, for comparison."""
        if self.expected is None:
            return None
        return {
            basis_set(parse_poly(g, EXPECTED_RING) for g in gens)
            for gens in self.expected
        }


def _parse_entry(name: str, section) -> ExampleConfig:
    kind = section.get("kind", "delta")
    ring = canonical_ring(section.get("ring", "x y").split())
    images = tuple(
        (key.split(".", 1)[1], value.strip())
        for key, value in section.items()
        if key.startswith("delta.")
    )
    potential = section.get("potential")
    expected = None
    if "expected" in section:
        groups = section["expected"].split(";")
        expected = tuple(
            tuple(g.strip() for g in group.split(",") if g.strip())
            for group in groups
        )
    return ExampleConfig(
        name=name,
        kind=kind,
        ring=ring,
        images=images,
        potential=potential.strip() if potential else None,
        dmax=section.getint("dmax", 2),
        expected=expected,
        summary=section.get("summary", "").strip(),
    )


def parse_registry(text: str) -> dict[str, ExampleConfig]:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return {name: _parse_entry(name, cp[name]) for name in cp.sections()}


def load_registry() -> dict[str, ExampleConfig]:
    text = resources.files("poissonore").joinpath("examples.cfg").read_text()
    return parse_registry(text)

