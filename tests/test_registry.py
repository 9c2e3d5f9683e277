"""Registry loading and expected-spectrum parsing."""

from __future__ import annotations

from poissonore import DeltaBracket, IdealPres, load_registry, parse_poly
from poissonore.registry import EXPECTED_RING

EXPECTED_NAMES = {
    "weyl",
    "bergman",
    "bergman-m1",
    "bergman-2",
    "nowetal",
    "havran",
    "ox",
    "log",
    "coutinho-1",
    "coutinho-2",
    "coutinho-3",
    "coutinho-4",
    "gwj",
    "new",
    "exact-circle",
}


def test_registry_names():
    assert set(load_registry()) == EXPECTED_NAMES


def test_every_entry_builds():
    for cfg in load_registry().values():
        structure = cfg.structure()
        assert isinstance(structure, DeltaBracket) or structure is not None
        if cfg.kind in ("delta", "exact"):
            d = cfg.derivation()
            assert set(d.images) <= set(d.ring)
        assert cfg.summary


def test_expected_basis_sets_gwj():
    cfg = load_registry()["gwj"]
    expected = cfg.expected_basis_sets()
    zero = frozenset()
    curve = frozenset(
        IdealPres(EXPECTED_RING, [parse_poly("y^2 + x + 1", EXPECTED_RING)]).basis_strings()
    )
    point = frozenset(
        IdealPres(
            EXPECTED_RING,
            [parse_poly("x", EXPECTED_RING), parse_poly("y", EXPECTED_RING)],
        ).basis_strings()
    )
    fiber = frozenset(
        IdealPres(
            EXPECTED_RING,
            [
                parse_poly("x", EXPECTED_RING),
                parse_poly("y", EXPECTED_RING),
                parse_poly("z - alpha", EXPECTED_RING),
            ],
        ).basis_strings()
    )
    assert expected == {zero, curve, point, fiber}


def test_expected_absent_when_unlisted():
    registry = load_registry()
    assert registry["weyl"].expected is None
    assert registry["bergman"].expected == ((),)
