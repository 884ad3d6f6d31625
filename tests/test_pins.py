"""The sha256 pins of `rbpa` output listed in tests/pins.txt.

Each pin runs `cli.main(argv)` in-process from cold caches, so a pin
sees the same values a fresh `rbpa` process would print, whatever ran
before it in the session.
"""

import hashlib
from pathlib import Path

import pytest

from rbpa import bernoulli, cli, combinat, counts, identities, oracle

PINS = Path(__file__).with_name("pins.txt")


def _pins():
    for line in PINS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            sha, *argv = line.split()
            yield pytest.param(sha, argv, id=" ".join(argv))


@pytest.mark.parametrize("sha, argv", _pins())
def test_pin(capsys, sha, argv):
    for module in (combinat, counts, bernoulli, identities, oracle):
        module.clear_caches()
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_pins_are_well_formed_and_distinct():
    # a manifest that parsed to nothing would pass every pin vacuously
    pins = list(_pins())
    assert pins
    assert len({pin.id for pin in pins}) == len(pins)
    for pin in pins:
        sha, argv = pin.values
        assert len(sha) == 64 and set(sha) <= set("0123456789abcdef"), pin.id
        assert argv, pin.id
