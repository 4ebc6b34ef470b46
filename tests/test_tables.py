"""Byte pins: every study config reproduces scripts/tables.sha256 exactly."""

import hashlib
import pathlib

import numpy as np
import pytest

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"
PINNED_NUMPY = "2.4.6"  # the version scripts/tables.sha256 was written with
STEMS = sorted(p.stem for p in CONFIGS.glob("*.cfg"))


def _pinned_digests() -> dict[str, str]:
    digests = {}
    for line in (CONFIGS.parent / "tables.sha256").read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


def test_pinned_digests_name_exactly_the_configs():
    assert sorted({name.split("/")[0] for name in _pinned_digests()}) == STEMS


@pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"tables.sha256 pins numpy {PINNED_NUMPY} output, found {np.__version__}",
)
@pytest.mark.parametrize("stem", STEMS)
def test_config_csvs_match_pinned_digests(stem, study):
    out = study(stem)
    pinned = {
        name: digest
        for name, digest in _pinned_digests().items()
        if name.startswith(f"{stem}/")
    }
    got = {
        f"{stem}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.glob("*.csv")
    }
    assert pinned and got == pinned
