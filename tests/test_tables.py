"""Byte pins: the fast study configs reproduce scripts/tables.sha256 exactly."""

import hashlib
import pathlib

import numpy as np
import pytest

from sdelab import cli

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
PINNED_NUMPY = "2.4.6"  # the version scripts/tables.sha256 was written with

# the configs that run in seconds; the cir converge and mlmc ones take minutes
FAST_CONFIGS = (
    "validate_scenario1",
    "validate_scenario2",
    "pathwise_gbm",
    "price_heston",
    "negstats_scenario1",
    "negstats_scenario2",
    "explode_three_halves",
    "converge_cev_set1",
    "converge_cev_set2",
)


def _pinned_digests() -> dict[str, str]:
    digests = {}
    for line in (SCRIPTS / "tables.sha256").read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


@pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"tables.sha256 pins numpy {PINNED_NUMPY} output, found {np.__version__}",
)
@pytest.mark.parametrize("stem", FAST_CONFIGS)
def test_config_csvs_match_pinned_digests(stem, tmp_path, capsys):
    kind = stem.split("_", 1)[0]
    out = tmp_path / stem
    rc = cli.main(
        [kind, "--config", str(SCRIPTS / "configs" / f"{stem}.cfg"), "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
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
