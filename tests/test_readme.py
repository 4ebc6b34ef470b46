"""The README names what the package has: every scheme alias and every preset.

The alias table and the preset list are written by hand; these checks keep
them to the keys of ``schemes.SCHEMES`` and ``models.PRESETS``.
"""

import re
from pathlib import Path

from sdelab import models, schemes

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_alias_table_names_every_scheme():
    table = README.split("| alias | scheme | applies to |\n", 1)[1].split("\n\n", 1)[0]
    first_cells = [row.split("|")[1] for row in table.splitlines()[1:]]
    named = [a for cell in first_cells for a in re.findall(r"`([^`]+)`", cell)]
    assert sorted(named) == sorted(schemes.SCHEMES)


def test_readme_preset_list_names_every_preset():
    listed = README.split("Models come from presets\n(", 1)[1].split(")", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(models.PRESETS)
