"""The README names what the package has.

Its scheme-alias table, preset list and CLI lists are written by hand, and
its library layout indexes the modules by name.  These checks keep them to
the package: every ``sdelab.<module>[.<name>...]`` the README writes as code
resolves by import and getattr, every module of ``src/sdelab`` has an entry
in the layout, the lists equal ``schemes.SCHEMES``, ``models.PRESETS``,
``config.EXPERIMENT_KINDS`` and the options of ``cli.build_parser()``, and
the shape it gives a refused value is the one ``config`` reports.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from sdelab import cli, config, models, schemes

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
NAME = re.compile(r"(?<![\w./])sdelab(?:\.\w+)+")


def _code(text: str) -> list[str]:
    """The fenced blocks and inline code spans of ``text``."""
    return FENCE.findall(text) + re.findall(r"`([^`]+)`", FENCE.sub("", text))


def _unresolved(text: str) -> list[str]:
    """The ``sdelab`` names in ``text``'s code that no import and getattr
    reach, sorted."""
    bad = []
    for name in sorted({n for code in _code(text) for n in NAME.findall(code)}):
        parts = name.split(".")
        obj = importlib.import_module(parts[0])
        try:
            for i, part in enumerate(parts[1:], start=2):
                if not hasattr(obj, part):  # a module the package does not import
                    importlib.import_module(".".join(parts[:i]))
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            bad.append(name)
    return bad


def _layout(text: str) -> str:
    return text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]


def _unindexed(text: str) -> list[str]:
    """The modules of ``src/sdelab`` with no ``- `sdelab.<module>``` entry in
    ``text``'s library layout (``sdelab`` itself for ``__init__``), sorted."""
    entries = set(re.findall(r"^- `(sdelab[\w.]*)`", _layout(text), re.M))
    modules = {
        "sdelab" if p.stem == "__init__" else f"sdelab.{p.stem}"
        for p in (ROOT / "src" / "sdelab").glob("*.py")
    }
    return sorted(modules - entries)


def _listed(label: str) -> list[str]:
    """The first word of each code span in the README sentence that starts
    at ``label``."""
    sentence = re.match(r"(?:`[^`]*`|[^.`])*", README.split(label, 1)[1]).group(0)
    return [span.split()[0] for span in re.findall(r"`([^`]+)`", sentence)]


def test_readme_alias_table_names_every_scheme():
    table = README.split("| alias | scheme | applies to |\n", 1)[1].split("\n\n", 1)[0]
    first_cells = [row.split("|")[1] for row in table.splitlines()[1:]]
    named = [a for cell in first_cells for a in re.findall(r"`([^`]+)`", cell)]
    assert sorted(named) == sorted(schemes.SCHEMES)


def test_readme_preset_list_names_every_preset():
    listed = README.split("Models come from presets\n(", 1)[1].split(")", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(models.PRESETS)


def test_every_sdelab_name_in_the_readme_resolves():
    assert _unresolved(README) == []


def test_the_library_layout_indexes_every_module_in_at_most_30_lines():
    assert _unindexed(README) == []
    assert len(_layout(README).splitlines()) <= 30


def test_the_checks_flag_a_misspelt_name_and_a_module_without_an_entry():
    text = (
        "Prose `sdelab.schemes.SCHEMES`, `sdelab.schemes.SCHEMEZ` and\n"
        "`sdelab.nomodule.name`, and src/sdelab.typo outside code.\n\n"
        "```sh\npython3 -m sdelab.clii\n```\n\n"
        "## Library layout\n\n- `sdelab.schemes` - `sdelab.schemes.make_stepper`\n"
    )
    assert _unresolved(text) == [
        "sdelab.clii", "sdelab.nomodule.name", "sdelab.schemes.SCHEMEZ",
    ]
    unindexed = _unindexed(text)
    assert "sdelab.brownian" in unindexed and "sdelab" in unindexed
    assert "sdelab.schemes" not in unindexed


def test_the_cli_section_lists_every_subcommand_and_flag():
    assert _listed("Subcommands:") == list(config.EXPERIMENT_KINDS)
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for parser in sub.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    assert sorted(_listed("Flags:")) == sorted(options)


CONFIG = """[experiment]
kind = converge
seed = 1

[model]
preset = cir-scenario-1

[scheme]
scheme = truncated_euler

[run]
n_list = 2, 4
n_samples = 4
"""


def test_the_readme_writes_the_shape_of_a_refused_value():
    (shape,) = [c for c in _code(README) if c.startswith("line N: bad value")]
    fields = {"N": r"\d+", "<key>": r"(?P<key>\w+)", "<section>": r"(?P<section>\w+)",
              "<why>": ".+"}
    pattern = "".join(fields.get(p) or re.escape(p)
                      for p in re.split(r"(N|<key>|<section>|<why>)", shape))
    config.parse_config(CONFIG)
    for old, new, section, key in [
        ("kind = converge", "kind = bogus", "experiment", "kind"),
        ("preset = cir-scenario-1", "preset = cir-scenario-1\nT = 0", "model", "T"),
        ("scheme = truncated_euler", "scheme = eulr", "scheme", "scheme"),
        ("n_samples = 4", "n_samples = 0", "run", "n_samples"),
    ]:
        with pytest.raises(config.ConfigError) as exc:
            config.parse_config(CONFIG.replace(old, new))
        (error,) = exc.value.errors
        m = re.fullmatch(pattern, error)
        assert m and (m["section"], m["key"]) == (section, key), error
