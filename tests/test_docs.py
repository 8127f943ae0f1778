"""The docs state what the code does: the README's flag table against the
CLI parser, and its package layout against the modules in the source."""

import argparse
import re
from pathlib import Path

from motifgcn.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def readme_flag_table() -> dict:
    """{subcommand: set of flags} from the README's subcommand/flag table;
    a row reading "the same, plus ..." adds to the row above it."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | flags |") + 2
    table, previous = {}, set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        found = set(re.findall(r"--[\w-]+", flags))
        if flags.startswith("the same"):
            found |= previous
        table[name.strip("`")] = previous = found
    return table


def parser_flags() -> dict:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_readme_flag_table_matches_parser():
    assert readme_flag_table() == parser_flags()


def test_readme_package_layout_names_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = text.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `motifgcn\.(\w+)`", layout, flags=re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "motifgcn").glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)
