"""The docs state what the code does: the README's flag table against the
CLI parser, and the container spec's magic and version against
``modelfile``."""

import argparse
import re
from pathlib import Path

from motifgcn import modelfile
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


def test_container_doc_matches_modelfile():
    text = (ROOT / "docs" / "model_container.md").read_text(encoding="utf-8")
    assert re.search(r"magic `(\w+)`", text).group(1).encode() == modelfile.MAGIC
    assert int(re.search(r"version, currently `(\d+)`", text).group(1)) == modelfile.VERSION
