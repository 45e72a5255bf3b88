"""Line counts of the package's modules in two source trees.

Run from anywhere, with two checkouts of this repository:

    python3 tools/src_lines.py PARENT CHANGE

For each module of ``src/groupsobolev`` in either tree, and in total, the
script prints the physical lines and the code lines of both trees and the
change's difference from the parent.  A code line is a line that holds a
token other than a comment, a docstring or the tokenizer's line and indent
markers, counted with ``tokenize``; a blank line, a comment line and every
line of a docstring do not count.  A docstring is a string literal that
forms a statement of its own.  A module missing from one tree counts 0
there.  The last line of stdout is one JSON object with the same figures.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "groupsobolev"
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_END = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines holding a token that is not a comment, a docstring or layout."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    lines: set[int] = set()
    statement_start = True
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            statement_start = statement_start or tok.type in _STATEMENT_END
            continue
        if tok.type == tokenize.STRING and statement_start:
            after = next(t for t in itertools.islice(tokens, k + 1, None)
                         if t.type != tokenize.COMMENT)
            if after.type in _STATEMENT_END:  # a docstring
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
        statement_start = False
    return len(lines)


def count(path: Path) -> dict:
    """Physical and code lines of one file; 0 and 0 when it is missing."""
    if not path.is_file():
        return {"physical": 0, "code": 0}
    text = path.read_text(encoding="utf-8")
    return {"physical": len(text.splitlines()), "code": code_lines(text)}


def compare(parent: Path, change: Path) -> dict:
    """Per module and in total: each tree's counts and the change's difference."""
    names = sorted({p.name for tree in (parent, change) for p in (tree / PACKAGE).glob("*.py")})
    rows = {name: {"parent": count(parent / PACKAGE / name),
                   "change": count(change / PACKAGE / name)} for name in names}
    rows["total"] = {side: {key: sum(rows[n][side][key] for n in names)
                            for key in ("physical", "code")} for side in ("parent", "change")}
    for row in rows.values():
        row["diff"] = {key: row["change"][key] - row["parent"][key] for key in ("physical", "code")}
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    args = ap.parse_args(argv)
    rows = compare(args.parent, args.change)
    print(f"{'':<16}{'physical':>22}{'code':>22}")
    print(f"{'module':<16}" + 2 * f"{'parent':>8}{'change':>7}{'diff':>7}")
    for name, row in rows.items():
        cells = "".join(f"{row['parent'][key]:>8}{row['change'][key]:>7}{row['diff'][key]:>+7}"
                        for key in ("physical", "code"))
        print(f"{name:<16}{cells}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
