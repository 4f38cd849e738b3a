"""Seeded single-literal edits of the suite kernels (serve_mixed).

An edit changes one integer literal of a kernel's mini-C source: an
element of a data initializer, or a constant in a statement of a
function body.  Literals that steer control flow or address memory are
never edited, so every loop stays bounded by the analysis (or by the
kernel's manual annotation):

* literals in ``for (...)`` / ``while (...)`` headers (trip counts)
  and in the condition of an ``if`` whose block contains ``break``,
* literals inside ``[...]`` (array sizes and indices),
* right operands of ``/``, ``%``, ``<<`` and ``>>``,
* statements that assign a variable a loop header tests.

The replacement value lies in 1..255, which every immediate form of
the instruction set encodes in one instruction, so an edit of a small
literal keeps the code layout of its kernel.  Every literal of the
kernels with manual loop bounds is small, so their loop-header
addresses, and hence their annotations, hold for every edit.
"""

from __future__ import annotations

import random
import re
from typing import List, Tuple

_LITERAL = re.compile(r"\b(0[xX][0-9A-Fa-f]+|\d+)\b")
_HEADER = re.compile(r"\b(for|while|if)\s*\(")
_GUARDED_OPERATOR = re.compile(r"(/|%|<<|>>)\s*$")
_ASSIGNMENT = re.compile(r"^\s*(?:int\s+)?(\w+)\s*=[^=]")


def _matching(source: str, open_index: int, opener: str,
              closer: str) -> int:
    """Index of the bracket closing the one at ``open_index``."""
    depth = 0
    for index in range(open_index, len(source)):
        if source[index] == opener:
            depth += 1
        elif source[index] == closer:
            depth -= 1
            if depth == 0:
                return index
    raise ValueError(f"unbalanced {opener!r} at {open_index}")


def _excluded_spans(source: str) -> List[Tuple[int, int]]:
    """Character spans whose literals are never edited: comments,
    loop headers, bracketed index/size expressions and assignments to
    loop-control variables."""
    spans = [(m.start(), m.end())
             for m in re.finditer(r"//[^\n]*", source)]
    headers = []
    for match in _HEADER.finditer(source):
        close = _matching(source, match.end() - 1, "(", ")")
        if match.group(1) == "if":
            block = re.match(r"\s*\{", source[close + 1:])
            if block is None or "break" not in source[
                    close + 1:_matching(source, close + block.end(),
                                        "{", "}")]:
                continue
        headers.append((match.start(), close + 1))
    spans += headers
    loop_vars = {name for start, end in headers
                 for name in re.findall(r"[A-Za-z_]\w*",
                                        source[start:end])}
    for match in re.finditer(r"[^;{}]+", source):
        target = _ASSIGNMENT.match(match.group())
        if target and target.group(1) in loop_vars:
            spans.append(match.span())
    depth = 0
    for index, char in enumerate(source):
        if char == "[":
            if depth == 0:
                opened = index
            depth += 1
        elif char == "]":
            depth -= 1
            if depth == 0:
                spans.append((opened, index + 1))
    return spans


def edit_sites(source: str) -> List[Tuple[int, int]]:
    """``(start, end)`` of every literal an edit may change."""
    excluded = _excluded_spans(source)
    sites = []
    for match in _LITERAL.finditer(source):
        start, end = match.span()
        if any(lo <= start < hi for lo, hi in excluded):
            continue
        if _GUARDED_OPERATOR.search(source[max(0, start - 4):start]):
            continue
        sites.append((start, end))
    return sites


def edit_source(source: str, rng: random.Random) -> str:
    """``source`` with one eligible literal replaced by a different
    value in 1..255 (hex literals stay hex)."""
    sites = edit_sites(source)
    start, end = sites[rng.randrange(len(sites))]
    old = source[start:end]
    base = 16 if old[:2].lower() == "0x" else 10
    value = int(old, base)
    new = value
    while new == value:
        new = rng.randint(1, 255)
    text = f"0x{new:02X}" if base == 16 else str(new)
    return source[:start] + text + source[end:]
