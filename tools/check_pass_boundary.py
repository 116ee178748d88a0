#!/usr/bin/env python3
"""Enforce the pass-pipeline import boundary.

``infer_dma`` and ``apply_prefetch`` are pipeline stages: consumers go
through ``repro.passes`` (PassManager + ``optimize_passes()``) so every
kernel inherits per-pass instrumentation and IR verification.  A module that imports the raw functions directly
silently opts out of both, which is exactly the class of drift this
check exists to stop.

Allowed importers: ``repro/passes/`` (the pipeline itself) and
``repro/optimizer/`` (where the functions live).

Usage: python tools/check_pass_boundary.py [src-root]
Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

FORBIDDEN = {"infer_dma", "apply_prefetch"}
ALLOWED_PREFIXES = ("repro/passes/", "repro/optimizer/")


def iter_violations(src_root: Path) -> Iterator[Tuple[Path, int, str]]:
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        if rel.startswith(ALLOWED_PREFIXES):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in FORBIDDEN:
                        yield path, node.lineno, alias.name
            elif isinstance(node, ast.Attribute):
                # catches repro.optimizer.infer_dma(...) style access
                if node.attr in FORBIDDEN:
                    yield path, node.lineno, node.attr


def main(argv: List[str]) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else Path("src")
    violations = list(iter_violations(src_root))
    for path, lineno, name in violations:
        print(
            f"{path}:{lineno}: direct use of {name!r} outside repro.passes "
            "-- route through optimize_passes()/PassManager instead"
        )
    if violations:
        return 1
    print(f"pass boundary clean ({src_root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
