"""The one persistence format: a versioned, salted JSON document.

The eval store (scores, which also resume an interrupted sweep) and
the kernel cache (tuned strategies) outlive a process.  This module is
the only code that reads or writes their envelope: a top-level JSON
object whose ``version`` (and, when salted, ``salt``) header comes
first, followed by the type's own body fields.  What the body must
contain is each type's own business.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import numbers
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

__all__ = [
    "Document",
    "code_salt",
    "quarantine_corrupt",
    "read_document",
    "recover_truncated_json",
    "valid_number",
    "write_document",
]

logger = logging.getLogger(__name__)


def _tree_digest(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` file
    under ``root``, in sorted path order."""
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*.py"))
    for rel, path in files:
        digest.update(b"%s\0%s\0" % (rel.encode(), path.read_bytes()))
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_salt() -> str:
    """Identity of the running code, computed on first use.

    Covers the whole package on purpose: conservative (any edit
    invalidates persisted scores), and there is no list of
    score-determining modules to keep in sync.
    """
    return _tree_digest(Path(__file__).resolve().parent)


def valid_number(value) -> bool:
    """A persisted cycle count: ``None`` or a real, non-bool number."""
    return value is None or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


# --- writing ------------------------------------------------------------
def write_document(
    path: Union[str, Path], body: dict, *, version: int, salt: Optional[str]
) -> None:
    """Write ``body`` under a ``version`` (+ ``salt`` unless ``None``)
    header, via temp-file-then-rename so readers never observe a
    partial file.  The header goes first so that a truncated file still
    identifies itself."""
    header = {"version": version} if salt is None else {"version": version, "salt": salt}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({**header, **body}, fh)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --- reading ------------------------------------------------------------
@dataclass
class Document:
    """What :func:`read_document` found at ``path``: the parsed
    ``body``, or ``None`` when there is nothing to trust, plus the
    outcome every document type reports (``recovered`` from a truncated
    file, ``quarantined_path`` of the sidecar, ``skipped_entries``
    that :meth:`parse_entries` rejected)."""

    path: Path
    body: Optional[dict] = None
    recovered: bool = False
    quarantined_path: Optional[Path] = None
    skipped_entries: int = 0

    def parse_entries(self, parse: Callable) -> Dict:
        """``{key: parse(key, value)}`` over the body's ``entries``
        object; an entry ``parse`` rejects (returns ``None``) is
        skipped, counted and logged."""
        entries = (self.body or {}).get("entries")
        parsed = {}
        for key, value in (entries if isinstance(entries, dict) else {}).items():
            item = parse(key, value)
            if item is None:
                self.skipped_entries += 1
            else:
                parsed[key] = item
        if self.skipped_entries:
            logger.warning(
                "%s: skipped %d malformed entries", self.path, self.skipped_entries
            )
        return parsed


def quarantine_corrupt(path: Union[str, Path], reason: str) -> Optional[Path]:
    """Move an unusable persistence file to a ``*.corrupt`` sidecar
    and log why.  An existing sidecar is never clobbered -- repeated
    corruption of the same path lands in ``*.corrupt.1``,
    ``*.corrupt.2``, ... so every piece of post-mortem evidence
    survives.  Returns the sidecar path, or ``None`` when the move
    itself failed."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".corrupt")
    n = 0
    while sidecar.exists():
        n += 1
        sidecar = path.with_name(f"{path.name}.corrupt.{n}")
    try:
        os.replace(path, sidecar)
    except OSError as exc:
        logger.warning(
            "could not quarantine corrupt file %s (%s): %s", path, reason, exc
        )
        return None
    logger.warning("quarantined corrupt file %s -> %s: %s", path, sidecar, reason)
    return sidecar


def read_document(
    path: Union[str, Path], *, version: int, salt: Optional[str]
) -> Document:
    """Read one persistence file under the single policy:

    * a missing file means no document;
    * a file that cannot be read (``OSError``, e.g. a directory) is
      logged and treated as absent -- it is never moved;
    * an unparseable file keeps the complete ``entries`` prefix a torn
      write left behind (:func:`recover_truncated_json`); with nothing
      to salvage it is quarantined (:func:`quarantine_corrupt`);
    * a file that is not a JSON object is quarantined;
    * a ``version`` or ``salt`` mismatch is ignored and left in place:
      it may belong to another code version.  ``salt=None`` reads an
      unsalted document.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return Document(path)
    except OSError as exc:
        logger.warning("cannot read %s (%s); starting empty", path, exc)
        return Document(path)
    recovered = False
    try:
        body = json.loads(data)
    except ValueError as exc:
        body = recover_truncated_json(data.decode("utf-8", errors="replace"))
        if not isinstance(body.get("entries"), dict):
            return Document(
                path,
                quarantined_path=quarantine_corrupt(
                    path, f"unparseable JSON ({exc})"
                ),
            )
        recovered = True
        logger.warning(
            "%s is truncated (%s); recovered the valid prefix of %d entries",
            path,
            exc,
            len(body["entries"]),
        )
    if not isinstance(body, dict):
        return Document(
            path,
            quarantined_path=quarantine_corrupt(
                path, f"top-level JSON is {type(body).__name__}, not object"
            ),
        )
    if body.get("version") != version or (
        salt is not None and body.get("salt") != salt
    ):
        logger.warning("%s was written by another code version; ignoring it", path)
        return Document(path)
    return Document(path, body=body, recovered=recovered)


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\r\n":
        i += 1
    return i


def _skip_ws_comma(text: str, i: int) -> int:
    i = _skip_ws(text, i)
    if i < len(text) and text[i] == ",":
        i = _skip_ws(text, i + 1)
    return i


def recover_truncated_json(text: str) -> Dict:
    """Best-effort parse of a truncated single-object JSON document.

    Walks the top-level object key by key with
    :meth:`json.JSONDecoder.raw_decode`; for an ``"entries"`` object
    every fully-parsed ``key: value`` pair is kept and parsing stops at
    the first incomplete one.  Anything recovered before the
    truncation point (including the ``version``/``salt`` header, which
    :func:`write_document` writes first) survives.
    """
    dec = json.JSONDecoder()
    out: Dict = {}
    try:
        i = _skip_ws(text, 0)
        if text[i] != "{":
            return out
        i += 1
        while True:
            i = _skip_ws_comma(text, i)
            if text[i] == "}":
                break
            key, i = dec.raw_decode(text, i)
            i = _skip_ws(text, i)
            if text[i] != ":":
                break
            i = _skip_ws(text, i + 1)
            if key == "entries" and i < len(text) and text[i] == "{":
                entries: Dict = {}
                out["entries"] = entries
                i += 1
                while True:
                    i = _skip_ws_comma(text, i)
                    if text[i] == "}":
                        i += 1
                        break
                    ekey, i = dec.raw_decode(text, i)
                    i = _skip_ws(text, i)
                    if text[i] != ":":
                        raise ValueError("truncated entry")
                    i = _skip_ws(text, i + 1)
                    value, i = dec.raw_decode(text, i)
                    entries[ekey] = value
            else:
                value, i = dec.raw_decode(text, i)
                out[key] = value
            i = _skip_ws(text, i)
            if i >= len(text):
                break
            if text[i] == "}":
                break
    except (ValueError, IndexError):
        pass  # truncation point reached: keep what was fully parsed
    return out
