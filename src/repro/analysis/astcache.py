"""Shared parsed-AST cache for the static analyzers.

``reprolint`` (per-module AST rules) and ``repro flowcheck`` (whole-program
interprocedural analysis) both walk the same tree of ``.py`` files. Parsing
is the dominant fixed cost of either run, so both go through this cache:

* **in-process**: one ``ast.parse`` per (path, content-hash) per process,
  however many passes re-visit the module;
* **on disk** (opt-in): set ``REPRO_AST_CACHE=<dir>`` and parsed trees are
  pickled keyed by the *content* hash — the lint-gate and flow-gate CI jobs
  point at one actions/cache directory so the second job never re-parses an
  unchanged tree. A stale or unreadable cache entry silently falls back to
  parsing; the cache can never change analysis results, only skip work.

Entries are invalidated by content, not mtime: the key is the SHA-256 of
the source bytes, so editor touches and fresh checkouts still hit.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.errors import AnalysisError

_ENV_DIR = "REPRO_AST_CACHE"
_PICKLE_VERSION = 1

# In-process memo: absolute path -> (content sha256, source text, tree).
_MEMO: dict[str, tuple[str, str, ast.Module]] = {}


@dataclass(frozen=True)
class ParsedModule:
    """One parsed source file, as both text and tree."""

    path: str           # the path as given (display identity)
    source: str
    tree: ast.Module
    content_hash: str   # sha256 hex of the source bytes


def cache_dir() -> Path | None:
    """The on-disk cache directory, or ``None`` when disabled."""
    raw = os.environ.get(_ENV_DIR)
    return Path(raw) if raw else None


def _disk_load(key: str) -> ast.Module | None:
    root = cache_dir()
    if root is None:
        return None
    entry = root / f"{key}.astpkl"
    try:
        with open(entry, "rb") as fh:
            version, tree = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, ValueError, TypeError,
            AttributeError, ImportError):
        return None
    if version != _PICKLE_VERSION or not isinstance(tree, ast.Module):
        return None
    return tree


def _disk_store(key: str, tree: ast.Module) -> None:
    root = cache_dir()
    if root is None:
        return
    try:
        root.mkdir(parents=True, exist_ok=True)
        tmp = root / f".{key}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump((_PICKLE_VERSION, tree), fh)
        os.replace(tmp, root / f"{key}.astpkl")
    except (OSError, pickle.PicklingError):
        pass  # reprolint: disable=HYG202 — cache is best-effort by design


def parse_source(source: str, path: str = "<string>") -> ast.Module:
    """Parse source text (no caching — the caller owns the text)."""
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc


def parse_module(path: str | Path, *, display_path: str | None = None) -> ParsedModule:
    """Read and parse one file through the cache layers.

    ``display_path`` overrides the path recorded on the result (the linter
    reports repo-relative posix paths while reading absolute ones).
    """
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {p}: {exc}") from exc
    key = hashlib.sha256(source.encode("utf-8")).hexdigest()
    shown = display_path if display_path is not None else p.as_posix()

    memo_key = str(p.resolve())
    hit = _MEMO.get(memo_key)
    if hit is not None and hit[0] == key:
        return ParsedModule(path=shown, source=hit[1], tree=hit[2], content_hash=key)

    tree = _disk_load(key)
    if tree is None:
        tree = parse_source(source, shown)
        _disk_store(key, tree)
    _MEMO[memo_key] = (key, source, tree)  # reprolint: disable=HYG204 — the memo is this module's point
    return ParsedModule(path=shown, source=source, tree=tree, content_hash=key)


def clear_memo() -> None:
    """Drop the in-process memo (tests that rewrite files in place)."""
    _MEMO.clear()
