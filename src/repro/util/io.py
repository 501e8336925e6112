"""File I/O for persisted artifacts: atomic writes, one typed read path.

Decision traces, benchmark records and recordings are written
by tools that may run concurrently (parallel fleet workers, an explore
campaign racing a bench regeneration) and may be interrupted at any
point (a worker SIGKILL mid-write, ctrl-C during a campaign).  A plain
``Path.write_text`` truncates the destination before writing, so a
reader — or a crash — can observe a torn file.

:func:`atomic_open` (and :func:`atomic_write_bytes` over it) writes to
a uniquely named temporary file in the destination directory and publishes it with :func:`os.replace`,
which is atomic on POSIX when source and destination share a
filesystem.  Readers therefore see either the old complete document or
the new complete document, never a prefix.

Every JSON document is read back through :func:`read_record`, which
raises one error type, :class:`RecordError`, whose message starts with
the file's path.  A CLI maps that one exception to exit status 2.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

__all__ = [
    "atomic_open",
    "atomic_write_bytes",
    "atomic_write_text",
    "append_text_line",
    "RecordError",
    "read_text",
    "read_record",
    "require",
]


@contextmanager
def atomic_open(path: str | Path, mode: str = "wb") -> Iterator[IO]:
    """Open a temporary file beside ``path`` for writing (in ``mode``);
    when the block ends it is published as ``path``, and when the block
    raises it is removed, so ``path`` is either untouched or complete.

    Creates parent directories as needed.  The temporary file lives in
    the destination directory (same filesystem), so the final
    ``os.replace`` is a single atomic rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        # Never leave the temp file behind, even on KeyboardInterrupt.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | Path, *chunks: bytes | bytearray) -> Path:
    """Atomically write the ``chunks``, in order, as the contents of
    ``path``; returns the path written (see :func:`atomic_open`)."""
    path = Path(path)
    with atomic_open(path) as fh:
        fh.writelines(chunks)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically write ``text`` to ``path`` as UTF-8 (see
    :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def append_text_line(path: str | Path, line: str) -> Path:
    """Append ``line`` (newline added if missing) to ``path``; atomic-ish.

    For append-only JSONL feeds (the live telemetry bus) the atomicity
    requirement differs from :func:`atomic_write_text`: the file must
    *grow*, so rename-replace is the wrong tool.  Instead the record is
    written with a single ``os.write`` on an ``O_APPEND`` descriptor —
    POSIX guarantees the seek-to-end and the write are one atomic step,
    so concurrent tailers (``repro.obs top --follow``) never observe a
    record interleaved with another writer's, and a crash leaves at most
    one truncated final line, which readers skip.
    """
    if not line.endswith("\n"):
        line += "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)
    return path


class RecordError(ValueError):
    """An on-disk record that cannot be read; the message starts with
    ``"<path>: "`` (or ``"<path>:<line>: "`` when a line is at fault)."""


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; :class:`RecordError` if unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RecordError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError:
        raise RecordError(f"{path}: not UTF-8 text") from None


def read_record(path: str | Path, schema: str | tuple[str, ...] | None) -> dict:
    """Parse the JSON object in ``path`` and check its ``schema`` tag.

    ``schema`` is the one tag accepted, a tuple of accepted tags, or
    ``None`` for formats that carry no tag (their readers check their
    own shape with :func:`require`).  A missing or unreadable file, torn
    JSON, a root that is not an object and any other tag raise
    :class:`RecordError`.
    """
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise RecordError(f"{path}: torn or garbled JSON ({exc})") from None
    if type(doc) is not dict:
        raise RecordError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if schema is not None:
        tags = (schema,) if isinstance(schema, str) else schema
        if doc.get("schema") not in tags:
            raise RecordError(
                f"{path}: unsupported schema {doc.get('schema')!r}; "
                f"expected {' or '.join(tags)}"
            )
    return doc


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a float"}


def require(path: str | Path, doc: Any, key: str, types: type | tuple[type, ...]) -> Any:
    """``doc[key]``, whose exact type must be one of ``types``, else
    :class:`RecordError` naming ``path``.

    JSON parses to exact builtin types, so ``bool`` never passes for
    ``int``.  A ``doc`` that is not an object counts as missing ``key``.
    """
    types = types if isinstance(types, tuple) else (types,)
    if type(doc) is not dict or key not in doc:
        raise RecordError(f"{path}: missing required key {key}")
    value = doc[key]
    if type(value) not in types:
        kinds = " or ".join(_KINDS[t] for t in types)
        raise RecordError(f"{path}: {key} must be {kinds}, not {value!r}")
    return value
