"""Small shared I/O helpers: canonical JSON, atomic writes, JSONL files."""

import json
import os
from contextlib import contextmanager

from .errors import ValidationError


def canonical_json(obj):
    """Serialize with sorted keys and fixed separators.

    Byte-identical output for equal inputs, which checkpointing and
    config hashing rely on.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@contextmanager
def atomic_write(path):
    """Open a binary file for writing that replaces path on success.

    A temporary file in the same directory is renamed over path when the
    block completes and removed if it raises: a failed write leaves the
    previous file intact.

    Rewriting a file this way can wait tens of milliseconds.  With ext4's
    default ``auto_da_alloc``, a rename that replaces an existing file
    starts writing the new file's blocks, so that a crash cannot leave an
    empty file under the old name; replacing that file again then waits
    for those writes.  Measured on an ext4 root file system, 12 rewrites
    of a 200 kB file: 0.01-0.08 ms for the first two, then 48-69 ms each
    (median 54 ms).  ``renameat2(RENAME_EXCHANGE)`` plus an unlink of the
    old file took 0.01 ms, but it starts no such write and so gives up
    that crash ordering; ``os.replace`` is kept on purpose.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_jsonl(path, records):
    with atomic_write(path) as fh:
        for rec in records:
            fh.write((canonical_json(rec) + "\n").encode())


def load_jsonl(path, from_dict):
    """[(line number, from_dict(object))] for each nonblank line of a file.

    Bad lines (not UTF-8, malformed JSON, not an object, rejected by
    from_dict) are itemized by line number in one ValidationError.
    """
    problems = []
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValidationError("not a JSON object")
                out.append((lineno, from_dict(obj)))
            except json.JSONDecodeError as e:
                problems.append(f"line {lineno}: bad JSON ({e.msg})")
            except UnicodeDecodeError as e:
                problems.append(f"line {lineno}: not UTF-8 ({e.reason})")
            except (ValidationError, TypeError) as e:
                problems.append(f"line {lineno}: {e}")
    if problems:
        raise ValidationError("; ".join(problems))
    return out
