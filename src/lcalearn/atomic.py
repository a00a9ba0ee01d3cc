"""Atomic artifact writes: a file holds either its old contents or the complete new ones."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing; it replaces ``path`` on success.

    The temporary file sits in the same directory, so ``os.replace`` is an
    atomic rename. If the body raises (an interrupt included), the
    temporary file is removed and ``path`` keeps what it held before.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_bytes(path, payload: bytes) -> None:
    """``Path(path).write_bytes(payload)``, atomically."""
    with atomic_open(path, "wb") as fh:
        fh.write(payload)


def write_text(path, text: str) -> None:
    """``Path(path).write_text(text)``, atomically."""
    with atomic_open(path) as fh:
        fh.write(text)


def save_npy(path, array) -> None:
    """``np.save(path, array)`` for a path ending in ``.npy``, atomically (the same bytes)."""
    with atomic_open(path, "wb") as fh:
        np.save(fh, array)


def write_csv(path, header, rows) -> None:
    """Write a CSV table atomically: the header, then each row.

    Float cells, NumPy floats included, are written as ``repr(float(v))``,
    the shortest text that reads back to the same float; other cells are
    written as they are.
    """
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )
