"""Binary checkpoint serialization.

Layout: magic ``DIL1``, then one record per entry, each record being
[u32 name-length][UTF-8 name][u32 rank][u64 extents, one per axis]
[raw 32-bit little-endian floats]. Integers little-endian. Record order is
whatever the caller's dict iteration yields, so writers with a fixed
parameter order round-trip byte-identically. The magic names the model
definition: a change to what a record computes bumps it (``DIL2``), and
the bad-magic error then refuses older files.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

from .tensor import NumericError

MAGIC = b"DIL1"


class CheckpointError(IOError):
    """Corrupt, truncated, or otherwise unreadable checkpoint file."""


@contextmanager
def replacing(paths):
    """Yield one temporary path beside each of ``paths``. When the block
    ends without error each is renamed over its path, in order, so each
    path holds what it held before or its new file whole; temporaries a
    failure leaves are removed."""
    tmps = ["%s.%d.tmp" % (os.fspath(path), os.getpid()) for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)


def save_checkpoint(path, records) -> None:
    """Write name -> array records; values are cast to float32, and a finite
    value that the cast makes infinite raises NumericError naming its record
    before any byte is written. The file is written beside ``path`` and
    renamed over it, so ``path`` holds either the whole new file or, when
    the write fails, what it held before."""
    arrays = {}
    for name, value in records.items():
        with np.errstate(over="ignore"):  # refused below, by record name
            arr = np.asarray(value, dtype="<f4")  # tobytes() handles layout; keeps 0-d rank
        if (np.isinf(arr) & np.isfinite(value)).any():
            raise NumericError("%s: record %r is beyond float32's range"
                               % (path, name))
        arrays[name] = arr
    with replacing([path]) as (tmp,), open(tmp, "wb") as fh:
        fh.write(MAGIC)
        for name, arr in arrays.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Read records back as an ordered dict of float32 arrays; a malformed
    file raises CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError("%s: bad magic %r, expected %r"
                              % (path, blob[:4], MAGIC))
    records = {}
    off = 4

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError("%s: truncated at byte %d" % (path, off))
        piece = blob[off:off + n]
        off += n
        return piece

    while off < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("%s: record name at byte %d is not UTF-8"
                                  % (path, off - name_len))
        (rank,) = struct.unpack("<I", take(4))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(rank))
        count = 1
        for extent in shape:
            count *= extent
        try:
            data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        except ValueError as err:  # extents numpy cannot represent
            raise CheckpointError("%s: record %r: %s" % (path, name, err))
        if name in records:
            raise CheckpointError("%s: duplicate record %r" % (path, name))
        records[name] = data.copy()
    return records
