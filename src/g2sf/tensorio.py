"""Binary tensor container used for every on-disk array artifact.

Layout: 8-byte magic ``G2SFTNS1``, a little-endian u32 header length, a UTF-8
JSON header, then the payload as little-endian IEEE-754 float32 in C order.
The header always carries ``shape`` (list of dims), ``dtype`` (``"f32le"``)
and ``order`` (``"C"``); producers add purpose keys such as ``modality`` or
``kind``. Headers are canonical JSON (sorted keys, no whitespace) so equal
tensors serialize to byte-identical files.

This is the only array format read. Features from an external extractor go
in through :func:`g2sf.features.write_feature_map`, which writes one
container per modality grid in a single call.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"G2SFTNS1"

__all__ = ["MAGIC", "write_tensor", "read_tensor"]


def _canonical_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_tensor(path, array, extra=None):
    """Write ``array`` (any float shape, cast to f32) to ``path``."""
    array = np.ascontiguousarray(array, dtype=np.float32)
    if array.size == 0:
        raise FormatError(f"refusing to write empty tensor of shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise FormatError("refusing to write non-finite tensor payload")
    header = {"shape": list(array.shape), "dtype": "f32le", "order": "C"}
    if extra:
        header.update(extra)
    blob = _canonical_header(header)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(array.tobytes(order="C"))


def read_tensor(path):
    """Read a container and return (array, header).

    The payload is read straight into the returned array, which owns its
    data and is writable; no other payload-sized buffer is held.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:8] != MAGIC:
            raise FormatError(f"bad magic {head[:8]!r} in {path}", offset=0)
        if len(head) < 12:
            raise FormatError(f"truncated header in {path}", offset=len(head))
        (header_len,) = struct.unpack("<I", head[8:12])
        header_end = 12 + header_len
        if size < header_end:
            raise FormatError(f"truncated header JSON in {path}", offset=size)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"undecodable header in {path}: {exc}", offset=12) from exc
        for key in ("shape", "dtype", "order"):
            if key not in header:
                raise FormatError(f"header missing {key!r} in {path}", offset=12)
        if header["dtype"] != "f32le" or header["order"] != "C":
            raise FormatError(f"unsupported dtype/order {header['dtype']}/{header['order']}",
                              offset=12)
        shape = tuple(int(d) for d in header["shape"])
        if any(d <= 0 for d in shape):
            raise FormatError(f"non-positive dimension in shape {shape}", offset=12)
        count = int(np.prod(shape))
        payload_len = size - header_end
        if payload_len != 4 * count:
            raise FormatError(
                f"payload is {payload_len} bytes, expected {4 * count} for shape {shape}",
                offset=header_end + min(payload_len, 4 * count),
            )
        array = np.empty(shape, dtype="<f4")
        got = fh.readinto(array)
    if got != array.nbytes:
        raise FormatError(f"payload is {got} bytes, expected {array.nbytes} for shape {shape}",
                          offset=header_end + got)
    finite = np.isfinite(array)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise FormatError(
            f"non-finite payload value at flat index {bad[0]}",
            offset=header_end + 4 * int(bad[0]),
        )
    return array, header
