"""Versioned binary checkpoints.

Layout (all integers little-endian):

    8 bytes   magic "ACTLABC1"
    u32       format version (1)
    u32       length of the config digest, then that many bytes (sha256 hex
              of the config text bytes that follow)
    u32       length of the resolved config text, then that many utf-8 bytes
    u32       record count
    records   u16 name length + utf-8 name, u8 ndim, u32 per dim,
              then the row-major float64 payload
    u32       CRC32 of everything before it

Parameters are stored under "param/", Adam moments under "adam.m/" and
"adam.v/", the step counter under "adam/step". Round-tripping a checkpoint
reproduces the file byte for byte. Writes go to a temporary file in the
same directory, which is then renamed over the path, so a run killed
mid-write leaves the previous file intact, never a truncated one.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import zlib

import numpy as np

from .autodiff import DimensionError
from .cells import CellParams
from .config import (TrainConfig, config_digest, config_text, parse_config_text,
                     resolved_spec)
from .optim import OptimizerState

MAGIC = b"ACTLABC1"
VERSION = 1


class CheckpointError(ValueError):
    """Unusable checkpoint file: wrong magic/version, truncated, corrupt, or
    missing a record or holding one of the wrong shape."""


def _record_chunks(name: str, arr: np.ndarray) -> tuple[bytes, memoryview]:
    """A record's header bytes, and its payload as a view of the array."""
    encoded = name.encode("utf-8")
    head = struct.pack("<H", len(encoded)) + encoded
    head += struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head, memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")


def save_checkpoint(path: str, params: CellParams, opt_state: OptimizerState,
                    config: TrainConfig) -> None:
    records = [("param/" + name, arr) for name, arr in params.items()]
    records += [("adam.m/" + name, arr) for name, arr in opt_state.m.items()]
    records += [("adam.v/" + name, arr) for name, arr in opt_state.v.items()]
    records.append(("adam/step", np.array(float(opt_state.step))))

    digest = config_digest(config).encode("ascii")
    text = config_text(config).encode("utf-8")
    head = MAGIC + struct.pack("<I", VERSION)
    head += struct.pack("<I", len(digest)) + digest
    head += struct.pack("<I", len(text)) + text
    head += struct.pack("<I", len(records))
    chunks = [head]
    for name, arr in records:
        chunks.extend(_record_chunks(name, arr))
    tmp = path + ".tmp"
    try:
        # Payloads go from the arrays to the file without a copy of the body;
        # the CRC runs over the same chunks in file order.
        with open(tmp, "wb") as fh:
            crc = 0
            for chunk in chunks:
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class _Reader:
    """Sequential reads from a memoryview: each `take` is a view, not a copy."""

    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint file")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str) -> tuple[TrainConfig, CellParams, OptimizerState]:
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < len(MAGIC) + 8 or blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path!r} is not a checkpoint (bad magic)")
    payload, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{path!r} failed its checksum")

    reader = _Reader(payload)
    reader.take(len(MAGIC))
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    digest = str(reader.take(reader.u32()), "ascii")
    text = reader.take(reader.u32())
    if hashlib.sha256(text).hexdigest() != digest:
        raise CheckpointError("config text does not match its stored digest")

    arrays: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = str(reader.take(struct.unpack("<H", reader.take(2))[0]), "utf-8")
        ndim = struct.unpack("<B", reader.take(1))[0]
        shape = struct.unpack(f"<{ndim}I", reader.take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        data = np.frombuffer(reader.take(8 * count), dtype="<f8").reshape(shape)
        arrays[name] = np.array(data)          # the one owned, writable copy

    config = parse_config_text(str(text, "utf-8"), origin=f"{path}:config")
    spec = resolved_spec(config)

    def record(name: str, shape=None) -> np.ndarray:
        if name not in arrays:
            raise CheckpointError(f"{path!r} has no record {name!r}")
        if shape is not None and arrays[name].shape != shape:
            raise CheckpointError(f"{path!r}: record {name!r} has shape "
                                  f"{arrays[name].shape}, expected {shape}")
        return arrays[name]

    params = CellParams(config.cell, spec.input_size, config.hidden, spec.output_size,
                        *(record("param/" + name) for name in CellParams._FIELDS))
    try:
        params.validate()
    except DimensionError as exc:
        raise CheckpointError(f"{path!r}: {exc}") from None
    opt = OptimizerState(
        m={name: record("adam.m/" + name, arr.shape) for name, arr in params.items()},
        v={name: record("adam.v/" + name, arr.shape) for name, arr in params.items()},
        step=int(record("adam/step", ())))
    return config, params, opt
