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

A load reads the file once, front to back: each record's payload goes
straight into a new array of its shape and is folded into the CRC as it
lands, so the file is never held beside its arrays. Nothing is returned
before the CRC of the whole body matches the trailer. Errors are reported
in this order: a bad magic; a failed checksum, whatever else is wrong
(this is how a cut file or bytes after the trailer show); an unsupported
version; a config text that does not match its digest; a malformed record
list (truncated, not utf-8, or bytes after the last record); a missing or
mis-shaped record.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
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


_CHUNK = 1 << 20     # bytes read, then hashed while still in cache


class _Reader:
    """Sequential reads of a checkpoint body straight from its open file.

    Every byte read is folded into a running CRC32. The body ends where the
    4-byte trailer starts (`end`); a read past it is a truncated file, and
    fails before anything is allocated for it.
    """

    def __init__(self, fh, end: int):
        self.fh = fh
        self.end = end
        self.pos = 0
        self.crc = 0

    def _check(self, n: int) -> None:
        if n > self.end - self.pos:
            raise CheckpointError("truncated checkpoint file")

    def _fill(self, buf: memoryview) -> None:
        for start in range(0, len(buf), _CHUNK):
            chunk = buf[start:start + _CHUNK]
            n = self.fh.readinto(chunk)
            self.crc = zlib.crc32(chunk[:n], self.crc)
            self.pos += n
            if n != len(chunk):               # the file shrank while being read
                raise CheckpointError("truncated checkpoint file")

    def take(self, n: int) -> bytearray:
        self._check(n)
        out = bytearray(n)
        self._fill(memoryview(out))
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        """A new float64 array of `shape`, read from the file in place."""
        self._check(8 * math.prod(shape))
        try:
            out = np.empty(shape, dtype="<f8")
        except ValueError:                   # more dimensions than numpy allows
            raise CheckpointError(f"a record has {len(shape)} dimensions") from None
        self._fill(memoryview(out).cast("B"))
        return out

    def skip_rest(self) -> None:
        """Hash the unread rest of the body, a chunk at a time."""
        chunk = memoryview(bytearray(min(self.end - self.pos, _CHUNK)))
        while self.pos < self.end:
            self._fill(chunk[:self.end - self.pos])


def _utf8(data: bytearray, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not valid utf-8") from None


def _parse_body(reader: _Reader) -> tuple[str, dict[str, np.ndarray]]:
    """The config text and the records of a body, in file order."""
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    digest = reader.take(reader.u32())
    text = reader.take(reader.u32())
    if hashlib.sha256(text).hexdigest().encode("ascii") != digest:
        raise CheckpointError("config text does not match its stored digest")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = reader.take(struct.unpack("<H", reader.take(2))[0])
        ndim = reader.take(1)[0]
        shape = struct.unpack(f"<{ndim}I", reader.take(4 * ndim))
        arrays[_utf8(name, "a record name")] = reader.array(shape)
    if reader.pos != reader.end:
        raise CheckpointError(
            f"{reader.end - reader.pos} bytes follow the last checkpoint record")
    return _utf8(text, "the config text"), arrays


def load_checkpoint(path: str) -> tuple[TrainConfig, CellParams, OptimizerState]:
    with open(path, "rb") as fh:
        reader = _Reader(fh, os.fstat(fh.fileno()).st_size - 4)
        if reader.end < len(MAGIC) + 4 or reader.take(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path!r} is not a checkpoint (bad magic)")
        # A parse failure is held until the whole body is hashed: a file
        # that fails its checksum is reported as that, whatever else is wrong.
        failure = None
        try:
            text, arrays = _parse_body(reader)
        except CheckpointError as exc:
            failure = exc
        reader.skip_rest()
        if fh.read(4) != struct.pack("<I", reader.crc):
            raise CheckpointError(f"{path!r} failed its checksum")
    if failure is not None:
        raise failure

    config = parse_config_text(text, origin=f"{path}:config")
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
    step = float(record("adam/step", ()))
    if not (step >= 0 and step.is_integer()):
        raise CheckpointError(f"{path!r}: adam/step must be a count >= 0, got {step!r}")
    opt = OptimizerState(
        m={name: record("adam.m/" + name, arr.shape) for name, arr in params.items()},
        v={name: record("adam.v/" + name, arr.shape) for name, arr in params.items()},
        step=int(step))
    return config, params, opt
