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
"adam.v/", each in `CellParams.items()` order, then the step counter under
"adam/step". Round-tripping a checkpoint reproduces the file byte for
byte. Writes go to a temporary file in the same directory, which is then
renamed over the path, so a run killed mid-write leaves the previous file
intact, never a truncated one. The temporary file is reserved at its final
length before a byte is written (`posix_fallocate`, where the file system
has it), so on ext4 renaming it over an older checkpoint forces no
writeback. No fsync is made: after a power loss a torn file fails its CRC.

A load reads the file once, front to back. The stored config implies every
record header, in the order above with the `cells.param_shapes` shapes;
each must be the bytes a save writes, and each payload goes straight into
a new array, folded into the CRC as it lands, so the file is never held
beside its arrays. Nothing is returned before the CRC of the whole body
matches the trailer. Errors are reported in this order: a bad magic; a
failed checksum, whatever else is wrong (this is how a cut file or bytes
after the trailer show); an unsupported version; a config text that does
not match its digest; a stored config that does not parse or resolve; a
record count other than the layout's; the first record that differs from
it; bytes after the last record; an `adam/step` that is not a count.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import math
import os
import struct
import zlib

import numpy as np

from .autodiff import ContractError
from .cells import CellParams, param_shapes
from .config import (ConfigError, TrainConfig, config_digest, config_text,
                     parse_config_text, resolved_spec)
from .optim import OptimizerState

MAGIC = b"ACTLABC1"
VERSION = 1
_PREFIXES = ("param/", "adam.m/", "adam.v/")   # then the step, "adam/step"


class CheckpointError(ValueError):
    """Unusable checkpoint file: wrong magic/version, truncated, corrupt, or
    holding records other than the layout its config implies."""


def _record_head(name: str, shape: tuple[int, ...]) -> bytes:
    """A record's header: u16 name length, the name, u8 ndim, u32 per dim."""
    encoded = name.encode("utf-8")
    return (struct.pack("<H", len(encoded)) + encoded
            + struct.pack(f"<B{len(shape)}I", len(shape), *shape))


def _reserve(fd: int, size: int) -> None:
    """Allocate the file's blocks up front where the file system can.

    ext4 defers allocating written blocks; renaming a file with such blocks
    over an existing one makes it allocate them and start their writeback
    at once (`auto_da_alloc`). A file whose blocks are all allocated
    before it is written leaves the rename nothing to force. This speeds
    only a save that replaces a file: the benchmark's save cycle, or a
    training run repeated into the same directory. A save to a new name
    neither gains nor loses.

    Without `posix_fallocate` (macOS), or when it answers EOPNOTSUPP or
    EINVAL, the file is written as it would be anyway. Only a libc that
    passes the file system's EOPNOTSUPP back (musl) gives that answer;
    glibc instead emulates the reservation by writing one byte per block,
    an extra pass over the file on file systems without `fallocate`
    (NFSv3, many FUSE mounts). Any other error (ENOSPC) fails the save.
    """
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fallocate(fd, 0, size)
    except OSError as exc:
        if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
            raise


def save_checkpoint(path: str, params: CellParams, opt_state: OptimizerState,
                    config: TrainConfig) -> None:
    step = float(opt_state.step)
    if not (step >= 0 and step.is_integer()):     # the load's own test
        raise ContractError(f"adam step must be a count >= 0, got {opt_state.step!r}")
    groups = (params.items(), opt_state.m.items(), opt_state.v.items())
    records = [(prefix + name, arr) for prefix, group in zip(_PREFIXES, groups)
               for name, arr in group]
    records.append(("adam/step", np.array(step)))

    digest = config_digest(config).encode("ascii")
    text = config_text(config).encode("utf-8")
    head = MAGIC + struct.pack("<I", VERSION)
    head += struct.pack("<I", len(digest)) + digest
    head += struct.pack("<I", len(text)) + text
    head += struct.pack("<I", len(records))
    chunks = [head]
    for name, arr in records:
        chunks += [_record_head(name, arr.shape),
                   memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")]
    size = sum(len(chunk) for chunk in chunks) + 4     # + the CRC trailer
    tmp = path + ".tmp"
    try:
        # Payloads go from the arrays to the file without a copy of the body;
        # the CRC runs over the same chunks in file order.
        with open(tmp, "wb") as fh:
            _reserve(fh.fileno(), size)
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
        out = np.empty(shape, dtype="<f8")
        self._fill(memoryview(out).cast("B"))
        return out

    def skip_rest(self) -> None:
        """Hash the unread rest of the body, a chunk at a time."""
        chunk = memoryview(bytearray(min(self.end - self.pos, _CHUNK)))
        while self.pos < self.end:
            self._fill(chunk[:self.end - self.pos])


def _parse_body(reader: _Reader, path: str) -> tuple[TrainConfig, list[np.ndarray]]:
    """The config of a body, and its records' arrays in layout order."""
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    digest = reader.take(reader.u32())
    text = reader.take(reader.u32())
    if hashlib.sha256(text).hexdigest().encode("ascii") != digest:
        raise CheckpointError("config text does not match its stored digest")
    try:
        text = text.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError("the config text is not valid utf-8") from None
    try:
        config = parse_config_text(text, origin=f"{path}:config")
        spec = resolved_spec(config)
    except ConfigError as exc:
        raise CheckpointError(f"{path!r}: the stored config does not resolve: "
                              f"{exc}") from exc
    shapes = param_shapes(config.cell, spec.input_size, config.hidden,
                          spec.output_size)
    layout = [(prefix + name, shape) for prefix in _PREFIXES
              for name, shape in shapes.items()] + [("adam/step", ())]
    count = reader.u32()
    if count != len(layout):
        raise CheckpointError(f"{count} records, expected {len(layout)}")
    arrays = []
    for k, (name, shape) in enumerate(layout, start=1):
        if max(shape, default=0) >= 1 << 32:
            raise CheckpointError(f"the config gives {name!r} shape {shape}, "
                                  "beyond the format's u32 dimensions")
        head = _record_head(name, shape)
        if reader.take(len(head)) != head:
            raise CheckpointError(f"record {k} is not {name!r} of shape {shape}")
        arrays.append(reader.array(shape))
    if reader.pos != reader.end:
        raise CheckpointError(
            f"{reader.end - reader.pos} bytes follow the last checkpoint record")
    return config, arrays


def load_checkpoint(path: str) -> tuple[TrainConfig, CellParams, OptimizerState]:
    with open(path, "rb") as fh:
        reader = _Reader(fh, os.fstat(fh.fileno()).st_size - 4)
        if reader.end < len(MAGIC) + 4 or reader.take(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path!r} is not a checkpoint (bad magic)")
        # A parse failure is held until the whole body is hashed: a file
        # that fails its checksum is reported as that, whatever else is wrong.
        failure = None
        try:
            config, arrays = _parse_body(reader, path)
        except CheckpointError as exc:
            failure = exc
        reader.skip_rest()
        if fh.read(4) != struct.pack("<I", reader.crc):
            raise CheckpointError(f"{path!r} failed its checksum")
    if failure is not None:
        raise failure

    step = float(arrays[-1])
    if not (step >= 0 and step.is_integer()):
        raise CheckpointError(f"{path!r}: adam/step must be a count >= 0, got {step!r}")
    n, spec = len(CellParams._FIELDS), resolved_spec(config)
    params = CellParams(config.cell, spec.input_size, config.hidden,
                        spec.output_size, *arrays[:n])
    m, v = (dict(zip(CellParams._FIELDS, arrays[k * n:])) for k in (1, 2))
    return config, params, OptimizerState(m, v, int(step))
