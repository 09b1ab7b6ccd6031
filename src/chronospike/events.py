"""Event-file decoding, frame binning, dataset splitting, and dataset I/O.

The decoder understands the AEDAT 3.1 container: an ASCII header of lines
starting with ``#`` (the first being the format marker), followed by binary
packets. Each packet starts with a 28-byte little-endian header

    int16 eventType, int16 eventSource, int32 eventSize,
    int32 eventTSOffset, int32 eventTSOverflow,
    int32 eventCapacity, int32 eventNumber, int32 eventValid

and carries ``eventCapacity * eventSize`` bytes of payload. Polarity events
(type 1, 8 bytes) hold a 32-bit data word and a 32-bit microsecond
timestamp; x sits in bits 17..31, y in bits 2..16, polarity in bit 1 and
the validity flag in bit 0. Other packet types are skipped.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

AEDAT_MAGIC = b"#!AER-DAT3.1"
_PACKET_HEADER = struct.Struct("<hhiiiiii")
POLARITY_EVENT_TYPE = 1
POLARITY_EVENT_SIZE = 8

DATASET_MAGIC = b"CSPK"
DATASET_VERSION = 1
_DATASET_PREAMBLE = struct.Struct("<4sBI")  # magic, version byte, JSON header length

TRAIN_SUBJECT_MAX = 23
SUBJECT_MAX = 29
EXCLUDED_RAW_LABEL = 11
N_RAW_LABELS = 11


class DecodeError(ValueError):
    """Base class for event-file decoding failures."""


class MalformedHeader(DecodeError):
    pass


class TruncatedEvent(DecodeError):
    def __init__(self, offset: int, message: str = ""):
        self.offset = offset
        super().__init__(f"truncated packet at byte offset {offset}" + (f": {message}" if message else ""))


class MalformedEvent(DecodeError):
    pass


class DatasetFormatError(ValueError):
    pass


class UnknownSubject(ValueError):
    pass


class IngestError(ValueError):
    pass


@dataclass
class EventStream:
    """Raw sensor events, sorted by timestamp."""

    x: np.ndarray
    y: np.ndarray
    polarity: np.ndarray  # 0 = OFF, 1 = ON
    t: np.ndarray  # microseconds
    sensor_size: tuple[int, int] = (128, 128)

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class FrameSequence:
    """Time-binned binary spike tensor, [T, P, H, W], plus labels."""

    frames: np.ndarray
    bin_width_ms: float
    label: int = -1
    subject_id: int = 0


def decode_events(data: bytes, sensor_size: tuple[int, int] = (128, 128)) -> EventStream:
    """Decode an AEDAT 3.1 byte string into an EventStream.

    Invalidated events (validity bit 0) are dropped, non-polarity packets
    skipped and a negative ``eventTSOverflow`` refused as an inconsistent
    packet header. Only valid events are checked against the sensor, after
    the packet walk: a bad coordinate before a truncated packet reports the
    truncation. Events come sorted by timestamp, ties in file order.
    """
    if not data.startswith(AEDAT_MAGIC):
        raise MalformedHeader("missing AEDAT 3.1 format marker")
    offset = 0
    n = len(data)
    while offset < n and data[offset : offset + 1] == b"#":
        end = data.find(b"\n", offset)
        if end < 0:
            raise MalformedHeader("unterminated header line")
        offset = end + 1

    words, stamps = [np.empty(0, np.uint32)], [np.empty(0, np.int64)]
    while offset < n:
        if n - offset < _PACKET_HEADER.size:
            raise TruncatedEvent(offset, "incomplete packet header")
        etype, _, esize, _, tsoverflow, ecapacity, enumber, _ = _PACKET_HEADER.unpack_from(data, offset)
        offset += _PACKET_HEADER.size
        if esize <= 0 or tsoverflow < 0 or ecapacity < 0 or enumber < 0 or enumber > ecapacity:
            raise TruncatedEvent(offset - _PACKET_HEADER.size, "inconsistent packet header")
        body = ecapacity * esize
        if n - offset < body:
            raise TruncatedEvent(offset, f"packet body needs {body} bytes, {n - offset} left")
        if etype == POLARITY_EVENT_TYPE:
            if esize != POLARITY_EVENT_SIZE:
                raise TruncatedEvent(offset, f"polarity events must be {POLARITY_EVENT_SIZE} bytes, got {esize}")
            raw = np.frombuffer(data, dtype="<u4", count=2 * enumber, offset=offset).reshape(-1, 2)
            valid = (raw[:, 0] & 1).astype(bool)
            words.append(raw[:, 0][valid])
            stamps.append(raw[:, 1][valid] + (np.int64(tsoverflow) << 31))
        offset += body

    word = np.concatenate(words)
    x = ((word >> 17) & 0x7FFF).astype(np.int64)
    y = ((word >> 2) & 0x7FFF).astype(np.int64)
    width, height = sensor_size
    bad = np.flatnonzero((x >= width) | (y >= height))
    if bad.size:
        raise MalformedEvent(f"event coordinate ({x[bad[0]]}, {y[bad[0]]}) outside sensor {width}x{height}")
    t = np.concatenate(stamps)
    order = np.argsort(t, kind="stable")
    return EventStream(x[order], y[order], ((word[order] >> 1) & 1).astype(np.int64), t[order], sensor_size)


def bin_frames(
    stream: EventStream,
    fps: float,
    max_frames: int,
    label: int = -1,
    subject_id: int = 0,
) -> FrameSequence:
    """Bin a stream into a binary [max_frames, 2, H, W] tensor.

    Bin t covers [t/fps, (t+1)/fps) seconds relative to the stream's time
    origin; a cell is 1 if at least one event of that polarity landed in the
    bin (presence, not count). Events before bin 0 or past ``max_frames``
    bins are dropped.
    """
    if not (math.isfinite(fps) and fps > 0):
        raise IngestError(f"fps must be finite and positive, got {fps!r}")
    if max_frames <= 0:
        raise IngestError(f"max_frames must be positive, got {max_frames!r}")
    width, height = stream.sensor_size
    frames = np.zeros((max_frames, 2, height, width), dtype=np.uint8)
    if len(stream):
        # exactly t * fps // 10**6 at an integer fps while t * fps < 2**53 and the bin is below
        # 2**33, as a kept bin is; others are clipped to -1 or max_frames (so dropped) before the cast
        bins = np.clip(np.floor(stream.t * fps / 1e6), -1, max_frames).astype(np.int64)
        keep = (bins >= 0) & (bins < max_frames)
        frames[bins[keep], stream.polarity[keep], stream.y[keep], stream.x[keep]] = 1
    return FrameSequence(frames, bin_width_ms=1000.0 / fps, label=label, subject_id=subject_id)


def split_dataset(samples: list[FrameSequence]) -> tuple[list[FrameSequence], list[FrameSequence]]:
    """Subject-based split with label relabeling.

    Samples must carry raw labels 1..11 and subject ids 1..29. Subjects 1-23
    go to train, 24-29 to test; raw label 11 is removed from both sides and
    remaining labels map to 0..9.
    """
    train: list[FrameSequence] = []
    test: list[FrameSequence] = []
    for s in samples:
        if not (1 <= s.subject_id <= SUBJECT_MAX):
            raise UnknownSubject(f"subject id {s.subject_id} outside 1..{SUBJECT_MAX}")
        if not (1 <= s.label <= N_RAW_LABELS):
            raise IngestError(f"raw label {s.label} (subject {s.subject_id}) outside 1..{N_RAW_LABELS}")
        if s.label == EXCLUDED_RAW_LABEL:
            continue
        out = dataclasses.replace(s, label=s.label - 1)
        (train if s.subject_id <= TRAIN_SUBJECT_MAX else test).append(out)
    return train, test


def save_dataset(path: str | Path, samples: list[FrameSequence], meta: dict | None = None) -> None:
    """Write samples to the packed binary dataset container.

    Layout: 4-byte magic, 1 version byte, a little-endian uint32 header
    length, the JSON header, then one bit-packed frame tensor per sample in
    header order.
    """
    if not samples:
        raise DatasetFormatError("refusing to write an empty dataset")
    shapes = {s.frames.shape[1:] for s in samples}
    if len(shapes) != 1:
        raise DatasetFormatError(f"samples disagree on (P, H, W): {sorted(shapes)}")
    p, h, w = shapes.pop()
    widths = {s.bin_width_ms for s in samples}
    if len(widths) != 1:
        raise DatasetFormatError(f"samples disagree on bin_width_ms: {sorted(widths)}")
    header = {
        "version": DATASET_VERSION,
        "p": int(p),
        "h": int(h),
        "w": int(w),
        "bin_width_ms": widths.pop(),
        "samples": [
            {"t": int(s.frames.shape[0]), "label": int(s.label), "subject": int(s.subject_id)}
            for s in samples
        ],
    }
    if meta:
        header["meta"] = meta
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(_DATASET_PREAMBLE.pack(DATASET_MAGIC, DATASET_VERSION, len(blob)))
        f.write(blob)
        for s in samples:
            f.write(np.packbits(s.frames.astype(np.uint8).ravel()).tobytes())


def load_dataset(path: str | Path) -> tuple[list[FrameSequence], dict]:
    data = Path(path).read_bytes()
    if data[:4] != DATASET_MAGIC:
        raise DatasetFormatError(f"{path}: bad magic, not a dataset file")
    if len(data) < _DATASET_PREAMBLE.size:
        raise DatasetFormatError(f"{path}: truncated preamble")
    _magic, version, hlen = _DATASET_PREAMBLE.unpack_from(data)
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"{path}: unsupported dataset version {version}")
    offset = _DATASET_PREAMBLE.size + hlen
    if len(data) < offset:
        raise DatasetFormatError(f"{path}: truncated header")
    try:
        header = json.loads(data[_DATASET_PREAMBLE.size : offset].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DatasetFormatError(f"{path}: header is not UTF-8 JSON: {e}")
    if not isinstance(header, dict):
        raise DatasetFormatError(f"{path}: header is not a JSON object")
    p, h, w = (_header_int(path, header, key, key, least=1) for key in ("p", "h", "w"))
    bin_width = header.get("bin_width_ms")
    if isinstance(bin_width, bool) or not isinstance(bin_width, (int, float)) or not 0 < bin_width < math.inf:
        raise DatasetFormatError(
            f"{path}: header field bin_width_ms must be a finite positive number, got {bin_width!r}"
        )
    if not isinstance(header.get("samples"), list):
        raise DatasetFormatError(f"{path}: header field samples must be a list")
    samples = []
    for i, rec in enumerate(header["samples"]):
        t = _header_int(path, rec, "t", f"samples[{i}].t", least=1)
        label = _header_int(path, rec, "label", f"samples[{i}].label")
        subject = _header_int(path, rec, "subject", f"samples[{i}].subject")
        nbits = t * p * h * w
        nbytes = (nbits + 7) // 8
        if len(data) < offset + nbytes:
            raise DatasetFormatError(f"{path}: truncated payload at sample {len(samples)}")
        bits = np.unpackbits(np.frombuffer(data, np.uint8, count=nbytes, offset=offset))[:nbits]
        frames = bits.reshape(t, p, h, w).astype(np.uint8)
        samples.append(FrameSequence(frames, bin_width, label=label, subject_id=subject))
        offset += nbytes
    if offset != len(data):
        raise DatasetFormatError(f"{path}: {len(data) - offset} trailing bytes after the last sample")
    return samples, header


def _header_int(path, node, key: str, field: str, least: int | None = None) -> int:
    """``node[key]`` if ``node`` is a JSON object holding an int there, at
    least ``least``; otherwise a :class:`DatasetFormatError` naming ``field``."""
    v = node.get(key) if isinstance(node, dict) else None
    if isinstance(v, bool) or not isinstance(v, int) or (least is not None and v < least):
        kind = "an int" if least is None else f"an int of at least {least}"
        raise DatasetFormatError(f"{path}: header field {field} must be {kind}, got {v!r}")
    return v


def read_gesture_dir(root: str | Path, fps: float, max_frames: int) -> list[FrameSequence]:
    """Load a directory of AEDAT recordings with per-file label CSVs.

    Each ``<name>.aedat`` needs a ``<name>_labels.csv`` whose rows give
    ``class,startTime_usec,endTime_usec``; every row becomes one sample,
    binned relative to its own start time. The subject id is parsed from a
    ``user<NN>`` prefix in the file name.
    """
    import csv
    import re

    root = Path(root)
    files = sorted(root.rglob("*.aedat"))
    if not files:
        raise IngestError(f"no .aedat files under {root}")
    samples: list[FrameSequence] = []
    for f in files:
        label_path = f.with_name(f.stem + "_labels.csv")
        if not label_path.exists():
            raise IngestError(f"missing metadata file: {label_path}")
        m = re.search(r"user(\d+)", f.stem)
        if not m:
            raise IngestError(f"cannot parse subject id from file name: {f.name}")
        subject = int(m.group(1))
        stream = decode_events(f.read_bytes())
        with open(label_path, newline="") as fh:
            rows = csv.DictReader(fh)
            for row in rows:
                try:
                    cls, t0, t1 = (int(row[k]) for k in ("class", "startTime_usec", "endTime_usec"))
                except KeyError as e:
                    raise IngestError(f"{label_path}: no column {e}")
                except (TypeError, ValueError):
                    raise IngestError(
                        f"{label_path}: line {rows.line_num}: class, startTime_usec and endTime_usec "
                        f"must be integers, got {dict(row)}"
                    )
                mask = (stream.t >= t0) & (stream.t < t1)
                piece = EventStream(
                    stream.x[mask], stream.y[mask], stream.polarity[mask], stream.t[mask] - t0,
                    stream.sensor_size,
                )
                samples.append(bin_frames(piece, fps, max_frames, label=cls, subject_id=subject))
    return samples
