"""Event container decoding, binning, splitting, dataset files.

``encode_aedat`` below is an independent writer for the AEDAT 3.1 container,
assembled from the byte-layout description with plain struct packing. The
decoder is tested against it field by field, never against itself.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronospike.events import (
    DatasetFormatError,
    EventStream,
    FrameSequence,
    IngestError,
    MalformedEvent,
    MalformedHeader,
    TruncatedEvent,
    UnknownSubject,
    bin_frames,
    decode_events,
    load_dataset,
    read_gesture_dir,
    save_dataset,
    split_dataset,
)


def encode_polarity_packet(events, tsoverflow=0):
    """One polarity packet from (x, y, pol, t_us, valid) tuples."""
    n = len(events)
    n_valid = sum(1 for e in events if e[4])
    head = struct.pack("<hhiiiiii", 1, 0, 8, 4, tsoverflow, n, n, n_valid)
    body = b""
    for x, y, pol, t, valid in events:
        word = (x << 17) | (y << 2) | (pol << 1) | (1 if valid else 0)
        body += struct.pack("<II", word, t)
    return head + body


def encode_aedat(packets, header_lines=("creation time: test",)):
    out = b"#!AER-DAT3.1\r\n"
    for line in header_lines:
        out += b"#" + line.encode() + b"\r\n"
    for p in packets:
        out += p
    return out


def test_round_trip_single_packet():
    events = [(3, 7, 1, 1000, True), (120, 90, 0, 1500, True), (0, 0, 1, 2000, True)]
    stream = decode_events(encode_aedat([encode_polarity_packet(events)]))
    assert stream.x.tolist() == [3, 120, 0]
    assert stream.y.tolist() == [7, 90, 0]
    assert stream.polarity.tolist() == [1, 0, 1]
    assert stream.t.tolist() == [1000, 1500, 2000]


def test_decode_sorts_by_timestamp():
    events = [(1, 1, 1, 900, True), (2, 2, 0, 100, True), (3, 3, 1, 500, True)]
    stream = decode_events(encode_aedat([encode_polarity_packet(events)]))
    assert stream.t.tolist() == [100, 500, 900]
    assert stream.x.tolist() == [2, 3, 1]


def test_invalid_events_dropped_even_with_bad_coordinates():
    events = [(5, 5, 1, 100, True), (20000 & 0x7FFF, 6, 0, 200, False)]
    stream = decode_events(encode_aedat([encode_polarity_packet(events)]))
    assert len(stream) == 1
    assert stream.x.tolist() == [5]


def test_timestamp_overflow_extends_32bit_range():
    events = [(1, 2, 1, 10, True)]
    stream = decode_events(encode_aedat([encode_polarity_packet(events, tsoverflow=3)]))
    assert stream.t.tolist() == [(3 << 31) + 10]


def test_non_polarity_packets_skipped():
    # a type-2 packet with 12-byte events; payload is arbitrary
    other = struct.pack("<hhiiiiii", 2, 0, 12, 4, 0, 2, 2, 2) + b"\x00" * 24
    pol = encode_polarity_packet([(9, 9, 1, 50, True)])
    stream = decode_events(encode_aedat([other, pol]))
    assert stream.x.tolist() == [9]


def test_capacity_exceeding_number_skips_padding():
    # capacity 3, number 1: two slots of padding after the real event
    head = struct.pack("<hhiiiiii", 1, 0, 8, 4, 0, 3, 1, 1)
    body = struct.pack("<II", (4 << 17) | (5 << 2) | (1 << 1) | 1, 77) + b"\x00" * 16
    pol2 = encode_polarity_packet([(6, 6, 0, 200, True)])
    stream = decode_events(encode_aedat([head + body, pol2]))
    assert stream.x.tolist() == [4, 6]
    assert stream.t.tolist() == [77, 200]


def test_missing_magic_raises():
    with pytest.raises(MalformedHeader):
        decode_events(b"#!AER-DAT2.0\r\n")
    with pytest.raises(MalformedHeader):
        decode_events(b"not even a header")


def test_unterminated_header_line_raises():
    with pytest.raises(MalformedHeader):
        decode_events(b"#!AER-DAT3.1\r\n# dangling comment without newline")


def test_truncated_packet_header_reports_offset():
    blob = encode_aedat([encode_polarity_packet([(1, 1, 1, 10, True)])])
    cut = blob[: len(blob) - 8 - 10]  # into the packet header
    with pytest.raises(TruncatedEvent) as exc_info:
        decode_events(cut)
    # the header starts right after the two ASCII lines
    header_len = len(b"#!AER-DAT3.1\r\n#creation time: test\r\n")
    assert exc_info.value.offset == header_len


def test_truncated_event_body_reports_offset():
    blob = encode_aedat([encode_polarity_packet([(1, 1, 1, 10, True), (2, 2, 0, 20, True)])])
    cut = blob[:-4]
    with pytest.raises(TruncatedEvent) as exc_info:
        decode_events(cut)
    header_len = len(b"#!AER-DAT3.1\r\n#creation time: test\r\n")
    assert exc_info.value.offset == header_len + 28


def test_out_of_bounds_coordinate_raises():
    with pytest.raises(MalformedEvent):
        decode_events(encode_aedat([encode_polarity_packet([(200, 5, 1, 10, True)])]))
    with pytest.raises(MalformedEvent):
        decode_events(encode_aedat([encode_polarity_packet([(5, 128, 1, 10, True)])]))


def test_coordinates_are_checked_after_the_packet_walk():
    # the first bad valid event in file order is named, though a later packet holds an earlier timestamp
    first = encode_polarity_packet([(5, 5, 1, 10, True), (200, 6, 0, 20, True)])
    blob = encode_aedat([first, encode_polarity_packet([(7, 130, 1, 5, True)])])
    with pytest.raises(MalformedEvent, match=r"\(200, 6\) outside sensor 128x128"):
        decode_events(blob)
    # a truncated packet after the bad coordinate is what gets reported
    with pytest.raises(TruncatedEvent, match="packet body needs 8 bytes, 7 left"):
        decode_events(blob[:-1])


def test_empty_file_after_header_is_empty_stream():
    stream = decode_events(encode_aedat([]))
    assert len(stream) == 0


def test_negative_timestamp_overflow_is_an_inconsistent_header():
    blob = encode_aedat([encode_polarity_packet([(1, 2, 1, 10, True)], tsoverflow=-1)])
    with pytest.raises(TruncatedEvent, match="inconsistent packet header") as exc_info:
        decode_events(blob)
    assert exc_info.value.offset == len(b"#!AER-DAT3.1\r\n#creation time: test\r\n")


_event = st.tuples(
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=1),
    st.one_of(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=2**32 - 1)),
    st.booleans(),
)


@given(
    packets=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.lists(_event, max_size=20)), min_size=1, max_size=4
    ),
    other_at=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80)
def test_round_trip_property(packets, other_at):
    """1 to 4 polarity packets, each with its own overflow and validity flags,
    and a non-polarity packet after the first (between two of them when there
    are two or more): the valid events come back at ``t + (overflow << 31)``,
    in stable order by that time."""
    blobs = [encode_polarity_packet(events, tsoverflow=ovf) for ovf, events in packets]
    # a type-2 packet of 12-byte events, whose payload would decode to coordinates off the sensor
    other = struct.pack("<hhiiiiii", 2, 0, 12, 4, 0, 2, 2, 2) + b"\xff" * 24
    blobs.insert(1 + other_at % max(len(blobs) - 1, 1), other)
    stream = decode_events(encode_aedat(blobs))
    valid = [(x, y, p, t + (ovf << 31)) for ovf, events in packets for x, y, p, t, ok in events if ok]
    expect = sorted(valid, key=lambda e: e[3])
    columns = (stream.x, stream.y, stream.polarity, stream.t)
    assert all(c.dtype == np.int64 for c in columns) and len(stream) == len(expect)
    assert list(zip(*(c.tolist() for c in columns))) == expect


# -- binning --------------------------------------------------------------


def _stream(xs, ys, ps, ts, size=(128, 128)):
    return EventStream(
        np.asarray(xs, np.int64),
        np.asarray(ys, np.int64),
        np.asarray(ps, np.int64),
        np.asarray(ts, np.int64),
        size,
    )


def test_bin_frames_examples():
    # at 33 fps: 10 ms lands in bin 0, 40 ms in bin 1, 6.5 s is past 200 bins
    stream = _stream([1, 2, 3], [1, 2, 3], [1, 0, 1], [10_000, 40_000, 6_500_000])
    seq = bin_frames(stream, fps=33.0, max_frames=200)
    assert seq.frames.shape == (200, 2, 128, 128)
    assert seq.frames[0, 1, 1, 1] == 1
    assert seq.frames[1, 0, 2, 2] == 1
    assert seq.frames.sum() == 2  # the 6.5 s event was dropped
    assert seq.bin_width_ms == pytest.approx(1000.0 / 33.0)


def test_bin_frames_presence_not_count():
    stream = _stream([4, 4], [5, 5], [1, 1], [1000, 2000])
    seq = bin_frames(stream, fps=33.0, max_frames=10)
    assert seq.frames[0, 1, 5, 4] == 1
    assert seq.frames.sum() == 1


def test_bin_frames_rejects_bad_args():
    stream = _stream([], [], [], [])
    with pytest.raises(ValueError):
        bin_frames(stream, fps=0.0, max_frames=10)
    with pytest.raises(ValueError):
        bin_frames(stream, fps=33.0, max_frames=0)


def test_bin_frames_at_a_huge_fps_keeps_only_bin_0():
    # every event after t = 0 lands in a bin near 1e294, past max_frames and
    # past int64, which must be dropped, not cast to a negative index
    stream = _stream([1, 2, 3], [1, 2, 3], [1, 0, 1], [0, 1, 40_000])
    seq = bin_frames(stream, fps=1e300, max_frames=4)
    assert seq.frames[0, 1, 1, 1] == 1
    assert seq.frames.sum() == 1


def test_bin_frames_drops_events_before_the_origin():
    # at 1000 fps, t = -1 us lies in bin -1 and t = -2**31 us in bin -2147484:
    # both are dropped, neither wraps to a bin counted from the end nor indexes past it
    for t in (-1, -(2**31)):
        seq = bin_frames(_stream([1, 2], [1, 2], [1, 0], [t, 4_999]), fps=1000.0, max_frames=5)
        assert seq.frames[4, 0, 2, 2] == 1
        assert seq.frames.sum() == 1, t


def implied_events(frames: np.ndarray, fps: float) -> EventStream:
    """One event per set bit, placed at its bin's center time.

    Centers re-bin to the original index, so binning the implied events of a
    binned tensor reproduces that tensor exactly.
    """
    t_bin, p, y, x = np.nonzero(frames)
    t_us = np.round((t_bin + 0.5) * 1e6 / fps).astype(np.int64)
    order = np.argsort(t_us, kind="stable")
    return EventStream(x[order], y[order], p[order], t_us[order], (frames.shape[3], frames.shape[2]))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_binning_idempotent_through_implied_events(seed):
    rng = np.random.default_rng(seed)
    frames = (rng.random((7, 2, 6, 5)) < 0.2).astype(np.uint8)
    stream = implied_events(frames, fps=33.0)
    seq = bin_frames(stream, fps=33.0, max_frames=7)
    np.testing.assert_array_equal(seq.frames, frames)


def test_binning_idempotent_at_integer_and_fractional_fps():
    rng = np.random.default_rng(5)
    frames = (rng.random((20, 2, 8, 8)) < 0.15).astype(np.uint8)
    for fps in (33.0, 29.97):
        stream = implied_events(frames, fps=fps)
        seq = bin_frames(stream, fps=fps, max_frames=20)
        np.testing.assert_array_equal(seq.frames, frames, err_msg=f"fps={fps}")


@given(
    fps=st.one_of(st.sampled_from([25, 30, 33, 1000, 100_000]), st.integers(1, 100_000)),
    k=st.integers(0, 1 << 20),
    as_float=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_bin_frames_matches_integer_floor_division(fps, k, as_float):
    """At an integer fps, the bin of t microseconds is t * fps // 10**6 in
    Python ints: checked at the first microsecond of bins k to k + 64 (pixel
    x = 0) and at the microsecond before each (x = 1)."""
    times = [(max(-(-b * 10**6 // fps) + d, 0), -d) for b in range(k, k + 65) for d in (-1, 0)]
    t, x = (np.array(v, np.int64) for v in zip(*sorted(times)))
    zeros = np.zeros(t.size, np.int64)
    stream = EventStream(x, zeros, zeros, t, (2, 1))
    got = bin_frames(stream, fps=float(fps) if as_float else fps, max_frames=k + 64).frames[:, 0, 0, :]
    want = np.zeros((k + 64, 2), np.uint8)
    for ti, xi in times:
        if ti * fps // 10**6 < k + 64:
            want[ti * fps // 10**6, xi] = 1
    np.testing.assert_array_equal(got, want)


# -- subject split ---------------------------------------------------------


def _sample(label, subject):
    return FrameSequence(np.zeros((2, 2, 4, 4), np.uint8), 30.0, label=label, subject_id=subject)


def test_split_partitions_by_subject_and_relabels():
    samples = [
        _sample(1, 1),
        _sample(11, 2),  # excluded class
        _sample(5, 23),
        _sample(10, 24),
        _sample(2, 29),
    ]
    train, test = split_dataset(samples)
    assert [(s.label, s.subject_id) for s in train] == [(0, 1), (4, 23)]
    assert [(s.label, s.subject_id) for s in test] == [(9, 24), (1, 29)]


def test_split_rejects_unknown_subject():
    with pytest.raises(UnknownSubject):
        split_dataset([_sample(1, 30)])
    with pytest.raises(UnknownSubject):
        split_dataset([_sample(1, 0)])


def test_split_rejects_unknown_label():
    with pytest.raises(ValueError):
        split_dataset([_sample(12, 3)])
    with pytest.raises(ValueError):
        split_dataset([_sample(0, 3)])


# -- dataset container -------------------------------------------------------


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = [
        FrameSequence((rng.random((5, 2, 4, 6)) < 0.3).astype(np.uint8), 30.3, label=k, subject_id=k + 1)
        for k in range(3)
    ]
    path = tmp_path / "data.cspk"
    save_dataset(path, samples, meta={"origin": "unit-test"})
    loaded, header = load_dataset(path)
    assert header["meta"]["origin"] == "unit-test"
    assert len(loaded) == 3
    for a, b in zip(samples, loaded):
        np.testing.assert_array_equal(a.frames, b.frames)
        assert a.label == b.label
        assert a.subject_id == b.subject_id
        assert b.bin_width_ms == pytest.approx(30.3)


def test_dataset_rejects_empty_and_mixed_shapes(tmp_path):
    with pytest.raises(DatasetFormatError):
        save_dataset(tmp_path / "x.cspk", [])
    bad = [
        FrameSequence(np.zeros((2, 2, 4, 4), np.uint8), 30.0),
        FrameSequence(np.zeros((2, 2, 5, 4), np.uint8), 30.0),
    ]
    with pytest.raises(DatasetFormatError):
        save_dataset(tmp_path / "y.cspk", bad)


def test_dataset_rejects_mixed_bin_widths(tmp_path):
    mixed = [FrameSequence(np.zeros((2, 2, 4, 4), np.uint8), width) for width in (30.3, 1.0)]
    with pytest.raises(DatasetFormatError, match=r"bin_width_ms: \[1\.0, 30\.3\]"):
        save_dataset(tmp_path / "z.cspk", mixed)
    assert not (tmp_path / "z.cspk").exists()


def test_dataset_truncation_detected(tmp_path):
    samples = [FrameSequence(np.ones((4, 2, 8, 8), np.uint8), 30.0, label=1, subject_id=1)]
    path = tmp_path / "data.cspk"
    save_dataset(path, samples)
    blob = path.read_bytes()
    for cut in (2, len(blob) - 7, len(blob) - 1):
        broken = tmp_path / f"cut{cut}.cspk"
        broken.write_bytes(blob[:cut])
        with pytest.raises(DatasetFormatError):
            load_dataset(broken)


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "junk.cspk"
    path.write_bytes(b"JUNKxxxxxxxxxxxxx")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """A valid two-sample dataset file's bytes, and a directory to write into."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(1)
    samples = [
        FrameSequence((rng.random((3, 2, 2, 3)) < 0.5).astype(np.uint8), 30.0, label=k, subject_id=k + 1)
        for k in range(2)
    ]
    save_dataset(root / "valid.cspk", samples)
    return root, (root / "valid.cspk").read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_single_byte_change_loads_or_is_a_format_error(small_dataset, data):
    root, blob = small_dataset
    i = data.draw(st.integers(0, len(blob) - 1), label="offset")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[i]), label="byte")
    path = root / "mutated.cspk"
    path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1 :])
    try:
        load_dataset(path)
    except DatasetFormatError:
        pass


# -- recording directory -------------------------------------------------------


def _write_recording(dirpath, name, rows, events):
    (dirpath / f"{name}.aedat").write_bytes(encode_aedat([encode_polarity_packet(events)]))
    lines = ["class,startTime_usec,endTime_usec"]
    lines += [f"{c},{t0},{t1}" for c, t0, t1 in rows]
    (dirpath / f"{name}_labels.csv").write_text("\n".join(lines) + "\n")


def test_read_gesture_dir_slices_recordings(tmp_path):
    events = [
        (1, 1, 1, 10_000, True),
        (2, 2, 0, 1_050_000, True),
        (3, 3, 1, 2_100_000, True),
    ]
    _write_recording(tmp_path, "user07_fluorescent", [(2, 0, 1_000_000), (5, 1_000_000, 3_000_000)], events)
    samples = read_gesture_dir(tmp_path, fps=33.0, max_frames=40)
    assert len(samples) == 2
    assert samples[0].label == 2 and samples[0].subject_id == 7
    assert samples[1].label == 5 and samples[1].subject_id == 7
    # second slice re-origins times: first event at 50 ms lands in bin 1
    assert samples[1].frames[1, 0, 2, 2] == 1
    assert samples[0].frames[0, 1, 1, 1] == 1


def test_read_gesture_dir_missing_labels_names_file(tmp_path):
    (tmp_path / "user01_led.aedat").write_bytes(encode_aedat([]))
    with pytest.raises(IngestError) as exc_info:
        read_gesture_dir(tmp_path, fps=33.0, max_frames=10)
    assert "user01_led_labels.csv" in str(exc_info.value)


def test_read_gesture_dir_requires_subject_in_name(tmp_path):
    _write_recording(tmp_path, "nosubject_here", [(1, 0, 100)], [(1, 1, 1, 10, True)])
    with pytest.raises(IngestError):
        read_gesture_dir(tmp_path, fps=33.0, max_frames=10)


def test_read_gesture_dir_empty(tmp_path):
    with pytest.raises(IngestError):
        read_gesture_dir(tmp_path, fps=33.0, max_frames=10)
