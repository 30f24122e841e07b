import os
import struct
import tracemalloc

import numpy as np
import pytest

from opsqft import formats
from opsqft.fields import Domain, QuaternionField2D
from opsqft.formats import (
    BadMagic,
    BadVersion,
    IoFailure,
    MalformedHeader,
    NonFiniteSample,
    TrailingBytes,
    TruncatedPayload,
    UnsupportedFormat,
    export_magnitude_pgm,
    read_field,
    read_image_ppm,
    write_field,
)

SEED = 30317


def test_write_read_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(SEED)
    p = tmp_path / "f.qf2d"
    for shape in ((1, 1), (3, 5), (8, 2)):
        field = QuaternionField2D(rng.standard_normal(shape + (4,)))
        write_field(field, p)
        back = read_field(p)
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, field.data)
        # write of the re-read field yields identical bytes
        first = p.read_bytes()
        write_field(back, p)
        assert p.read_bytes() == first


def test_header_layout(tmp_path):
    p = tmp_path / "one.qf2d"
    field = QuaternionField2D(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    write_field(field, p)
    raw = p.read_bytes()
    # 16-byte header (magic, version, n1, n2 as little-endian u32) + one record
    assert len(raw) == 48
    assert raw[:4] == b"QF2D"
    assert struct.unpack_from("<III", raw, 4) == (1, 1, 1)
    assert struct.unpack_from("<4d", raw, 16) == (1.0, 2.0, 3.0, 4.0)


def test_read_field_domain_tag(tmp_path):
    p = tmp_path / "f.qf2d"
    write_field(QuaternionField2D(np.zeros((2, 2, 4))), p)
    assert read_field(p).domain is Domain.SPATIAL
    assert read_field(p, domain=Domain.FREQUENCY).domain is Domain.FREQUENCY


def test_read_errors_name_offsets(tmp_path):
    p = tmp_path / "bad.qf2d"

    p.write_bytes(b"QF2D\x01\x00")
    with pytest.raises(TruncatedPayload, match="byte 6"):
        read_field(p)

    p.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\x00" * 32)
    with pytest.raises(BadMagic, match="byte 0"):
        read_field(p)

    p.write_bytes(b"QF2D" + struct.pack("<III", 9, 1, 1) + b"\x00" * 32)
    with pytest.raises(BadVersion, match="byte 4"):
        read_field(p)

    p.write_bytes(b"QF2D" + struct.pack("<III", 1, 0, 1))
    with pytest.raises(MalformedHeader, match="byte 8"):
        read_field(p)

    p.write_bytes(b"QF2D" + struct.pack("<III", 1, 2, 2) + b"\x00" * 40)
    with pytest.raises(TruncatedPayload, match="byte 56"):
        read_field(p)

    with pytest.raises(IoFailure):
        read_field(tmp_path / "absent.qf2d")


def test_read_rejects_bytes_after_payload(tmp_path):
    p = tmp_path / "long.qf2d"
    write_field(QuaternionField2D(np.ones((2, 3, 4))), p)
    with p.open("ab") as fh:
        fh.write(b"\x00")
    # the payload ends at 16 + 32 * 2 * 3
    with pytest.raises(TrailingBytes, match="byte 208"):
        read_field(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_rejects_non_finite_samples(tmp_path, bad):
    p = tmp_path / "nonfinite.qf2d"
    data = np.ones((4, 6, 4))
    data[1, 2, 3] = bad
    data[3, 5, 0] = bad
    p.write_bytes(b"QF2D" + struct.pack("<III", 1, 4, 6) + data.astype("<f8").tobytes())
    # the first one is float64 number (1 * 6 + 2) * 4 + 3 = 35 of the payload
    with pytest.raises(NonFiniteSample, match="byte 296") as err:
        read_field(p)
    assert err.value.offset == 16 + 8 * 35
    assert "sample [1, 2] component 3" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_rejects_non_finite_samples(tmp_path, bad):
    # the writer refuses what the reader would refuse, before any file exists
    data = np.ones((4, 6, 4))
    data[1, 2, 3] = bad
    with pytest.raises(NonFiniteSample, match="byte 296") as err:
        write_field(QuaternionField2D(data), tmp_path / "nonfinite.qf2d")
    assert "sample [1, 2] component 3" in str(err.value)
    assert os.listdir(tmp_path) == []


def test_failed_write_keeps_target_and_leaves_no_temporary(tmp_path, monkeypatch):
    p = tmp_path / "kept.qf2d"
    write_field(QuaternionField2D(np.ones((2, 2, 4))), p)
    before = p.read_bytes()

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(formats.os, "replace", no_space)
        with pytest.raises(IoFailure):
            write_field(QuaternionField2D(np.zeros((3, 3, 4))), p)
    assert p.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["kept.qf2d"]

    (tmp_path / "taken").mkdir()
    with pytest.raises(IoFailure):
        write_field(QuaternionField2D(np.zeros((3, 3, 4))), tmp_path / "taken")
    assert (tmp_path / "taken").is_dir()
    assert sorted(os.listdir(tmp_path)) == ["kept.qf2d", "taken"]


def test_write_through_symlink_keeps_link(tmp_path):
    real = tmp_path / "real.qf2d"
    link = tmp_path / "link.qf2d"
    write_field(QuaternionField2D(np.zeros((1, 1, 4))), real)
    link.symlink_to(real)
    field = QuaternionField2D(np.ones((2, 1, 4)))
    write_field(field, link)
    assert link.is_symlink()
    assert np.array_equal(read_field(real).data, field.data)


def test_read_field_holds_the_payload_once(tmp_path):
    # one writable array, not a bytes object plus a converted copy
    p = tmp_path / "big.qf2d"
    field = QuaternionField2D(np.arange(64 * 64 * 4.0).reshape(64, 64, 4))
    write_field(field, p)
    payload = 32 * 64 * 64
    tracemalloc.start()
    try:
        data = read_field(p).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload <= peak < 1.5 * payload
    base = data
    while base.base is not None:
        base = base.base
    assert isinstance(base, np.ndarray)
    assert data.flags.writeable and data.flags.c_contiguous
    data[0, 0, 0] = -1.0
    assert np.array_equal(data.reshape(-1)[1:], field.data.reshape(-1)[1:])


def test_error_message_names_file(tmp_path):
    p = tmp_path / "named.qf2d"
    p.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(BadMagic, match="named.qf2d"):
        read_field(p)


# ---------------------------------------------------------------------------
# PPM ingestion.

def test_p6_pixel_mapping(tmp_path):
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    field = read_image_ppm(p)
    assert field.data.shape == (1, 1, 4)
    assert np.array_equal(field.data[0, 0], [0.0, 1.0, 0.0, 0.0])

    p.write_bytes(b"P6\n1 1\n255\n" + bytes([0, 0, 0]))
    assert np.array_equal(read_image_ppm(p).data[0, 0], [0.0, 0.0, 0.0, 0.0])


def test_p6_row_column_order(tmp_path):
    # width 2, height 1: the second pixel sits at grid index (0, 1)
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
    field = read_image_ppm(p)
    assert field.data.shape == (1, 2, 4)
    assert np.array_equal(field.data[0, 0], [0, 1, 0, 0])
    assert np.array_equal(field.data[0, 1], [0, 0, 1, 0])


def test_p3_matches_p6(tmp_path):
    rng = np.random.default_rng(SEED + 1)
    pix = rng.integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
    p6 = tmp_path / "a.ppm"
    p6.write_bytes(b"P6\n4 3\n255\n" + pix.tobytes())
    body = " ".join(str(v) for v in pix.reshape(-1))
    p3 = tmp_path / "b.ppm"
    p3.write_text(f"P3\n# comment line\n4 3\n255\n{body}\n")
    a = read_image_ppm(p6)
    b = read_image_ppm(p3)
    assert np.array_equal(a.data, b.data)


def test_p3_matches_p6_with_comments_in_body(tmp_path):
    rng = np.random.default_rng(SEED + 2)
    pix = rng.integers(0, 256, size=(48, 64, 3), dtype=np.uint8)
    p6 = tmp_path / "a.ppm"
    p6.write_bytes(b"P6\n64 48\n255\n" + pix.tobytes())
    rows = [" ".join(str(v) for v in row.reshape(-1)) for row in pix]
    rows[3] += " # a comment 1 2 3"
    rows[7] = "#" + "\n" + rows[7]
    p3 = tmp_path / "b.ppm"
    p3.write_text("P3\n64 48 255\n" + "\n".join(rows) + "\n")
    assert np.array_equal(read_image_ppm(p6).data, read_image_ppm(p3).data)


P3_BODY = b"P3\n3 1\n255\n10 20 30\n# 999 x\n40\t50 "


@pytest.mark.parametrize("tail, offset, message", [
    (b"6x\n", len(P3_BODY), "not an integer: b'6x'"),
    (b"256 0 #c\n", len(P3_BODY), "pixel value 256 out of range"),
    (b"\n# 1 2 3", len(P3_BODY) + 8, "missing pixel value"),
])
def test_p3_body_errors_name_offsets(tmp_path, tail, offset, message):
    # the comment holds an out-of-range and a non-integer word, both skipped
    p = tmp_path / "img.ppm"
    p.write_bytes(P3_BODY + tail)
    with pytest.raises(MalformedHeader, match=f"byte {offset}: .*{message}"):
        read_image_ppm(p)


def test_ppm_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P6 # format\n# size next\n 1\t1 # dims\n255\n" + bytes([9, 18, 27]))
    field = read_image_ppm(p)
    assert np.allclose(field.data[0, 0], [0, 9 / 255, 18 / 255, 27 / 255])


def test_ppm_rejects_wrong_maxval_and_magic(tmp_path):
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
    with pytest.raises(UnsupportedFormat):
        read_image_ppm(p)
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(UnsupportedFormat):
        read_image_ppm(p)


def test_ppm_rejects_malformed(tmp_path):
    p = tmp_path / "img.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(MalformedHeader):
        read_image_ppm(p)
    p.write_bytes(b"P3\n1 1\n255\n12 999 0\n")
    with pytest.raises(MalformedHeader):
        read_image_ppm(p)
    p.write_bytes(b"P3\n1 1\n255\n12 x 0\n")
    with pytest.raises(MalformedHeader):
        read_image_ppm(p)


def test_ingested_image_round_trips_through_field_file(tmp_path):
    ramp = bytes(range(12))
    src = tmp_path / "r.ppm"
    src.write_bytes(b"P6\n2 2\n255\n" + ramp)
    field = read_image_ppm(src)
    q = tmp_path / "r.qf2d"
    write_field(field, q)
    assert np.array_equal(read_field(q).data, field.data)


# ---------------------------------------------------------------------------
# PGM export.

def read_pgm(path):
    raw = path.read_bytes()
    head, rest = raw.split(b"\n", 1)
    assert head == b"P5"
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(t) for t in dims.split())
    maxval, pix = rest.split(b"\n", 1)
    assert maxval == b"255"
    return np.frombuffer(pix, dtype=np.uint8).reshape(h, w)


def test_export_zero_field(tmp_path):
    p = tmp_path / "z.pgm"
    export_magnitude_pgm(QuaternionField2D(np.zeros((3, 5, 4))), p)
    img = read_pgm(p)
    assert img.shape == (3, 5)
    assert not img.any()


def test_export_normalizes_to_peak(tmp_path):
    # at 5e307 the peak norm 1.5e308 fits a double but its square does not
    for scale in (1.0, 5e307):
        data = np.zeros((2, 2, 4))
        data[0, 0, 1] = 3.0 * scale
        data[1, 1, 2] = 1.5 * scale
        p = tmp_path / f"m{scale:g}.pgm"
        export_magnitude_pgm(QuaternionField2D(data), p)
        img = read_pgm(p)
        assert img[0, 0] == 255
        assert img[1, 1] == 128  # 1.5 / 3 * 255 rounded
        assert img[0, 1] == 0


def test_export_centered_moves_origin(tmp_path):
    data = np.zeros((4, 6, 4))
    data[0, 0, 0] = 1.0
    p = tmp_path / "c.pgm"
    export_magnitude_pgm(QuaternionField2D(data), p, centered=True)
    img = read_pgm(p)
    assert img[2, 3] == 255
    assert img.sum() == 255
