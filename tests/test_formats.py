import contextlib
import io
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsqft import formats
from opsqft.cli import main
from opsqft.fields import QuaternionField2D
from opsqft.quat import _BLOCK, norm_arr
from opsqft.formats import (
    BadMagic,
    BadVersion,
    FileFormatError,
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


def _expected_error(raw: bytes):
    """The error class and byte offset that the layout says ``raw`` must
    raise, or None for a well-formed file."""
    if len(raw) < 16:
        return TruncatedPayload, len(raw)
    version, n1, n2 = struct.unpack_from("<III", raw, 4)
    end = 16 + 32 * n1 * n2
    if raw[:4] != b"QF2D":
        return BadMagic, 0
    if version != 1:
        return BadVersion, 4
    if n1 < 1 or n2 < 1:
        return MalformedHeader, 8
    if len(raw) < end:
        return TruncatedPayload, len(raw)
    if len(raw) > end:
        return TrailingBytes, end
    return None


# a valid 2 x 3 file is 16 + 192 bytes; each case edits its header,
# truncates it or appends to it
_EDITS = st.one_of(
    st.dictionaries(st.integers(0, 15), st.integers(0, 255), min_size=1, max_size=4)
    .map(lambda edits: ("header", edits)),
    st.integers(0, 207).map(lambda size: ("truncate", size)),
    st.binary(min_size=1, max_size=40).map(lambda tail: ("append", tail)),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(edit=_EDITS)
def test_fuzzed_field_files_fail_at_their_offset(tmp_path_factory, edit):
    p = tmp_path_factory.mktemp("fuzz") / "f.qf2d"
    write_field(QuaternionField2D(np.ones((2, 3, 4))), p)
    raw = bytearray(p.read_bytes())
    kind, arg = edit
    if kind == "header":
        for i, byte in arg.items():
            raw[i] = byte
    elif kind == "truncate":
        del raw[arg:]
    else:
        raw += arg
    p.write_bytes(raw)
    expected = _expected_error(bytes(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["info", "--in", str(p)])
    if expected is None:
        # an edit that keeps the file well formed (n1 n2 = 6, or a byte unchanged)
        assert read_field(p).data.size == 24
        assert code == 0
        return
    cls, offset = expected
    with pytest.raises(cls) as info:
        read_field(p)
    assert info.value.offset == offset
    assert code == 3
    assert f"byte {offset}:" in err.getvalue()


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


WRITERS = (write_field, export_magnitude_pgm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_rejects_non_finite_samples(tmp_path, bad):
    # each writer refuses what the reader would refuse, before any file
    # exists; no byte of a graymap is at fault, so it names no offset
    data = np.ones((4, 6, 4))
    data[1, 2, 3] = bad
    path = tmp_path / "nonfinite"
    for write, at in zip(WRITERS, ("byte 296: ", "")):
        with pytest.raises(NonFiniteSample) as err:
            write(QuaternionField2D(data), path)
        assert str(err.value) == f"{path}: {at}sample [1, 2] component 3 is {bad}"
        assert err.value.offset == (296 if at else None)
        assert os.listdir(tmp_path) == []


# Grids of two whole blocks of the finiteness check, and of one block and
# a ragged 516 samples; the positions are each block's first and last
# component.
COMPONENTS = 4 * _BLOCK
FINITE_CASES = [(shape, i) for shape in ((128, 256), (130, 130))
                for i in (0, COMPONENTS - 1, COMPONENTS, shape[0] * shape[1] * 4 - 1)]


def _non_finite_message(i, n2, bad):
    n, c = divmod(i, 4)
    return f"byte {16 + 8 * i}: sample [{n // n2}, {n % n2}] component {c} is {bad}"


@pytest.mark.parametrize("shape, i", FINITE_CASES)
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_blocked_finiteness_check_names_the_first_bad_component(tmp_path, shape, i, bad):
    data = np.random.default_rng(SEED + i).standard_normal(shape + (4,))
    flat = data.reshape(-1)
    flat[i] = bad
    flat[-1 if i < flat.size - 1 else 0] = np.inf  # a later one on the last block, or none
    if i == flat.size - 1:
        flat[0] = 1.0
    message = _non_finite_message(i, shape[1], np.float64(bad))
    with pytest.raises(NonFiniteSample) as err:
        write_field(QuaternionField2D(data), tmp_path / "w.qf2d")
    assert str(err.value).endswith(message)
    assert os.listdir(tmp_path) == []
    p = tmp_path / "r.qf2d"
    p.write_bytes(b"QF2D" + struct.pack("<III", 1, *shape) + data.astype("<f8").tobytes())
    with pytest.raises(NonFiniteSample) as err:
        read_field(p)
    assert err.value.offset == 16 + 8 * i
    assert str(err.value).endswith(message)


def test_failed_write_keeps_target_and_leaves_no_temporary(tmp_path, monkeypatch):
    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    for write in WRITERS:
        d = tmp_path / write.__name__
        d.mkdir()
        p = d / "kept"
        write(QuaternionField2D(np.ones((2, 2, 4))), p)
        before = p.read_bytes()
        with monkeypatch.context() as m:
            m.setattr(formats.os, "replace", no_space)
            with pytest.raises(IoFailure):
                write(QuaternionField2D(np.zeros((3, 3, 4))), p)
        assert p.read_bytes() == before
        assert sorted(os.listdir(d)) == ["kept"]

        (d / "taken").mkdir()
        with pytest.raises(IoFailure):
            write(QuaternionField2D(np.zeros((3, 3, 4))), d / "taken")
        assert (d / "taken").is_dir()
        assert sorted(os.listdir(d)) == ["kept", "taken"]


def test_write_through_symlink_keeps_link(tmp_path):
    for write in WRITERS:
        d = tmp_path / write.__name__
        d.mkdir()
        real, link = d / "real", d / "link"
        write(QuaternionField2D(np.zeros((1, 1, 4))), real)
        link.symlink_to(real)
        field = QuaternionField2D(np.ones((2, 1, 4)))
        write(field, link)
        assert link.is_symlink()
        write(field, d / "direct")
        assert real.read_bytes() == (d / "direct").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null here")
def test_writers_write_a_device_in_place():
    # a target that is not a regular file is written, not replaced
    for write in WRITERS:
        write(QuaternionField2D(np.ones((2, 3, 4))), "/dev/null")
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


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
    # int() takes both words; a PPM number is ASCII digits only
    (b"1_0\n", len(P3_BODY), "not an integer: b'1_0'"),
    (b"+5\n", len(P3_BODY), "not an integer: b'\\+5'"),
])
def test_p3_body_errors_name_offsets(tmp_path, tail, offset, message):
    # the comment holds an out-of-range and a non-integer word, both skipped
    p = tmp_path / "img.ppm"
    p.write_bytes(P3_BODY + tail)
    with pytest.raises(MalformedHeader, match=f"byte {offset}: .*{message}"):
        read_image_ppm(p)


def _p3_file(words, seps, comments):
    """A 1-row P3 file of ``words``, each followed by a separator from ``seps``
    and, where ``comments`` says so, a comment ending at a newline."""
    body = b"".join(w + s + (b"# 1 x\n" if c else b"") for w, s, c in zip(words, seps, comments))
    return b"P3\n%d 1\n255\n" % (len(words) // 3) + body


@pytest.mark.parametrize("comments", [False, True])
def test_p3_words_and_separators(tmp_path, monkeypatch, comments):
    # every separator byte, with and without comments between the words,
    # leading zeros and words of up to 20 characters: the values are those
    # of int(), and every pixel word is decoded in bulk, none on its own
    rng = np.random.default_rng(SEED + 3 + comments)
    values = rng.integers(0, 256, 3 * 400)
    words = [b"%d" % v for v in values]
    words[5:10] = b"007", b"0255", b"0000", b"00000000042", b"0" * 17 + b"042"
    values[5:10] = 7, 255, 0, 42, 42
    seps = [b" \t\r\n"[k:k + 1] * (1 + k % 2) for k in rng.integers(0, 4, len(words))]
    marks = rng.random(len(words)) < 0.2 if comments else [False] * len(words)
    p = tmp_path / "a.ppm"
    p.write_bytes(_p3_file(words, seps, marks))
    calls = []
    integer = formats._integer

    def recording(path, off, tok, what):
        calls.append(what)
        return integer(path, off, tok, what)

    monkeypatch.setattr(formats, "_integer", recording)
    got = read_image_ppm(p).data
    assert np.array_equal(got[0, :, 1:].reshape(-1), values / 255.0)
    assert not got[..., 0].any()
    assert calls == ["width", "height", "maxval"]


@pytest.mark.parametrize("comments", [False, True])
@pytest.mark.parametrize("bad, message", [
    (b"256", "pixel value 256 out of range"),
    (b"1000", "pixel value 1000 out of range"),
    (b"-1", "pixel value -1 out of range"),
    (b"2a", "not an integer"),
    (b"a2", "not an integer"),
    (b"/", "not an integer"),
    (b":", "not an integer"),
])
def test_p3_bad_word_offsets(tmp_path, comments, bad, message):
    # the first bad word is named at its byte, with a later bad word present
    rng = np.random.default_rng(SEED + 5)
    words = [b"%d" % v for v in rng.integers(0, 256, 3 * 50)]
    words[61], words[90] = bad, b"999"
    seps = [b" \t\r\n"[k:k + 1] for k in rng.integers(0, 4, len(words))]
    marks = [comments and k % 7 == 0 for k in range(len(words))]
    raw = _p3_file(words, seps, marks)
    head = _p3_file(words[:61], seps[:61], marks[:61])
    p = tmp_path / "a.ppm"
    p.write_bytes(raw)
    with pytest.raises(MalformedHeader, match=f"byte {len(head)}: .*{message}") as err:
        read_image_ppm(p)
    assert err.value.offset == len(head)


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
    # the file ends right after maxval: the error names its end, not a byte past it
    p.write_bytes(b"P6\n1 1\n255")
    with pytest.raises(MalformedHeader, match="byte 10: pixel data needs 3 bytes, got 0"):
        read_image_ppm(p)
    p.write_bytes(b"P3\n1 1\n255\n12 999 0\n")
    with pytest.raises(MalformedHeader):
        read_image_ppm(p)
    p.write_bytes(b"P3\n1 1\n255\n12 x 0\n")
    with pytest.raises(MalformedHeader):
        read_image_ppm(p)
    # '_' and '+', which int() takes, are not PPM digits: not 10 x 1 nor 1 x 1
    p.write_bytes(b"P6\n1_0 +1\n255\n" + bytes(30))
    with pytest.raises(MalformedHeader, match=r"byte 3: width is not an integer: b'1_0'"):
        read_image_ppm(p)
    p.write_bytes(b"P6\n1 +1\n255\n" + bytes(3))
    with pytest.raises(MalformedHeader, match=r"byte 5: height is not an integer: b'\+1'"):
        read_image_ppm(p)


@pytest.mark.parametrize("raw, offset", [
    # a binary file: its one word is the whole megabyte
    (b"\xff" * (1 << 20), 0),
    # numbers longer than int() reads (4300 digits), and a product of two
    # that int() reads but cannot print
    (b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3), 3),
    (b"P3\n1 1\n255\n" + b"0" * 5000 + b" 0 0\n", 11),
    (b"P6\n" + b"9" * 4300 + b" " + b"9" * 4300 + b"\n255\n" + bytes(3), 3),
    # a number that int() reads, out of range
    (b"P3\n1 1\n255\n" + b"9" * 4000 + b" 0 0\n", 11),
], ids=["binary", "p6-width", "p3-zeros", "p6-size", "p3-value"])
def test_ppm_diagnostics_are_bounded(tmp_path, capsys, raw, offset):
    # one short stderr line that quotes a prefix of the word at fault
    p = tmp_path / "a.ppm"
    p.write_bytes(raw)
    assert main(["import-ppm", "--in", str(p), "--out", str(tmp_path / "a.qf2d")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("opsqft: ") and err.count("\n") == 1 and len(err.encode()) < 200
    assert f"byte {offset}: " in err


@pytest.mark.parametrize("head, offset", [
    (b"P6\n0 1\n", 3),
    (b"P6 # c\n 2 -1\n", 10),
    (b"P3\n-2 0\n", 3),
])
def test_ppm_non_positive_size_names_its_offset(tmp_path, head, offset):
    p = tmp_path / "img.ppm"
    p.write_bytes(head + b"255\n")
    with pytest.raises(MalformedHeader, match=f"byte {offset}: .*is not positive"):
        read_image_ppm(p)


def _ppm_words(raw: bytes):
    """(offset, word) over the words of ``raw``, byte by byte: words are
    split by space, tab, CR and LF, and a '#' that starts a word comments
    out the rest of its line."""
    i, n = 0, len(raw)
    while i < n:
        if raw[i:i + 1] in b" \t\r\n":
            i += 1
        elif raw[i:i + 1] == b"#":
            while i < n and raw[i:i + 1] != b"\n":
                i += 1
        else:
            start = i
            while i < n and raw[i:i + 1] not in b" \t\r\n":
                i += 1
            yield start, raw[start:i]


def _is_decimal(word: bytes) -> bool:
    """A PPM number: ASCII digits, after one '-' at most (not '+', not '_'),
    at most 20 characters in all."""
    digits = word[1:] if word.startswith(b"-") else word
    return digits != b"" and len(word) <= 20 and all(48 <= c <= 57 for c in digits)


def _expected_ppm(raw: bytes):
    """The error class and byte offset that the P3/P6 layout says ``raw``
    must raise, or the (height, width, 3) pixel values of a well-formed file."""
    words = list(_ppm_words(raw))
    if not words:
        return MalformedHeader, len(raw)
    off, magic = words[0]
    if magic not in (b"P3", b"P6"):
        return UnsupportedFormat, off
    head = []
    for off, word in words[1:4]:
        if not _is_decimal(word):
            return MalformedHeader, off
        head.append((off, int(word)))
    if len(head) < 3:
        return MalformedHeader, len(raw)
    (width_off, width), (height_off, height), (maxval_off, maxval) = head
    if width < 1:
        return MalformedHeader, width_off
    if height < 1:
        return MalformedHeader, height_off
    if maxval != 255:
        return UnsupportedFormat, maxval_off
    count = 3 * width * height
    if magic == b"P6":
        # one whitespace byte after maxval, then the pixel bytes
        start = maxval_off + len(words[3][1]) + 1
        body = raw[start:start + count]
        if len(body) < count:
            return MalformedHeader, min(start, len(raw)) + len(body)
        values = list(body)
    else:
        values = []
        for off, word in words[4:4 + count]:
            if not _is_decimal(word) or not 0 <= int(word) <= 255:
                return MalformedHeader, off
            values.append(int(word))
        if len(values) < count:
            return MalformedHeader, len(raw)
    return np.array(values, dtype=np.float64).reshape(height, width, 3)


# valid 3 x 2 pixmaps, a comment in the header; each case edits its
# header bytes, truncates it or, for P3, replaces one pixel word
_PPM_HEAD = b"P%d\n# c\n3 2\n255\n"
_PPM_VALUES = [37 * k % 256 for k in range(18)]
_PPM_EDITS = st.one_of(
    st.tuples(st.just("header"), st.sampled_from((3, 6)),
              st.dictionaries(st.integers(0, len(_PPM_HEAD % 3) - 1),
                              st.one_of(st.sampled_from(b"0123456789 \t\n#+-P36"),
                                        st.integers(0, 255)),
                              min_size=1, max_size=3)),
    st.tuples(st.just("truncate"), st.sampled_from((3, 6)), st.integers(0, 80)),
    st.tuples(st.just("word"), st.integers(0, 17),
              st.one_of(st.sampled_from([b"", b"256", b"-1", b"-0", b"x", b"+7", b"0255",
                                         b"0" * 16 + b"0255", b"0" * 21,
                                         b"1_0", b"#", b"# 1", b"1\n#"]),
                        st.binary(max_size=4))),
)


def _ppm_file(magic, words=None):
    if magic == 6:
        return _PPM_HEAD % 6 + bytes(_PPM_VALUES)
    words = words or [b"%d" % v for v in _PPM_VALUES]
    return _PPM_HEAD % 3 + b" ".join(words) + b"\n"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(edit=_PPM_EDITS)
def test_fuzzed_ppm_files_fail_at_their_offset(tmp_path_factory, edit):
    kind, a, b = edit
    if kind == "header":
        raw = bytearray(_ppm_file(a))
        for i, byte in b.items():
            raw[i] = byte
    elif kind == "truncate":
        raw = _ppm_file(a)[:b]
    else:
        words = [b"%d" % v for v in _PPM_VALUES]
        words[a] = b
        raw = _ppm_file(3, words)
    d = tmp_path_factory.mktemp("fuzz")
    p, out = d / "img.ppm", d / "img.qf2d"
    p.write_bytes(raw)
    expected = _expected_ppm(bytes(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["import-ppm", "--in", str(p), "--out", str(out)])
    if isinstance(expected, np.ndarray):
        # an edit that keeps the file well formed
        want = np.zeros(expected.shape[:2] + (4,))
        want[..., 1:] = expected / 255.0
        assert np.array_equal(read_image_ppm(p).data, want)
        assert code == 0
        assert np.array_equal(read_field(out).data, want)
        return
    cls, offset = expected
    with pytest.raises(FileFormatError) as info:
        read_image_ppm(p)
    assert type(info.value) is cls
    assert info.value.offset == offset
    assert code == 3
    assert f"byte {offset}:" in err.getvalue()
    assert not out.exists()


# The word/comment rule, the same in the header and in a P3 body: each
# 1 x 1 file with its (r, g, b), or its error class, byte offset and message
WORD_RULE = [
    # a '#' inside a word is part of the word
    (b"P3\n1 1\n255\n1 12#3 0\n", (MalformedHeader, 13, "pixel value is not an integer: b'12#3'")),
    (b"P6\n1 1\n255#c\n\x01\x02\x03", (MalformedHeader, 7, "maxval is not an integer: b'255#c'")),
    # a comment ends at the end of the file, with no newline
    (b"P3\n1 1\n255\n1 2 3 #c", (1, 2, 3)),
    (b"P3\n1 1\n255\n1 2 #c", (MalformedHeader, 17, "missing pixel value")),
    (b"P6\n1 1 #c", (MalformedHeader, 9, "missing maxval")),
    # a CR does not end a comment, a newline does
    (b"P3\n1 #c\r9\n1\n255\n1 2 3\n", (1, 2, 3)),
    (b"P3\n1 1\n255\n1 #c\r9\n2 3\n", (1, 2, 3)),
    (b"P3\n#c\n1 1\r#c\r\n255\n1\r#c\r\n2 3", (1, 2, 3)),
    # P6 pixel bytes are not words: they start right after one separator byte
    (b"P6\n1 1\n255\n#\n ", (35, 10, 32)),
    (b"P6\n1 1\n255 # \n", (35, 32, 10)),
]


@pytest.mark.parametrize("raw, expected", WORD_RULE)
def test_word_and_comment_rule(tmp_path, raw, expected):
    p = tmp_path / "a.ppm"
    p.write_bytes(raw)
    if isinstance(expected[0], int):
        assert np.array_equal(read_image_ppm(p).data, [[[0.0] + [v / 255.0 for v in expected]]])
        assert np.array_equal(_expected_ppm(raw), [[expected]])
        return
    cls, offset, message = expected
    with pytest.raises(FileFormatError) as err:
        read_image_ppm(p)
    assert (type(err.value), err.value.offset, err.value.message) == expected
    assert _expected_ppm(raw) == (cls, offset)


def test_p3_with_a_comment_per_pixel_matches_p6(tmp_path):
    # one pixel and one comment on each line of a 256 x 256 image
    pix = np.random.default_rng(SEED + 6).integers(0, 256, (256, 256, 3), dtype=np.uint8)
    p6, p3 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    p6.write_bytes(b"P6\n256 256\n255\n" + pix.tobytes())
    p3.write_bytes(b"P3\n256 256\n255\n"
                   + b"".join(b"%d %d %d # 1 x\n" % tuple(v) for v in pix.reshape(-1, 3).tolist()))
    assert np.array_equal(read_image_ppm(p3).data, read_image_ppm(p6).data)


@pytest.mark.parametrize("magic", [3, 6])
@pytest.mark.parametrize("maxval_at", range(formats._HEAD - 5, formats._HEAD + 2))
def test_header_words_across_the_scan_window(tmp_path, magic, maxval_at):
    # a header comment puts the 3-byte maxval word before, across and after
    # the edge of the bytes first scanned for the header
    plain = _ppm_file(magic)
    head = b"P%d\n3 2\n#" % magic
    raw = head + b"x" * (maxval_at - len(head) - 1) + b"\n255\n" + plain[len(_PPM_HEAD % magic):]
    assert raw.index(b"255") == maxval_at
    p, q = tmp_path / "a.ppm", tmp_path / "b.ppm"
    p.write_bytes(raw)
    q.write_bytes(plain)
    assert np.array_equal(read_image_ppm(p).data, read_image_ppm(q).data)


@pytest.mark.parametrize("head, what", [
    (b"P6 ", "width"), (b"P3\n3 ", "height"), (b"P6\n3 2\n", "maxval"),
])
def test_header_cut_inside_a_long_comment(tmp_path, head, what):
    # the comment runs past the bytes first scanned to the end of the file
    raw = head + b"# " + b"1 " * formats._HEAD
    p = tmp_path / "a.ppm"
    p.write_bytes(raw)
    with pytest.raises(MalformedHeader) as err:
        read_image_ppm(p)
    assert (err.value.offset, err.value.message) == (len(raw), f"missing {what}")


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
    # the peak sample and a lone component: at 5e307 the peak norm 1.5e308
    # fits a double but its square does not; in the last case the peak norm,
    # 1.5e308 sqrt 2, does not fit either
    cases = [([0, 3.0, 0, 0], 1.5, 128),  # 1.5 / 3 * 255 rounded
             ([0, 1.5e308, 0, 0], 7.5e307, 128),
             ([0, 1.5e308, 1.5e308, 0], 1.5e308, 180)]  # 255 / sqrt 2 rounded
    for i, (peak, lone, want) in enumerate(cases):
        data = np.zeros((2, 2, 4))
        data[0, 0] = peak
        data[1, 1, 2] = lone
        p = tmp_path / f"m{i}.pgm"
        export_magnitude_pgm(QuaternionField2D(data), p)
        img = read_pgm(p)
        assert img[0, 0] == 255
        assert img[1, 1] == want
        assert img[0, 1] == 0


def test_export_centered_moves_origin(tmp_path):
    data = np.zeros((4, 6, 4))
    data[0, 0, 0] = 1.0
    p = tmp_path / "c.pgm"
    export_magnitude_pgm(QuaternionField2D(data), p, centered=True)
    img = read_pgm(p)
    assert img[2, 3] == 255
    assert img.sum() == 255


def test_export_matches_the_exact_norm_image(tmp_path):
    # the image of hypot norms divided by the largest component, as the
    # magnitudes were once taken, on a field whose peak sample has norm 5
    # and one sample exactly half that, which rounds half to even (127.5
    # to 128); the sum of squares is exact on both and agrees elsewhere
    data = np.random.default_rng(SEED + 6).uniform(-2.0, 2.0, (67, 70, 4))
    data[3, 4] = [0.0, 3.0, 4.0, 0.0]
    data[9, 1] = [0.0, 1.5, 0.0, -2.0]
    top = np.max(np.abs(data))
    mags = norm_arr(data / top)
    for centered in (False, True):
        want = np.rint(mags * (255.0 / mags.max())).astype(np.uint8)
        if centered:
            want = np.roll(want, (33, 35), axis=(0, 1))
        p = tmp_path / "a.pgm"
        export_magnitude_pgm(QuaternionField2D(data), p, centered=centered)
        assert np.array_equal(read_pgm(p), want)
    img = read_pgm(p)
    assert (img[36, 39], img[42, 36]) == (255, 128)
