"""File formats: QF2D quaternion grids, PPM ingestion, PGM export.

QF2D layout (little-endian):

    bytes 0..3    magic "QF2D"
    bytes 4..7    version, unsigned 32-bit, currently 1
    bytes 8..15   n1 then n2, unsigned 32-bit each
    bytes 16..    n1*n2 records of four float64 (w, x, y, z), row-major,
                  and nothing after them

Color images come in as portable pixmaps (P3 or P6, maxval 255), whose
words ``_words`` finds in one numpy scan: space, tab, CR and LF split
them, and a '#' that starts a word comments out the rest of its line.
Each pixel becomes the pure quaternion (r/255) i + (g/255) j + (b/255) k,
image row y on the first grid index and column x on the second.
Spectra go out as P5 graymaps of per-sample magnitude scaled by the
peak value.

The per-sample passes (the finiteness check of every read and write,
the magnitudes) run over blocks of the field, so none holds a second
array of the field's size.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct

import numpy as np

from .fields import QuaternionField2D
from .quat import _BLOCK, sq_norm_blocks

MAGIC = b"QF2D"
VERSION = 1
HEADER = struct.Struct("<4sIII")


class FileFormatError(Exception):
    """Base for structural file errors; carries the path, the byte
    offset, ``None`` when no byte is at fault, and the message."""

    def __init__(self, path, offset, message):
        at = "" if offset is None else f"byte {offset}: "
        super().__init__(f"{path}: {at}{message}")
        self.path = str(path)
        self.offset = offset
        self.message = message


class BadMagic(FileFormatError):
    pass


class BadVersion(FileFormatError):
    pass


class TruncatedPayload(FileFormatError):
    pass


class MalformedHeader(FileFormatError):
    pass


class UnsupportedFormat(FileFormatError):
    pass


class TrailingBytes(FileFormatError):
    pass


class NonFiniteSample(FileFormatError):
    pass


class IoFailure(FileFormatError):
    def __init__(self, path, cause):
        super().__init__(path, None, f"I/O failure: {cause.strerror or cause}")
        self.cause = cause


# Bytes by which a payload's array grows when the file has no size, such
# as a pipe, and the most trailing bytes counted.
_STREAM_CHUNK = 1 << 20


def _require_finite(path, data: np.ndarray) -> None:
    """Raise ``NonFiniteSample`` at the first NaN or infinite component,
    checking the samples in blocks, so no field-size mask is made."""
    samples = data.reshape(-1, 4)
    mask = np.empty((min(_BLOCK, len(samples)), 4), dtype=bool)
    for start in range(0, len(samples), _BLOCK):
        finite = np.isfinite(samples[start:start + _BLOCK], out=mask[:len(samples) - start])
        if not finite.all():
            i = 4 * start + int(np.argmin(finite))
            row, col = divmod(i // 4, data.shape[1])
            raise NonFiniteSample(path, HEADER.size + 8 * i,
                                  f"sample [{row}, {col}] component {i % 4} is {data.flat[i]}")


def _write(path, parts) -> None:
    """Write the byte buffers ``parts`` to ``path``, replacing a file whole or keeping it.

    Unless ``path`` names an existing target that is not a regular file
    once links are followed (a pipe, a terminal, ``/dev/null``: written in
    place), the bytes go to a temporary file beside the file ``path``
    resolves to, which is renamed over it (a symbolic link at ``path``
    stays a link) and removed if any step fails.
    """
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "wb") as fh:
                fh.writelines(parts)
            return
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            with open(tmp, "xb") as fh:
                fh.writelines(parts)
            os.replace(tmp, target)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as e:
        raise IoFailure(path, e) from e


def write_field(field: QuaternionField2D, path) -> None:
    """Write ``field`` as QF2D through ``_write``: a file already at ``path``
    is replaced whole or kept.  A non-finite sample raises
    ``NonFiniteSample`` before anything is written."""
    payload = np.ascontiguousarray(field.data, dtype="<f8")
    _require_finite(path, payload)
    _write(path, (HEADER.pack(MAGIC, VERSION, field.n1, field.n2), payload))


def read_field(path) -> QuaternionField2D:
    """Read a QF2D file into one writable float64 array.

    The header is checked from its 16 bytes.  The payload is read into the
    array until it is whole or the file ends.  A regular file's size sets
    the array's first size, so a whole payload takes one read; any other
    file (a pipe, say) has no size, so its array grows by _STREAM_CHUNK
    bytes at a time, and a header that claims more than arrives costs only
    the bytes received and one chunk.  Bytes after the payload are counted
    up to one chunk, as a stream may not end: "1048576 or more".  A NaN or
    infinite component raises ``NonFiniteSample`` at its byte offset.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(HEADER.size)
            if len(head) < HEADER.size:
                raise TruncatedPayload(path, len(head),
                                       f"header needs {HEADER.size} bytes, file has {len(head)}")
            magic, version, n1, n2 = HEADER.unpack(head)
            if magic != MAGIC:
                raise BadMagic(path, 0, f"magic {magic!r}, expected {MAGIC!r}")
            if version != VERSION:
                raise BadVersion(path, 4, f"version {version}, expected {VERSION}")
            if n1 < 1 or n2 < 1:
                raise MalformedHeader(path, 8, f"grid {n1}x{n2} is not positive")
            expected = 32 * n1 * n2
            end = HEADER.size + expected
            info = os.fstat(fh.fileno())
            size = info.st_size - HEADER.size if stat.S_ISREG(info.st_mode) else 0
            data, got = np.empty(min(expected, max(size, 0)) // 8, dtype="<f8"), 0
            while got < expected:
                if got == data.nbytes:
                    data.resize(min(expected, got + _STREAM_CHUNK) // 8, refcheck=False)
                n = fh.readinto(data.view(np.uint8)[got:])
                if not n:
                    break
                got += n
            if got == expected and fh.read(1):
                extra = 1 + len(fh.read(_STREAM_CHUNK - 1))
                more = " or more" if extra == _STREAM_CHUNK else ""
                raise TrailingBytes(path, end,
                                    f"{extra}{more} bytes after the {expected}-byte payload")
    except OSError as e:
        raise IoFailure(path, e) from e
    if got < expected:
        raise TruncatedPayload(path, HEADER.size + got,
                               f"payload needs {expected} bytes, got {got}")
    data.shape = (n1, n2, 4)  # never a copy, unlike reshape
    _require_finite(path, data)
    return QuaternionField2D(data)


# ---------------------------------------------------------------------------
# Portable pixmaps.

def _quoted(word: bytes) -> str:
    """``word``'s repr, cut to its first 12 bytes and its length when it is
    longer, so that a diagnostic stays one short line."""
    return repr(word) if len(word) <= 12 else f"{word[:12]!r}... ({len(word)} bytes)"


def _integer(path, off: int, tok: bytes, what: str) -> int:
    """``tok`` as a number: ASCII digits, not int()'s '+' or '_', after one
    '-' at most (a negative size is then not positive), in at most 20
    characters, so that every number read and every product prints short."""
    if not tok.removeprefix(b"-").isdigit():
        raise MalformedHeader(path, off, f"{what} is not an integer: {_quoted(tok)}")
    if len(tok) > 20:
        raise MalformedHeader(path, off, f"{what} is longer than 20 characters: {_quoted(tok)}")
    return int(tok)


# The bytes scanned for the header's words before the whole file is.
_HEAD = 4096


def _words(raw: bytes, start: int, count: int):
    """The start and end offsets in ``raw[start:]`` of its first ``count``
    words, as two arrays, shorter when the bytes end first.  A byte is in a
    comment when the last word-starting '#' up to it follows the last newline."""
    b = np.frombuffer(raw, dtype=np.uint8)[start:]
    # whitespace flags with one space before and after the bytes
    ws = np.ones(len(b) + 2, dtype=bool)
    inner = ws[1:-1]
    np.equal(b, ord(" "), out=inner)
    for c in b"\t\r\n":
        inner |= b == c
    if raw.find(b"#", start) >= 0:
        # 2k marks a newline at k, 2k + 1 a word-starting '#': odd in a comment
        hashes = (b == ord("#")) & ws[:-2]
        mark = np.arange(0, 2 * len(b), 2)
        mark += hashes
        mark *= hashes | (b == ord("\n"))
        np.maximum.accumulate(mark, out=mark)
        mark &= 1
        inner |= mark.astype(bool)
    edge = np.diff(ws.view(np.int8))
    return np.flatnonzero(edge == -1)[:count], np.flatnonzero(edge == 1)[:count]


def _p3_values(path, raw: bytes, start: int, count: int) -> np.ndarray:
    """The first ``count`` words of ``raw[start:]`` as pixel values 0..255.

    Reads the words that ``_words`` finds and raises at the first one at
    fault (not an integer, or out of range), else at the end of the file
    when words are missing.  Words of up to 20 digits are decoded in
    bulk; only a signed word or one at fault goes through ``_integer``.
    """
    starts, ends = _words(raw, start, count)
    b = np.frombuffer(raw, dtype=np.uint8)[start:]
    length = ends - starts
    value = np.zeros(len(starts), dtype=np.int16)
    plain = length <= 20
    for place in range(min(length.max(initial=0), 20)):
        present = length > place
        # a byte below '0' wraps past 9; a place past the word reads 0
        digit = b.take(ends - 1 - place, mode="clip") - np.uint8(ord("0"))
        plain &= ~present | (digit <= (9 if place < 3 else 0))  # '0' above the hundreds
        if place < 3:
            digit *= present
            value += digit * np.int16(10 ** place)
    plain &= value <= 255
    values = value.astype(np.float64)
    for j in np.flatnonzero(~plain):
        off = start + int(starts[j])
        tok = raw[off:start + int(ends[j])]
        v = _integer(path, off, tok, "pixel value")
        if not 0 <= v <= 255:
            raise MalformedHeader(path, off, f"pixel value {v} out of range 0..255")
        values[j] = v
    if len(starts) < count:
        raise MalformedHeader(path, len(raw), "missing pixel value")
    return values


def read_image_ppm(path) -> QuaternionField2D:
    """Load a P3/P6 pixmap (maxval 255) as a grid of pure quaternions.  The
    header's four words come from the first ``_HEAD`` bytes, or from the
    whole file when those hold fewer or may cut the fourth."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise IoFailure(path, e) from e

    starts, ends = _words(raw[:_HEAD], 0, 4)
    if len(ends) < 4 or ends[-1] == _HEAD:
        starts, ends = _words(raw, 0, 4)
    words = [(int(i), raw[i:j]) for i, j in zip(starts, ends)]
    if not words:
        raise MalformedHeader(path, len(raw), "missing magic")
    off, magic = words[0]
    if magic not in (b"P3", b"P6"):
        raise UnsupportedFormat(path, off, f"magic {_quoted(magic)}, expected P3 or P6")
    names = ("width", "height", "maxval")
    dims = [(off, _integer(path, off, tok, what)) for what, (off, tok) in zip(names, words[1:])]
    if len(dims) < 3:
        raise MalformedHeader(path, len(raw), f"missing {names[len(dims)]}")
    (width_off, width), (height_off, height), (off, maxval) = dims
    maxval_end = int(ends[3])
    if width < 1 or height < 1:
        raise MalformedHeader(path, width_off if width < 1 else height_off,
                              f"image {width}x{height} is not positive")
    if maxval != 255:
        raise UnsupportedFormat(path, off, f"maxval {maxval}, only 255 is supported")

    count = width * height * 3
    if magic == b"P6":
        # exactly one whitespace byte separates the header from the pixels
        pix_off = maxval_end + 1
        pixels = raw[pix_off:pix_off + count]
        if len(pixels) < count:
            raise MalformedHeader(path, min(pix_off, len(raw)) + len(pixels),
                                  f"pixel data needs {count} bytes, got {len(pixels)}")
        rgb = np.frombuffer(pixels, dtype=np.uint8)
    else:
        rgb = _p3_values(path, raw, maxval_end, count)

    data = np.zeros((height, width, 4))
    np.divide(rgb.reshape(height, width, 3), 255.0, out=data[:, :, 1:])
    return QuaternionField2D(data)


def export_magnitude_pgm(spectrum_or_field, path, centered: bool = False) -> None:
    """Write per-sample quaternion magnitude as a P5 graymap through ``_write``.

    Magnitudes are scaled so the peak maps to 255 (an all-zero grid maps
    to an all-zero image).  ``centered`` rolls sample (0, 0) to the grid
    midpoint (floor(n1/2), floor(n2/2)) for display.  Each magnitude is
    the square root of the sum of squares of the sample divided by its
    largest component, so none overflows, taken block by block into the
    n1 x n2 image.  A NaN or infinite component raises
    ``NonFiniteSample``, with no offset, before anything is written.
    """
    field = getattr(spectrum_or_field, "field", spectrum_or_field)
    data = field.data
    top = float(max(data.max(), -data.min()))
    if not np.isfinite(top):
        try:
            _require_finite(path, data)
        except NonFiniteSample as e:  # no byte of the image is at fault
            raise NonFiniteSample(path, None, e.message) from None
    if top > 0.0:
        mags = np.empty(field.n1 * field.n2)
        for start, s in sq_norm_blocks(data, top):
            np.sqrt(s, out=mags[start:start + len(s)])
        mags *= 255.0 / float(mags.max())  # each at most 255: the peak maps to it
        img = np.rint(mags, out=mags).astype(np.uint8).reshape(field.n1, field.n2)
    else:
        img = np.zeros((field.n1, field.n2), dtype=np.uint8)
    if centered:
        img = np.roll(img, (field.n1 // 2, field.n2 // 2), axis=(0, 1))
    _write(path, (f"P5\n{field.n2} {field.n1}\n255\n".encode("ascii"), img))
