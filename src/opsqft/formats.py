"""File formats: QF2D quaternion grids, PPM ingestion, PGM export.

QF2D layout (little-endian):

    bytes 0..3    magic "QF2D"
    bytes 4..7    version, unsigned 32-bit, currently 1
    bytes 8..15   n1 then n2, unsigned 32-bit each
    bytes 16..    n1*n2 records of four float64 (w, x, y, z), row-major,
                  and nothing after them

Color images come in as portable pixmaps (P3 or P6, maxval 255); each
pixel becomes the pure quaternion (r/255) i + (g/255) j + (b/255) k,
image row y on the first grid index and column x on the second.
Spectra go out as P5 graymaps of per-sample magnitude scaled by the
peak value.
"""

from __future__ import annotations

import contextlib
import os
import re
import struct
import uuid

import numpy as np

from .fields import QuaternionField2D
from .quat import norm_arr

MAGIC = b"QF2D"
VERSION = 1
HEADER = struct.Struct("<4sIII")


class FileFormatError(Exception):
    """Base for structural file errors; carries the path and byte offset."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = str(path)
        self.offset = offset


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
        super().__init__(path, 0, f"I/O failure: {cause}")
        self.cause = cause


def _require_finite(path, data: np.ndarray) -> None:
    """Raise ``NonFiniteSample`` at the first NaN or infinite component."""
    finite = np.isfinite(data)
    if not finite.all():
        i = int(np.argmin(finite))
        n, c = divmod(i, 4)
        n2 = data.shape[1]
        raise NonFiniteSample(path, HEADER.size + 8 * i,
                              f"sample [{n // n2}, {n % n2}] component {c} "
                              f"is {data.reshape(-1)[i]}")


def write_field(field: QuaternionField2D, path) -> None:
    """Write ``field`` as QF2D; a file already at ``path`` is replaced whole or kept.

    The bytes go to a temporary file beside the file ``path`` resolves to,
    which is renamed over it (a symbolic link at ``path`` stays a link),
    and the temporary file is removed if any step fails.  A non-finite
    sample raises ``NonFiniteSample`` before anything is written.
    """
    payload = np.ascontiguousarray(field.data, dtype="<f8")
    _require_finite(path, payload)
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(HEADER.pack(MAGIC, VERSION, field.n1, field.n2))
            fh.write(payload)
        os.replace(tmp, target)
    except OSError as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoFailure(path, e) from e


def read_field(path) -> QuaternionField2D:
    """Read a QF2D file into one writable float64 array.

    The header is checked from its 16 bytes and the payload size from the
    file's size before the payload is read, once, into the array.  A NaN
    or infinite component raises ``NonFiniteSample`` at its byte offset.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
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
            if size < end:
                raise TruncatedPayload(path, size,
                                       f"payload needs {expected} bytes, got {size - HEADER.size}")
            if size > end:
                raise TrailingBytes(path, end,
                                    f"{size - end} bytes after the {expected}-byte payload")
            data = np.empty((n1, n2, 4), dtype="<f8")
            got = fh.readinto(data)
    except OSError as e:
        raise IoFailure(path, e) from e
    if got < expected:
        raise TruncatedPayload(path, HEADER.size + got,
                               f"payload needs {expected} bytes, got {got}")
    _require_finite(path, data)
    return QuaternionField2D(data)


# ---------------------------------------------------------------------------
# Portable pixmaps.

# A '#' that starts a word comments out the rest of its line.
_COMMENT = re.compile(rb"(?<![^ \t\r\n])#[^\n]*")
# A comment or a word.
_WORD = re.compile(_COMMENT.pattern + rb"|[^ \t\r\n]+")
# A number: ASCII decimal digits, after one '-' at most so that a negative
# size is reported as not positive.  int() would also take '+' and '_'.
_DECIMAL = re.compile(rb"-?[0-9]+")


def _tokens(raw: bytes):
    """Yield (offset, token) over whitespace-separated words, '#' to EOL skipped."""
    for m in _WORD.finditer(raw):
        if not m[0].startswith(b"#"):
            yield m.start(), m[0]


def _integer(path, off: int, tok: bytes, what: str) -> int:
    if not _DECIMAL.fullmatch(tok):
        raise MalformedHeader(path, off, f"{what} is not an integer: {tok!r}")
    return int(tok)


_WHITESPACE = np.frombuffer(b" \t\r\n", dtype=np.uint8)


def _p3_values(path, raw: bytes, start: int, count: int) -> np.ndarray:
    """The first ``count`` words of ``raw[start:]`` as pixel values 0..255.

    Reads the same words as ``_tokens`` and raises the same errors at the
    same offsets: the first word that is not an integer or is out of
    range, else the end of the file when words are missing.  Words of up
    to three decimal digits are decoded in bulk; any other word goes
    through ``_integer`` on its own.
    """
    body = _COMMENT.sub(lambda m: b" " * len(m[0]), raw[start:])
    b = np.frombuffer(body, dtype=np.uint8)
    ws = np.concatenate(([True], np.isin(b, _WHITESPACE), [True]))
    edge = np.diff(ws.astype(np.int8))
    starts = np.flatnonzero(edge == -1)[:count]
    ends = np.flatnonzero(edge == 1)[:count]
    length = ends - starts
    value = np.zeros(len(starts), dtype=np.int64)
    plain = length <= 3
    for place in range(3):
        present = length > place
        digit = b[np.where(present, ends - 1 - place, 0)].astype(np.int64) - ord("0")
        plain &= ~present | ((digit >= 0) & (digit <= 9))
        value += np.where(present, digit, 0) * 10 ** place
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
    """Load a P3/P6 pixmap (maxval 255) as a grid of pure quaternions."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise IoFailure(path, e) from e

    toks = _tokens(raw)

    def next_token(what):
        try:
            return next(toks)
        except StopIteration:
            raise MalformedHeader(path, len(raw), f"missing {what}") from None

    off, magic = next_token("magic")
    if magic not in (b"P3", b"P6"):
        raise UnsupportedFormat(path, off, f"magic {magic!r}, expected P3 or P6")
    dims = []
    tok = b""
    for what in ("width", "height", "maxval"):
        off, tok = next_token(what)
        dims.append((off, _integer(path, off, tok, what)))
    (width_off, width), (height_off, height), (_, maxval) = dims
    maxval_end = off + len(tok)
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
        rgb = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64)
    else:
        rgb = _p3_values(path, raw, maxval_end, count)

    rgb = rgb.reshape(height, width, 3) / 255.0
    data = np.zeros((height, width, 4))
    data[:, :, 1:] = rgb
    return QuaternionField2D(data)


def export_magnitude_pgm(spectrum_or_field, path, centered: bool = False) -> None:
    """Write per-sample quaternion magnitude as a P5 graymap.

    Magnitudes are scaled so the peak maps to 255 (an all-zero grid maps
    to an all-zero image).  ``centered`` rolls sample (0, 0) to the grid
    midpoint (floor(n1/2), floor(n2/2)) for display.
    """
    field = getattr(spectrum_or_field, "field", spectrum_or_field)
    # the image is relative to its peak: scaled by the largest component, no norm overflows
    top = float(np.max(np.abs(field.data), initial=0.0))
    mags = norm_arr(field.data / top if top > 0.0 else field.data)
    if centered:
        mags = np.roll(mags, (field.n1 // 2, field.n2 // 2), axis=(0, 1))
    peak = float(mags.max())
    if peak > 0.0:
        img = np.rint(mags * (255.0 / peak))
    else:
        img = np.zeros_like(mags)
    img = np.clip(img, 0, 255).astype(np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{field.n2} {field.n1}\n255\n".encode("ascii"))
            fh.write(img.tobytes())
    except OSError as e:
        raise IoFailure(path, e) from e
