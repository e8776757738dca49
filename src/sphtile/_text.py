"""The text of the export formats: an exact vectorised ``'%.17g'`` kernel,
and the OBJ vertex lines, OBJ fans and JSON document built on it.

``embedder.export_obj``, and ``export_json`` with positions, import this
module on first use, so a process that only verifies does not load it.
"""

import functools
import json
import math

import numpy as np


def _halves(a: np.ndarray) -> tuple:
    """Veltkamp's split: a1 + a2 == a exactly, each of at most 26
    significant bits, so a product of two halves is exact."""
    c = 134217729.0 * a  # 2**27 + 1
    a1 = c - (c - a)
    return a1, a - a1


def _least_at_or_above(k: int) -> float:
    """The least double at or above 10**k."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    b = num / den  # correctly rounded
    top, bottom = b.as_integer_ratio()
    return math.nextafter(b, math.inf) if top * den < num * bottom else b


# The kernel's tables, for zero and the decades 10**e <= |v| < 10**(e + 1)
# with e in _ES: the fixed form from 1e-4 up to 10 and the 'e' form from
# 1e-24 up to 1e-4, every value of a unit-sphere point but subnormals.  The
# class of |v| is the count of _BOUNDS at or below it: 0 is zero, 1 lies
# below 1e-24, 2 + e + 24 is the decade e and the last lies at or above 10
# or is nan; classes 1 and last are _BAD, left to '%'.  Each bound is the
# least double at or above its power of ten, so a class is exact.  Per
# class: s1 + s2, 10**(16 - e) as a double-double (s2 is 0 where s1 is
# exact), and s1's halves; the first 8 bytes of the text by sign and lead
# digit, and the 8 after the digits, the exponent of the 'e' form.  The form
# is '%.17g''s: "0." and zeros for -4 <= e < 0, else the lead digit and "."
# (at byte 7), then for e < -4 an exponent.
_ES = range(-24, 1)
_BOUNDS = np.array([5e-324] + [_least_at_or_above(k) for k in range(_ES[0], _ES[-1] + 2)])
_S1 = [float(10 ** (16 - e)) for e in _ES]
_S2 = [float(10 ** (16 - e) - int(s)) for e, s in zip(_ES, _S1)]
# zero, below, the decades, above: a class outside the decades scales its
# stand-in 1.0 to 10**16
_S1 = np.array([1e16, 1e16, *_S1, 1e16])
_SCALES = np.array([_S1, *_halves(_S1), [0.0, 0.0, *_S2, 0.0]])
_INEXACT = _SCALES[3] != 0.0
_BAD = np.array([False, True, *[False] * len(_ES), True])
_SHIFTED = np.array([False, False, *[e < -4 for e in _ES], False])
_HEADS = [b"0", b""] + [b"0." + b"0" * (-e - 1) + b"%d" if -4 <= e < 0 else None for e in _ES]
_PREFIXES = np.frombuffer(
    b"".join(
        (sign + h % lead if b"%" in h else sign + h).ljust(8, b"\0")
        if h is not None
        else b"\0" * 5 + (sign or b"\0") + b"%d." % lead
        for h in _HEADS + [b""]
        for sign in (b"", b"-")
        for lead in range(10)
    ),
    np.uint64,
)
_SUFFIXES = np.frombuffer(
    b"".join((b"e%+03d" % e if f else b"").ljust(8, b"\0") for e, f in zip([0, 0, *_ES, 0], _SHIFTED)),
    np.uint64,
)
# the "." at byte 7 goes when no fraction digit is left
_DOT = np.array([False, False, *[e == 0 or e < -4 for e in _ES], False])
del _S1, _S2, _HEADS

# the 4-digit groups 0000 .. 9999 as uint32 texts, at g + 10000 * state:
# state 0 in full, 1 without trailing zero digits, 2 none (zero bytes)
_DIGITS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8) + 48
_TRAILING = np.logical_and.accumulate(_DIGITS[:, ::-1] == 48, axis=1)[:, ::-1]
_QUADS = np.concatenate([_DIGITS, np.where(_TRAILING, 0, _DIGITS), 0 * _DIGITS])
_QUADS = _QUADS.view(np.uint32)[:, 0]
del _DIGITS, _TRAILING
# per pattern of zeros among the first three groups (4, 2, 1 for each),
# where the last one is 0: the states it adds to the usual ones, for the
# groups of zeros at the end of N (2) and the one before them (1)
_ZERO_ENDS = 10000 * np.array([[0, 0, 1, 1], [0, 1, 2, 1], [0, 0, 1, 1], [1, 2, 2, 1],
                               [0, 0, 1, 1], [0, 1, 2, 1], [0, 0, 1, 1], [2, 2, 2, 1]])
# where 10**(16 - e) is inexact, lo + |v| * s2 is within 1e-14 of its true
# value, so a fraction within this of one half is left undecided
_TIE = 1e-9
SLOT = 24  # bytes of the longest '%.17g' text, '-1.2345678901234567e-300'
# values per kernel call: its temporaries stay small enough for the
# allocator to reuse them from call to call
_CHUNK = 1536


def _percent(v: float) -> bytes:
    """``'%.17g' % v``, for the values the kernel leaves: subnormals,
    |v| >= 10, nan, inf and a rounding it cannot decide."""
    return b"%.17g" % v


def _rows(x: np.ndarray) -> tuple:
    """The texts of the entries of ``x`` that are zero or 1e-24 <= |v| < 10,
    in the first 24 bytes of the rows of an (N, 32) uint8 array, and the
    indices of the others (undecided ones included).

    The digits are N = |v| * 10**(16 - e) rounded half to even, in
    [10**16, 10**17] as e is exact; N = 10**17 is the text 1 of the next
    class.  Dekker's product gives |v| * s1 exactly as hi + lo, and hi >= 10**16 >
    2**53 is an even integer, so hi + rint(lo + |v| * s2) rounds a tie to
    even; where s2 is not 0 the sum is within 1e-14 of the truth, and one
    within ``_TIE`` of a half is left.  N's lead digit and its 4-digit
    groups are exact integer quotients.  A row is then a prefix (sign, lead
    digit and "." or "0." and zeros) by table in bytes 0 to 7, the groups by
    table with N's trailing zero digits as zero bytes in bytes 8 to 23, and
    for the 'e' form an exponent by table in bytes 24 to 31; such a row
    then moves 5 bytes up, as its prefix starts at byte 5.
    """
    ax = np.abs(x)
    cls = np.searchsorted(_BOUNDS, ax, side="right")
    bad = _BAD.take(cls)
    ax = np.where(bad, 1.0, ax)
    s1, b1, b2, s2 = _SCALES.take(cls, axis=1)
    # Dekker's two-product: |v| * s1 == hi + lo exactly
    hi = ax * s1
    a1, a2 = _halves(ax)
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    lo += ax * s2
    r = np.rint(lo)
    n = hi.astype(np.int64)
    n += r.astype(np.int64)
    left = np.flatnonzero(bad | (np.abs(lo - r) > 0.5 - _TIE))
    if left.size:
        left = left[_INEXACT.take(cls[left]) | bad[left]]
    # N's lead digit and its 4-digit groups; the last group loses its
    # trailing zeros (state 1), and where it is 0 the states follow from
    # which of the others are 0
    high = n // 10**8
    low = n - high * 10**8
    hq, lq = high // 10**4, low // 10**4
    lead = hq // 10**4
    groups = np.empty((x.size, 4), np.int64)
    groups[:, 0] = hq - lead * 10**4
    groups[:, 1] = high - hq * 10**4
    groups[:, 2] = lq
    groups[:, 3] = low - lq * 10**4 + 10000
    ends = np.flatnonzero(groups[:, 3] == 10000)
    if ends.size:
        code = (groups[ends, :3] == 0) @ [4, 2, 1]
        groups[ends] += _ZERO_ENDS.take(code, 0)
        bare = ends[code == 7]
        # N = 10**17: |v| rounds up to 10**(e + 1), the text of the next class
        top = bare[lead[bare] == 10]
        if top.size:
            lead[top] = 1
            cls[top] += 1
            left = np.union1d(left, top[_BAD.take(cls[top])])
    wide = np.zeros((x.size, 4), np.uint64)
    wide[:, 0] = _PREFIXES.take(lead + 10 * np.signbit(x) + 20 * cls)
    wide[:, 1:3] = _QUADS.take(groups).view(np.uint64)
    text = wide.view(np.uint8)
    if ends.size:
        text[bare[_DOT.take(cls[bare])], 7] = 0
    shifted = np.flatnonzero(_SHIFTED.take(cls))
    if shifted.size:
        wide[shifted, 3] = _SUFFIXES.take(cls[shifted])
        text[shifted, :24] = text[shifted, 5:29]
    return text, left


def format17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every entry v of a float64 array, as an (N, 24)
    uint8 array: row i holds the text of entry i, its bytes in order with
    zero bytes (padding) among and after them, so ``rows[rows != 0]`` is
    the texts of ``rows`` back to back.

    Zero and 1e-24 <= |v| < 10, which hold every coordinate of a
    unit-sphere point but subnormals, are written in whole-array steps by
    ``_rows``, in chunks of ``_CHUNK``.  Every other value goes alone
    through ``_percent``: subnormals, |v| >= 10, nan, inf and a rounding
    the kernel cannot decide (a fraction within ``_TIE`` of one half where
    the power of ten is inexact).  No export writes such a value, which
    ``test_no_exported_coordinate_reaches_percent`` checks.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    rows = np.empty((x.size, SLOT), np.uint8)
    for i in range(0, x.size, _CHUNK):
        text, left = _rows(x[i : i + _CHUNK])
        rows[i : i + _CHUNK] = text[:, :SLOT]
        if left.size:
            texts = [_percent(v).ljust(SLOT, b"\0") for v in x[i + left].tolist()]
            rows[i + left] = np.frombuffer(b"".join(texts), np.uint8).reshape(-1, SLOT)
    return rows


@functools.cache
def _line_matrix(parts: tuple) -> tuple:
    """The matrix ``_lines`` fills for ``parts``, a line per row with zero
    bytes in each coordinate's slot, and the first column of each slot.
    Each use overwrites the slots alone, so one matrix serves every call."""
    at = [len(parts[0]), len(parts[0]) + SLOT + len(parts[1])]
    at.append(at[1] + SLOT + len(parts[2]))
    line = b"".join(p + b"\0" * SLOT for p in parts[:3]) + parts[3]
    return np.tile(np.frombuffer(line, np.uint8), (_CHUNK // 3, 1)), at


def _lines(points: np.ndarray, parts: tuple) -> bytes:
    """One line per row of an (N, 3) array, its coordinates' texts between
    the four byte strings of ``parts``, as one text.  Each chunk of points
    fills the rows of one matrix, padded with zero bytes like
    ``format17``'s rows; its non-zero bytes are the chunk's text."""
    rows = format17(points).reshape(-1, 3, SLOT)
    lines, at = _line_matrix(parts)
    texts = []
    for i in range(0, len(rows), len(lines)):
        block = rows[i : i + len(lines)]
        chunk = lines[: len(block)]
        for j, a in enumerate(at):
            chunk[:, a : a + SLOT] = block[:, j]
        texts.append(chunk.tobytes().translate(None, b"\0"))
    return b"".join(texts)


def v_lines(points: np.ndarray) -> bytes:
    """The OBJ vertex lines ``"v %.17g %.17g %.17g\\n"`` of the rows of an
    (N, 3) array, as one text."""
    return _lines(points, (b"v ", b" ", b" ", b"\n"))


def fans(apexes: list, triangles: np.ndarray, starts: np.ndarray) -> bytes:
    """The faces of an OBJ file: per face its apex's ``v`` line (of the
    list ``apexes``, without its newline), then its ``f`` lines.
    ``triangles`` is the (D, 3) array of every face's triangles, face after
    face, and ``starts[f]`` the row of face f's first one.  The ``f`` lines
    are one ``%`` call on one template, and all the lines one join in the
    order of one index array."""
    nf, nt = len(apexes), len(triangles)
    lines = apexes + ("f %d %d %d\n" * nt % tuple(triangles.ravel().tolist())).encode().split(b"\n")
    # the apex line of face f comes after the f lines of the faces before it
    order = np.empty(nf + nt, np.intp)
    at = starts + np.arange(nf)
    order[at] = np.arange(nf)
    rest = np.ones(nf + nt, bool)
    rest[at] = False
    order[rest] = np.arange(nf, nf + nt)
    return b"\n".join(map(lines.__getitem__, order.tolist())) + b"\n"


def _block(items: list, pad: str, brackets: str = "[]") -> str:
    """A JSON array (or object) of already written items, each on its own
    line after ``pad``, a newline and the items' indent, laid out as
    ``json.dumps`` with ``indent=1`` lays it out."""
    if not items:
        return brackets
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


@functools.cache
def _face(m: int) -> str:
    """The ``%`` template of a face of m vertices in the JSON document."""
    return "[\n   %d" + ",\n   %d" * (m - 1) + "\n  ]"


def json_text(name, family, sizes, vertices, angles: dict, edge: float, positions) -> bytes:
    """``json.dumps(doc, sort_keys=True, indent=1)`` and a newline, as
    bytes, for the document of ``embedder.export_json`` with positions,
    written with string joins (``json.dumps`` with an indent runs its
    pure-Python encoder).  ``name`` and ``family`` go through
    ``json.dumps``, which escapes them; every other value is an int or a
    ``'%.17g'`` string (``angles`` maps str(m) to one), which need no
    escaping.  Keys sort as strings, so angle "10" precedes angle "3".
    The faces, of ``sizes`` vertices each, are one ``%`` call over
    ``vertices``, their vertex ids face after face.  ``positions``, a
    (V, 3) array, is written by ``_lines``, one comma-first line a row."""
    rows = _lines(positions, (b',\n  [\n   "', b'",\n   "', b'",\n   "', b'"\n  ]'))
    fields = {
        "angles": _block(['"%s": "%s"' % ma for ma in sorted(angles.items())], "\n  ", "{}"),
        "edge": '"%.17g"' % edge,
        "faces": "[\n  " + ",\n  ".join(map(_face, sizes)) % tuple(vertices) + "\n ]",
        "family": json.dumps(family),
        "name": json.dumps(name),
        "positions": "[" + rows[1:].decode() + "\n ]",
    }
    return ("{\n" + ",\n".join(' "%s": %s' % kv for kv in fields.items()) + "\n}\n").encode()
