"""The text of the export formats: an exact vectorised ``'%.17g'`` kernel,
the OBJ vertex lines built on it, and the JSON document.

``embedder.export_obj`` and ``export_json`` import this module on first
use, so a process that only verifies does not load it.
"""

import json

import numpy as np


# the class of |v| is the count of these bounds at or below it: 1 .. 4 is
# the decade k = class - 5 of the fast range 1e-4 <= |v| < 1, 0 and 5 lie
# outside it (nan sorts last).  Each bound is the least double at or above
# its power of ten, so the float test |v| >= bound is exact.
_BOUNDS = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
_FAST = np.array([False, True, True, True, True, False])


def _halves(a: np.ndarray) -> tuple:
    """Veltkamp's split: a1 + a2 == a exactly, each of at most 26
    significant bits, so a product of two halves is exact."""
    c = 134217729.0 * a  # 2**27 + 1
    a1 = c - (c - a)
    return a1, a - a1


# per class: the scale 10**(16 - k), an exact double (1e17 outside the fast
# range, where the stand-in 0.5 is scaled), and its halves
_SCALES = np.array([1e17, 1e20, 1e19, 1e18, 1e17, 1e17])
_SCALES = np.array([_SCALES, *_halves(_SCALES)])
# the first 8 bytes of a fast-range text, at 60 * sign + 10 * class + lead
# digit: "-" or nothing, "0.", -k - 1 zeros and the lead digit, padded with
# zero bytes; then the digit pairs 00 .. 99
_PREFIXES = np.frombuffer(
    b"".join(
        (sign + b"0." + b"0" * (4 - c) + b"%d" % lead if 0 < c < 5 else b"").ljust(8, b"\0")
        for sign in (b"", b"-")
        for c in range(6)
        for lead in range(10)
    ),
    np.uint64,
)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
# the divisors that leave the 1, 3, 5, 7 and 9 leading digits of a 9-digit
# number, or 0 and the 2, 4, 6 and 8 leading digits of an 8-digit one
_UNITS = np.array([[1e8], [1e6], [1e4], [1e2], [1.0]])
SLOT = 24  # bytes of the longest '%.17g' text, '-1.2345678901234567e-300'


def format17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every entry v of a float64 array, as an (N, 24)
    uint8 array: row i holds the text of entry i, its bytes in order with
    zero bytes (padding) among and after them, so ``rows[rows != 0]`` is
    the texts of ``rows`` back to back.

    The fast range is 1e-4 <= |v| < 1, which holds most coordinates of a
    unit-sphere point.  There the text is the sign, "0.", -k - 1 zeros
    (10**k <= |v| < 10**(k + 1), read exactly from ``_BOUNDS``), then the
    17 significant digits without their trailing zeros.  The digits are
    N = |v| * 10**(16 - k) rounded half to even, where the scale is an
    exact double.  Dekker's product gives |v| * scale exactly as hi + lo,
    and hi >= 10**16 > 2**53 is an even integer, so hi + rint(lo) rounds a
    tie to even.  No N carries to 10**17: the largest double below 10**-3,
    10**-2, 10**-1 and 1 has N at most 99999999999999992.  N's two halves,
    and the floor of each quotient of them by a power of ten, are exact in
    a double (a quotient is correctly rounded, and lies at least 1e-8 from
    the next integer when it is not one).  A row is then two table lookups:
    its first 8 bytes by sign, decade and lead digit, and the 16 further
    digits in pairs.

    Every other entry (0, |v| >= 1, |v| < 1e-4, nan and inf) is formatted
    by ``'%.17g' % v`` and copied to its row.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    ax = np.abs(x)
    cls = np.searchsorted(_BOUNDS, ax, side="right")
    fast = _FAST.take(cls)
    ax = np.where(fast, ax, 0.5)
    scale, b1, b2 = _SCALES.take(cls, axis=1)
    # Dekker's two-product: |v| * scale == hi + lo exactly
    hi = ax * scale
    a1, a2 = _halves(ax)
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    # N's 9- and 8-digit halves, their digit prefixes (the lead digit first)
    # and the digit pairs, the differences of consecutive prefixes
    high = n // 10**8
    prefixes = np.floor(np.array([high, n - high * 10**8], np.float64)[:, None] / _UNITS)
    pairs = prefixes[:, 1:] - 100.0 * prefixes[:, :-1]
    rows = np.empty((x.size, SLOT // 2), np.uint16)
    rows[:, 4:] = _PAIRS.take(pairs.astype(np.intp).reshape(8, -1)).T
    lead = prefixes[0, 0].astype(np.intp)
    rows.view(np.uint64)[:, 0] = _PREFIXES.take(lead + 10 * cls + 60 * np.signbit(x))
    rows = rows.view(np.uint8)
    # trailing zero digits become padding
    tail = np.flatnonzero(rows[:, -1] == 48)
    if tail.size:
        digits = rows[tail, 8:]
        digits[np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]] = 0
        rows[tail, 8:] = digits
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [("%.17g" % v).encode().ljust(SLOT, b"\0") for v in x[slow].tolist()]
        rows[slow] = np.frombuffer(b"".join(texts), np.uint8).reshape(-1, SLOT)
    return rows


# points per format17 call in v_lines: its temporaries stay small enough
# for the allocator to reuse them from call to call
_CHUNK = 256


def v_lines(points: np.ndarray) -> bytes:
    """The OBJ vertex lines ``"v %.17g %.17g %.17g\\n"`` of the rows of an
    (N, 3) array, as one text.  Each chunk of points fills the rows of one
    (chunk, 77) uint8 matrix, padded with zero bytes like ``format17``'s
    rows: "v", then a space and a slot per coordinate, then "\\n".  Its
    non-zero bytes are the chunk's text."""
    texts = []
    lines = np.empty((_CHUNK, 2 + 3 * (1 + SLOT)), np.uint8)
    lines[:, 0] = ord("v")
    lines[:, -1] = ord("\n")
    cells = lines[:, 1:-1].reshape(-1, 3, 1 + SLOT)
    cells[:, :, 0] = ord(" ")
    for i in range(0, len(points), _CHUNK):
        block = points[i : i + _CHUNK]
        cells[: len(block), :, 1:] = format17(block).reshape(-1, 3, SLOT)
        chunk = lines[: len(block)]
        texts.append(chunk[chunk != 0].tobytes())
    return b"".join(texts)


def _block(items: list, pad: str, brackets: str = "[]") -> str:
    """A JSON array (or object) of already written items, each on its own
    line after ``pad``, a newline and the items' indent, laid out as
    ``json.dumps`` with ``indent=1`` lays it out."""
    if not items:
        return brackets
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


def json_text(name, family, faces, angles: dict, edge: float, positions=None) -> bytes:
    """``json.dumps(doc, sort_keys=True, indent=1)`` and a newline, as
    bytes, for the document of ``embedder.export_json``, written with
    string joins (``json.dumps`` with an indent runs its pure-Python
    encoder).  ``name`` and ``family`` go through ``json.dumps``, which
    escapes them; every other value is an int or a ``'%.17g'`` string,
    which need no escaping.  Keys sort as strings, so angle "10" precedes
    angle "3"."""
    fields = {
        "angles": _block(
            ['"%s": "%.17g"' % ma for ma in sorted((str(m), a) for m, a in angles.items())],
            "\n  ",
            "{}",
        ),
        "edge": '"%.17g"' % edge,
        "faces": _block([_block([*map(str, f)], "\n   ") for f in faces], "\n  "),
        "family": json.dumps(family),
        "name": json.dumps(name),
    }
    if positions is not None:
        rows = [_block(['"%.17g"' % c for c in p], "\n   ") for p in positions]
        fields["positions"] = _block(rows, "\n  ")
    return ("{\n" + ",\n".join(' "%s": %s' % kv for kv in fields.items()) + "\n}\n").encode()
