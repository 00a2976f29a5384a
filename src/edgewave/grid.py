"""Rectangular complex-field grids and their CSV exchange format.

The grid is the common currency between the analytic field evaluators,
the stencil-residual checks, and the finite-difference solver.  Values
are stored row-major by y then x (``values[j, i]`` sits at
``(x0 + i*dx, y0 + j*dy)``), which matches the CSV ordering.

:func:`read_csv` accepts only what :func:`write_csv` can have written:
the exact header ``x,y,re,im``, then at least one row of four numbers,
the rows repeating one x axis at a constant y, with finite, strictly
increasing and uniformly spaced x and y.  Anything else raises
``ValueError``; that includes blank lines, ``#`` comments and fields
that Python's ``float`` refuses or that hold ``_``.  A CR before a
newline is whitespace, so CRLF files read, and the last newline may be
missing.  Every field reads as the double ``float(field)`` returns:
those in the writer's spelling by array arithmetic, the rest, and
products within 1e-9 ulp of a midpoint between two doubles, by
``float`` itself; an axis the writer wrote reads back bit for bit.
Rows are parsed a fixed number of bytes at a time into the output, so
the traced peak, about 3.2 MB at 261^2, is the output's 32 bytes per
node and one block's temporaries.

:func:`write_csv` writes every number as ``f"{v:.16e}"`` spells it, byte
for byte, but by array arithmetic: only nan, inf and products within
1e-6 of a decimal tie are spelled by Python.  Both directions scale by
one table of exact powers of ten (see the comment above
:func:`_tabulate_power`).  The writer works through a fixed number of
values at a time, so its traced peak, about 0.6 MB at 261^2, is mostly
one block's temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# node classification tags
INTERIOR = 0
EDGE = 1
DELTA_LINE = 2
OUTER = 3
EXCLUDE_CELLS = 2       # band left out around the barrier ray and the waveguide axis

_ALIGN_TOL = 1e-12

_CSV_HEADER = "x,y,re,im"


@dataclass(frozen=True)
class FieldGrid:
    """Complex field samples on a uniform rectangular lattice.

    Attributes
    ----------
    x0, y0 : float
        Coordinates of the first node (south-west corner).
    dx, dy : float
        Node spacings, both > 0.
    nx, ny : int
        Node counts along x and y.
    values : ndarray, shape (ny, nx), complex
    mask : ndarray, shape (ny, nx), uint8
        Per-node tag: INTERIOR, EDGE (on the barrier ray), DELTA_LINE
        (on the waveguide axis x = 0) or OUTER (outermost frame).
    """

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int
    values: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacings must be positive")
        if self.values.shape != (self.ny, self.nx):
            raise ValueError("values must have shape (ny, nx)")
        if self.mask.shape != (self.ny, self.nx):
            raise ValueError("mask must have shape (ny, nx)")

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def meshes(self):
        """Return (X, Y) of shape (ny, nx): read-only broadcast views of
        the axes, no copies, so a closed form sees X constant down each
        column and Y along each row."""
        shape = (self.ny, self.nx)
        return (np.broadcast_to(self.xs(), shape),
                np.broadcast_to(self.ys()[:, None], shape))


def aligned_index(value: float, origin: float, step: float) -> int:
    """Index of the grid line passing through ``value``, or raise.

    The caller guarantees alignment by construction; a residual larger
    than a few ulp means the requested feature (barrier ray, waveguide
    axis) would fall between grid lines, which the solver cannot honor.
    """
    t = (value - origin) / step
    i = int(round(t))
    if abs(t - i) > _ALIGN_TOL * max(1.0, abs(t)) + _ALIGN_TOL:
        raise ValueError(
            f"coordinate {value!r} is not grid-aligned (origin {origin!r}, step {step!r})"
        )
    return i


def build_mask(x0, y0, dx, dy, nx, ny, edge_a=None, delta_line=False) -> np.ndarray:
    """Classify grid nodes.

    ``edge_a`` is the tip abscissa of the barrier ray {y = 0, x >= a};
    ``None`` means no barrier.  ``delta_line`` marks the x = 0 column.
    The outermost frame is tagged OUTER; EDGE wins over DELTA_LINE at
    the crossing node.
    """
    mask = np.full((ny, nx), INTERIOR, dtype=np.uint8)
    mask[0, :] = OUTER
    mask[-1, :] = OUTER
    mask[:, 0] = OUTER
    mask[:, -1] = OUTER
    xs = x0 + dx * np.arange(nx)
    ys = y0 + dy * np.arange(ny)
    if delta_line and xs[0] < 0.0 < xs[-1]:
        i0 = aligned_index(0.0, x0, dx)
        col = mask[:, i0]
        col[col == INTERIOR] = DELTA_LINE
    if edge_a is not None and ys[0] <= 0.0 <= ys[-1]:
        j0 = aligned_index(0.0, y0, dy)
        # a tip left of the grid means the ray covers the whole row
        ia = 0 if edge_a <= xs[0] else aligned_index(edge_a, x0, dx)
        row = mask[j0, ia:]
        row[row != OUTER] = EDGE
    return mask


def tabulate(values, x0, y0, dx, dy, nx, ny, edge_a, delta_line,
             dirichlet) -> FieldGrid:
    """Sample the field ``values(X, Y)`` on the lattice build_mask tags,
    given the axes X of shape (1, nx) and Y of shape (ny, 1) to broadcast;
    with ``dirichlet`` the barrier nodes are exact zeros, the field there.
    A lattice whose nodes coincide or overflow is refused first
    (check_nodes), before any sample is taken."""
    check_nodes(x0, y0, dx, dy, nx, ny)
    mask = build_mask(x0, y0, dx, dy, nx, ny, edge_a, delta_line)
    vals = values((x0 + dx * np.arange(nx))[None, :],
                  (y0 + dy * np.arange(ny))[:, None])
    if dirichlet:
        vals[mask == EDGE] = 0.0
    return FieldGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                     values=vals, mask=mask)


def dilate(mask: np.ndarray, cells: int, square: bool) -> np.ndarray:
    """Boolean mask grown by ``cells`` nodes; nothing enters from outside.

    ``square`` grows by the (2 cells + 1)^2 square, else by ``cells``
    steps of the five-point cross (city-block distance <= cells).  The
    result equals ``scipy.ndimage.binary_dilation`` with that structure,
    resp. the default cross and ``iterations=cells``.
    """
    def spread(m, axis, reach):        # m OR its shifts by 1..reach
        out = m.copy()
        a, b = np.moveaxis(out, axis, 0), np.moveaxis(m, axis, 0)
        for s in range(1, reach + 1):
            a[s:] |= b[:-s]
            a[:-s] |= b[s:]
        return out

    out = np.asarray(mask, dtype=bool)
    if square:
        return spread(spread(out, 0, cells), 1, cells)
    for _ in range(cells):
        out = spread(out, 0, 1) | spread(out, 1, 1)
    return out


def excluded_band(mask: np.ndarray, square: bool) -> np.ndarray:
    """The EDGE and DELTA_LINE nodes grown by EXCLUDE_CELLS (see dilate)."""
    return dilate((mask == EDGE) | (mask == DELTA_LINE), EXCLUDE_CELLS, square)


def check_nodes(x0, y0, dx, dy, nx, ny) -> None:
    """Raise ``ValueError``, and no numpy warning, naming an axis whose
    nodes x0 + i*dx, i < nx, coincide or overflow."""
    for axis, origin, step, n in (("x", x0, dx, nx), ("y", y0, dy, ny)):
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = origin + step * np.arange(n)
            if not (np.isfinite(nodes).all() and (np.diff(nodes) > 0).all()):
                raise ValueError(f"the {axis} nodes {origin!r} + i*{step!r}, "
                                 f"i < {n}, are not strictly increasing as doubles")


def pow2_scale(m: float) -> float:
    """The power of two s, held to the normal doubles, with m*s in [0.5, 1)
    (1 for 0, inf or nan): scaling by s is exact, so a sum of squares
    scaled back keeps its bits wherever the unscaled one stayed in range."""
    return math.ldexp(1.0, min(1022, max(-1022, -math.frexp(m)[1])))


# --- exact powers of ten, for both directions ------------------------------
#
# 10^q = (hi + lo) 2^b, b = floor(q log2 10): hi in [1, 2) and lo make a
# double-double exact to about 2^-106, and hh + hl is hi split into
# 26-bit halves (Veltkamp).  For the x of both directions, below 2^58,
# Dekker's error-free product (Numer. Math. 18, 1971) makes x hi = p +
# err exactly, and p + c, c = err + x lo, is x (hi + lo) to about 2^-100
# of it.  Columns q = -323 to 340 serve the writer's 10^(d+1) and 10^k
# and the reader's q; their rows are b, hi, hh, hl, lo, 2^b and the least
# double >= 10^q (the last two inf above 10^308).

_Q_LOW, _Q_HIGH = -323, 340
_POWERS = np.full((7, _Q_HIGH - _Q_LOW + 1), np.nan)
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitter


def _split(x):
    """Veltkamp's split of x into two halves of at most 26 bits each."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _ratio(k: int, e: int) -> tuple[int, int]:
    """10^k 2^e as (numerator, denominator) of Python ints."""
    return 10 ** max(k, 0) << max(e, 0), 10 ** max(-k, 0) << max(-e, 0)


def _tabulate_power(q: int) -> None:
    """Fill the power table's column for 10^q by Python int arithmetic:
    int / int rounds correctly, so hi and lo are 10^q 2^-b and its
    remainder rounded, and lo is 0 exactly when hi is exact."""
    b = math.floor(q * math.log2(10.0))
    num, den = _ratio(q, -b)
    hi = num / den
    a, c = hi.as_integer_ratio()
    lo = (num * c - a * den) / (den * c)
    scale = at_least = math.inf
    if q <= 308:                    # 10^q rounded up to the doubles' step 2^-s
        s = min(52 - b, 1074)
        num, den = _ratio(q, s)
        scale, at_least = math.ldexp(1.0, b), math.ldexp(-(-num // den), -s)
    _POWERS[:, q - _Q_LOW] = (b, hi, *_split(hi), lo, scale, at_least)


def _powers() -> np.ndarray:
    """The power table, tabulated in q order on first use (about 7 ms)."""
    if np.isnan(_POWERS[0, -1]):
        for q in range(_Q_LOW, _Q_HIGH + 1):
            _tabulate_power(q)
    return _POWERS


def _dekker(x, hi, hh, hl, lo):
    """``(p, c)``: p = x hi rounded and c the rest of x (hi + lo), to
    about 2^-100 of it, for a table column's hi, hh, hl and lo."""
    p = x * hi
    xh, xl = _split(x)
    c = xh * hh                                   # err = x hi - p, exactly
    c -= p
    c += xh * hl
    c += xl * hh
    c += xl * hl
    c += x * lo
    return p, c


# --- the CSV number format -------------------------------------------------
#
# Every number is spelled as f"{v:.16e}" spells it, but for a whole array
# at once.  A finite nonzero |v| = f 2^e with f in [0.5, 1) (np.frexp).
# d = floor((e - 1) log10 2), the largest d with 10^d <= 2^(e-1), is the
# decade of |v| or one below it, so with k = 16 - d (15 - d when |v| >=
# 10^(d+1)) v 10^k = f 2^(e+b) (hi + lo) is in [1e16, 1e17).  f 2^(e+b),
# e + b in [50, 57], is exact, and Dekker's product of it gives p, an even
# integer (>= 2^53), and c, so rounding c half to even rounds v 10^k: the
# 17-digit integer.  When lo = 0 this is exact, ties included; otherwise
# a product within 1e-6 of a tie, and nan and inf, are spelled by Python.
#
# A number is spelled into 7 uint32 words (28 bytes, ASCII in memory
# order): [0, sign or 0, first digit, "."], four words of 4 digits,
# ["e", exponent sign, 2 digits], [third exponent digit or 0, ",", 0, 0].
# The 0 bytes are dropped when a block of lines is written.

_WORDS = 7
_SEPARATOR = 25        # byte offset of the "," in a number's 28 bytes
_SPELL_BLOCK = 2048    # numbers spelled per block: bounds the writer's peak
_TIE_WINDOW = 1e-6


def _ascii_words(words) -> np.ndarray:
    """One uint32 per 4-character word, its bytes in memory order."""
    return np.frombuffer("".join(words).encode(), np.uint32)


# "0000" to "9999" by uint16 arithmetic: faster at import than f-strings,
# and small temporaries, which leave no megabyte of heap behind
_QUADS = (np.arange(10000, dtype=np.uint16)[:, None]
          // np.array([1000, 100, 10, 1], np.uint16) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# [0, sign, lead digit, "."] at index lead + 10 * (sign is "-")
_HEADS = _ascii_words(f"\0{sign}{lead}." for sign in "\0-" for lead in range(10))
# the exponent's two words at index exponent + 324
_EXP_HEADS = _ascii_words(f"e{e:+03d}"[:4] for e in range(-324, 309))
_EXP_TAILS = _ascii_words(f"e{e:+03d}"[4:].ljust(1, "\0") + ",\0\0"
                          for e in range(-324, 309))


def _decade(e: np.ndarray) -> np.ndarray:
    """floor((e - 1) log10 2) for frexp exponents e of doubles, -1073 to
    1024: 78913 / 2^18 is log10 2 close enough for all of them."""
    return (e - 1) * 78913 >> 18


def _spell_block(v: np.ndarray) -> np.ndarray:
    """``(_WORDS, n)`` uint32: column i spells ``f"{v[i]:.16e}"`` and a
    comma, with 0 bytes to pad, for a 1-D float array ``v``."""
    n = v.size
    finite = np.isfinite(v)
    a = np.where(finite, np.abs(v), 0.0)
    f, e = np.frexp(a)
    exp10 = _decade(e)
    powers = _powers()
    exp10 += a >= np.take(powers[6], exp10 + (1 - _Q_LOW))
    b, hi, hh, hl, lo = np.take(powers[:5], (16 - _Q_LOW) - exp10, axis=1)
    f *= ((e + b).astype(np.int64) + 1023 << 52).view(float)   # 2^(e+b), by its bits
    p, c = _dekker(f, hi, hh, hl, lo)
    rounded = np.rint(c)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    exp10 += carry
    exp10[a == 0.0] = 0
    exp10 += 324

    out = np.empty((_WORDS, n), np.uint32)
    lead = digits // 10 ** 16
    quads = out[1:5]
    quads[0] = digits // 10 ** 12 - lead * 10 ** 4
    rest = digits % 10 ** 12                       # the last 12 digits
    quads[1] = rest // 10 ** 8
    rest -= quads[1] * np.int64(10 ** 8)
    quads[2] = rest // 10 ** 4
    quads[3] = rest % 10 ** 4
    np.take(_QUADS, quads, out=quads)
    lead += 10 * np.signbit(v)
    np.take(_HEADS, lead, out=out[0])
    np.take(_EXP_HEADS, exp10, out=out[5])
    np.take(_EXP_TAILS, exp10, out=out[6])

    # products within the window of a tie, where lo made them inexact
    slow = np.abs(c - rounded) > 0.5 - _TIE_WINDOW
    slow &= lo != 0.0
    slow |= ~finite
    for i in np.flatnonzero(slow).tolist():
        word = f"{float(v[i]):.16e}".encode().ljust(_SEPARATOR, b"\0")
        out[:, i] = np.frombuffer(word + b",\0\0", np.uint32)
    return out


def _spell(v: np.ndarray) -> np.ndarray:
    """``(n, _WORDS)`` uint32: :func:`_spell_block` over any 1-D array,
    block by block."""
    out = np.empty((v.size, _WORDS), np.uint32)
    for s in range(0, v.size, _SPELL_BLOCK):
        out[s:s + _SPELL_BLOCK] = _spell_block(v[s:s + _SPELL_BLOCK]).T
    return out


def write_csv(grid: FieldGrid, path) -> None:
    """Write ``x,y,re,im`` rows, row-major by y then x.

    The bytes are a fixed format: the header ``x,y,re,im``, then one
    line per node holding all four numbers as ``"%.16e"`` (17
    significant digits, so doubles round-trip exactly; -0.0, ``inf``,
    ``-inf`` and ``nan`` spelled as Python formats them), each line
    ending in ``\n``.  The numbers are spelled by array arithmetic (see
    the comment above :func:`_decade`), x and y once per axis, into a
    fixed-width buffer per block of nodes whose padding is dropped
    before one write per block, so beyond 28 bytes per spelled x and y
    the traced peak does not grow with the grid.
    """
    xs, ys = _spell(grid.xs()), _spell(grid.ys())
    nodes = _SPELL_BLOCK // 2
    with open(path, "wb") as fh:
        fh.write((_CSV_HEADER + "\n").encode())
        for s in range(0, grid.values.size, nodes):
            block = grid.values.flat[s:s + nodes]
            pairs = np.asarray(block, complex).view(float)
            j, i = np.divmod(np.arange(s, s + block.size), grid.nx)
            line = np.empty((block.size, 4, _WORDS), np.uint32)
            line[:, 0] = xs[i]
            line[:, 1] = ys[j]
            line[:, 2:] = _spell_block(pairs).T.reshape(-1, 2, _WORDS)
            line.view(np.uint8)[:, 3, _SEPARATOR] = ord("\n")
            fh.write(line.tobytes().translate(None, b"\0"))


# --- reading it back -------------------------------------------------------
#
# A field in the writer's spelling, [-]d.dddddddddddddddde(+|-)dd[d], is
# read by array arithmetic; every other field by Python's float (a fast
# lane and a fallback, as in Lemire, Softw. Pract. Exp. 51, 2021).  Its
# 17 digits are an integer D < 10^17 < 2^57, and q is its exponent less
# 16.  The 32 bytes from 6 before the lead digit are four little-endian
# uint64 words: [.., lead digit, "."], two words of 8 digits, turned into
# integers by SWAR multiplies, and ["e", sign, exponent digits, ..].
# With D = dh + dl (dh = D rounded, |dl| <= 8), Dekker's product of dh
# and 10^q plus dl hi is p + c, and r = p + c rounded has an exact
# remainder (Fast2Sum).  So r is D 10^q 2^-b correctly rounded unless
# the remainder is within a small window of half the gap to r's
# neighbour on its side (Clinger, PLDI 1990): the ulp of r - |remainder|,
# the neighbour's binade (the smaller one at a power of two, so a safe
# test).  For -307 <= q <= 291 every nonzero D 10^q is a normal double,
# so scaling by 2^b is exact.  Any other spelling or exponent, nan, inf
# and near-midpoints are read by float, which rounds correctly.

_READ_BLOCK = 1 << 17     # bytes of rows parsed per block: bounds the reader's peak
_WINDOW = 32
_PAD = bytes(_WINDOW)     # around a block, so every field has a whole window
_ROW = np.frombuffer(b",,,\n", np.uint8)
_MIDPOINT_WINDOW = 1e-9
_Q_MIN, _Q_MAX = -307, 291
_EXPONENT_BITS = 0x7FF0000000000000

_FOUR_NUMBERS = "CSV rows must hold four numbers: x,y,re,im"


def _eight_digits(w: np.ndarray):
    """The integers that uint64 words of 8 ASCII bytes (in memory order)
    spell, and whether all 8 bytes are digits."""
    ok = ((w & 0xF0F0F0F0F0F0F0F0)
          | (((w + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4)
          ) == 0x3333333333333333
    w = (w & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32, ok


def _read_spelling(u: np.ndarray, lead: np.ndarray, size: np.ndarray):
    """``(D, q - _Q_LOW, ok)`` for the fields of ``size`` bytes from the
    lead digits ``lead`` in ``u``: ok where a field has the writer's
    spelling and _Q_MIN <= q <= _Q_MAX, D = 0 and column 0 where not."""
    windows = np.ndarray((u.size - _WINDOW + 1,), f"V{_WINDOW}", u, strides=(1,))
    gathered = windows[lead - 6]
    words = gathered.view("<u8").reshape(-1, 4)
    first = (words[:, 0] >> 48) - 0x2E30          # [lead digit, "."] less "0."
    high, ok = _eight_digits(words[:, 1])
    low, ok_low = _eight_digits(words[:, 2])
    ok &= ok_low
    ok &= first < 10
    mark = words[:, 3] & 0xFFFF
    exp_neg = mark == 0x2D65                      # "e-"
    ok &= exp_neg | (mark == 0x2B65)              # or "e+"
    e1, e2, e3 = (gathered.view(np.uint8).reshape(-1, _WINDOW)[:, 26:29]
                  - np.uint8(ord("0"))).T
    three = size == 23                            # a three-digit exponent
    ok &= (e1 < 10) & (e2 < 10)
    ok &= np.where(three, e3 < 10, size == 22)
    q = e1 * np.int64(10) + e2
    q += three * (9 * q + e3)
    q *= 1 - 2 * exp_neg
    q -= 16 + _Q_LOW
    ok &= (q >= _Q_MIN - _Q_LOW) & (q <= _Q_MAX - _Q_LOW)
    q *= ok
    digits = first * 10 ** 16 + high * 10 ** 8 + low
    digits *= ok
    return digits.view(np.int64), q, ok


def _times_power(digits: np.ndarray, powers: np.ndarray):
    """``(D 10^q rounded, whether it may misround)`` for ``digits`` D and
    rows 1 to 5 of the power table at their q (see the comment above)."""
    hi, hh, hl, lo, scale = powers
    dh = digits.astype(float)
    p, c = _dekker(dh, hi, hh, hl, lo)
    c += (digits - dh.astype(np.int64)) * hi      # dl hi, dl = D - dh exactly
    r = p + c
    rest = c - (r - p)                            # p + c = r + rest exactly
    np.abs(rest, out=rest)
    unit = ((r - rest).view(np.int64) & _EXPONENT_BITS).view(float)
    slow = rest > (0.5 - _MIDPOINT_WINDOW) * 2.0 ** -52 * unit
    r *= scale
    return r, slow


def _float_field(text: bytes) -> float:
    """``float(text)``, but refusing digit separators, with a
    ``ValueError`` naming the field."""
    if b"_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"CSV field {text.decode(errors='replace')!r} is not a number")


def _parse_fields(u: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``float(u[s:e])`` for the fields from ``starts`` to ``ends`` in the
    padded bytes ``u``, the writer's spelling read by arithmetic."""
    neg = u[starts] == ord("-")
    lead = starts + neg
    digits, q, ok = _read_spelling(u, lead, ends - lead)
    del lead
    out, slow = _times_power(digits, np.take(_powers()[1:6], q, axis=1))
    slow |= ~ok
    np.negative(out, out=out, where=neg)
    for i in np.flatnonzero(slow).tolist():
        out[i] = _float_field(u[starts[i]:ends[i]].tobytes())
    return out


def _parse_rows(block: bytes) -> np.ndarray:
    """``(rows, 4)`` doubles of the newline-ended rows in ``block``, with
    ``_PAD`` around them; each row must be three commas, then a newline."""
    u = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero((u == ord(",")) | (u == ord("\n")))
    if ends.size % 4 or not (u[ends].reshape(-1, 4) == _ROW).all():
        raise ValueError(_FOUR_NUMBERS)
    starts = np.empty_like(ends)
    starts[0] = len(_PAD)
    np.add(ends[:-1], 1, out=starts[1:])
    return _parse_fields(u, starts, ends).reshape(-1, 4)


def _row_blocks(fh):
    """The rest of ``fh`` in blocks of whole rows, about ``_READ_BLOCK``
    bytes each, with ``_PAD`` around; a last row gets its newline."""
    rest = b""
    while chunk := fh.read(_READ_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            rest += chunk
            continue
        with memoryview(chunk) as view:
            block = b"".join((_PAD, rest, view[:cut], _PAD))
        rest = chunk[cut:]
        del chunk
        yield block
    if rest:
        yield b"".join((_PAD, rest, b"\n", _PAD))


def _check_axis(v: np.ndarray, name: str) -> None:
    """Raise unless ``v`` is finite, strictly increasing and uniformly spaced.

    Nodes are compared with the chord through the end nodes.  The
    tolerance, 16 eps * max|v|, covers the rounding of ``x0 + dx*i`` in
    the writer and of the chord (about 7 eps * max|v| at worst).
    """
    if not np.isfinite(v).all():
        raise ValueError(f"CSV {name} values must be finite")
    if v.size < 2:
        return
    # a span beyond the double range has no chord (Python floats: no warning)
    if not math.isfinite(float(v[-1]) - float(v[0])):
        raise ValueError(f"CSV {name} values are not uniformly spaced")
    if not (np.diff(v) > 0).all():
        raise ValueError(f"CSV {name} values are not strictly increasing")
    chord = v[0] + (v[-1] - v[0]) * (np.arange(v.size) / (v.size - 1))
    if np.abs(v - chord).max() > 16 * np.finfo(float).eps * np.abs(v).max():
        raise ValueError(f"CSV {name} values are not uniformly spaced")


def _spacing(v: np.ndarray) -> float:
    """The least double c > 0 with ``v[0] + c*i >= v[i]`` for every i, or
    1.0 for one node.  On an axis :func:`write_csv` wrote from x0 and dx,
    c <= dx, so ``v[0] + c*i`` is each node, bit for bit."""
    if v.size < 2:
        return 1.0
    i, top = np.arange(v.size), 0x7FEFFFFFFFFFFFFF     # the largest double's bits

    def fits(bits):
        return (v[0] + np.int64(bits).view(float) * i >= v).all()

    # v[0] + c*i grows with c: gallop from the mean spacing, then bisect,
    # over the bit patterns of positive doubles
    with np.errstate(over="ignore"):
        low = high = min(int(((v[-1] - v[0]) / (v.size - 1)).view(np.int64)), top)
        while high < top and not fits(high):
            low, high = high, min(3 * high - 2 * low + 1, top)
        while fits(low):                          # fits(0) is false
            low, high = max(3 * low - 2 * high - 1, 0), low
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if fits(mid) else (mid, high)
    return float(np.int64(high).view(float))


def read_csv(path) -> FieldGrid:
    """Reconstruct a FieldGrid from the CSV written by :func:`write_csv`.

    Raises ``ValueError`` unless the first line is the header
    ``x,y,re,im`` and the rows below it describe a full uniform grid in
    the writer's order: every row three commas and a newline (the last
    newline may be missing, a CR before it is whitespace), with no blank
    or comment lines.  Each field reads as the double ``float(field)``
    returns; a field ``float`` refuses, or one holding ``_``, raises a
    ``ValueError`` naming it.  Fields in the writer's ``"%.16e"``
    spelling are read by array arithmetic (see the comment above
    :func:`_eight_digits`), all others by ``float``.  Each spacing is
    the least double that rebuilds no node below the file's, so an axis
    the writer wrote reads back bit for bit.  The file is read twice,
    once to count its rows and once in blocks of a fixed ``_READ_BLOCK``
    bytes, whose numbers go straight into the output.

    The mask is not stored in the CSV; it is rebuilt as all-INTERIOR
    with the OUTER frame, which is enough for round-trip checks.
    """
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\n").removesuffix(b"\r") != _CSV_HEADER.encode():
            raise ValueError(f"CSV must start with the header {_CSV_HEADER}")
        body = fh.tell()
        if not fh.readline().strip():
            raise ValueError("CSV holds no rows below its header")
        fh.seek(body)
        rows, last = 0, b""
        while chunk := fh.read(_READ_BLOCK):
            rows += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            last = chunk[-1:]
        rows += last != b"\n"
        fh.seek(body)
        coords = np.empty((rows, 2))
        values = np.empty(rows, complex)
        pairs = values.view(float).reshape(rows, 2)
        done = 0
        for block in _row_blocks(fh):
            fields = _parse_rows(block)
            coords[done:done + len(fields)] = fields[:, :2]
            pairs[done:done + len(fields)] = fields[:, 2:]
            done += len(fields)
    # nx is the first run of equal y (a nan y0 gives nx = 1, caught below);
    # where y never changes, a row ends where x returns to its first value
    moved = coords[1:, 1] != coords[0, 1]
    if not moved.any():
        moved = coords[1:, 0] == coords[0, 0]
    nx = int(moved.argmax()) + 1 if moved.any() else rows
    ny, rest = divmod(rows, nx)
    if rest:
        raise ValueError("CSV does not describe a full rectangular grid")
    X = coords[:, 0].reshape(ny, nx)
    Y = coords[:, 1].reshape(ny, nx)
    xs, ys = X[0], Y[:, 0]
    if not ((X == xs).all() and (Y == ys[:, None]).all()):
        raise ValueError("CSV rows must repeat one x axis at constant y")
    _check_axis(xs, "x")
    _check_axis(ys, "y")
    dx, dy = _spacing(xs), _spacing(ys)
    mask = build_mask(xs[0], ys[0], dx, dy, nx, ny)
    return FieldGrid(
        x0=float(xs[0]), y0=float(ys[0]), dx=dx, dy=dy,
        nx=nx, ny=ny, values=values.reshape(ny, nx), mask=mask,
    )
