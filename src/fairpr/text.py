"""The text form the readers in ``fairpr.graph`` share: a whole text read
as ``str.splitlines`` lines of ``str.split`` tokens with array operations,
and its tokens converted column by column. Nothing here knows a size: the
readers work n and K out from the ids they read.

``Lines`` finds the lines and tokens of a text from one class byte per
character, so a load costs a few array passes and no Python work per line.
A table of ids only (``load_graph``, ``load_labels``) whose data lines hold
plain ASCII digits and C whitespace reads with one ``np.fromstring`` C
parse, with no ``str`` token made. Any other text is split into ``str``
tokens, and ids convert with ``int()`` and weights with ``float()``, through
numpy; a weight column that is mostly runs of equal adjacent tokens (a
row's one 1/outdeg, a uniform vector) converts one token per run
(``_runs``). Only a bad token (or one numpy rejects) goes through
``_parse_int`` or ``_parse_weight`` on its own, and every error names its
line.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class GraphParseError(ValueError):
    """Malformed edge-list, label, or matrix input."""


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-integer {what} {token!r}") from None
    if value < 0:
        raise GraphParseError(f"line {lineno}: negative {what} {value}")
    if value >= 2**63:
        raise GraphParseError(f"line {lineno}: {what} {value} does not fit in 64 bits")
    return value


def _parse_weight(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-numeric weight {token!r}") from None


def _runs(tokens: np.ndarray) -> np.ndarray | None:
    """Where each run of equal adjacent ``tokens`` starts, when there are at
    most half as many runs as tokens; else None. The first half is compared
    first, and when more than half of its tokens after the first start a
    run the column is taken as distinct, without comparing the rest."""
    fresh = np.empty(len(tokens), bool)
    fresh[:1] = True
    half = max(len(tokens) // 2, 1)
    np.not_equal(tokens[1:half], tokens[: half - 1], out=fresh[1:half])
    if 2 * np.count_nonzero(fresh[1:half]) > half - 1:
        return None
    np.not_equal(tokens[half:], tokens[half - 1 : -1], out=fresh[half:])
    return np.flatnonzero(fresh) if 2 * np.count_nonzero(fresh) <= len(tokens) else None


def _column(tokens: np.ndarray, lineno: np.ndarray, what: str | None):
    """``tokens`` as int64 ids (``what`` names them, as in ``_parse_int``) or,
    for ``what=None``, as float64 weights: ``(values, error)``. On a bad
    token ``values`` stops before it and ``error`` is the GraphParseError
    that ``_parse_int`` or ``_parse_weight`` raises for it.

    numpy converts a str element with ``int()`` or ``float()``; a token it
    rejects sends the column through ``_parse_int``/``_parse_weight`` one
    token at a time, as far as the first bad one. A weight column with at
    most half as many runs of equal adjacent tokens as tokens (a row's one
    1/outdeg, a uniform vector) converts the first token of each run and
    repeats its value over the run."""
    dtype = float if what is None else np.int64
    runs = _runs(tokens) if what is None else None
    try:
        if runs is None:
            values = np.array(tokens, dtype=dtype)
        else:
            values = np.repeat(np.array(tokens[runs], dtype=float), np.diff(runs, append=len(tokens)))
    except (ValueError, OverflowError):
        values = []
        for token, line in zip(tokens.tolist(), lineno.tolist()):
            try:
                values.append(_parse_weight(token, line) if what is None else _parse_int(token, line, what))
            except GraphParseError as err:
                return np.array(values, dtype=dtype), err
        values = np.array(values, dtype=dtype)
    if what is not None and (values < 0).any():
        i = int((values < 0).argmax())
        return values[:i], GraphParseError(f"line {lineno[i]}: negative {what} {values[i]}")
    return values, None


def _line_end(c: str) -> bool:
    """True when ``str.splitlines`` ends a line at the character ``c``."""
    return len(f"a{c}a".splitlines()) == 2


# each byte's class as str.split and str.splitlines see the character: line
# ends below 14 ('\n' 10, '\r' 13, '\x0b' and '\x0c' 12, the rest 11), other
# whitespace up to 32 (' ' and '\t' 32, the rest 31), '#' 35, ASCII digits 48
# and anything else 120
_CLASS = bytes(
    ord(c) if c in "\n\r#" else 12 if c in "\x0b\x0c" else 11 if _line_end(c) else
    32 if c in " \t" else 31 if c.isspace() else 48 if c in "0123456789" else 120
    for c in map(chr, range(256))
)
# the classes of the bytes that C's isspace and strtol read as str.split and int() do
_PLAIN = bytes([10, 12, 13, 32, 48])


def _classes(text: str) -> bytes:
    """The ``_CLASS`` of each character of ``text``, one byte each."""
    if not text.isascii():
        # a non-ASCII line end becomes '\x1e', a line end that never pairs
        # with '\r', other non-ASCII whitespace '\x1f' and the rest '?'
        space = {c for c in set(text) if c.isspace() and not c.isascii()}
        text = text.translate({ord(c): "\x1e" if _line_end(c) else "\x1f" for c in space})
    return text.encode("ascii", "replace").translate(_CLASS)


def _line_table(text: str) -> tuple:
    """For each line of ``text`` that holds tokens: its number (counting
    every ``str.splitlines`` line from 1), the index of its first
    ``str.split`` token, its token count and whether it is a comment (its
    first token starts with '#'). Then the ``_classes`` of ``text``, with
    the bytes of comment lines (line ends included) as spaces, and ``span``,
    the (start, stop) bytes from the first comment line's start to the last
    one's end ((0, 0) without comments): only those bytes are rewritten.
    Temporaries hold one byte per character or one int64 per token or line
    end."""
    classes = _classes(text)
    cls = np.frombuffer(classes, np.uint8)
    starts = cls > 32  # a token starts at a non-space after a space or at the start
    starts[1:] &= cls[:-1] <= 32
    ends = cls <= 13
    cr = np.flatnonzero(cls[:-1] == 13)
    ends[cr[cls[cr + 1] == 10] + 1] = False  # "\r\n" ends one line
    starts = np.flatnonzero(starts)
    # line i (from 0) ends at ends[i] and holds the tokens after line end i - 1
    ends = np.append(np.flatnonzero(ends), len(cls))
    bounds = np.concatenate([[0], np.searchsorted(starts, ends)])
    count = np.diff(bounds)
    held = np.flatnonzero(count)
    first = bounds[held]
    comment = cls[starts[first]] == ord("#")
    span = (0, 0)
    if comment.any():  # line i's bytes run from after ends[i - 1] through ends[i]
        lines = held[comment]
        top, bottom = lines[0], lines[-1]
        lo, hi = int(ends[top - 1]) + 1 if top else 0, min(int(ends[bottom]) + 1, len(cls))
        blank = np.zeros(bottom - top + 1, bool)
        blank[lines - top] = True
        spaced = np.where(np.repeat(blank, np.diff(ends[top : bottom + 1], prepend=lo - 1))[: hi - lo], 32, cls[lo:hi])
        whole = memoryview(classes)
        classes, span = b"".join([whole[:lo], spaced.tobytes(), whole[hi:]]), (lo, hi)
    return held + 1, first, count[held], comment, classes, span


class Lines:
    """A text as ``str.split`` and ``str.splitlines`` see it: ``lineno``,
    ``first``, ``count`` and ``comment``, the ``_line_table`` of the lines
    that hold tokens, with ``classes``, its class bytes, ``span``, the bytes
    that the comment lines cover, and ``tokens``, its
    ``str.split`` tokens as an object array, made when first read. ``table``
    and ``headers`` read rows of tokens from them."""

    def __init__(self, text: str):
        self.text = text
        self.lineno, self.first, self.count, self.comment, self.classes, self.span = _line_table(text)

    @cached_property
    def tokens(self) -> np.ndarray:
        tokens = self.text.split()
        return np.fromiter(tokens, dtype=object, count=len(tokens))

    def rows(self, lines: np.ndarray, kinds: tuple) -> tuple[list, np.ndarray, tuple | None]:
        """The last ``len(kinds)`` tokens of the ``lines``, one column per
        kind (see ``_column``): ``(columns, line numbers, bad)``. ``bad`` is
        ``(line number, GraphParseError)`` for the first bad token in line
        order, and the rows stop before its line; else None."""
        width = len(kinds)
        at = self.first[lines] + self.count[lines] - width
        lineno = self.lineno[lines]
        stop, bad = len(lines), None
        columns = []
        for j, what in enumerate(kinds):
            values, err = _column(self.tokens[at + j], lineno, what)
            if err is not None and len(values) < stop:
                stop, bad = len(values), (int(lineno[len(values)]), err)
            columns.append(values)
        return [c[:stop] for c in columns], lineno[:stop], bad

    def plain_ids(self) -> np.ndarray | None:
        """Every token of the data lines (not comments) as int64, read by one
        ``np.fromstring`` C parse, when those lines hold only ASCII digits
        and whitespace and line ends that C's isspace skips, in tokens of 1
        to 18 digits: strtol then reads each token as ``int()`` does, and
        reads to the end of the text. Else None. The text must hold a data
        line (``np.fromstring`` reads a blank text as ``[0]``). With comment
        lines, only their ``span`` is rewritten (its digits kept and the
        rest spaces) before the parse."""
        if self.classes.translate(None, _PLAIN) or bytes([48]) * 19 in self.classes:
            return None
        text = self.text
        lo, hi = self.span
        if hi:  # bytes, whose final NUL stops strtol at the end; the comments' span as spaces and digits
            raw = text.encode("ascii", "replace")
            digit = np.frombuffer(self.classes, np.uint8, hi - lo, lo) == 48
            kept = np.where(digit, np.frombuffer(raw, np.uint8, hi - lo, lo), 32).tobytes()
            text = b"".join([memoryview(raw)[:lo], kept, memoryview(raw)[hi:]])
        return np.fromstring(text, dtype=np.int64, sep=" ")

    def table(self, kinds: tuple, expected: str) -> tuple[list, np.ndarray, tuple | None]:
        """The data lines (not comments) as ``rows``; each must hold
        ``len(kinds)`` tokens, and the first that does not is ``bad`` when
        no earlier token is. Ids only read through ``plain_ids`` when it
        can."""
        lines = np.flatnonzero(~self.comment)
        short = lines[self.count[lines] != len(kinds)]
        if len(lines) and not len(short) and None not in kinds:
            ids = self.plain_ids()
            if ids is not None:
                return list(ids.reshape(len(lines), len(kinds)).T), self.lineno[lines], None
        if len(short):
            lines = lines[lines < short[0]]
        columns, lineno, bad = self.rows(lines, kinds)
        if bad is None and len(short):
            at = int(self.lineno[short[0]])
            raw = self.text.splitlines()[at - 1]
            bad = at, GraphParseError(f"line {at}: expected {expected}, got {raw!r}")
        return columns, lineno, bad

    def headers(self, **kinds: tuple) -> list[tuple]:
        """For each ``name=kinds``, the comment lines that read ``# name``
        ('#' and name joined or apart) and then ``len(kinds)`` tokens, as
        ``rows``."""
        lines = np.flatnonzero(self.comment)
        head = self.tokens[self.first[lines]]
        apart = head == "#"
        after = self.tokens[np.minimum(self.first[lines] + 1, len(self.tokens) - 1)]
        key = np.where(apart, "#" + after, head)
        width = self.count[lines] - apart
        return [self.rows(lines[(key == f"#{name}") & (width == len(k) + 1)], k) for name, k in kinds.items()]
