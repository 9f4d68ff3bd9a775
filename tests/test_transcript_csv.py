"""The chunked transcript CSV encoder against the ``%``-format writer it
replaced, byte for byte, and its memory bound.

``percent_format_csv`` is that writer, kept verbatim as the oracle: it turns
every cell into a Python int and formats all rows with one ``%``.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditbell.bell import BasisAssignment
from quditbell.ditter import LabelConvention
from quditbell.protocol import Transcript, transcript_csv_string, write_transcript_csv


def percent_format_csv(transcript: Transcript) -> str:
    """Transcript export: header ``round,a,b,k,k'`` and one row per round,
    every line ended by ``\\r\\n`` as ``csv.writer`` ends them."""
    n = len(transcript)
    cells = np.column_stack(
        (np.arange(n), transcript.a, transcript.b, transcript.k, transcript.kp)
    )
    return "round,a,b,k,k'\r\n" + ("%d,%d,%d,%d,%d\r\n" * n) % tuple(cells.ravel().tolist())


#: round counts around every digit-width change and both sides of the
#: 65 536-round chunk boundary
ROUND_COUNTS = (0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 65535, 65536, 65537, 131073)


def assert_same_csv(actual: str, expected: str) -> None:
    """``actual == expected``, reported by the first differing line: pytest's
    own diff of two long strings can take minutes."""
    if actual != expected:
        for line, (got, want) in enumerate(zip(actual.split("\r\n"), expected.split("\r\n"))):
            assert got == want, f"CSV line {line}"
        pytest.fail(f"CSV lengths differ: {len(actual)} != {len(expected)}")


def all_ones_settings(bases: int, d: int) -> BasisAssignment:
    """bases all-ones rows of d phases per party: the CSV reads only their shape."""
    return BasisAssignment((np.ones((bases, d)),) * 2, LabelConvention.STANDARD)


def random_transcript(d: int, bases: int, n: int, seed: int) -> Transcript:
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, bases, size=(2, n))
    k, kp = rng.integers(0, d, size=(2, n))
    return Transcript(all_ones_settings(bases, d), a, b, k, kp)


def head(transcript: Transcript, n: int) -> Transcript:
    """The transcript's first n rounds."""
    t = transcript
    return Transcript(t.settings, t.a[:n], t.b[:n], t.k[:n], t.kp[:n])


@pytest.mark.parametrize("d", [2, 3, 5, 9, 10, 11, 32, 150])
@pytest.mark.parametrize("bases", ["4", "d"])
def test_csv_equals_percent_format_writer(d, bases):
    """Every round count in ROUND_COUNTS; d = 150 needs three-digit k, k'
    (and a, b with d bases), beyond what the command line allows."""
    full = random_transcript(d, 4 if bases == "4" else d, max(ROUND_COUNTS), seed=d)
    # the oracle renders row by row, so the rows of a prefix are a prefix of its rows
    lines = percent_format_csv(full).split("\r\n")
    assert_same_csv(transcript_csv_string(full), "\r\n".join(lines))
    for n in ROUND_COUNTS:
        assert_same_csv(transcript_csv_string(head(full, n)), "\r\n".join(lines[: n + 1] + [""]))
    for n in (0, 1, 11, 1001):
        assert_same_csv(transcript_csv_string(head(full, n)), percent_format_csv(head(full, n)))


@st.composite
def transcripts(draw):
    d = draw(st.integers(2, 120))
    bases = draw(st.integers(1, 120))
    n = draw(st.integers(0, 40))
    a, b = (draw(st.lists(st.integers(0, bases - 1), min_size=n, max_size=n)) for _ in "ab")
    k, kp = (draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)) for _ in "kk")
    return Transcript(all_ones_settings(bases, d), np.array(a, dtype=int), np.array(b, dtype=int),
                      np.array(k, dtype=int), np.array(kp, dtype=int))


@given(transcripts())
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
def test_csv_equals_percent_format_writer_on_drawn_columns(transcript):
    assert_same_csv(transcript_csv_string(transcript), percent_format_csv(transcript))


@pytest.mark.parametrize("n", [0, 5, 65537])
def test_csv_file_holds_the_string_bytes(tmp_path, n):
    transcript = random_transcript(11, 11, n, seed=n)
    path = tmp_path / "t.csv"
    write_transcript_csv(transcript, path)
    # strict ASCII decoding, so equal strings mean equal bytes
    assert_same_csv(path.read_bytes().decode("ascii"), transcript_csv_string(transcript))


def write_peak(transcript: Transcript, path) -> int:
    """tracemalloc's peak, in bytes, inside one ``write_transcript_csv``."""
    tracemalloc.start()
    try:
        write_transcript_csv(transcript, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_does_not_grow_with_rounds(tmp_path):
    """The writer holds one chunk of rendered rounds at a time, so its peak
    is the same at 1e6 rounds as at 2e5."""
    small = write_peak(random_transcript(5, 5, 200_000, seed=0), tmp_path / "small.csv")
    large = write_peak(random_transcript(5, 5, 1_000_000, seed=0), tmp_path / "large.csv")
    assert large <= 1.25 * small, (small, large)
