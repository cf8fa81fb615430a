"""Embedding ingestion, tokenization, dataset formats, folds, batching."""

import io
import os
import re
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from dcbilstm import data
from dcbilstm.cli import parse_config_file
from dcbilstm.data import (
    PAD_IDX,
    UNK_IDX,
    Example,
    build_embedding_matrix,
    build_vocab,
    load_dataset,
    load_embeddings,
    load_label_lines,
    make_batches,
    make_folds,
    pad_batch,
    parse_tree,
    random_embedding_matrix,
    tokenize,
    vectorize,
)
from dcbilstm.errors import ConfigError, ParseError

EMB_FIXTURE = """the 0.1 0.2 0.3 0.4
Movie 1.0 -1.0 0.5 0.25
good -0.5 0.5 -0.25 0.125
"""


@pytest.fixture
def emb_path(tmp_path):
    p = tmp_path / "vectors.txt"
    p.write_text(EMB_FIXTURE, encoding="utf-8")
    return p


def test_load_embeddings_round_trip(emb_path, tmp_path):
    table = load_embeddings(emb_path)
    assert len(table.vectors) == 3 and table.dim == 4
    assert np.array_equal(table.get("movie"), np.array([1.0, -1.0, 0.5, 0.25]))
    # a blank line is skipped
    blank = tmp_path / "blank.txt"
    blank.write_text(EMB_FIXTURE.replace("\n", "\n\n", 1), encoding="utf-8")
    again = load_embeddings(blank)
    assert again.vectors.keys() == table.vectors.keys() and again.dim == 4
    assert all(np.array_equal(again.get(w), table.get(w)) for w in table.vectors)


@pytest.mark.parametrize("dim", [2, 4])
def test_load_embeddings_skips_whitespace_only_lines_anywhere(tmp_path, dim):
    # before and after the width is known, as the TSV and tree readers do
    good, bad = " ".join(["1"] * dim), " ".join(["5"] * dim)
    p = tmp_path / "spaces.txt"
    p.write_text(f"  \ngood {good}\n \n\t\nbad {bad}\n   \n", encoding="utf-8")
    table = load_embeddings(p)
    assert table.dim == dim and list(table.vectors) == ["good", "bad"]
    assert np.array_equal(table.get("bad"), np.full(dim, 5.0))


def test_load_embeddings_case_insensitive(emb_path):
    table = load_embeddings(emb_path)
    assert np.array_equal(table.get("The"), table.get("the"))
    assert "GOOD" in table and "absent" not in table


def test_load_embeddings_against_independent_parser(emb_path):
    """Cross-check with a second parser written from the format description."""
    table = load_embeddings(emb_path)
    reference = {}
    for line in EMB_FIXTURE.strip().splitlines():
        cells = line.split()
        reference[cells[0].lower()] = np.array(list(map(float, cells[1:])))
    assert set(reference) == set(table.vectors)
    for word, vec in reference.items():
        assert np.array_equal(table.get(word), vec), word


def test_load_embeddings_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("ok 1.0 2.0\nshort 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_embeddings(p)
    assert "line 2" in str(info.value)

    p.write_text("word 1.0 oops\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_embeddings(p)
    assert "line 1" in str(info.value)

    p.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_embeddings(p)


def test_load_embeddings_words_with_spaces(tmp_path):
    # glove.840B.300d lists a few tokens with spaces, such as ". . ."; the
    # last dim fields are the vector and the rest, space-joined, the word
    p = tmp_path / "spaced.txt"
    p.write_text("the 0.1 0.2 0.3\n. . . -1.0 0.5 0.25\nAt Name@Domain.com 1.0 2.0 3.0\n",
                 encoding="utf-8")
    table = load_embeddings(p)
    assert table.dim == 3 and len(table.vectors) == 3
    assert np.array_equal(table.get(". . ."), np.array([-1.0, 0.5, 0.25]))
    assert np.array_equal(table.get("at name@domain.com"), np.array([1.0, 2.0, 3.0]))
    # fewer than dim + 1 fields is still an error
    p.write_text("the 0.1 0.2 0.3\n. . 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_embeddings(p)
    assert "line 2" in str(info.value)


def test_load_embeddings_keeps_only_the_kept_words(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("the 1.0 1.0\nzebra 2.0 2.0\nMovie 3.0 3.0\n. . . 4.0 4.0\nThe 5.0 5.0\n",
                 encoding="utf-8")
    table = load_embeddings(p, keep={"the", "movie", ". . .", "absent"})
    assert table.dim == 2 and len(table.vectors) == 3
    assert set(table.vectors) == {"the", "movie", ". . ."}
    assert "zebra" not in table
    # the first occurrence still wins, among kept words too
    assert np.array_equal(table.get("The"), np.array([1.0, 1.0]))
    assert np.array_equal(table.get("movie"), np.array([3.0, 3.0]))
    # the full table is unchanged without keep
    assert len(load_embeddings(p).vectors) == 4


def test_load_embeddings_checks_lines_it_does_not_keep(tmp_path):
    p = tmp_path / "bad.txt"
    for text, line in (("the 1.0 1.0\nzebra 2.0\n", 2),
                       ("the 1.0 1.0\nzebra 2.0 oops\n", 2),
                       ("zebra\nthe 2.0 2.0\n", 1)):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_embeddings(p, keep={"the"})
        assert f"line {line}" in str(info.value)


def test_load_embeddings_rejects_non_finite_components(tmp_path):
    p = tmp_path / "bad.txt"
    for bad in ("nan", "inf", "-inf", "NaN", "1e999"):
        for keep in (None, {"the"}):  # a line it would not store is checked too
            p.write_text(f"the 1.0 1.0\nbad {bad} 0.1\n", encoding="utf-8")
            with pytest.raises(ParseError) as info:
                load_embeddings(p, keep=keep)
            assert "line 2" in str(info.value) and "non-finite" in str(info.value), bad


def test_load_embeddings_skips_a_count_dim_header(tmp_path):
    p = tmp_path / "emb.vec"
    p.write_text("2 3\nthe 0.1 0.2 0.3\n7 1.0 2.0 3.0\n", encoding="utf-8")
    table = load_embeddings(p)
    assert table.dim == 3 and set(table.vectors) == {"the", "7"}
    assert np.array_equal(table.get("7"), np.array([1.0, 2.0, 3.0]))
    # the header's dim must be the vectors' width
    for text in ("2 4\nthe 0.1 0.2 0.3\n", "2 2\nthe 0.1 0.2 0.3\n"):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_embeddings(p)
        assert "line 2" in str(info.value) and "header" in str(info.value)
    # only the first line can be a header; later ones are 1-d vectors
    p.write_text("the 0.1\n2 3\n", encoding="utf-8")
    assert load_embeddings(p).dim == 1 and len(load_embeddings(p).vectors) == 2


def test_load_embeddings_first_occurrence_wins(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("the 1.0 1.0\nThe 2.0 2.0\n", encoding="utf-8")
    table = load_embeddings(p)
    assert np.array_equal(table.get("the"), np.array([1.0, 1.0]))


@pytest.mark.parametrize("header", ["", "3 3\n"])
def test_load_embeddings_ignores_trailing_whitespace(tmp_path, header):
    # fastText writes a space after every component
    p = tmp_path / "emb.vec"
    p.write_text(header + "the 0.1 0.2 0.3 \nmovie 1 2 3 \ngood 4 5 6\t \n", encoding="utf-8")
    table = load_embeddings(p)
    assert table.dim == 3 and list(table.vectors) == ["the", "movie", "good"]
    assert np.array_equal(table.get("the"), np.array([0.1, 0.2, 0.3]))
    assert np.array_equal(table.get("good"), np.array([4.0, 5.0, 6.0]))


def _per_line_oracle(text, keep=None):
    """The loader's per-line rules, one float() per component, over `text`
    split as a text file is: (dim, {word: vector}), or its ParseError."""
    vectors = {}
    dim = header_dim = None
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        fields = line.split()
        if line_no == 1 and len(fields) == 2 and all(f.isascii() and f.isdigit()
                                                     for f in fields):
            header_dim = int(fields[1])
            continue
        line = line.rstrip()
        if not line:
            continue
        parts = line.rsplit(" ", dim or -1)
        if len(parts) < 2:
            raise ParseError("embedding line has no vector part", line_no)
        word = parts[0].lower()
        if dim is None:
            dim = len(parts) - 1
        if header_dim not in (None, dim):
            raise ParseError(f"header gives dim {header_dim}, not {dim}", line_no)
        if len(parts) - 1 != dim:
            raise ParseError(f"expected {dim} vector components, got {len(parts) - 1}",
                             line_no)
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"bad vector component ({exc})", line_no)
        if not np.isfinite(vec).all():
            raise ParseError(f"non-finite vector component for {word!r}", line_no)
        if word not in vectors and (keep is None or word in keep):
            vectors[word] = vec
    if dim is None:
        raise ParseError("embedding file is empty")
    return dim, vectors


def _assert_loads_as_oracle(path, text, keep=None):
    try:
        want = _per_line_oracle(text, keep)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            load_embeddings(path, keep=keep)
        assert str(info.value) == f"{path}: {exc}", text
        return None
    table = load_embeddings(path, keep=keep)
    assert table.dim == want[0], text
    assert list(table.vectors) == list(want[1]), text
    for word, vec in want[1].items():
        got = table.vectors[word]
        assert got.dtype == vec.dtype and got.tobytes() == vec.tobytes(), (text, word)
    return table


# a header, then line 2 fixes dim = 3; the chunks of 4 lines start at line
# 1, so the third of them is lines 9-12
_CHUNKED_LINES = [
    "9 3",                                          # 1: header
    "the 0.1 0.2 0.3",                              # 2
    "", "movie 1.5 -2.5 3e-3", "  ", ". . . 1 2 3",  # 3-6: blank lines, a spaced word
    "MOVIE 9 9 9", "film 0.25 -0.0 7", "Film 1 1 1", "",  # 7-10: duplicates
    "it 1_0 2 3", "was -1 -2 -3", "good 4 5 6", "THE 8 8 8",  # 11-14: 1_0
    "end 7e1 .5 -1.",                               # 15
]


@pytest.fixture
def four_line_chunks(monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_LINES", 4)


def test_load_embeddings_across_chunk_boundaries(tmp_path, four_line_chunks):
    p = tmp_path / "chunked.txt"
    text = "\n".join(_CHUNKED_LINES) + "\n"
    p.write_text(text, encoding="utf-8")
    table = _assert_loads_as_oracle(p, text)
    assert list(table.vectors) == ["the", "movie", ". . .", "film", "it", "was", "good", "end"]
    # cased duplicates lose, on the first line of a chunk and later in one
    assert np.array_equal(table.get("movie"), [1.5, -2.5, 3e-3])
    assert np.array_equal(table.get("film"), [0.25, 0.0, 7.0])
    assert np.array_equal(table.get("it"), [10.0, 2.0, 3.0])
    # lines 1-4 are one bulk parse, whose rows are "the" and "movie": the
    # header and the blank line are not rows
    assert table.get("the").base.shape == (2, 3)
    # with keep, each stored vector owns its memory
    kept = _assert_loads_as_oracle(p, text, keep={"film", "good", "the", ". . ."})
    assert list(kept.vectors) == ["the", ". . .", "film", "good"]
    assert all(vec.base is None for vec in kept.vectors.values())


@pytest.mark.parametrize("bad, message", [
    ("was 1 2", "expected 3 vector components, got 2"),
    ("was 1 oops 2", "bad vector component (could not convert string to float: 'oops')"),
    ("was 1 nan 2", "non-finite vector component for 'was'"),
    ("was 1 2 1e999", "non-finite vector component for 'was'"),
])
def test_load_embeddings_names_the_bad_line_of_a_late_chunk(tmp_path, four_line_chunks,
                                                            bad, message):
    p = tmp_path / "chunked.txt"
    lines = list(_CHUNKED_LINES)
    lines[11] = bad  # line 12, in the third chunk
    text = "\n".join(lines) + "\n"
    p.write_text(text, encoding="utf-8")
    for keep in (None, {"the"}):
        with pytest.raises(ParseError) as info:
            load_embeddings(p, keep=keep)
        assert str(info.value) == f"{p}: line 12: {message}"
    _assert_loads_as_oracle(p, text)


@pytest.mark.parametrize("chunk_lines", [1, 2, 4, 512])
def test_a_clean_file_is_parsed_in_bulk_only(tmp_path, monkeypatch, chunk_lines):
    # every chunk, the header's and the one that fixes dim included, is one
    # np.loadtxt call; the per-line parse is only the fallback
    monkeypatch.setattr(data, "_CHUNK_LINES", chunk_lines)

    def fail(*args):
        raise AssertionError("a clean chunk was parsed line by line")

    monkeypatch.setattr(data, "_parse_lines", fail)
    p = tmp_path / "clean.vec"
    for text in ("the 0.1 0.2\nMovie 1 2\n", "3 2\n\nthe 0.1 0.2\n  \nmovie 1 2 \ngood -3e-3 5\n"):
        p.write_text(text, encoding="utf-8")
        _assert_loads_as_oracle(p, text)


@pytest.mark.parametrize("text, chunk_lines, message", [
    # a chunk of only the header or blank lines does not fix dim
    ("3 4\n\n\n \nthe 1 2 3\n", 2, "line 5: header gives dim 4, not 3"),
    ("2 0\nthe 1 2 3\n", 1, "line 2: header gives dim 0, not 3"),
], ids=["blank-chunk-after-header", "zero-dim-header"])
def test_only_a_data_line_fixes_dim(tmp_path, monkeypatch, text, chunk_lines, message):
    monkeypatch.setattr(data, "_CHUNK_LINES", chunk_lines)
    p = tmp_path / "emb.vec"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_embeddings(p)
    assert str(info.value) == f"{p}: {message}"
    _assert_loads_as_oracle(p, text)
    assert [f.name for f in tmp_path.iterdir()] == ["emb.vec"]


def _fuzz_file(rng):
    """The text of a small random embeddings file: valid lines, then at most
    one mutation."""
    dim = int(rng.integers(1, 5))
    words = ["the", "The", "movie", "a", "b", "ok", "x_y", "naïve", "1", "nan"]
    values = ["0", "-0.0", "1", "2.5", "-3e-7", "1e300", "1_0", ".5", "7.", "+4", "1E2"]
    lines = []
    for _ in range(int(rng.integers(1, 12))):
        vec = [str(rng.choice(values)) if rng.random() < 0.3 else repr(rng.normal())
               for _ in range(dim)]
        lines.append(" ".join([str(rng.choice(words)), *vec]))
    k = int(rng.integers(len(lines)))
    fields = lines[k].split(" ")
    kind = int(rng.integers(11))
    if kind == 0:
        del fields[int(rng.integers(1, len(fields)))]
    elif kind == 1:
        fields.append(repr(rng.normal()))
    elif kind == 2:
        fields[int(rng.integers(1, len(fields)))] = str(rng.choice(["nan", "inf", "-inf",
                                                                    "1e999", "NaN"]))
    elif kind == 3 and len(fields) > 2:
        j = int(rng.integers(1, len(fields) - 1))
        fields[j:j + 2] = [f"{fields[j]}\t{fields[j + 1]}"]
    elif kind == 4:
        fields[-1] += str(rng.choice([" ", "  ", "\t", " \t "]))
    elif kind == 5:
        fields.insert(int(rng.integers(1, len(fields) + 1)), "")
    elif kind == 6:
        fields.insert(1, str(rng.choice(["at", ".", "x", "2.0"])))
    elif kind == 7:
        lines.insert(0, f"{len(lines)} {dim + int(rng.integers(-1, 2))}")
        k += 1
    elif kind == 8:
        lines.insert(k, str(rng.choice(["", " ", "\t"])))
        k += 1
    elif kind == 9:
        fields[int(rng.integers(1, len(fields)))] = str(rng.choice(["oops", "", "0x1p3",
                                                                    "١٢", "1__0"]))
    if kind not in (7, 8):
        lines[k] = " ".join(fields)
    return "\n".join(lines) + str(rng.choice(["\n", ""]))


def test_load_embeddings_fuzz_matches_the_per_line_oracle(tmp_path, monkeypatch):
    rng = np.random.default_rng(20260415)
    p = tmp_path / "fuzz.txt"
    for _ in range(200):
        monkeypatch.setattr(data, "_CHUNK_LINES", int(rng.choice([1, 2, 3, 512])))
        text = _fuzz_file(rng)
        p.write_text(text, encoding="utf-8")
        keep = {"the", "a", "naïve"} if rng.random() < 0.3 else None
        _assert_loads_as_oracle(p, text, keep)


# -- the parse cache -------------------------------------------------------


def _cache_of(path):
    return Path(f"{path}{data.CACHE_SUFFIX}")


@pytest.fixture
def no_parse(monkeypatch):
    """Make any parse of an embeddings line fail; returns a switch-on."""

    def fail(*args, **kwargs):
        raise AssertionError("the embeddings file was parsed")

    def switch_on():
        monkeypatch.setattr(np, "loadtxt", fail)
        monkeypatch.setattr(data, "_parse_lines", fail)

    return switch_on


_CACHED_FILES = {
    "count-dim-header": "3 3\nthe 0.1 0.2 0.3\nmovie 1 2 3\ngood -4e-3 5 6\n",
    "cased-duplicates": "The 0.1 0.2\nthe 1 2\nMovie 3 4\nmovie 5 6\nFilm 7 8\n",
    "word-with-spaces": "the 0.1 0.2 0.3\n. . . -1.0 0.5 0.25\nAt Name@Domain.com 1 2 3\n",
    "per-line-fallback": "the 0.1 0.2\nit 1_0 2\nwas -1 -2\nmovie .5 7.\n",
    "fasttext-trailing-space": "2 3\nthe 0.1 0.2 0.3 \nmovie 1 2 3 \n",
}


@pytest.mark.parametrize("name", list(_CACHED_FILES))
@pytest.mark.parametrize("keep", [None, {"the", "movie", ". . .", "it", "film"}])
def test_a_warm_load_reads_the_parse_from_its_cache(tmp_path, no_parse, name, keep):
    p = tmp_path / "emb.txt"
    text = _CACHED_FILES[name]
    p.write_text(text, encoding="utf-8")
    cold = _assert_loads_as_oracle(p, text, keep)
    assert _cache_of(p).is_file()
    no_parse()
    warm = _assert_loads_as_oracle(p, text, keep)
    # the same table, bit for bit; with keep each vector owns its memory
    assert list(warm.vectors) == list(cold.vectors)
    assert all(warm.vectors[w].tobytes() == v.tobytes() for w, v in cold.vectors.items())
    if keep is not None:
        assert all(vec.base is None for vec in warm.vectors.values())
    # the cache holds every row, so it serves another keep too
    _assert_loads_as_oracle(p, text, None if keep else {"the"})


def test_a_cache_survives_chunk_boundaries_and_fallbacks(tmp_path, four_line_chunks, no_parse):
    p = tmp_path / "chunked.txt"
    text = "\n".join(_CHUNKED_LINES) + "\n"
    p.write_text(text, encoding="utf-8")
    _assert_loads_as_oracle(p, text)
    no_parse()
    for keep in (None, {"film", "good", "the", ". . ."}):
        _assert_loads_as_oracle(p, text, keep)


def test_a_source_edited_to_the_same_size_and_mtime_is_parsed_again(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("the 0.1 0.2\nmovie 1.0 2.0\n", encoding="utf-8")
    load_embeddings(p)
    st = p.stat()
    edited = "the 0.1 0.2\nmovie 3.0 4.0\n"
    p.write_text(edited, encoding="utf-8")
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert p.stat().st_size == st.st_size and p.stat().st_mtime_ns == st.st_mtime_ns
    table = _assert_loads_as_oracle(p, edited)
    assert np.array_equal(table.get("movie"), [3.0, 4.0])


_HEAD = len(data._CACHE_MAGIC) + data._CACHE_HEADER.size


def _truncate(raw):
    return raw[:len(raw) // 2]


def _wrong_magic(raw):
    return b"X" + raw[1:]


def _flip(raw, at):
    return raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]


def _wrong_key(raw):
    return _flip(raw, len(data._CACHE_MAGIC) + 8)  # the inode follows the byte size


def _wrong_digest(raw):
    return _flip(raw, _HEAD - 1)  # the CRC-32 ends the header


def _trailing_bytes(raw):
    return raw + b"\0"


def _zeroed_row_block(raw):
    # the second block's floats, the rows of lines 513-601
    at = _HEAD
    for _ in range(2):
        count, nbytes = data._CACHE_BLOCK.unpack_from(raw, at)
        at += data._CACHE_BLOCK.size + nbytes
        floats = slice(at, at + 8 * 3 * count)
        at = floats.stop
    return raw[:floats.start] + bytes(floats.stop - floats.start) + raw[floats.stop:]


def _nan_with_its_crc(raw):
    # a NaN in the last row, with the CRC-32 stamped to match
    raw = raw[:-8] + np.array([np.nan], dtype="<f8").tobytes()
    crc = zlib.crc32(raw[_HEAD:]).to_bytes(4, "little")
    return raw[:_HEAD - 4] + crc + raw[_HEAD:]


@pytest.mark.parametrize("damage", [_truncate, _wrong_magic, _wrong_key, _wrong_digest,
                                    _trailing_bytes, _zeroed_row_block, _nan_with_its_crc])
def test_a_bad_cache_is_ignored_and_rewritten(tmp_path, damage):
    p = tmp_path / "emb.txt"
    text = "the 0.1 0.2 0.3\n" + "".join(f"w{k} {k} -{k} {k}.5\n" for k in range(600))
    p.write_text(text, encoding="utf-8")
    load_embeddings(p)
    cache = _cache_of(p)
    good = cache.read_bytes()
    cache.write_bytes(damage(good))
    _assert_loads_as_oracle(p, text)
    assert cache.read_bytes() == good
    assert sorted(f.name for f in tmp_path.iterdir()) == ["emb.txt", cache.name]


def test_another_users_cache_is_not_read(tmp_path, monkeypatch):
    p = tmp_path / "emb.txt"
    p.write_text("the 0.1 0.2\nmovie 1.0 2.0\n", encoding="utf-8")
    load_embeddings(p)
    parses, parse_chunk = [], data._parse_chunk
    monkeypatch.setattr(os, "geteuid", lambda: os.stat(_cache_of(p)).st_uid + 1)
    monkeypatch.setattr(data, "_parse_chunk", lambda *a: parses.append(a) or parse_chunk(*a))
    assert np.array_equal(load_embeddings(p).get("movie"), [1.0, 2.0])
    assert parses


def test_a_cache_is_synced_before_it_is_renamed_into_place(tmp_path, monkeypatch):
    calls = []
    for name in ("fsync", "replace"):
        real = getattr(os, name)
        monkeypatch.setattr(os, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    p = tmp_path / "emb.txt"
    p.write_text("the 0.1 0.2\n", encoding="utf-8")
    load_embeddings(p)
    assert calls == ["fsync", "replace"]


def test_a_source_changed_while_it_is_parsed_leaves_no_cache(tmp_path, four_line_chunks):
    p = tmp_path / "chunked.txt"
    text = "\n".join(_CHUNKED_LINES) + "\n"
    p.write_text(text, encoding="utf-8")
    parse_chunk = data._parse_chunk

    def touch_then_parse(*args):
        os.utime(p)  # sets the ctime to now
        return parse_chunk(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_parse_chunk", touch_then_parse)
        _assert_loads_as_oracle(p, text)
    assert [f.name for f in tmp_path.iterdir()] == ["chunked.txt"]


def test_a_source_that_does_not_parse_leaves_no_cache(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("the 1.0 1.0\n" * 600 + "bad nan 0.1\n", encoding="utf-8")
    for keep in (None, {"the"}):
        with pytest.raises(ParseError) as info:
            load_embeddings(p, keep=keep)
        assert str(info.value) == f"{p}: line 601: non-finite vector component for 'bad'"
        assert [f.name for f in tmp_path.iterdir()] == ["bad.txt"]


@pytest.mark.parametrize("fails", ["os.replace", "tempfile.mkstemp"])
def test_a_cache_that_cannot_be_written_is_skipped(tmp_path, monkeypatch, fails):
    module, name = fails.split(".")

    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(getattr(data, module), name, refuse)
    p = tmp_path / "emb.txt"
    text = "".join(f"w{k} {k} {k}.25\n" for k in range(700))
    p.write_text(text, encoding="utf-8")
    for keep in (None, {"w3", "w600"}):
        _assert_loads_as_oracle(p, text, keep)
        assert [f.name for f in tmp_path.iterdir()] == ["emb.txt"]


def test_a_fifo_source_is_parsed_and_nothing_is_written_beside_it(tmp_path):
    fifo = tmp_path / "emb.fifo"
    os.mkfifo(fifo)
    text = "2 2\nthe 0.1 0.2\nThe 3 4\nmovie 1_0 2\n"
    writer = threading.Thread(target=fifo.write_text, args=(text,),
                              kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    try:
        table = _assert_loads_as_oracle(fifo, text)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert list(table.vectors) == ["the", "movie"]
    assert [f.name for f in tmp_path.iterdir()] == ["emb.fifo"]


def test_tokenize_separates_punctuation():
    assert tokenize("It's great, really!") == ["it's", "great", ",", "really", "!"]
    assert tokenize("A rock-solid (if slow) film.") == \
        ["a", "rock-solid", "(", "if", "slow", ")", "film", "."]
    assert tokenize("   ") == []
    # an ellipsis is three full stops
    assert tokenize("wait...") == ["wait", ".", ".", "."]


def test_tokenize_and_filter_abandons_oov(emb_path):
    # the pretrained-table pipeline: tokens the table lacks get no vocab row
    # and vectorize(drop_unknown=True) abandons them
    table = load_embeddings(emb_path)
    examples = [Example(tokenize(text), 0) for text in
                ("The movie, so good", "entirely unknown words", "good good movie")]
    vocab = build_vocab([examples], table)
    assert sorted(vocab) == ["good", "movie", "the"]
    inv = {idx: tok for tok, idx in vocab.items()}
    kept = [[inv.get(i) for i in idxs] for idxs, _ in vectorize(examples, vocab, drop_unknown=True)]
    assert kept[0] == ["the", "movie", "good"]
    assert kept[1] == [None]  # the single unknown index, never length zero
    # idempotence: a filtered sentence passes through unchanged
    again = vectorize([Example(kept[2], 0)], vocab, drop_unknown=True)
    assert [inv[i] for i in again[0][0]] == kept[2] == ["good", "good", "movie"]


def test_load_tsv(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("1\tA fine film.\n0\tso dull\n", encoding="utf-8")
    examples = load_dataset(p, "tsv")
    assert [ex.label for ex in examples] == [1, 0]
    assert examples[0].tokens == ["a", "fine", "film", "."]
    # a blank line is skipped
    p.write_text("1\tA fine film.\n\n0\tso dull\n", encoding="utf-8")
    assert load_dataset(p, "tsv") == examples


def test_load_tsv_errors(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("1\tok\nnope no tab\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_dataset(p, "tsv")
    assert "line 2" in str(info.value)
    p.write_text("x\tok\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_dataset(p, "tsv")
    p.write_text("-3\tok\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_dataset(p, "tsv")
    p.write_text("1\tok\n0\t  \n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2: no tokens"):
        load_dataset(p, "tsv")
    with pytest.raises(ConfigError):
        load_dataset(p, "jsonl")


@pytest.mark.parametrize("label", ["1_0", "+1", " 1", "1 ", "\u0663", "-3"])
def test_a_tsv_label_is_ascii_digits_alone(tmp_path, label):
    # int() reads all but the last, so 1_0 was label 10
    p = tmp_path / "d.tsv"
    p.write_text(f"1\tok\n{label}\tfine film\n", encoding="utf-8")
    message = f"{p}: line 2: label {label!r} is not a non-negative integer"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_dataset(p, "tsv")


@pytest.mark.parametrize("fmt,flags,message", [
    ("jsonl", {}, "data format must be one of tsv, sst_trees, got 'jsonl'"),
    ("tsv", {"binary": True}, "binary needs data format sst_trees"),
    ("tsv", {"phrases": True}, "phrases needs data format sst_trees"),
    ("tsv", {"binary": True, "phrases": True}, "binary needs data format sst_trees"),
])
def test_load_dataset_checks_format_and_flags_before_opening_the_file(tmp_path, fmt, flags,
                                                                      message):
    # the path does not exist, so an OSError would mean the file was opened first
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_dataset(tmp_path / "missing.tsv", fmt, **flags)


def test_parse_tree_minimal():
    # every node, children before their parent, the root last
    assert parse_tree("(3 (2 good) (2 movie))") == \
        [(["good"], 2), (["movie"], 2), (["good", "movie"], 3)]


def test_parse_tree_nested_leaf_order():
    line = "(4 (2 (2 a) (3 truly)) (4 (3 moving) (2 story)))"
    assert parse_tree(line)[-1] == (["a", "truly", "moving", "story"], 4)


def test_parse_tree_errors():
    for bad in ["(3 (2 good) (2 movie)", "(3 (2 good)) extra",
                "3 good)", "(x good)", "(3 )",
                # a node holds one word or subtrees, not both and not two words
                "(3 good (2 x))", "(3 a b)",
                # a label glued to its word is not a leaf
                "(3 (2 good)(37film))",
                # a label is ASCII digits alone
                "(3 (\u0663 good))", "(3 (+2 good))"]:
        with pytest.raises(ParseError) as info:
            parse_tree(bad, line_no=1)
        assert "line 1" in str(info.value), bad


def test_load_sst_any_depth(tmp_path):
    p = tmp_path / "deep.txt"
    p.write_text("(1 " * 5000 + "Deep" + ")" * 5000 + "\n", encoding="utf-8")
    [root] = load_dataset(p, "sst_trees")
    assert root.tokens == ["deep"] and root.label == 1
    assert len(load_dataset(p, "sst_trees", phrases=True)) == 5000


def test_load_sst_roots_and_binary(tmp_path):
    p = tmp_path / "trees.txt"
    p.write_text(
        "(3 (2 It) (4 (2 's) (4 great)))\n"
        "(2 (2 plain) (2 boring))\n"
        "(1 (2 very) (0 bad))\n",
        encoding="utf-8",
    )
    five_way = load_dataset(p, "sst_trees")
    assert [ex.label for ex in five_way] == [3, 2, 1]
    assert five_way[0].tokens == ["it", "'s", "great"]

    binary = load_dataset(p, "sst_trees", binary=True)
    assert [ex.label for ex in binary] == [1, 0]  # the neutral root is dropped

    # a blank line is skipped
    p.write_text(p.read_text(encoding="utf-8").replace("\n", "\n\n", 1), encoding="utf-8")
    assert load_dataset(p, "sst_trees") == five_way


def test_load_sst_phrases_mode(tmp_path):
    p = tmp_path / "trees.txt"
    p.write_text("(3 (2 good) (2 movie))\n", encoding="utf-8")
    phrases = load_dataset(p, "sst_trees", phrases=True)
    # two leaves plus the root
    assert len(phrases) == 3
    assert sorted(tuple(ex.tokens) for ex in phrases) == \
        [("good",), ("good", "movie"), ("movie",)]


def test_load_label_lines(tmp_path):
    p = tmp_path / "pos.txt"
    p.write_text("a fine film\n\nanother winner !\n", encoding="utf-8")
    examples = load_label_lines(p, 1)
    assert len(examples) == 2
    assert all(ex.label == 1 for ex in examples)


def test_load_label_lines_latin1(tmp_path):
    p = tmp_path / "mr.txt"
    p.write_bytes("clich\xe9 but charming\n".encode("latin-1"))
    examples = load_label_lines(p, 0, encoding="latin-1")
    assert examples[0].tokens[0] == "clich\xe9"


# each line reader: how a file is read through it, two lines it accepts, and a
# malformed line; a label line is any text, so it has no malformed form
LINE_READERS = {
    "tsv": (lambda p: load_dataset(p, "tsv"), ["1\tA fine film.", "0\tso dull"], "1 no tab"),
    "sst_trees": (lambda p: load_dataset(p, "sst_trees"),
                  ["(3 (2 good) (2 film))", "(1 (0 dull))"], "(3 (2 good)"),
    "label lines": (lambda p: load_label_lines(p, 1), ["A fine film.", "so dull"], None),
    "config file": (parse_config_file, ["dl = 3  # depth", "lr = 0.01"], "dl 3"),
}


@pytest.mark.parametrize("name", LINE_READERS)
def test_every_line_reader_skips_blank_lines_and_names_the_file(tmp_path, name):
    read, (first, second), bad = LINE_READERS[name]
    path = tmp_path / "input"
    path.write_bytes(f"{first}\n{second}\n".encode("utf-8"))
    expected = read(path)
    assert len(expected) == 2
    # whitespace-only lines are skipped, the last without a newline too
    path.write_bytes(f" \n{first}\n\t \u00a0\n\n{second}\n  ".encode("utf-8"))
    assert read(path) == expected
    # CRLF line ends read as LF ones
    path.write_bytes(f"{first}\r\n\r\n{second}\r\n".encode("utf-8"))
    assert read(path) == expected
    # an error's line number counts the skipped lines, and the error names the file
    if bad is not None:
        path.write_bytes(f"{first}\n\n \n{bad}\n{second}\n".encode("utf-8"))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 4: "):
            read(path)
    # a byte that is not utf-8 is reported with the file's name
    path.write_bytes(f"{first}\n".encode("utf-8") + "caf\xe9\n".encode("latin-1"))
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: not utf-8 text \("):
        read(path)


def test_build_vocab_sorted_and_filtered(emb_path):
    table = load_embeddings(emb_path)
    sets = [[Example(["good", "movie"], 1)], [Example(["the", "zebra"], 0)]]
    vocab = build_vocab(sets, table)
    assert vocab == {"good": 2, "movie": 3, "the": 4}  # zebra not in table
    unfiltered = build_vocab(sets)
    assert list(unfiltered) == ["good", "movie", "the", "zebra"]
    assert min(unfiltered.values()) == 2


def test_embedding_matrices(emb_path):
    table = load_embeddings(emb_path)
    vocab = {"good": 2, "the": 3}
    mat = build_embedding_matrix(vocab, table)
    assert mat.shape == (4, 4)
    assert np.array_equal(mat[PAD_IDX], np.zeros(4))
    assert np.array_equal(mat[UNK_IDX], np.zeros(4))
    assert np.array_equal(mat[2], table.get("good"))
    with pytest.raises(ConfigError):
        build_embedding_matrix({"zebra": 2}, table)

    rnd = random_embedding_matrix(vocab, 6, np.random.default_rng(0))
    assert rnd.shape == (4, 6)
    assert np.array_equal(rnd[PAD_IDX], np.zeros(6))
    assert (rnd[2] != 0).any()


def test_vectorize_modes():
    vocab = {"good": 2, "movie": 3}
    examples = [Example(["good", "zebra", "movie"], 1), Example(["zebra"], 0)]
    keep_unk = vectorize(examples, vocab)
    assert keep_unk == [([2, UNK_IDX, 3], 1), ([UNK_IDX], 0)]
    dropped = vectorize(examples, vocab, drop_unknown=True)
    # a fully-unknown sentence keeps one unknown index, never length zero
    assert dropped == [([2, 3], 1), ([UNK_IDX], 0)]


def test_make_folds_partition_properties():
    folds = make_folds(10, 10, seed=0)
    assert sorted(len(f) for f in folds) == [1] * 10
    assert sorted(i for f in folds for i in f) == list(range(10))

    same = make_folds(25, 4, seed=3)
    again = make_folds(25, 4, seed=3)
    assert same == again
    assert make_folds(25, 4, seed=4) != same

    sizes = sorted(len(f) for f in make_folds(10662, 10, seed=0))
    assert sizes == [1066] * 8 + [1067] * 2

    with pytest.raises(ConfigError):
        make_folds(5, 10, seed=0)


def test_pad_batch_shapes_and_padding():
    group = [([2, 3, 4], 1), ([5], 0)]
    batch = pad_batch(group)
    assert batch.indices.shape == (2, 3)
    assert batch.indices[1, 1] == PAD_IDX and batch.indices[1, 2] == PAD_IDX
    assert batch.lengths.tolist() == [3, 1]
    assert batch.labels.tolist() == [1, 0]
    with pytest.raises(ConfigError):
        pad_batch([])


def test_pad_batch_packs_the_batch_once():
    group = [([2, 3, 4], 1), ([5], 0), ([3, 3, 9, 2], 1)]
    batch = pad_batch(group)
    P = batch.packing
    # packed time-major: position by position, longer sentences first
    assert P.rows.tolist() == [2, 0, 1, 2, 0, 2, 0, 2]
    assert P.ts.tolist() == [0, 0, 0, 1, 1, 2, 2, 3]
    assert batch.tokens.tolist() == [3, 2, 5, 3, 3, 9, 4, 2]
    assert batch.uniq.tolist() == [2, 3, 4, 5, 9]
    assert batch.uniq[batch.inv].tolist() == batch.tokens.tolist()


@pytest.mark.parametrize("group", [
    [([], 0)],
    [([2, 3], 1), ([], 0)],
    [([], 1), ([4], 0), ([], 0)],
])
def test_pad_batch_rejects_a_sentence_with_no_tokens(group):
    with pytest.raises(ConfigError):
        pad_batch(group)


def test_make_batches_sizes_and_conservation():
    indexed = [([i + 2], i % 3) for i in range(5)]
    batches = make_batches(indexed, 2)
    assert [len(b.labels) for b in batches] == [2, 2, 1]
    # unshuffled order preserves the label sequence
    flat = [l for b in batches for l in b.labels.tolist()]
    assert flat == [ex[1] for ex in indexed]

    rng = np.random.default_rng(0)
    shuffled = make_batches(indexed, 2, rng, shuffle=True)
    assert sorted(l for b in shuffled for l in b.labels.tolist()) == sorted(flat)
    with pytest.raises(ConfigError):
        make_batches(indexed, 0)
    with pytest.raises(ConfigError):
        make_batches(indexed, 2, shuffle=True)
