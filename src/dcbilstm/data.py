"""Text loading: embeddings, tokenization, dataset formats, vocab, batching.

Each dataset format is a line reader in ``DATA_FORMATS``, which
``read_lines`` runs over a file's non-blank lines:

  tsv        one example per line, "<label>\\t<text>", labels are
             non-negative integers in ASCII digits.
  sst_trees  one PTB-style parse per line with sentiment labels 0..4 at
             every node, e.g. "(3 (2 It) (4 (2 's) (4 great)))".  The root
             label is the sentence label.  With binary=True the five-way
             labels collapse to negative {0,1} -> 0 and positive {3,4} -> 1
             and neutral (2) sentences are dropped.

Vocabulary convention: row 0 is padding, row 1 is the unknown token, both
embed to zero vectors.  Real tokens occupy rows 2 and up.
"""

import os
import re
import stat
import struct
import tempfile
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import kernels
from .errors import ConfigError, ParseError

PAD_IDX = 0
UNK_IDX = 1
EMBEDDING_SCALE = 0.1  # random embeddings are uniform in [-0.1, 0.1)
_CHUNK_LINES = 512  # embedding lines per bulk parse

_COUNT_RE = re.compile(r"[0-9]+")

# splits off standard sentence punctuation while keeping contractions and
# hyphenated words intact ("rock-solid", "don't")
_PUNCT_RE = re.compile(r"([.,!?;:()\"])")


@contextmanager
def open_text(path, encoding="utf-8"):
    """Open `path` for reading; a parse or decoding error inside names the file."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            yield fh
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {encoding} text ({exc.reason})") from exc


def read_lines(path, read_line, encoding="utf-8"):
    """The items `read_line(line, line_no)` gives for each non-blank line of
    `path`, which comes without its newline, numbered from 1 with blank lines
    counted.  A ParseError it raises, or text not in `encoding`, names the file."""
    items = []
    with open_text(path, encoding) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isspace():
                items.extend(read_line(line.rstrip("\n"), line_no))
    return items


class EmbeddingTable:
    """Word -> vector lookup with case-insensitive keys."""

    def __init__(self, vectors, dim):
        self.vectors = vectors
        self.dim = dim

    def __contains__(self, word):
        return word.lower() in self.vectors

    def get(self, word):
        return self.vectors.get(word.lower())


def _vec_header_dim(line):
    """dim of a word2vec / fastText ``count dim`` header line, else None."""
    fields = line.split()
    if len(fields) == 2 and parse_count(fields[0]) is not None:
        return parse_count(fields[1])
    return None


def _store(words, rows, keep, vectors):
    """Store each new kept word's row in `vectors`: the keep and
    first-occurrence rules, for rows parsed or read from the cache.  A kept
    row is copied, so the rest of its chunk can be freed."""
    for word, vec in zip(words, rows):
        if word not in vectors and (keep is None or word in keep):
            vectors[word] = vec if keep is None else vec.copy()


def _parse_lines(lines, line_no, dim, header_dim):
    """Parse and check `lines` one by one, the first being line `line_no`.

    Returns the lowercased words, their vectors as the rows of one array,
    and the dimension, which the first data line fixes while `dim` is None.
    Raises ParseError at the first bad line.
    """
    words, rows = [], []
    for line_no, line in enumerate(lines, start=line_no):
        line = line.rstrip()
        if not line:
            continue
        # split at most d times from the right; every space while d is unknown
        parts = line.rsplit(" ", dim or -1)
        if len(parts) < 2:
            raise ParseError("embedding line has no vector part", line_no)
        word = parts[0].lower()
        if dim is None:
            dim = len(parts) - 1
        if header_dim not in (None, dim):
            raise ParseError(f"header gives dim {header_dim}, not {dim}", line_no)
        if len(parts) - 1 != dim:
            raise ParseError(
                f"expected {dim} vector components, got {len(parts) - 1}", line_no
            )
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"bad vector component ({exc})", line_no)
        if not np.isfinite(vec).all():
            raise ParseError(f"non-finite vector component for {word!r}", line_no)
        words.append(word)
        rows.append(vec)
    return words, np.array(rows), dim


def _parse_chunk(lines, dim, header_dim):
    """Parse `lines` with one numpy call: (words, rows, dim), or None if it cannot.

    Each line's first field is its word and the rest goes to np.loadtxt,
    whose C parser rounds as float() does.  While `dim` is None, the width
    it reads fixes dim, as the first data line does in _parse_lines.  A
    chunk it rejects or mis-shapes (a bad or short line, a word with spaces,
    a non-finite value, a width other than header_dim, or a component only
    float() reads, such as "1_0") is left to _parse_lines.
    """
    words, rests = [], []
    for line in lines:
        word, _, rest = line.rstrip().partition(" ")
        if rest:
            words.append(word.lower())
            rests.append(rest)
        elif word:
            return None
    if not rests:
        return words, np.empty((0, dim or 0)), dim
    try:
        M = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    dim = dim or M.shape[1]
    if M.shape != (len(rests), dim) or header_dim not in (None, dim) or not np.isfinite(M).all():
        return None
    return words, M, dim


# -- the parse cache ---------------------------------------------------------
#
# "<source>.dcbilstm-cache" holds every row a parse of the source gave: the
# magic line, whose number goes up whenever a parse rule or this format
# changes, then the source's key (see _source_key), dim, the row count and
# the CRC-32 of all that follows, then blocks in file order, each its row
# count, the byte length of its words joined by newlines (which no word
# holds), those words in utf-8, and the rows as little-endian float64.
# Non-kept words and later duplicates are rows too, so one cache serves
# every `keep`.

CACHE_SUFFIX = ".dcbilstm-cache"
_CACHE_MAGIC = b"dcbilstm embeddings cache 2\n"
_CACHE_HEADER = struct.Struct("<QQqqQQI")  # source's key, dim, rows, CRC-32
_CACHE_BLOCK = struct.Struct("<QQ")  # rows, bytes of their words


def _source_key(st):
    """A source's byte size, inode, mtime and ctime in ns.  A write changes
    the ctime and no call sets a ctime back, so an edit changes the key
    even when its size and mtime are restored."""
    return st.st_size, st.st_ino, st.st_mtime_ns, st.st_ctime_ns


def _read_exact(fh, buf):
    """Fill `buf` from `fh`; ValueError if the file ends first."""
    if fh.readinto(buf) != memoryview(buf).nbytes:
        raise ValueError("cache file is truncated")
    return buf


def _read_cache(cache, key, keep):
    """The table cached at `cache` for a source whose key is `key`, or None
    when there is no cache, or it is stale, another user's, truncated,
    malformed or damaged."""
    try:
        with open(cache, "rb") as fh:
            st = os.fstat(fh.fileno())
            if st.st_uid != os.geteuid():
                return None
            head = _read_exact(fh, bytearray(len(_CACHE_MAGIC) + _CACHE_HEADER.size))
            if not head.startswith(_CACHE_MAGIC):
                return None
            *cached_key, dim, n, crc = _CACHE_HEADER.unpack_from(head, len(_CACHE_MAGIC))
            if tuple(cached_key) != key:
                return None
            left, check, vectors = st.st_size - len(head), 0, {}
            while n:
                block = _read_exact(fh, bytearray(_CACHE_BLOCK.size))
                count, nbytes = _CACHE_BLOCK.unpack(block)
                left -= _CACHE_BLOCK.size + nbytes + 8 * count * dim
                if not 0 < count <= n or left < 0:
                    return None
                blob = _read_exact(fh, bytearray(nbytes))
                # the floats go straight into the block's array
                rows = _read_exact(fh, np.empty((count, dim), dtype="<f8"))
                check = zlib.crc32(rows, zlib.crc32(blob, zlib.crc32(block, check)))
                words = blob.decode("utf-8").split("\n")
                if len(words) != count or not np.isfinite(rows).all():
                    return None
                _store(words, rows, keep, vectors)
                n -= count
            if left or check != crc:
                return None
    except (OSError, ValueError):
        return None
    return EmbeddingTable(vectors, dim)


class _CacheWriter:
    """Writes parsed rows to a temp file beside `cache`, with the source's
    permission bits `mode`; ``publish`` fills in the header, syncs the file
    to disk and renames it to `cache`.  An OSError on the way (a read-only
    directory, a full disk, another user's cache) drops the cache: the temp
    file goes and the parse goes on without it."""

    def __init__(self, cache, mode):
        self.cache, self.fh, self.tmp, self.rows, self.crc = cache, None, None, 0, 0
        if cache is None:  # a pipe or device: nothing is written
            return
        directory, name = os.path.split(cache)
        try:
            fd, self.tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp",
                                            dir=directory or ".")
            self.fh = os.fdopen(fd, "wb")
            os.fchmod(fd, mode & 0o666)
            self.fh.write(_CACHE_MAGIC + bytes(_CACHE_HEADER.size))
        except OSError:
            self.discard()

    def add(self, words, rows):
        if self.fh is None or not words:
            return
        blob = "\n".join(words).encode("utf-8")
        block = _CACHE_BLOCK.pack(len(words), len(blob))
        rows = np.ascontiguousarray(rows, dtype="<f8")
        try:
            for part in (block, blob, rows):
                self.fh.write(part)
                self.crc = zlib.crc32(part, self.crc)
        except OSError:
            self.discard()
        self.rows += len(words)

    def publish(self, key, dim):
        if self.fh is None:
            return
        try:
            self.fh.seek(len(_CACHE_MAGIC))
            self.fh.write(_CACHE_HEADER.pack(*key, dim, self.rows, self.crc))
            self.fh.flush()
            os.fsync(self.fh.fileno())
            self.fh.close()
            os.replace(self.tmp, self.cache)
            self.fh = self.tmp = None
        except OSError:
            self.discard()

    def discard(self):
        """Close and remove the temp file, if it is still there."""
        with suppress(OSError):
            if self.fh is not None:
                self.fh.close()
        with suppress(OSError):
            if self.tmp is not None:
                os.unlink(self.tmp)
        self.fh = self.tmp = None


def load_embeddings(path, keep=None):
    """Parse space-separated "word v1 v2 ... vd" lines.

    A first line of exactly two integer fields is the "count dim" header of
    word2vec text and fastText .vec files; it is skipped, and the vectors
    must have its dim.  Otherwise the first data line fixes the dimension.
    Trailing whitespace is ignored, so fastText's space after the last
    component loads.  The last d fields of a line are the vector and the
    rest is the word, so a word may contain spaces (glove.840B.300d has a
    few).  Repeated words keep the first occurrence (GloVe files list cased
    variants; we lowercase keys, so "The" after "the" is dropped).  Every
    line is parsed and checked, a non-finite component (nan, inf) being an
    error.

    The file is streamed in chunks of _CHUNK_LINES lines, the first holding
    the header if there is one, and each chunk's vectors are parsed by one
    np.loadtxt call, about twice as fast as a float() per component and bit
    for bit the same.  A chunk the bulk parse rejects is parsed again line
    by line, which raises the ParseError of its first bad line or accepts
    what float() accepts.  Without keep, a vector is a row of its chunk's
    matrix; with keep, only the (lowercase) kept words are stored, each
    vector copied out of its chunk, so a corpus needs memory for its own
    vocabulary, not the whole file.

    A regular file's parse is cached in "<path>.dcbilstm-cache", every
    line's word and float64 vector in file order, about 8 * dim bytes a
    line (5.3 GB for glove.840B.300d).  The rows are written to a temp file
    as each chunk is parsed; it is synced and renamed into place when the
    parse ends, keyed by the byte size, inode, mtime and ctime the file had
    when the parse began (where timestamps are coarse, a same-size rewrite
    within one tick of that load could go unseen).  A file that does not
    parse, or changes while it is parsed, leaves no cache.  A later load of a file with that key reads
    only the cache, each block of floats straight into its array; it checks
    that the cache is the loading user's, its CRC-32 and that every value
    is finite, and applies the same keep and first-occurrence rules, so the
    table is the same bit for bit: on perfbench's 81 MB file about 0.1 s
    warm against 1 s cold.  A stale, truncated or damaged cache is parsed
    over and replaced; a pipe or device is parsed and nothing is written
    beside it; a cache that cannot be written is skipped.  Deleting the
    file drops the cache.
    """
    with open_text(path) as fh:
        st = os.fstat(fh.fileno())
        cache = None
        if stat.S_ISREG(st.st_mode):
            cache = os.fsdecode(path) + CACHE_SUFFIX
            table = _read_cache(cache, _source_key(st), keep)
            if table is not None:
                return table
        writer, vectors = _CacheWriter(cache, st.st_mode), {}
        dim = header_dim = None
        line_no = 1  # of the chunk's first line
        try:
            while chunk := list(islice(fh, _CHUNK_LINES)):
                if line_no == 1 and (header_dim := _vec_header_dim(chunk[0])) is not None:
                    chunk[0] = ""  # not a data line; blanked, the lines keep their numbers
                words, rows, dim = (_parse_chunk(chunk, dim, header_dim)
                                    or _parse_lines(chunk, line_no, dim, header_dim))
                writer.add(words, rows)
                _store(words, rows, keep, vectors)
                line_no += len(chunk)
            if dim is None:
                raise ParseError("embedding file is empty")
            if _source_key(os.fstat(fh.fileno())) == _source_key(st):
                writer.publish(_source_key(st), dim)
        finally:
            writer.discard()
    return EmbeddingTable(vectors, dim)


def tokenize(text):
    """Lowercase, split off punctuation, then split on whitespace."""
    text = _PUNCT_RE.sub(r" \1 ", text.lower())
    return [tok for tok in text.split() if tok]


@dataclass
class Example:
    tokens: list
    label: int


def parse_count(text):
    """``text`` as an int when it is ASCII digits alone, else None: the one
    rule for a label or a count read from a file or a flag, so a sign, a
    space, an underscore or a non-ASCII digit makes it None."""
    return int(text) if _COUNT_RE.fullmatch(text) else None


def _read_tsv(line, line_no):
    label_str, sep, text = line.partition("\t")
    if not sep:
        raise ParseError("expected '<label>\\t<text>'", line_no)
    label = parse_count(label_str)
    if label is None:
        raise ParseError(f"label {label_str!r} is not a non-negative integer", line_no)
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("no tokens after tokenization", line_no)
    return [Example(tokens=tokens, label=label)]


# -- PTB sentiment trees ----------------------------------------------------

# a parenthesis, or a run of text between parentheses, spaces and tabs
_TREE_TOKEN_RE = re.compile(r"[()]|[^() \t]+")

# five-way sentiment to binary; neutral (2) and any other label are dropped
_BINARY_LABELS = {0: 0, 1: 0, 3: 1, 4: 1}


def parse_tree(line, line_no=0):
    """One sentiment tree -> [(words, label)] of every node, the root last.

    A node is "(label word)" or "(label subtree ...)".  One walk over the
    tokens keeps a stack of open nodes, each [label, index of its first
    word, what it holds], and records a node when its ")" closes it, so
    children come before their parent and any depth loads.
    """
    tokens = iter(_TREE_TOKEN_RE.findall(line))
    words, spans, stack = [], [], []
    for tok in tokens:
        if not stack and (spans or tok != "("):
            raise ParseError("text after the root" if spans else
                             f"expected '(', got {tok!r}", line_no)
        if tok == "(":
            text = next(tokens, "")
            label = parse_count(text)
            if label is None:
                raise ParseError(f"expected a node label, got {text!r}", line_no)
            if stack:
                if stack[-1][2] == "word":
                    raise ParseError("a node holds both a word and subtrees", line_no)
                stack[-1][2] = "trees"
            stack.append([label, len(words), None])
        elif tok == ")":
            label, start, holds = stack.pop()
            if holds is None:
                raise ParseError("empty node", line_no)
            spans.append((words[start:], label))
        else:
            if stack[-1][2] is not None:
                raise ParseError(f"word {tok!r} follows a word or subtrees", line_no)
            stack[-1][2] = "word"
            words.append(tok)
    if stack or not spans:
        raise ParseError("unbalanced parentheses", line_no)
    return spans


def _read_tree(line, line_no, binary=False, phrases=False):
    """The root, or with phrases every node; binary drops the neutral ones."""
    spans = parse_tree(line, line_no)
    for words, label in spans if phrases else spans[-1:]:
        label = _BINARY_LABELS.get(label) if binary else label
        if label is not None:
            yield Example(tokens=[w.lower() for w in words], label=label)


# each format's line reader; binary and phrases are sst_trees' flags
DATA_FORMATS = {"tsv": _read_tsv, "sst_trees": _read_tree}


def load_dataset(path, fmt, binary=False, phrases=False):
    """The examples of `path`; a bad format or flag fails before it is
    opened, and a file that yields no example is a ParseError."""
    if fmt not in DATA_FORMATS:
        raise ConfigError(f"data format must be one of {', '.join(DATA_FORMATS)}, got {fmt!r}")
    if fmt != "sst_trees" and (binary or phrases):
        raise ConfigError(f"{'binary' if binary else 'phrases'} needs data format sst_trees")
    read_line = DATA_FORMATS[fmt]
    if binary or phrases:
        read_line = partial(read_line, binary=binary, phrases=phrases)
    return _read_examples(path, read_line, kind=" with a non-neutral label" if binary else "")


def load_label_lines(path, label, encoding="utf-8"):
    """One-sentence-per-line file where every line shares one label.

    Movie-review style distributions ship as latin-1; pass encoding for
    those.  Blank lines are skipped, and a file that yields no example is a
    ParseError.
    """
    return _read_examples(path, lambda line, line_no: [Example(tokenize(line), label)], encoding)


def _read_examples(path, read_line, encoding="utf-8", kind=""):
    """``read_lines`` for a file of examples, which must yield at least one."""
    examples = read_lines(path, read_line, encoding)
    if not examples:
        raise ParseError(f"{path}: no examples{kind}")
    return examples


# -- vocab / vectorization --------------------------------------------------


def build_vocab(example_sets, table=None):
    """Token -> row index over all splits, rows 0 and 1 reserved.

    When an embedding table is given, only tokens the table covers get
    their own row; everything else maps to the unknown row at lookup time.
    Sorted order keeps the mapping independent of example order.
    """
    seen = set()
    for examples in example_sets:
        for ex in examples:
            seen.update(ex.tokens)
    if table is not None:
        seen = {tok for tok in seen if tok in table}
    return index_tokens(sorted(seen))


def index_tokens(tokens):
    """Token -> row index, the tokens taking rows 2, 3, ... in the order given."""
    return {tok: idx for idx, tok in enumerate(tokens, start=2)}


def build_embedding_matrix(vocab, table):
    """Rows follow vocab indices; pad and unknown rows stay zero."""
    mat = np.zeros((len(vocab) + 2, table.dim))
    for tok, idx in vocab.items():
        vec = table.get(tok)
        if vec is None:
            raise ConfigError(f"vocab token {tok!r} missing from embedding table")
        mat[idx] = vec
    return mat


def random_embedding_matrix(vocab, dim, rng):
    """Uniform random rows for runs without pretrained vectors."""
    mat = np.zeros((len(vocab) + 2, dim))
    mat[list(vocab.values())] = rng.uniform(-EMBEDDING_SCALE, EMBEDDING_SCALE,
                                            size=(len(vocab), dim))
    return mat


def vectorize(examples, vocab, drop_unknown=False):
    """Token lists -> index lists.

    drop_unknown abandons out-of-vocabulary tokens entirely (matching the
    pretrained-table regime); otherwise they map to the unknown index.  A
    sentence left with no tokens keeps a single unknown index so downstream
    code never sees length zero.
    """
    out = []
    for ex in examples:
        if drop_unknown:
            idxs = [vocab[tok] for tok in ex.tokens if tok in vocab]
        else:
            idxs = [vocab.get(tok, UNK_IDX) for tok in ex.tokens]
        if not idxs:
            idxs = [UNK_IDX]
        out.append((idxs, ex.label))
    return out


# -- folds / batches --------------------------------------------------------


def make_folds(n, k=10, seed=0):
    """Shuffle range(n) with a seeded generator, deal round-robin into k folds."""
    if n < k:
        raise ConfigError(f"cannot split {n} examples into {k} folds")
    order = np.arange(n)
    np.random.default_rng(seed).shuffle(order)
    return [sorted(order[i::k].tolist()) for i in range(k)]


@dataclass
class Batch:
    """A padded batch and its packed layout, built once by ``pad_batch``;
    the forward and backward passes only read them."""

    indices: np.ndarray  # (B, T) int64, padded with PAD_IDX
    lengths: np.ndarray  # (B,) int64, none zero
    labels: np.ndarray  # (B,) int64
    packing: kernels.Packing
    tokens: np.ndarray  # (N,) int64, the packed token ids
    uniq: np.ndarray  # distinct token ids
    inv: np.ndarray  # (N,) uniq[inv] is tokens


def pad_batch(group):
    """(index list, label) pairs -> one padded Batch.  The one place a batch is
    packed; a sentence with no tokens raises ``ConfigError``."""
    B = len(group)
    if B == 0:
        raise ConfigError("cannot build an empty batch")
    lengths = np.array([len(idxs) for idxs, _ in group], dtype=np.int64)
    if (lengths < 1).any():
        raise ConfigError(f"batch sentence {int(lengths.argmin())} has no tokens")
    T = int(lengths.max())
    indices = np.full((B, T), PAD_IDX, dtype=np.int64)
    for n, (idxs, _) in enumerate(group):
        indices[n, :len(idxs)] = idxs
    labels = np.array([label for _, label in group], dtype=np.int64)
    packing = kernels.pack(lengths)
    tokens = indices[packing.rows, packing.ts]
    uniq, inv = np.unique(tokens, return_inverse=True)
    return Batch(indices, lengths, labels, packing, tokens, uniq, inv)


def make_batches(indexed, size, rng=None, shuffle=False):
    """Slice indexed examples into padded batches of at most `size`."""
    if size < 1:
        raise ConfigError(f"batch size must be >= 1, got {size}")
    order = np.arange(len(indexed))
    if shuffle:
        if rng is None:
            raise ConfigError("shuffle=True needs an rng")
        rng.shuffle(order)
    return [
        pad_batch([indexed[i] for i in order[start:start + size]])
        for start in range(0, len(indexed), size)
    ]
