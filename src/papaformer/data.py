"""Toy tokenizer, synthetic two-domain corpora, and the chunking protocol.

A word's token id is its vocabulary id, or UNK for a word not in the vocab.
A store build's one lookup per word grows the vocab and writes the corpus's
token stream, with an EOS after each document. ``two_epoch_chunks`` tiles each stream
into fixed-length chunks (256 tokens by default) once per training epoch,
from two distinct random start offsets it draws, so the two epochs cover
disjoint spans. ``split_collections`` tags each corpus's chunks 60/40 in
place, and ``ROLES`` names the chunks each training role selects: a path
its corpus's 60% sub-collection, a composite every corpus's 40% remainder,
a baseline everything. Training an epoch that no given chunk belongs to
raises DataError.
"""

from __future__ import annotations

import array
import json
import os
import stat
import struct
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from papaformer.blocks import ConfigError
from papaformer.tensor import RngState

SEQ_LEN_DEFAULT = 256
CHUNKSTORE_MAGIC = b"PPCH"
CHUNKSTORE_VERSION = 1
_STORE_HEADER = struct.Struct("<4sIIQ")  # magic, version, seq_len, chunk count

# Path i + 1 pretrains on the PATH_SUB sub-collection of corpus PATH_CORPORA[i];
# composites train on the COMPOSITE_SUB remainder of every corpus.
PATH_CORPORA = ("story", "math")
PATH_SUB, COMPOSITE_SUB = 60, 40
# each training role's ChunkStore.select arguments
ROLES = {
    "baseline": {},
    **{f"path{i + 1}": {"corpus": corpus, "sub": PATH_SUB} for i, corpus in enumerate(PATH_CORPORA)},
    "composite": {"sub": COMPOSITE_SUB},
}

EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"


class DataError(ValueError):
    """Corpus or chunk-store contents violate the pipeline's contract."""


@contextmanager
def replacing(path: str):
    """Write ``<path>.tmp``, then move it over ``path``; on any exception remove it and leave ``path`` as it was.

    A replaced file keeps the permission bits of the file it replaces; a new one gets the umask default.
    """
    tmp = path + ".tmp"
    f = open(tmp, "wb")
    try:
        with f:
            yield f
            if os.path.exists(path):
                os.fchmod(f.fileno(), stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def read_header(f, path: str, header: struct.Struct, magic: bytes, version: int, error: type) -> tuple:
    """``header``'s fields at ``f``'s position and the bytes after it; raises ``error`` on a short or foreign header."""
    raw = f.read(header.size)
    if len(raw) < header.size:
        raise error(f"{path}: truncated file ({len(raw)} bytes, the header needs {header.size})")
    fields = header.unpack(raw)
    if fields[:2] != (magic, version):
        raise error(f"{path}: magic {fields[0]!r} version {fields[1]}, expected {magic!r} version {version}")
    return fields, os.fstat(f.fileno()).st_size - f.tell()


def read_text(path: str, error: type) -> str:
    """The text of UTF-8 file ``path``, decoded whole, so a byte that does not decode raises ``error`` at its offset."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 at byte {e.start} ({e.reason})") from None


def read_into(f, arr: np.ndarray, path: str, what: str, error: type) -> None:
    """Fill ``arr`` from ``f``; one read returns at most 2 GiB - 4 KiB on Linux, so loop until full."""
    buf = arr.reshape(-1).view(np.uint8)
    got = 0
    while got < buf.size:
        n = f.readinto(buf[got:])
        if not n:
            raise error(f"{path}: payload ends inside {what} ({got} of {buf.size} bytes)")
        got += n


@dataclass
class Corpus:
    documents: list
    domain_tag: str  # "story" | "math"

    def __post_init__(self):
        if not self.documents or any(not d for d in self.documents):
            raise DataError(f"corpus {self.domain_tag!r} has empty documents")


class _Vocab(dict):
    """A finished vocab, token string -> id: a word not in it is UNK, and looking it up does not add it."""

    def __missing__(self, word: str) -> int:
        return ToyTokenizer.UNK


@dataclass
class ToyTokenizer:
    """Whitespace word-level tokenizer.

    Words are the runs of non-whitespace ``str.split()`` returns. ids are
    dense: 0 = EOS, 1 = UNK, then the word vocabulary in first-seen order.
    A word's id is its vocabulary id, or UNK for a word not in the vocab.
    """

    vocab: dict  # token string -> id; build and from_dict give a _Vocab, which maps a word not in it to UNK

    EOS = 0
    UNK = 1

    @classmethod
    def build(cls, corpora: list) -> "ToyTokenizer":
        return cls.build_with_streams(corpora)[0]

    @classmethod
    def build_with_streams(cls, corpora: list) -> tuple:
        """The tokenizer of ``corpora`` and each corpus's ``build_stream``, from one vocab lookup per word."""
        growing = defaultdict(None, {EOS_TOKEN: cls.EOS, UNK_TOKEN: cls.UNK})
        growing.default_factory = growing.__len__  # a word not yet in the vocab gets the next id
        streams = [build_stream(corpus, cls(vocab=growing)) for corpus in corpora]
        return cls(vocab=_Vocab(growing)), streams

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for tok, idx in sorted(self.vocab.items(), key=lambda kv: kv[1]):
            h.update(f"{idx}:{tok}\n".encode())
        return h.hexdigest()[:16]

    def ids(self, text: str) -> list:
        """Token ids of ``text`` as a list: one per word, its vocabulary id or UNK."""
        return list(map(self.vocab.get, text.split(), repeat(self.UNK)))

    def tokenize(self, text: str) -> np.ndarray:
        return np.array(self.ids(text), dtype=np.uint32)

    def detokenize(self, ids) -> str:
        inv = self.id_to_token()
        return " ".join(inv[int(i)] for i in ids)

    def id_to_token(self) -> list:
        inv = [None] * len(self.vocab)
        for tok, idx in self.vocab.items():
            inv[idx] = tok
        return inv

    def to_dict(self) -> dict:
        # the key of the retired byte-fallback mode stays, at its one value, so stores keep their bytes
        return {"vocab": self.vocab, "byte_fallback": False}

    @classmethod
    def from_dict(cls, d: dict) -> "ToyTokenizer":
        return cls(vocab=_Vocab(d["vocab"]))


@dataclass
class Chunk:
    tokens: np.ndarray  # exactly seq_len uint32 ids
    corpus: str  # domain tag of the source corpus
    epoch: int  # 1 or 2
    start: int  # stream offset of the first token
    sub_collection: int = 0  # 60 or 40 once assigned

    @property
    def span(self) -> tuple:
        return (self.corpus, self.start, self.start + len(self.tokens))


def build_stream(corpus: Corpus, tokenizer: ToyTokenizer) -> np.ndarray:
    """concat(doc_1, EOS, doc_2, EOS, ...) in document order, one vocab lookup per word."""
    ids = array.array("I")
    for doc in corpus.documents:
        ids.extend(map(tokenizer.vocab.__getitem__, doc.split()))
        ids.append(tokenizer.EOS)
    return np.frombuffer(ids, dtype=np.uint32)


def two_epoch_chunks(stream: np.ndarray, seq_len: int, rng: RngState, corpus_tag: str) -> list:
    """Both epochs' chunkings: non-overlapping seq_len windows from two distinct random start offsets.

    The first offset is drawn in [0, seq_len), then the second until it
    differs, so the two chunkings share no [start, end) span. Each epoch's
    chunks are the rows of one [n, seq_len] copy of the stream; the trailing
    remainder is dropped.
    """
    if len(stream) < 2 * seq_len:
        raise DataError(f"corpus {corpus_tag!r}: stream of {len(stream)} tokens is too short for seq_len {seq_len}")
    first = second = int(rng.integers(0, seq_len))
    while second == first:
        second = int(rng.integers(0, seq_len))
    chunks = []
    for epoch, offset in ((1, first), (2, second)):
        n = (len(stream) - offset) // seq_len
        rows = stream[offset : offset + n * seq_len].reshape(n, seq_len).copy()
        chunks.extend(Chunk(row, corpus_tag, epoch, offset + i * seq_len) for i, row in enumerate(rows))
    return chunks


def split_collections(chunks: list, rng: RngState) -> None:
    """Tag a random 60% of ``chunks`` PATH_SUB and the rest COMPOSITE_SUB, in place, from one permutation.

    Callers pass one corpus's chunks at a time; the epoch is ignored.
    """
    order = rng.permutation(len(chunks))
    n60 = round(0.6 * len(chunks))
    for rank, i in enumerate(order):
        chunks[i].sub_collection = PATH_SUB if rank < n60 else COMPOSITE_SUB


def make_batches(chunk_sets: list, batch_size: int, rng: RngState) -> list:
    """Seeded shuffle of the union, grouped into fixed-size batches.

    The trailing partial batch is dropped. Returns a list of lists of
    chunks; iteration order is fully determined by the rng state.
    """
    pool = [c for cs in chunk_sets for c in cs]
    if not pool:
        raise DataError("no chunks to batch")
    order = rng.permutation(len(pool))
    batches = []
    for i in range(0, len(pool) - batch_size + 1, batch_size):
        batches.append([pool[j] for j in order[i : i + batch_size]])
    return batches


# -- synthetic desk corpora ------------------------------------------------

_STORY_NAMES = ["Lily", "Tom", "Mia", "Ben", "Sara", "Max"]
_STORY_PLACES = ["park", "forest", "garden", "lake", "house", "school"]
_STORY_THINGS = ["ball", "kite", "puppy", "flower", "cake", "boat"]
_STORY_VERBS = ["played", "laughed", "ran", "jumped", "sang", "smiled"]

_MATH_OPS = [("plus", lambda a, b: a + b), ("minus", lambda a, b: a - b), ("times", lambda a, b: a * b)]


def synthetic_story_corpus(n_docs: int, seed: int) -> Corpus:
    """Template children's-story sentences with a story-only surface vocabulary.

    Each document draws its name, its sentence count, then the place, thing
    and two verbs of every sentence in one call; the stream of draws is that
    of one scalar draw at a time.
    """
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        name = _STORY_NAMES[rng.integers(len(_STORY_NAMES))]
        sentences = [f"Once upon a time there was a little one named {name} ."]
        # variable document lengths keep chunk phases from locking to the
        # template, which would make offsets trivially predictable
        n = int(rng.integers(1, 4))
        # the place, thing and verb lists are equally long, so one bound serves all four
        for place, thing, verb, verb2 in rng.integers(len(_STORY_VERBS), size=(n, 4)).tolist():
            sentences.append(f"{name} went to the {_STORY_PLACES[place]} with a {_STORY_THINGS[thing]} .")
            sentences.append(f"{name} {_STORY_VERBS[verb]} and {_STORY_VERBS[verb2]} all day .")
        sentences.append("The end .")
        docs.append(" ".join(sentences))
    return Corpus(documents=docs, domain_tag="story")


def synthetic_math_corpus(n_docs: int, seed: int) -> Corpus:
    """Template arithmetic-instruction strings with a math-only vocabulary."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        problems = []
        for _ in range(int(rng.integers(1, 3))):
            a, b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            op_name, op = _MATH_OPS[rng.integers(len(_MATH_OPS))]
            problems.append(
                f"Solve this problem : what is {a} {op_name} {b} ? "
                f"Compute the value step by step . The answer is {op(a, b)} ."
            )
        docs.append(" ".join(problems))
    return Corpus(documents=docs, domain_tag="math")


def load_corpus_file(path: str, domain_tag: str) -> Corpus:
    """One document per non-empty line, UTF-8."""
    docs = [line.strip() for line in read_text(path, DataError).split("\n") if line.strip()]
    if not docs:
        raise DataError(f"corpus file {path} is empty")
    return Corpus(documents=docs, domain_tag=domain_tag)


# -- chunk-store persistence ----------------------------------------------


@dataclass
class ChunkStore:
    """All chunks of a preprocessing run plus the tokenizer that made them."""

    seq_len: int
    chunks: list
    tokenizer: ToyTokenizer

    def select(self, corpus: str | None = None, sub: int | None = None, epoch: int | None = None) -> list:
        out = self.chunks
        if corpus is not None:
            out = [c for c in out if c.corpus == corpus]
        if sub is not None:
            out = [c for c in out if c.sub_collection == sub]
        if epoch is not None:
            out = [c for c in out if c.epoch == epoch]
        return out

    def save(self, path: str) -> None:
        """Header, every chunk's tokens as one little-endian uint32 array, then the provenance JSON."""
        for c in self.chunks:
            if len(c.tokens) != self.seq_len:
                raise DataError(f"chunk at {c.start} has {len(c.tokens)} tokens, want {self.seq_len}")
        provenance = {
            "tokenizer": self.tokenizer.to_dict(),
            "tokenizer_fingerprint": self.tokenizer.fingerprint(),
            "chunks": [
                {"corpus": c.corpus, "sub": c.sub_collection, "epoch": c.epoch, "start": c.start}
                for c in self.chunks
            ],
        }
        with replacing(path) as f:
            f.write(_STORE_HEADER.pack(CHUNKSTORE_MAGIC, CHUNKSTORE_VERSION, self.seq_len, len(self.chunks)))
            # row by row from the chunks' own arrays: a stacked copy would hold the payload twice
            f.writelines(np.asarray(c.tokens, dtype="<u4") for c in self.chunks)
            f.write(json.dumps(provenance).encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "ChunkStore":
        """Read a store written by ``save``; a truncated or malformed file raises DataError."""
        with open(path, "rb") as f:
            header, left = read_header(f, path, _STORE_HEADER, CHUNKSTORE_MAGIC, CHUNKSTORE_VERSION, DataError)
            seq_len, count = header[2:]
            if seq_len < 2:  # the bound build_chunk_store sets; training reads seq_len - 1 positions
                raise DataError(f"{path}: seq_len {seq_len} is below 2")
            if count * seq_len * 4 > left:
                raise DataError(f"{path}: truncated chunk store ({left} bytes for {count} chunks of {seq_len} tokens)")
            tokens = np.empty((count, seq_len), dtype="<u4")
            read_into(f, tokens, path, "the token array", DataError)
            tail = f.read()
        try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            provenance = json.loads(tail)
            tokenizer = ToyTokenizer.from_dict(provenance["tokenizer"])
            fallback = provenance["tokenizer"]["byte_fallback"]
            metas = provenance["chunks"]
            chunks = [
                Chunk(tokens=row, corpus=m["corpus"], epoch=m["epoch"], start=m["start"], sub_collection=m["sub"])
                for row, m in zip(tokens, metas)
            ]
        except (ValueError, KeyError, TypeError) as e:
            raise DataError(f"{path}: malformed chunk-store provenance ({type(e).__name__}: {e})") from None
        if fallback is not False:
            raise DataError(f"{path}: retired byte_fallback {fallback!r}; rerun pretokenize without --byte-fallback")
        if len(metas) != count:
            raise DataError(f"{path}: the header counts {count} chunks, the provenance {len(metas)}")
        top = int(tokens.max(initial=0))
        if top >= tokenizer.vocab_size:
            raise DataError(f"{path}: token id {top} is outside the vocab of {tokenizer.vocab_size} words")
        return cls(seq_len=seq_len, chunks=chunks, tokenizer=tokenizer)


def build_chunk_store(
    corpora: list,
    seq_len: int = SEQ_LEN_DEFAULT,
    seed: int = 42,
) -> ChunkStore:
    """Full preprocessing pipeline: tokenize, chunk twice, split 60/40 per corpus."""
    if seq_len < 2:  # the two epochs' chunkings need distinct start offsets in [0, seq_len)
        raise ConfigError(f"seq_len: must be >= 2, got {seq_len}")
    tokenizer, streams = ToyTokenizer.build_with_streams(corpora)
    rng = RngState(seed)
    all_chunks = []
    for corpus in corpora:  # each stream is freed once its chunks, which are copies, are cut
        chunks = two_epoch_chunks(streams.pop(0), seq_len, rng, corpus.domain_tag)
        split_collections(chunks, rng)
        all_chunks.extend(chunks)
    return ChunkStore(seq_len=seq_len, chunks=all_chunks, tokenizer=tokenizer)
