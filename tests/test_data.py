import numpy as np
import pytest

from papaformer.data import (
    Chunk,
    ChunkStore,
    Corpus,
    DataError,
    ToyTokenizer,
    build_chunk_store,
    build_stream,
    chunk_stream,
    load_corpus_file,
    make_batches,
    split_collections,
    synthetic_math_corpus,
    synthetic_story_corpus,
    two_epoch_chunks,
)
from papaformer.tensor import RngState


@pytest.fixture
def corpora():
    return [synthetic_story_corpus(50, seed=1), synthetic_math_corpus(50, seed=2)]


@pytest.fixture
def tok(corpora):
    return ToyTokenizer.build(corpora)


class TestTokenizer:
    def test_empty_string(self, tok):
        assert tok.tokenize("").size == 0

    def test_round_trip_in_vocab(self, tok):
        s = "Once upon a time there was a little one named Lily ."
        assert tok.detokenize(tok.tokenize(s)) == s

    def test_unknown_maps_to_unk(self, tok):
        ids = tok.tokenize("zzz-not-in-vocab")
        assert list(ids) == [ToyTokenizer.UNK]

    def test_byte_fallback_covers_all_bytes(self, corpora):
        bt = ToyTokenizer.build(corpora, byte_fallback=True)
        # every byte value reachable: no UNK for arbitrary byte strings
        probe = bytes(range(256)).decode("latin-1")
        ids = bt.tokenize(probe)
        assert ToyTokenizer.UNK not in set(int(i) for i in ids)
        weird = "q7#é€ zzz-not-in-vocab"
        assert ToyTokenizer.UNK not in set(int(i) for i in bt.tokenize(weird))

    def test_deterministic(self, tok):
        a = tok.tokenize("Lily went to the park .")
        b = tok.tokenize("Lily went to the park .")
        assert np.array_equal(a, b)

    def test_ids_dense(self, tok):
        ids = sorted(tok.vocab.values())
        assert ids == list(range(len(ids)))

    def test_serialization_round_trip(self, tok):
        again = ToyTokenizer.from_dict(tok.to_dict())
        assert again.vocab == tok.vocab
        assert again.fingerprint() == tok.fingerprint()


class TestBuildStream:
    def test_lengths_and_eos(self, tok):
        c = Corpus(documents=["a b c", "a b c"], domain_tag="story")
        t = ToyTokenizer.build([c])
        stream = build_stream(c, t)
        assert len(stream) == 8
        assert np.sum(stream == t.EOS) == 2

    def test_doc_slices_match_tokenize(self, corpora, tok):
        stream = build_stream(corpora[0], tok)
        first = tok.tokenize(corpora[0].documents[0])
        assert np.array_equal(stream[: len(first)], first)


class TestChunking:
    def test_exact_tiling(self):
        stream = np.arange(1024, dtype=np.uint32)
        chunks = chunk_stream(stream, 256, 1, RngState(0), "story", offset=0)
        assert len(chunks) == 4
        assert all(len(c.tokens) == 256 for c in chunks)

    def test_epochs_have_disjoint_spans(self):
        stream = np.arange(5000, dtype=np.uint32)
        chunks = two_epoch_chunks(stream, 256, RngState(3), "story")
        spans1 = {c.span for c in chunks if c.epoch == 1}
        spans2 = {c.span for c in chunks if c.epoch == 2}
        assert spans1 and spans2
        assert not (spans1 & spans2)

    def test_remainder_dropped(self):
        stream = np.arange(300, dtype=np.uint32)
        chunks = chunk_stream(stream, 128, 1, RngState(4), "m", offset=5)
        assert len(chunks) == 2
        assert chunks[-1].start + 128 <= 300

    def test_too_short_stream(self):
        with pytest.raises(DataError):
            chunk_stream(np.arange(100, dtype=np.uint32), 256, 1, RngState(0))

    def test_chunk_contents_match_stream(self):
        stream = np.arange(1000, dtype=np.uint32)
        for c in chunk_stream(stream, 128, 1, RngState(5), "s"):
            assert np.array_equal(c.tokens, stream[c.start : c.start + 128])


class TestSplitCollections:
    def chunks(self, n, tag="story"):
        return [Chunk(tokens=np.zeros(8, dtype=np.uint32), corpus=tag, epoch=1, start=i * 8) for i in range(n)]

    def test_six_four(self):
        sub60, sub40 = split_collections(self.chunks(10), rng=RngState(0))
        assert len(sub60) == 6 and len(sub40) == 4

    def test_disjoint_exhaustive(self):
        cs = self.chunks(17)
        sub60, sub40 = split_collections(cs, rng=RngState(1))
        assert len(sub60) + len(sub40) == 17
        assert {id(c) for c in sub60}.isdisjoint({id(c) for c in sub40})
        assert {id(c) for c in sub60} | {id(c) for c in sub40} == {id(c) for c in cs}

    def test_tags_assigned(self):
        sub60, sub40 = split_collections(self.chunks(5), rng=RngState(2))
        assert all(c.sub_collection == 60 for c in sub60)
        assert all(c.sub_collection == 40 for c in sub40)


class TestMakeBatches:
    def chunks(self, n, tag):
        return [Chunk(tokens=np.zeros(8, dtype=np.uint32), corpus=tag, epoch=1, start=i) for i in range(n)]

    def test_full_coverage(self):
        cs = self.chunks(64, "story")
        batches = make_batches([cs], 32, RngState(0))
        assert len(batches) == 2
        seen = {id(c) for b in batches for c in b}
        assert seen == {id(c) for c in cs}

    def test_deterministic_under_seed(self):
        cs = self.chunks(40, "story")
        a = make_batches([cs], 8, RngState(7))
        b = make_batches([cs], 8, RngState(7))
        assert [[id(c) for c in batch] for batch in a] == [[id(c) for c in batch] for batch in b]

    def test_mixed_domains_in_some_batch(self):
        batches = make_batches([self.chunks(30, "story"), self.chunks(30, "math")], 16, RngState(42))
        assert any(len({c.corpus for c in b}) == 2 for b in batches)

    def test_partial_batch_dropped(self):
        batches = make_batches([self.chunks(10, "story")], 4, RngState(0))
        assert len(batches) == 2


class TestChunkStorePipeline:
    def test_no_cross_corpus_chunks(self, corpora):
        store = build_chunk_store(corpora, seq_len=32, seed=42)
        tags = {c.corpus for c in store.chunks}
        assert tags == {"story", "math"}
        # provenance purity holds by construction; verify tokens come from the right stream
        streams = {c.domain_tag: build_stream(c, store.tokenizer) for c in corpora}
        for c in store.chunks:
            assert np.array_equal(c.tokens, streams[c.corpus][c.start : c.start + 32])

    def test_per_corpus_sixty_forty(self, corpora):
        store = build_chunk_store(corpora, seq_len=32, seed=42)
        for tag in ("story", "math"):
            n60 = len(store.select(corpus=tag, sub=60))
            n40 = len(store.select(corpus=tag, sub=40))
            assert n60 == round(0.6 * (n60 + n40))

    def test_all_chunks_exact_length(self, corpora):
        store = build_chunk_store(corpora, seq_len=64, seed=42)
        assert all(len(c.tokens) == 64 for c in store.chunks)

    def test_save_load_round_trip(self, corpora, tmp_path):
        store = build_chunk_store(corpora, seq_len=32, seed=42)
        p = str(tmp_path / "chunks.ppch")
        store.save(p)
        again = ChunkStore.load(p)
        assert again.seq_len == 32
        assert len(again.chunks) == len(store.chunks)
        for a, b in zip(store.chunks, again.chunks):
            assert np.array_equal(a.tokens, b.tokens)
            assert (a.corpus, a.epoch, a.start, a.sub_collection) == (b.corpus, b.epoch, b.start, b.sub_collection)
        assert again.tokenizer.fingerprint() == store.tokenizer.fingerprint()

    def test_save_is_byte_deterministic(self, corpora, tmp_path):
        p1, p2 = str(tmp_path / "a.ppch"), str(tmp_path / "b.ppch")
        build_chunk_store(corpora, seq_len=32, seed=42).save(p1)
        build_chunk_store(corpora, seq_len=32, seed=42).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ppch"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            ChunkStore.load(str(p))


def test_load_corpus_file(tmp_path):
    p = tmp_path / "docs.txt"
    p.write_text("one two three\n\nfour five\n", encoding="utf-8")
    c = load_corpus_file(str(p), "story")
    assert c.documents == ["one two three", "four five"]
    with pytest.raises(DataError):
        (tmp_path / "empty.txt").write_text("")
        load_corpus_file(str(tmp_path / "empty.txt"), "story")


def test_synthetic_corpora_have_distinct_vocabularies():
    story = synthetic_story_corpus(20, seed=0)
    math = synthetic_math_corpus(20, seed=0)
    story_words = {w for d in story.documents for w in d.split()}
    math_words = {w for d in math.documents for w in d.split()}
    overlap = story_words & math_words
    # only connective punctuation/function words may overlap
    assert len(overlap) / len(story_words | math_words) < 0.2
