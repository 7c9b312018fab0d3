import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from papaformer.data import (
    Chunk,
    ChunkStore,
    Corpus,
    DataError,
    ToyTokenizer,
    build_chunk_store,
    build_stream,
    load_corpus_file,
    make_batches,
    split_collections,
    synthetic_math_corpus,
    synthetic_story_corpus,
    two_epoch_chunks,
    _DRAW_BLOCK,
    _MATH_OPS,
    _STORY_NAMES,
    _STORY_PLACES,
    _STORY_THINGS,
    _STORY_VERBS,
    _bounded_draws,
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
    def epochs(self, chunks):
        return [[c for c in chunks if c.epoch == e] for e in (1, 2)]

    def test_exact_tiling(self):
        # at seq_len 2 the two distinct offsets are 0 and 1, whatever the draws
        stream = np.arange(8, dtype=np.uint32)
        chunks = two_epoch_chunks(stream, 2, RngState(0), "story")
        by_offset = {ep[0].start: ep for ep in self.epochs(chunks)}
        assert set(by_offset) == {0, 1}
        assert [c.start for c in by_offset[0]] == [0, 2, 4, 6]
        assert [c.start for c in by_offset[1]] == [1, 3, 5]
        assert all(len(c.tokens) == 2 for c in chunks)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 600), seq_len=st.integers(2, 64), seed=st.integers(0, 2**16))
    def test_each_epoch_tiles_from_its_offset(self, n, seq_len, seed):
        stream = np.arange(2 * seq_len + n, dtype=np.uint32)
        for ep in self.epochs(two_epoch_chunks(stream, seq_len, RngState(seed), "story")):
            offset = ep[0].start
            assert 0 <= offset < seq_len
            assert [c.start for c in ep] == list(range(offset, len(stream) - seq_len + 1, seq_len))
            assert all(len(c.tokens) == seq_len for c in ep)

    def test_epochs_have_disjoint_spans(self):
        stream = np.arange(5000, dtype=np.uint32)
        chunks = two_epoch_chunks(stream, 256, RngState(3), "story")
        spans1 = {c.span for c in chunks if c.epoch == 1}
        spans2 = {c.span for c in chunks if c.epoch == 2}
        assert spans1 and spans2
        assert not (spans1 & spans2)

    def test_offsets_are_the_draws_with_the_second_redrawn_until_it_differs(self):
        # seq_len 2: a second draw equal to the first is drawn again
        for seed in range(20):
            draws = RngState(seed)
            first = int(draws.integers(0, 2))
            second = int(draws.integers(0, 2))
            while second == first:
                second = int(draws.integers(0, 2))
            rng = RngState(seed)
            ep1, ep2 = self.epochs(two_epoch_chunks(np.arange(9, dtype=np.uint32), 2, rng, "s"))
            assert (ep1[0].start, ep2[0].start) == (first, second)
            assert rng.position == draws.position

    def test_remainder_dropped(self):
        stream = np.arange(300, dtype=np.uint32)
        for ep in self.epochs(two_epoch_chunks(stream, 128, RngState(4), "m")):
            offset = ep[0].start
            assert len(ep) == (300 - offset) // 128
            assert ep[-1].start + 128 <= 300 < ep[-1].start + 2 * 128

    def test_too_short_stream(self):
        with pytest.raises(DataError, match="100 tokens is too short for seq_len 256"):
            two_epoch_chunks(np.arange(100, dtype=np.uint32), 256, RngState(0), "s")
        with pytest.raises(DataError):
            two_epoch_chunks(np.arange(511, dtype=np.uint32), 256, RngState(0), "s")
        assert two_epoch_chunks(np.arange(512, dtype=np.uint32), 256, RngState(0), "s")

    def test_chunk_contents_match_stream(self):
        stream = np.arange(1000, dtype=np.uint32)
        chunks = two_epoch_chunks(stream, 128, RngState(5), "s")
        assert {c.epoch for c in chunks} == {1, 2}
        for c in chunks:
            assert c.corpus == "s"
            assert np.array_equal(c.tokens, stream[c.start : c.start + 128])


class TestSplitCollections:
    def chunks(self, n, tag="story"):
        return [Chunk(tokens=np.zeros(8, dtype=np.uint32), corpus=tag, epoch=1, start=i * 8) for i in range(n)]

    def tags(self, chunks):
        return [c.sub_collection for c in chunks]

    def test_six_four(self):
        cs = self.chunks(10)
        assert split_collections(cs, rng=RngState(0)) is None
        assert self.tags(cs).count(60) == 6 and self.tags(cs).count(40) == 4

    def test_disjoint_exhaustive(self):
        cs = self.chunks(17)
        split_collections(cs, rng=RngState(1))
        assert self.tags(cs).count(60) == round(0.6 * 17)
        assert self.tags(cs).count(40) == 17 - round(0.6 * 17)

    def test_tags_assigned(self):
        cs = self.chunks(5)
        split_collections(cs, rng=RngState(2))
        assert set(self.tags(cs)) == {60, 40}
        assert self.tags(cs).count(60) == 3

    def test_the_first_60_percent_of_one_permutation_is_tagged_60(self):
        cs = self.chunks(23)
        rng = RngState(3)
        split_collections(cs, rng)
        order = RngState(3).permutation(23)
        assert [cs[i].sub_collection for i in order] == [60] * 14 + [40] * 9
        assert rng.position == 1  # one draw


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


def test_a_corpus_without_documents_is_named():
    with pytest.raises(DataError, match="corpus 'story' has no documents"):
        Corpus([], "story")


def test_an_empty_document_is_named_by_its_index():
    with pytest.raises(DataError, match="corpus 'math': document 2 is empty"):
        Corpus(["one", "two", "", "four"], "math")


def test_synthetic_corpora_have_distinct_vocabularies():
    story = synthetic_story_corpus(20, seed=0)
    math = synthetic_math_corpus(20, seed=0)
    story_words = {w for d in story.documents for w in d.split()}
    math_words = {w for d in math.documents for w in d.split()}
    overlap = story_words & math_words
    # only connective punctuation/function words may overlap
    assert len(overlap) / len(story_words | math_words) < 0.2


# -- the store's bytes ------------------------------------------------------


def regex_tokenize(tok: ToyTokenizer, text: str) -> list:
    """The tokenizer's rule written with an ``\\S+`` regex, one word at a time."""
    ids = []
    for w in re.findall(r"\S+", text):
        idx = tok.vocab.get(w)
        ids.append(tok.UNK if idx is None else idx)
    return ids


def scalar_story_corpus(n_docs: int, seed: int) -> list:
    """Story documents drawn one scalar at a time."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        name = _STORY_NAMES[rng.integers(len(_STORY_NAMES))]
        sentences = [f"Once upon a time there was a little one named {name} ."]
        for _ in range(int(rng.integers(1, 4))):
            place = _STORY_PLACES[rng.integers(len(_STORY_PLACES))]
            thing = _STORY_THINGS[rng.integers(len(_STORY_THINGS))]
            verb = _STORY_VERBS[rng.integers(len(_STORY_VERBS))]
            verb2 = _STORY_VERBS[rng.integers(len(_STORY_VERBS))]
            sentences.append(f"{name} went to the {place} with a {thing} .")
            sentences.append(f"{name} {verb} and {verb2} all day .")
        sentences.append("The end .")
        docs.append(" ".join(sentences))
    return docs


def scalar_math_corpus(n_docs: int, seed: int) -> list:
    """Math documents drawn one scalar at a time."""
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
    return docs


# whitespace that is not ASCII, and characters that look like it but are not
SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u00a0\u1680\u2000\u2007\u200a\u2028\u2029\u202f\u205f\u3000"
NOT_SPACES = "\u200b\u2060\ufeff\x00\u180e"
TEXT = st.lists(
    st.one_of(
        st.sampled_from(SPACES + NOT_SPACES),
        st.sampled_from(["Lily", "park", "plus", "7", ".", "?", "<eos>", "<0x41>", "é", "日本", "🙂"]),
        st.characters(codec="utf-8"),  # text read from a UTF-8 file holds no lone surrogate
    ),
    max_size=40,
).map("".join)

# sha256 of `pretokenize --synthetic 300 --seed 5` before the tokenizer split
# with str.split and the corpora drew a document's sentences in one call
PINNED_STORE_DIGEST = "b748969e301535d8892eaa65a2bfb2355456cba7f8b16a85f210d331e6a99f51"
PINNED_STORE_SUMMARY = """\
  math sub60 epoch1: 21 chunks (5376 tokens)
  math sub60 epoch2: 27 chunks (6912 tokens)
  math sub40 epoch1: 19 chunks (4864 tokens)
  math sub40 epoch2: 13 chunks (3328 tokens)
  story sub60 epoch1: 34 chunks (8704 tokens)
  story sub60 epoch2: 33 chunks (8448 tokens)
  story sub40 epoch1: 22 chunks (5632 tokens)
  story sub40 epoch2: 23 chunks (5888 tokens)
"""
PINNED_NUMPY = "2.4.6"
# sha256 of the README quick start's `pretokenize --synthetic 40000 --seq-len 256 --seed 7`
# when the corpora drew one scalar at a time
QUICK_START_STORE_DIGEST = "0d580adf0f7f87b28dd3a620cb721a612f4e7fa7c6edcc9d217e3a4df210e8ce"


class TestStoreBytes:
    def test_str_split_finds_the_regex_words_at_every_code_point(self):
        text = "".join(map(chr, range(0x110000)))
        assert text.split() == re.findall(r"\S+", text)

    @given(TEXT)
    @settings(max_examples=300, deadline=None)
    def test_tokenize_matches_regex_reference(self, text):
        corpus = Corpus(documents=["Lily went to the park .", "what is 7 plus 2 ?"], domain_tag="story")
        tok = ToyTokenizer.build([corpus])
        assert tok.tokenize(text).tolist() == regex_tokenize(tok, text)
        assert tok.tokenize(text).dtype == np.uint32

    @given(TEXT)
    @example("Lily foo bar went <0x41>")
    @settings(max_examples=300, deadline=None)
    def test_round_trip_gives_the_words_with_unknown_ones_as_unk(self, text):
        corpus = Corpus(documents=["Lily went to the park .", "what is 7 plus 2 ? <eos>"], domain_tag="story")
        tok = ToyTokenizer.build([corpus])
        want = " ".join(w if w in tok.vocab else "<unk>" for w in re.findall(r"\S+", text))
        assert tok.detokenize(tok.tokenize(text)) == want

    def test_unknown_words_and_unicode_whitespace(self, tok):
        text = "Lily\u00a0went\u2028to\x1cthe zebra\u200bpark"
        assert tok.tokenize(text).tolist() == regex_tokenize(tok, text)
        assert tok.tokenize(text).tolist().count(ToyTokenizer.UNK) == 1  # "zebra\u200bpark" is one unknown word

    def test_build_keeps_first_seen_order_across_corpora(self):
        a = Corpus(documents=["b a b", "c\u00a0a"], domain_tag="story")
        b = Corpus(documents=["d <eos> a e"], domain_tag="math")
        assert list(ToyTokenizer.build([a, b]).vocab) == ["<eos>", "<unk>", "b", "a", "c", "d", "e"]

    @pytest.mark.parametrize("seed", range(24))
    def test_corpora_match_scalar_draws(self, seed):
        assert synthetic_story_corpus(60, seed).documents == scalar_story_corpus(60, seed)
        assert synthetic_math_corpus(60, seed).documents == scalar_math_corpus(60, seed)

    @pytest.mark.parametrize("seed", [0, 7, 2811])
    def test_corpora_match_scalar_draws_at_the_benchmark_size(self, seed):
        assert synthetic_story_corpus(3000, seed).documents == scalar_story_corpus(3000, seed)
        assert synthetic_math_corpus(3000, seed).documents == scalar_math_corpus(3000, seed)

    def test_stream_matches_per_document_tokenize(self, corpora):
        tok = ToyTokenizer.build(corpora[:1])  # math words are unknown
        for c in corpora:
            want = [i for d in c.documents for i in regex_tokenize(tok, d) + [tok.EOS]]
            stream = build_stream(c, tok)
            assert stream.dtype == np.uint32 and stream.tolist() == want

    def test_pretokenize_matches_pinned_digest(self, tmp_path):
        if np.__version__ != PINNED_NUMPY:
            pytest.skip(f"digest pinned with NumPy {PINNED_NUMPY}, this is {np.__version__}")
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "papaformer", "pretokenize", "--synthetic", "300", "--seed", "5", "--out", "s.ppch"],
            cwd=tmp_path, env={"PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
        )
        assert out.stdout == "wrote s.ppch: vocab=106 seq_len=256\n" + PINNED_STORE_SUMMARY
        assert hashlib.sha256((tmp_path / "s.ppch").read_bytes()).hexdigest() == PINNED_STORE_DIGEST

    def test_quick_start_store_matches_pinned_digest(self, tmp_path):
        if np.__version__ != PINNED_NUMPY:
            pytest.skip(f"digest pinned with NumPy {PINNED_NUMPY}, this is {np.__version__}")
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run(
            [sys.executable, "-m", "papaformer", "pretokenize", "--synthetic", "40000", "--seq-len", "256",
             "--seed", "7", "--out", "store.ppch"],
            cwd=tmp_path, env={"PYTHONPATH": str(src)}, capture_output=True, check=True,
        )
        assert hashlib.sha256((tmp_path / "store.ppch").read_bytes()).hexdigest() == QUICK_START_STORE_DIGEST


# PCG64's 128-bit LCG multiplier: a step is state * MULT + inc mod 2**128
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def generator_with_zero_output(steps: int, has_uint32: int) -> np.random.Generator:
    """A PCG64 generator whose ``steps``-th next 64-bit output is 0, so two of its 32-bit words in a row are 0.

    PCG64 steps its state, then outputs the xor of the new state's halves,
    rotated. So a state with equal halves outputs 0, and the state set here
    is that one stepped back ``steps`` times. With ``has_uint32`` set, a
    buffered word 77 comes first, and the zero words are words
    ``2 * steps - 1`` and ``2 * steps``; without, ``2 * steps - 2`` and
    ``2 * steps - 1``.
    """
    inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    inverse = pow(PCG64_MULT, -1, 2**128)
    state = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF
    for _ in range(steps):
        state = (state - inc) * inverse % 2**128
    g = np.random.Generator(np.random.PCG64())
    g.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": 77,
    }
    return g


# (steps, has_uint32, index of the first zero word): zero words first, and zero words on either side of a block's end
ZERO_WORDS = {"first": (1, 0, 0), "block end": (_DRAW_BLOCK // 2, 1, _DRAW_BLOCK - 1)}


class TestBoundedDraws:
    @pytest.mark.parametrize("case", ZERO_WORDS)
    def test_the_zero_words_are_where_the_state_puts_them(self, case):
        steps, has_uint32, zero = ZERO_WORDS[case]
        words = generator_with_zero_output(steps, has_uint32).integers(0, 2**32, size=zero + 4, dtype=np.uint32)
        assert words[zero:zero + 2].tolist() == [0, 0] and words.tolist().count(0) == 2

    def test_a_rejected_word_is_skipped_and_bound_two_never_skips(self):
        words = generator_with_zero_output(1, 0).integers(0, 2**32, size=4, dtype=np.uint32).tolist()
        scalar = generator_with_zero_output(1, 0)
        assert int(scalar.integers(6)) == words[2] * 6 >> 32  # 0 * 6 mod 2**32 = 0 < 2**32 mod 6 = 4: both zeros skipped
        assert int(scalar.integers(0, 2**32, dtype=np.uint32)) == words[3]
        draw = _bounded_draws(generator_with_zero_output(1, 0), (2, 6))
        assert [draw(6), draw(6)] == [words[2] * 6 >> 32, words[3] * 6 >> 32]
        draw = _bounded_draws(generator_with_zero_output(1, 0), (2, 6))
        assert [draw(2), draw(2), draw(2)] == [0, 0, words[2] >> 31]  # 2**32 mod 2 = 0: no word is skipped

    @pytest.mark.parametrize("case", ZERO_WORDS)
    @pytest.mark.parametrize("rotation", range(4))
    def test_draws_match_scalar_draws_across_blocks(self, case, rotation):
        # every bound the corpora use, each in turn on the zero words; the run spans more than two blocks
        order = [2, 3, 6, 10][rotation:] + [2, 3, 6, 10][:rotation]
        run = order * ((2 * _DRAW_BLOCK + 100) // 4)
        draw = _bounded_draws(generator_with_zero_output(*ZERO_WORDS[case][:2]), (2, 3, 6, 10))
        scalar = generator_with_zero_output(*ZERO_WORDS[case][:2])
        assert [draw(r) for r in run] == [int(scalar.integers(r)) for r in run]


# words and separators of the one-pass build's corpora: the special tokens as words, and Unicode whitespace
BUILD_WORDS = ["Lily", "park", "7", ".", "<eos>", "<unk>", "é", "日本", "🙂"]
BUILD_SEPS = [" ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000"]
BUILD_DOC = st.lists(st.tuples(st.sampled_from(BUILD_SEPS), st.sampled_from(BUILD_WORDS)), min_size=1, max_size=8).map(
    lambda pairs: "".join(sep + w for sep, w in pairs)
)
BUILD_CORPORA = st.lists(st.lists(BUILD_DOC, min_size=2, max_size=6), min_size=1, max_size=3)


def two_pass_vocab(corpora: list) -> list:
    """The vocab in id order, built by a pass over every word before any stream is made."""
    vocab = {"<eos>": 0, "<unk>": 1}
    for corpus in corpora:
        for doc in corpus.documents:
            for w in re.findall(r"\S+", doc):
                vocab.setdefault(w, len(vocab))
    return list(vocab)


class TestOnePassBuild:
    @given(BUILD_CORPORA)
    @settings(max_examples=150, deadline=None)
    def test_vocab_and_streams_match_a_two_pass_reference(self, docs_per_corpus):
        corpora = [Corpus(documents=docs, domain_tag=f"c{i}") for i, docs in enumerate(docs_per_corpus)]
        store = build_chunk_store(corpora, seq_len=2, seed=0)
        tok = store.tokenizer
        assert tok.id_to_token() == two_pass_vocab(corpora)
        assert list(tok.vocab) == two_pass_vocab(corpora)
        for corpus in corpora:
            want = [i for d in corpus.documents for i in tok.tokenize(d).tolist() + [tok.EOS]]
            assert build_stream(corpus, tok).tolist() == want
            # at seq_len 2 the epochs start at 0 and 1, so their chunks together tile the whole stream
            chunks = store.select(corpus=corpus.domain_tag)
            for c in chunks:
                assert c.tokens.tolist() == want[c.start : c.start + 2]
            assert len(chunks) == len(want) // 2 + (len(want) - 1) // 2

    def test_a_built_or_loaded_tokenizer_never_grows(self, corpora):
        built = build_chunk_store(corpora, seq_len=16, seed=0).tokenizer
        for tok in (built, ToyTokenizer.from_dict(built.to_dict())):
            size = tok.vocab_size
            assert tok.tokenize("zebra Lily zebra").tolist() == [tok.UNK, tok.vocab["Lily"], tok.UNK]
            assert tok.ids("zebra") == [tok.UNK]
            stream = build_stream(Corpus(documents=["zebra giraffe"], domain_tag="zoo"), tok)
            assert stream.tolist() == [tok.UNK, tok.UNK, tok.EOS]
            assert tok.vocab_size == size
            assert "zebra" not in tok.vocab and "giraffe" not in tok.vocab


class TestCorruptStore:
    @pytest.fixture
    def saved(self, corpora, tmp_path):
        path = tmp_path / "good.ppch"
        build_chunk_store(corpora, seq_len=32, seed=42).save(str(path))
        return path.read_bytes()

    def test_every_sampled_prefix_raises_data_error(self, saved, tmp_path):
        cut = tmp_path / "cut.ppch"
        header = 20
        payload_end = saved.index(b'{"tokenizer"')
        sizes = {0, 1, 10, header - 1, header, header + 1, payload_end - 1, payload_end, payload_end + 1, len(saved) - 1}
        sizes |= set(np.random.default_rng(0).integers(0, len(saved), size=40).tolist())
        for n in sorted(sizes):
            cut.write_bytes(saved[:n])
            with pytest.raises(DataError, match="cut.ppch"):
                ChunkStore.load(str(cut))

    def test_chunk_count_disagreeing_with_provenance(self, saved, tmp_path):
        bad = tmp_path / "bad.ppch"
        count = int.from_bytes(saved[12:20], "little")
        bad.write_bytes(saved[:12] + (count - 1).to_bytes(8, "little") + saved[20 : 20 + (count - 1) * 32 * 4])
        with pytest.raises(DataError, match="provenance"):
            ChunkStore.load(str(bad))  # the JSON now starts inside the last chunk's tokens
        tail = saved[20 + count * 32 * 4 :]
        bad.write_bytes(saved[:12] + (count - 1).to_bytes(8, "little") + saved[20 : 20 + (count - 1) * 32 * 4] + tail)
        with pytest.raises(DataError, match=f"header counts {count - 1} chunks, the provenance {count}"):
            ChunkStore.load(str(bad))

    def test_token_id_outside_the_vocab_raises(self, saved, tmp_path):
        bad = tmp_path / "oov.ppch"
        end = saved.index(b'{"tokenizer"')  # the provenance JSON follows the last chunk's last token
        bad.write_bytes(saved[: end - 4] + (10**6).to_bytes(4, "little") + saved[end:])
        with pytest.raises(DataError, match=f"{bad}: token id 1000000 is outside the vocab of"):
            ChunkStore.load(str(bad))

    @pytest.mark.parametrize("value", [b"true", b"1", b"null"])
    def test_byte_fallback_other_than_false_raises_the_retirement(self, saved, tmp_path, value):
        bad = tmp_path / "byte_fallback.ppch"
        bad.write_bytes(saved.replace(b'"byte_fallback": false', b'"byte_fallback": ' + value))
        retired = f"^{bad}: retired byte_fallback .*; rerun pretokenize without --byte-fallback$"
        with pytest.raises(DataError, match=retired):
            ChunkStore.load(str(bad))

    def test_provenance_without_byte_fallback_is_malformed(self, saved, tmp_path):
        bad = tmp_path / "no_key.ppch"
        bad.write_bytes(saved.replace(b', "byte_fallback": false', b""))
        with pytest.raises(DataError, match="malformed chunk-store provenance .KeyError: 'byte_fallback'"):
            ChunkStore.load(str(bad))

    def test_seq_len_below_two_raises(self, saved, tmp_path):
        store = ChunkStore.load(str(tmp_path / "good.ppch"))
        bad = tmp_path / "short.ppch"
        # a consistent store of one-token chunks, which build_chunk_store refuses to make
        ones = [Chunk(c.tokens[:1], c.corpus, c.epoch, c.start, c.sub_collection) for c in store.chunks]
        ChunkStore(seq_len=1, chunks=ones, tokenizer=store.tokenizer).save(str(bad))
        with pytest.raises(DataError, match=f"{bad}: seq_len 1 is below 2"):
            ChunkStore.load(str(bad))

    def test_loaded_chunks_are_rows_of_one_writable_array(self, saved, tmp_path):
        path = tmp_path / "good.ppch"
        chunks = ChunkStore.load(str(path)).chunks
        assert all(c.tokens.flags.writeable and c.tokens.dtype == np.uint32 for c in chunks)
        assert chunks[0].tokens.base is chunks[-1].tokens.base is not None
