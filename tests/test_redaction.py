"""Redaction pipeline: phrase masking, idempotence, and the leakage audit."""

import tracemalloc

import numpy as np
import pytest
from conftest import (_is_word, count_tokens_one_at_a_time, reference_redact,
                      tape_linear_probe, two_pass_probe_macro_auroc)
from hypothesis import given, settings
from hypothesis import strategies as st

from petfuse.autodiff import make_rng
from petfuse.data import LABELS, SplitSpec, generate_synthetic, label_matrix, split_patients
from petfuse.errors import InputError, NumericError, ParseError
from petfuse.redaction import (_TOKEN_RE, DEFAULT_LOCATION, Lexicon, _count_features,
                               _fit_linear_probe, _probe_macro_auroc, _tokenize_lower,
                               _Vocabulary, audit_leakage, redact)


def test_worked_negation_example_is_byte_exact():
    out = redact("No pneumonia or effusion. Heart size normal.")
    assert out.text == "No [FINDING] or [FINDING]. Heart size normal."


def test_location_and_numeric_example():
    out = redact("Effusion at left base, 3 cm.")
    assert out.text == "[FINDING] at [LOC] [LOC], [NUM] cm."


def test_counts_reported():
    out = redact("Effusion at left base, 3 cm.")
    assert out.counts == {"FINDING": 1, "LOC": 2, "NUM": 1}


def test_longest_phrase_wins():
    lex = Lexicon(pathology=("pleural effusion", "effusion"), location=())
    out = redact("Small pleural effusion noted.", lex)
    assert out.text == "Small [FINDING] noted."
    assert out.counts["FINDING"] == 1


def test_case_insensitive_whole_word():
    assert redact("PNEUMONIA suspected.").text == "[FINDING] suspected."
    # substrings inside larger words are never masked
    lex = Lexicon(pathology=("mass",), location=())
    assert redact("Massive biomass estimates.", lex).text == \
        "Massive biomass estimates."


def test_numeric_with_decimal_and_unit():
    out = redact("Opacity measuring 2.5 cm at the right apex.")
    assert out.text == "[FINDING] measuring [NUM] cm at the [LOC] [LOC]."


def test_negation_words_preserved():
    out = redact("No acute cardiopulmonary findings without effusion.")
    assert out.text.startswith("No ")
    assert "without" in out.text


def test_idempotent_on_examples():
    for text in ["No pneumonia or effusion. Heart size normal.",
                 "Effusion at left base, 3 cm.",
                 "Opacity measuring 2.5 cm at the right apex."]:
        once = redact(text).text
        assert redact(once).text == once


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_idempotent_on_random_synthetic_reports(seed):
    samples = generate_synthetic(n_patients=3, seed=seed)
    for s in samples:
        once = redact(s.text).text
        assert redact(once).text == once


def _scan_every_phrase(text, pathology):
    """Reference for redact's phrase stage: at each word, try every phrase,
    longest first, and blank the matched words and what lies between them."""
    parts = [p for p in _TOKEN_RE.split(text) if p]
    words = [i for i, p in enumerate(parts) if _is_word(p)]
    phrases = sorted({tuple(t.lower().split()) for t in pathology}, key=len, reverse=True)
    count = pos = 0
    while pos < len(words):
        for phrase in phrases:
            span = words[pos:pos + len(phrase)]
            if len(span) == len(phrase) and [parts[k].lower() for k in span] == list(phrase):
                parts[span[0]:span[-1] + 1] = ["[FINDING]"] + [""] * (span[-1] - span[0])
                count += 1
                pos += len(phrase)
                break
        else:
            pos += 1
    return "".join(parts), count


_OVERLAPPING = ("a b c", "a b", "B c", "c", "a-b", "x y z", "x")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a b c", "A b", "b C", "x y z", "x y", "a", "b",
                                           "c", "x", "a-b", "[FINDING]", "q"]),
                          st.sampled_from([" ", "  ", ", ", ". ", "-", "\n", ""])),
                max_size=30))
def test_phrase_stage_matches_a_scan_of_every_phrase(tokens):
    text = "".join(w + sep for w, sep in tokens)
    out = redact(text, Lexicon(pathology=list(_OVERLAPPING), location=[]))
    assert (out.text, out.counts["FINDING"]) == _scan_every_phrase(text, _OVERLAPPING)


# Words with ' and -, decimals with unit suffixes, non-ASCII digits (\d is
# Unicode), masks in any case and next to punctuation.
_SOUP = ["effusion", "Effusion", "PLEURAL", "pleural", "left", "Left", "BASE", "base",
         "x-ray", "X-Ray", "don't", "o'clock", "well-defined", "a", "B", "no", "2", "2.5",
         "2.5cm", "10%", "3mm", "1.2.3", "07", "\u0663", "\u0663.\u0665cm", "\uff11\uff12",
         "[FINDING]", "[finding]", "[Num]", "[LOC]", "[NUM].", "([LOC])", "[FINDING]s"]
_SEPARATORS = st.text(alphabet=" \n\t,.;:-'()[]%", max_size=3)
_TOKEN_SOUP = st.lists(
    st.tuples(st.one_of(st.sampled_from(_SOUP),
                        st.text(alphabet="aAbB'-.0\u0663%[]LOCNUM", max_size=5)),
              _SEPARATORS), max_size=25)
# Case variants, multi-word phrases, whitespace-only terms, numbers.
_TERMS_DRAWN = st.one_of(
    st.sampled_from(["effusion", "Effusion", "pleural effusion", "PLEURAL  Effusion",
                     "left", "LEFT", "base", "x-ray", "don't", "2", "2.5cm", "a", "a b",
                     "a\tb B", "   ", "", "well-defined", "\u0663"]),
    st.lists(st.sampled_from(["a", "B", "left", "base", "effusion", "2"]),
             min_size=1, max_size=3).map(" ".join))


@st.composite
def _lexicons(draw):
    """Random lexicons with a duplicated term and a term in both lists."""
    pathology = draw(st.lists(_TERMS_DRAWN, max_size=8))
    location = draw(st.lists(_TERMS_DRAWN, max_size=6))
    shared = draw(_TERMS_DRAWN)
    pathology = pathology + [shared, shared]
    location = location + [shared]
    if draw(st.booleans()):
        pathology, location = tuple(pathology), tuple(location)
    return Lexicon(pathology=pathology, location=location)


@settings(max_examples=400, deadline=None)
@given(_TOKEN_SOUP, st.one_of(st.none(), _lexicons()))
def test_redact_matches_the_reference(tokens, lexicon):
    """None stands for the default lexicon."""
    text = "".join(w + sep for w, sep in tokens)
    got, want = redact(text, lexicon), reference_redact(text, lexicon)
    assert (got.text, got.counts) == (want.text, want.counts)


def test_editing_a_lexicon_in_place_takes_effect():
    lex = Lexicon(pathology=["effusion"], location=["left"])
    text = "Left effusion, small."
    assert redact(text, lex).text == "[LOC] [FINDING], small."
    lex.pathology.append("small")
    assert redact(text, lex).text == "[LOC] [FINDING], [FINDING]."
    lex.pathology[0] = "left effusion"
    lex.location.clear()
    assert redact(text, lex).text == "[FINDING], [FINDING]."


def test_count_features_matches_adding_one_token_at_a_time():
    train = [s.text for s in generate_synthetic(n_patients=6, seed=4)]
    vocab = {}
    for t in train:
        for tok in _tokenize_lower(t):
            vocab.setdefault(tok, len(vocab))
    texts = [redact(t).text for t in train] + [
        "", "zebra quokka 12 unseen", "Effusion EFFUSION effusion [LOC] [loc] zebra"]
    got = _count_features(texts, vocab)
    assert got.shape == (len(texts), len(vocab))
    assert got.tobytes() == count_tokens_one_at_a_time(texts, vocab).tobytes()
    assert not got[len(train)].any()  # the empty text
    assert _count_features(["", "zebra"], {}).shape == (2, 0)
    assert _count_features([], _Vocabulary()).shape == (0, 0)


_AUDIT_WORDS = ["effusion", "Effusion", "EFFUSION", "[FINDING]", "[finding]", "[Loc]",
                "[NUM]", "no", "left", "3", "3.5cm", "don't", "x-ray", "zebra", "quokka"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_AUDIT_WORDS), max_size=12), max_size=8),
       st.lists(st.lists(st.sampled_from(_AUDIT_WORDS + ["unseen", "[LOC]"]), max_size=12),
                max_size=5),
       st.sampled_from([" ", ". ", ", ", "\n"]))
def test_counts_from_ids_equal_adding_one_token_at_a_time(train, test, sep):
    """The training vocabulary grows in first-appearance order, and both count
    matrices equal adding each token on its own, bit for bit: empty reports,
    repeated tokens, mask tokens in either case, and tokens seen only at test
    time, which are dropped."""
    train, test = [sep.join(words) for words in train], [sep.join(words) for words in test]
    want_vocab = {}
    for t in train:
        for tok in _tokenize_lower(t):
            want_vocab.setdefault(tok, len(want_vocab))
    vocab = _Vocabulary()
    x_train = _count_features(train, vocab)
    assert list(vocab.items()) == list(want_vocab.items())
    x_test = _count_features(test, dict(vocab))
    assert len(vocab) == len(want_vocab)  # the test reports add no column
    for got, texts in ((x_train, train), (x_test, test)):
        want = count_tokens_one_at_a_time(texts, want_vocab)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_redact_corpus_order_preserving():
    texts = ["Effusion at left base, 3 cm.", "Normal study."]
    out = [redact(t) for t in texts]
    assert [r.text for r in out] == ["[FINDING] at [LOC] [LOC], [NUM] cm.",
                                     "Normal study."]


def test_monotone_token_removal():
    """Redaction only replaces word tokens; nothing new except masks."""
    samples = generate_synthetic(n_patients=5, seed=11)
    masks = {"[FINDING]", "[NUM]", "[LOC]"}
    for s in samples:
        out_tokens = redact(s.text).text.split()
        in_tokens = set(s.text.split())
        for tok in out_tokens:
            core = tok.strip(".,")
            assert core in masks or tok in in_tokens or core in in_tokens


def test_lexicon_from_dir(tmp_path):
    (tmp_path / "pathology.txt").write_text("# comment\nwidgetitis\n")
    (tmp_path / "location.txt").write_text("leftish\n")
    lex = Lexicon.from_dir(tmp_path)
    out = redact("No widgetitis in the leftish zone.", lex)
    assert out.text == "No [FINDING] in the [LOC] zone."


def test_lexicon_file_the_directory_lacks_keeps_its_default(tmp_path):
    (tmp_path / "pathology.txt").write_text("widgetitis  # a comment\n")
    lex = Lexicon.from_dir(tmp_path)
    assert lex.pathology == ["widgetitis"]
    assert lex.location == DEFAULT_LOCATION


def test_lexicon_path_that_is_not_a_directory_is_refused(tmp_path):
    (tmp_path / "plain.txt").write_text("effusion\n")
    for path in (tmp_path / "missing", tmp_path / "plain.txt"):
        with pytest.raises(InputError, match="not a lexicon directory"):
            Lexicon.from_dir(path)


def test_lexicon_file_that_is_not_utf8_is_named(tmp_path):
    (tmp_path / "location.txt").write_bytes(b"left\n\xff\xfe\n")
    with pytest.raises(ParseError, match="location.txt: lexicon file is not UTF-8"):
        Lexicon.from_dir(tmp_path)


def test_audit_on_separable_corpus():
    """A corpus whose label is spelled out verbatim must audit near 1.0 raw,
    and near chance once the giveaway token is masked."""
    rng = make_rng(0, "audit-test")
    n = 400
    labels = np.zeros((n, len(LABELS)), dtype=int)
    raw, red = [], []
    for i in range(n):
        pos = bool(rng.integers(0, 2))
        labels[i, 0] = int(pos)
        filler = f"study number {i} reviewed"
        raw.append(f"Cardiomegaly present. {filler}." if pos
                   else f"Lungs clear. {filler}.")
        red.append(f"[FINDING] present. {filler}." if pos
                   else f"Lungs clear. {filler}.")
    # after masking there is still the word "present" — rebalance so the
    # redacted channel keeps no residual token signal at all
    red = [t.replace("[FINDING] present.", "Lungs clear.") for t in red]
    train_idx = np.arange(0, 300)
    test_idx = np.arange(300, n)
    report = audit_leakage(raw, red, labels, train_idx, test_idx, seed=0)
    assert report["auroc_raw"] >= 0.95
    assert report["auroc_redacted"] <= 0.60
    assert report["delta"] == pytest.approx(
        report["auroc_raw"] - report["auroc_redacted"], abs=1e-12)


def test_audit_equals_the_two_pass_probe_bit_for_bit():
    """Each report tokenized once gives the audit the vocabulary and the
    counts that tokenizing the training reports twice gives."""
    samples = generate_synthetic(n_patients=60, seed=11, leak_prob=0.5)
    raw = [s.text for s in samples]
    red = [redact(t).text for t in raw]
    labels = np.array([s.labels for s in samples])
    train_idx, test_idx = np.arange(45), np.arange(45, len(samples))
    got = audit_leakage(raw, red, labels, train_idx, test_idx, seed=2)
    want = [two_pass_probe_macro_auroc([c[i] for i in train_idx],
                                       [c[i] for i in test_idx],
                                       labels[train_idx], labels[test_idx], 2)
            for c in (raw, red)]
    assert (got["auroc_raw"], got["auroc_redacted"]) == tuple(want)
    assert got["delta"] == want[0] - want[1]


def test_audit_deterministic():
    samples = generate_synthetic(n_patients=40, seed=3)
    raw = [s.text for s in samples]
    red = [redact(t).text for t in raw]
    labels = np.array([s.labels for s in samples])
    idx = np.arange(len(samples))
    a = audit_leakage(raw, red, labels, idx[:30], idx[30:], seed=5)
    b = audit_leakage(raw, red, labels, idx[:30], idx[30:], seed=5)
    assert a == b


def _same_bits(got, want):
    return [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 4),
       st.sampled_from([0.5, 3.0, 30.0]), st.integers(0, 2**32 - 1),
       st.integers(1, 12), st.sampled_from([0, 1]))
def test_probe_steps_as_the_tape_does_bit_for_bit(rows, feats, labs, mean_count, seed,
                                                  steps, constant):
    """The probe's closed-form steps give the w and b bytes that stepping
    through the autodiff tape gives, with an all-zero feature column and a
    label column that is constant, at counts from sparse to large enough
    that the clip acts."""
    rng = np.random.default_rng(seed)
    x = rng.poisson(mean_count, (rows, feats)).astype(float)
    x[:, rng.integers(feats)] = 0.0
    y = (rng.random((rows, labs)) < 0.4).astype(int)
    y[:, rng.integers(labs)] = constant
    assert _same_bits(_fit_linear_probe(x, y, seed, steps=steps),
                      tape_linear_probe(x, y, seed, steps=steps))


def test_probe_at_the_benchmark_size_steps_as_the_tape_does():
    """Both probes of the leakage benchmark's audit (400 patients, findings
    padded to 12, 300 full-batch steps) give the tape's w and b bytes."""
    samples = generate_synthetic(400, seed=3201, leak_prob=0.9,
                                 prevalence_profile=[0.25] * len(LABELS),
                                 pad_findings_to=12)
    train, _, _ = split_patients(samples, SplitSpec(seed=3201))
    y = label_matrix(train)
    for texts in ([s.text for s in train], [redact(s.text).text for s in train]):
        x = _count_features(texts, _Vocabulary())
        assert _same_bits(_fit_linear_probe(x, y, 3201), tape_linear_probe(x, y, 3201))


@pytest.mark.parametrize("seed", [1, 2])
def test_the_probe_holds_its_reports_as_ids_not_token_strings(seed):
    """The audit probe's traced peak at the leakage benchmark's corpus shape
    (400 patients, findings padded to 12; 300 training reports of about
    28,500 tokens) stays under 1 MB. It read 0.69-0.71 MB over seeds 1-6;
    holding each training report as a list of token strings for the fit
    read 2.78-2.86 MB."""
    samples = generate_synthetic(400, seed=seed, leak_prob=0.9,
                                 prevalence_profile=[0.25] * len(LABELS),
                                 pad_findings_to=12)
    texts, y = [s.text for s in samples], label_matrix(samples)
    tracemalloc.start()
    try:
        auroc = _probe_macro_auroc(texts[:300], texts[300:], y[:300], y[300:], seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert auroc > 0.9
    assert peak < 1_000_000


def test_a_probe_whose_logits_are_not_finite_is_refused():
    """An inf count gives a non-finite logit, which the probe refuses before
    it forms a gradient. The GEMM itself may flag the inf as an invalid
    operation, so the flag is not raised here."""
    x = np.ones((5, 3))
    x[2, 1] = np.inf
    y = np.zeros((5, 2), dtype=int)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="^non-finite logits in bce loss$"):
        _fit_linear_probe(x, y, 0, steps=3)
