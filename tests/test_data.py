"""Synthetic corpus generation, patient-level splitting, and manifest IO."""

import hashlib
import json
import math

import numpy as np
import pytest
from conftest import reference_vision_floats
from hypothesis import given, settings
from hypothesis import strategies as st

import petfuse.data as data
from petfuse import _native
from petfuse.cli import main
from petfuse.data import (DEFAULT_PREVALENCE, LABELS, VISION_DIM, Sample, SplitSpec,
                          _parse_line, _round6, _vision_floats,
                          generate_synthetic, label_matrix, load_manifest,
                          save_manifest, split_patients)
from petfuse.errors import ConfigError, ParseError


def _mk_samples(n_patients, per_patient=1):
    out = []
    for p in range(n_patients):
        for k in range(per_patient):
            out.append(Sample(id=f"s{p}_{k}", patient_id=f"p{p}",
                              text="Normal study.",
                              labels=[0] * len(LABELS),
                              vision_features=[0.0] * 2048))
    return out


def _fields(s):
    """Everything a sample holds, its features as their float64 bytes."""
    feats = None if s.vision_features is None else s.vision_features.tobytes()
    return (s.id, s.patient_id, s.text, s.labels, feats)


# ------------------------------------------------------------------- split


def test_split_ten_patients_is_7_2_1():
    samples = _mk_samples(10)
    train, val, test = split_patients(samples, SplitSpec())
    patients = lambda part: {s.patient_id for s in part}
    assert (len(patients(train)), len(patients(val)), len(patients(test))) \
        == (7, 2, 1)


def test_split_patient_atomicity():
    samples = _mk_samples(30, per_patient=2)
    parts = split_patients(samples, SplitSpec(seed=4))
    seen = {}
    for i, part in enumerate(parts):
        for s in part:
            assert seen.setdefault(s.patient_id, i) == i


def test_split_partitions_every_sample():
    samples = _mk_samples(23, per_patient=3)
    train, val, test = split_patients(samples, SplitSpec(seed=2))
    ids = sorted(s.id for s in train + val + test)
    assert ids == sorted(s.id for s in samples)


def test_split_fraction_targets_at_scale():
    """Patient-level fractions stay within a percent of the targets, the
    same regime as a realistic 2695/577/579 sample split."""
    samples = _mk_samples(2000)
    train, val, test = split_patients(samples, SplitSpec())
    assert len(train) == 1400 and len(val) == 300 and len(test) == 300


def test_split_deterministic_per_seed():
    samples = _mk_samples(50)
    a = split_patients(samples, SplitSpec(seed=9))
    b = split_patients(samples, SplitSpec(seed=9))
    assert [[s.id for s in part] for part in a] \
        == [[s.id for s in part] for part in b]
    c = split_patients(samples, SplitSpec(seed=10))
    assert [[s.id for s in part] for part in a] \
        != [[s.id for s in part] for part in c]


@settings(max_examples=40, deadline=None)
@given(st.integers(7, 120), st.integers(0, 2**31 - 1))
def test_split_property_no_empty_parts_and_atomic(n, seed):
    # n >= 7 guarantees every 15% part rounds to at least one patient
    samples = _mk_samples(n, per_patient=2)
    parts = split_patients(samples, SplitSpec(seed=seed))
    assert all(len(p) > 0 for p in parts)
    owners = {}
    for i, part in enumerate(parts):
        for s in part:
            assert owners.setdefault(s.patient_id, i) == i


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
def test_only_the_test_split_is_ever_empty_and_only_below_5_patients(seed):
    """eval and calibrate refuse an empty test split and check no other:
    under SPLIT_FRACTIONS the validation split holds a patient at every
    n >= 3, and the test split at every n >= 5."""
    for n in range(3, 200):
        _, val, test = split_patients(_mk_samples(n), SplitSpec(seed=seed))
        assert val and bool(test) == (n >= 5), n


# --------------------------------------------------------------- generator


def test_generate_deterministic_bytes():
    a = generate_synthetic(n_patients=25, seed=42)
    b = generate_synthetic(n_patients=25, seed=42)
    assert len(a) == len(b)
    assert [_fields(x) for x in a] == [_fields(y) for y in b]


def test_generate_seed_sensitivity():
    a = generate_synthetic(n_patients=25, seed=1)
    b = generate_synthetic(n_patients=25, seed=2)
    assert any(_fields(x) != _fields(y) for x, y in zip(a, b))


def test_generate_prevalence_within_3_sigma():
    n = 4000
    samples = generate_synthetic(n_patients=n, seed=7)
    # prevalence is defined per patient; count each patient once
    by_patient = {}
    for s in samples:
        by_patient[s.patient_id] = s.labels
    mat = np.array(list(by_patient.values()))
    for j, p in enumerate(DEFAULT_PREVALENCE):
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(mat[:, j].mean() - p) <= 3 * sigma, LABELS[j]


def test_generate_feature_dimensions():
    samples = generate_synthetic(n_patients=5, seed=0)
    for s in samples:
        assert len(s.vision_features) == 2048
        assert len(s.labels) == len(LABELS)
        assert s.text.strip()


def test_generate_some_patients_have_two_studies():
    samples = generate_synthetic(n_patients=200, seed=3)
    counts = {}
    for s in samples:
        counts[s.patient_id] = counts.get(s.patient_id, 0) + 1
    assert set(counts.values()) == {1, 2}
    frac_two = sum(1 for v in counts.values() if v == 2) / len(counts)
    assert 0.04 <= frac_two <= 0.18


def test_generate_text_mentions_track_labels():
    """With a high leak probability, positive labels are usually named in
    the report and negatives almost never are."""
    samples = generate_synthetic(n_patients=300, seed=11, leak_prob=0.9)
    hit, pos = 0, 0
    fp, neg = 0, 0
    probe = LABELS.index("Cardiomegaly")
    for s in samples:
        mentioned = "cardiomegaly" in s.text.lower() \
            or "enlarged cardiac silhouette" in s.text.lower()
        if s.labels[probe]:
            pos += 1
            hit += int(mentioned)
        else:
            neg += 1
            fp += int(mentioned)
    assert pos > 10
    assert hit / pos > 0.8
    assert fp / neg < 0.05


def test_generate_vision_signal_plan():
    plan = {label: "none" for label in LABELS}
    plan["Cardiomegaly"] = "vision"
    samples = generate_synthetic(n_patients=400, seed=13, signal_plan=plan)
    j = LABELS.index("Cardiomegaly")
    feats = np.array([s.vision_features for s in samples])
    y = np.array([s.labels[j] for s in samples])
    # the planted direction separates the class means
    mu_pos = feats[y == 1].mean(axis=0)
    mu_neg = feats[y == 0].mean(axis=0)
    assert np.linalg.norm(mu_pos - mu_neg) > 1.0


def test_generate_custom_prevalence_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(n_patients=5, seed=0, prevalence_profile=[0.5])


# ---------------------------------------------------------------- manifest


def test_manifest_roundtrip(tmp_path):
    samples = generate_synthetic(n_patients=8, seed=21)
    path = tmp_path / "data.jsonl"
    save_manifest(path, samples)
    loaded = load_manifest(path)
    assert [_fields(s) for s in loaded] == [_fields(s) for s in samples]


def test_manifest_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "a", "patient_id": "p", "text": "t",
                       "labels": [0] * len(LABELS)})
    path.write_text(good + "\n{not json\n")
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert ":2" in str(exc.value)


def test_manifest_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "a", "text": "t",
                                "labels": [0] * len(LABELS)}) + "\n")
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert "patient_id" in str(exc.value)


def test_manifest_rejects_unknown_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "a", "patient_id": "p", "text": "t",
           "labels": [0] * len(LABELS), "mystery": 1}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError):
        load_manifest(path)


def test_manifest_has_no_redacted_text_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "a", "patient_id": "p", "text": "t",
           "labels": [0] * len(LABELS), "redacted_text": "t"}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError, match="unknown fields \\['redacted_text'\\]"):
        load_manifest(path)


def test_manifest_rejects_nonbinary_labels(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "a", "patient_id": "p", "text": "t",
           "labels": [2] + [0] * (len(LABELS) - 1)}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError):
        load_manifest(path)


@pytest.mark.parametrize("field,value", [
    ("labels", 5), ("labels", None), ("labels", "01" * 7), ("text", None),
    ("text", ["t"]), ("vision_features", "x"),
])
def test_manifest_rejects_fields_of_the_wrong_type(tmp_path, field, value):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "a", "patient_id": "p", "text": "t", "labels": [0] * len(LABELS)}
    path.write_text(json.dumps(dict(rec, **{field: value})) + "\n")
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert field in str(exc.value) and ":1:" in str(exc.value)


@pytest.mark.parametrize("line", [b"[1, 2]", b'"a"', b"7", b"null", b"\xff\xfe{}"])
def test_manifest_rejects_a_row_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(line + b"\n")
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert ":1:" in str(exc.value)


def test_manifest_rejects_wrong_feature_length(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "a", "patient_id": "p", "text": "t",
           "labels": [0] * len(LABELS), "vision_features": [0.0] * 10}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError):
        load_manifest(path)


def _per_element_features(feats):
    """The element-by-element vision_features rule: a list of 2048 ints,
    floats or bools, each converted with float() to a finite float; None
    when rejected."""
    if not isinstance(feats, list) or len(feats) != 2048 or not all(
            isinstance(v, (int, float)) for v in feats):
        return None
    try:
        floats = [float(v) for v in feats]
    except OverflowError:
        return None
    return floats if all(math.isfinite(v) for v in floats) else None


def _load_features(path, feats):
    rec = {"id": "a", "patient_id": "p", "text": "t", "labels": [0] * len(LABELS),
           "vision_features": feats}
    path.write_text(json.dumps(rec) + "\n")
    try:
        return load_manifest(path)[0].vision_features
    except ParseError as e:
        assert str(e) == f"{path}:1: vision_features must be 2048 finite numbers"
        return None


_FEATURE_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.integers(-2**70, 2**70), st.sampled_from([2**63, 2**64 - 1, 10**400, -10**400]),
    st.none(), st.text(max_size=2), st.lists(st.integers(0, 1), max_size=2))


@settings(max_examples=150, deadline=None)
@given(base=st.one_of(st.floats(-1e6, 1e6), st.integers(-2**40, 2**40), st.booleans()),
       edits=st.dictionaries(st.integers(0, 2048), _FEATURE_VALUES, max_size=4),
       length=st.sampled_from([2047, 2048, 2049]),
       nest=st.booleans())
def test_vision_features_accepted_and_converted_as_element_by_element(
        tmp_path_factory, base, edits, length, nest):
    feats = [base] * length
    for i, v in edits.items():
        if i < length:
            feats[i] = v
    if nest:  # a nested (possibly ragged) row is rejected
        feats = [feats[:1024], feats[1024:]]
    got = _load_features(tmp_path_factory.mktemp("feats") / "m.jsonl", feats)
    want = _per_element_features(feats)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == np.float64 and got.shape == (2048,)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


_MIXED_VALUES = st.one_of(
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.booleans(), st.integers(-2**70, 2**70), st.integers(-10**400, 10**400),
    st.sampled_from([2**63, 2**64 - 1, 2**64, 10**308, 10**309, -10**400]),
    st.none(), st.text(max_size=3), st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))


@st.composite
def _mixed_rows(draw):
    """A list at VISION_DIM, one short of it or one past it, of one in-range
    value with a few mixed ones set in; or a short list of mixed values."""
    if draw(st.booleans()):
        return draw(st.lists(_MIXED_VALUES, max_size=4))
    length = draw(st.sampled_from([*[VISION_DIM] * 4, VISION_DIM - 1, VISION_DIM + 1]))
    row = [draw(st.one_of(st.floats(-1e6, 1e6), st.integers(-2**70, 2**70),
                          st.booleans()))] * length
    for i, v in draw(st.dictionaries(st.integers(0, length - 1), _MIXED_VALUES,
                                     max_size=4)).items():
        row[i] = v
    return row


@settings(max_examples=300, deadline=None)
@given(_mixed_rows())
def test_vision_floats_equal_numpy_dtype_discovery(feats):
    """One buffer conversion accepts and refuses the lists numpy's dtype
    discovery does, and gives the same read-only float64 bytes."""
    got, want = _vision_floats(feats), reference_vision_floats(feats)
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.dtype, got.shape, got.flags.writeable) == (np.float64, (VISION_DIM,), False)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("feats", [
    [[0.0] * 1024, [0.0] * 1023],     # ragged nesting: numpy raises ValueError
    [0.0] * 2047 + [None],            # an object row
    [0.0] * 2047 + [10**400],         # an int beyond the float range
    [0.0] * 2047 + [float("nan")],    # json reads NaN, Infinity and 1e400
    [float("inf")] + [0.0] * 2047,
    [0.0] * 2047 + [-float("inf")],
    "0" * 2048, {"0": 0.0}, 3.5,
])
def test_manifest_rejects_malformed_features_with_one_message(tmp_path, feats):
    assert _load_features(tmp_path / "m.jsonl", feats) is None


def test_manifest_rejects_duplicate_ids(tmp_path):
    """Frozen text features are cached by sample id, so a second sample with
    the same id would silently get the first one's features."""
    path = tmp_path / "dup.jsonl"
    recs = [{"id": i, "patient_id": "p", "text": t, "labels": [0] * len(LABELS)}
            for i, t in (("a", "x"), ("b", "y"), ("a", "z"))]
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert ":3" in str(exc.value) and "line 1" in str(exc.value)


def _assert_read_only_vectors(samples):
    for s in samples:
        feats = s.vision_features
        assert type(feats) is np.ndarray
        assert feats.dtype == np.float64 and feats.shape == (2048,)
        assert not feats.flags.writeable


def test_vision_features_are_read_only_float64_vectors(tmp_path):
    samples = generate_synthetic(n_patients=6, seed=31)
    _assert_read_only_vectors(samples)
    path = tmp_path / "m.jsonl"
    save_manifest(path, samples)
    loaded = load_manifest(path)
    _assert_read_only_vectors(loaded)
    assert all(a.vision_features.tobytes() == b.vision_features.tobytes()
               for a, b in zip(samples, loaded))


def test_loaded_manifest_saves_back_byte_for_byte(tmp_path):
    """A gen-data manifest survives load and save unchanged: the arrays
    write back the generator's rounded floats."""
    path, again = tmp_path / "gen.jsonl", tmp_path / "again.jsonl"
    assert main(["gen-data", "--patients", "12", "--seed", "9", "--out", str(path)]) == 0
    save_manifest(again, load_manifest(path))
    assert again.read_bytes() == path.read_bytes()


def _row_reader():
    """The native row reader; skips the test where this host cannot build or
    load it."""
    numbers = _native.function("parse_numbers")
    if numbers is None:
        pytest.skip("the native row reader cannot be built or loaded here")
    return numbers


def _parsed(raw: bytes, numbers):
    """What _parse_line makes of `raw` as line 1 with the row reader
    `numbers` (None: json alone): the sample's fields, or the ParseError's
    text. A sample's features must be a read-only float64 vector."""
    with pytest.MonkeyPatch.context() as m:
        m.setitem(_native._functions, "parse_numbers", numbers)
        try:
            sample = _parse_line("m.jsonl", 1, raw)
        except ParseError as e:
            return str(e)
    if sample is not None and sample.vision_features is not None:
        feats = sample.vision_features
        assert (feats.dtype, feats.shape, feats.flags.writeable) == \
            (np.float64, (VISION_DIM,), False)
    return None if sample is None else _fields(sample)


_HEAD_REC = {"id": "a", "labels": [0, 1] * 7, "patient_id": "p", "text": "t"}
_HEAD = json.dumps(_HEAD_REC, sort_keys=True)[:-1]
_HEADS = [
    *[_HEAD] * 12,
    "{",                                                         # empty head
    "{ ",
    json.dumps(dict(_HEAD_REC, text=', "vision_features": [1]}'))[:-1],  # key inside text
    json.dumps(dict(_HEAD_REC, text="x\té "))[:-1],
    json.dumps(dict(_HEAD_REC, id=7))[:-1],
    json.dumps({k: v for k, v in _HEAD_REC.items() if k != "patient_id"})[:-1],
    json.dumps(dict(_HEAD_REC, mystery=1))[:-1],                 # unknown field
    json.dumps(dict(_HEAD_REC, labels=[2] * 14))[:-1],
    json.dumps(dict(_HEAD_REC, patient_id=""))[:-1],
    '{"vision_features": null, ' + _HEAD[1:],                    # key given twice
    '{"vision\\u005ffeatures": null, ' + _HEAD[1:],
    _HEAD + ",",
    '{"id": {"x": 1',                                            # key in a nested value
    '[{"id": 1',
    _HEAD.replace('"text": "t"', '"text": "t\\ud800"'),
]
_PREFIXES = [*[b""] * 6, b" ", b"\t\r", b"\x0c", b"\xef\xbb\xbf"]  # a BOM
_SUFFIXES = [*[b"", b"\n", b"\r", b"\r\n"] * 3, b" \t\n", b"\x0b\x0c", b"\xc2\xa0", b" x",
             b"}", b"\xff"]
_SEPARATORS = [", ", ", ", ",", " , ", "\t,\t", "\n,\r", ",\x0c", " ,", ";", ""]
_SPECIAL_TOKENS = [
    "0", "-0", "-0.0", "-0e0", "0e0", "-0E-0", "5e-06", "-5e-06", "1E+22", "1e22", "-1e-22",
    "1e23", "1e-23", "1e400", "-1e400", "1e-400", "0e400", "0.0e-999999999999999999999",
    "123456789012345", "-999999999999999", "1234567890123456", "0.123456789012345",
    "0.1234567890123456", "1.00000000000000", "1.000000000000000", "999999999.999999",
    # 16 and 17 digits, where w / 10**k rounds twice and misses float()'s double
    "0.9425800138526967", "-928.4816785797377", "1188995418.4831833",
    # an exponent longer than the reader counts, after a long zero fraction
    "0." + "0" * 99 + "1e1000", "0." + "0" * 99 + "1e100",
    "0.000000000000000000001", "0.0000000000000000000001", "1e0000000000000000000001",
    "00", "01", "-01", "00.5", ".5", "-.5", "1.", "1.e5", "+1", "-", "1e", "1e+", "--1",
    "true", "false", "null", "NaN", "-NaN", "Infinity", "-Infinity", '"1"', "[1]", "{}",
    "0x10", "1_0", "١", "",
    # around the six-decimal fast path: too many fraction digits, too many
    # whole digits, an exponent or a second point after it, a short
    # fraction, the largest six-decimal fraction and both zeros
    "0.1234567", "12.345678", "1.234567e5", "1.234567E-05", "1.234567.", "1.23456",
    "9.999999", "0.000000", "-0.000000",
]
_NUMBER_TOKENS = st.one_of(
    st.sampled_from(_SPECIAL_TOKENS),
    st.from_regex(r"-?(0|[1-9][0-9]{0,16})(\.[0-9]{1,18})?([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.from_regex(r"[+-]?0{0,2}[0-9]{0,3}\.?[0-9]{0,3}([eE][+-]?[0-9]{0,2})?", fullmatch=True),
    st.floats().map(repr))
# what the writer writes
_SIX_DECIMAL_TOKENS = st.integers(-10**15 + 1, 10**15 - 1).map(lambda k: repr(k / 1e6))


@st.composite
def _feature_lines(draw):
    """A manifest line of a head, the features key and a list of 2,047 to
    2,049 numbers with a few tokens and separators drawn from a grammar
    around JSON's, between byte-level prefixes and suffixes."""
    length = draw(st.sampled_from([*[VISION_DIM] * 4, VISION_DIM - 1, VISION_DIM + 1]))
    tokens = [draw(st.one_of(_SIX_DECIMAL_TOKENS, _NUMBER_TOKENS))] * length
    for i, tok in draw(st.dictionaries(st.integers(0, length - 1),
                                       st.one_of(_SIX_DECIMAL_TOKENS, _SIX_DECIMAL_TOKENS,
                                                 _NUMBER_TOKENS),
                                       max_size=3)).items():
        tokens[i] = tok
    seps = [draw(st.sampled_from(_SEPARATORS[:6]))] * (length - 1)
    for i, sep in draw(st.dictionaries(st.integers(0, length - 2),
                                       st.sampled_from(_SEPARATORS * 2 + _SEPARATORS[:6]),
                                       max_size=2)).items():
        seps[i] = sep
    body = tokens[0] + "".join(sep + tok for sep, tok in zip(seps, tokens[1:]))
    pad = st.sampled_from(["", "", " ", "\t", "\r\n ", "\x0c"])
    line = (draw(st.sampled_from(_HEADS)) + ', "vision_features": [' + draw(pad) + body
            + draw(pad) + "]}").encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 3)) == 3:  # a byte that is not UTF-8, in the head or the list
        at = draw(st.integers(0, len(line)))
        line = line[:at] + b"\xff" + line[at:]
    return draw(st.sampled_from(_PREFIXES)) + line + draw(st.sampled_from(_SUFFIXES))


@settings(max_examples=400, deadline=None)
@given(_feature_lines())
def test_the_native_row_reader_gives_what_json_gives(raw):
    """A line read with the native row reader gives the sample json reads
    from it, to the bytes of its features, or the same ParseError."""
    assert _parsed(raw, _row_reader()) == _parsed(raw, None)


def _row_line(head: str, tokens) -> bytes:
    return (head + ', "vision_features": [' + ", ".join(tokens) + "]}").encode()


@pytest.mark.parametrize("raw", [
    b"", b"\r\n", b"  \n", _row_line(_HEAD, ["0.5"] * VISION_DIM),
    _row_line("{", ["0.5"] * VISION_DIM),
    # the last token ends 8 bytes before "]", too close for the fast path
    _row_line(_HEAD, ["-0.123456", "0.654321"] * (VISION_DIM // 2)),
], ids=["empty", "crlf", "spaces", "row", "empty_head", "short_tail"])
def test_the_native_row_reader_keeps_blank_lines_and_errors(raw):
    assert _parsed(raw, _row_reader()) == _parsed(raw, None)


def test_the_row_reader_reads_no_byte_past_its_length():
    """Cut anywhere, a list of six-decimal numbers reads as the numbers
    json reads from the cut text, or is refused where json refuses it or
    it is empty, whatever bytes follow the cut: the reader never looks
    past the length it is given."""
    numbers = _row_reader()
    text = b", ".join([b"0.123456", b"-9.999999", b"0.5", b"1.23456"] * 4)
    out = np.empty(64)
    for n in range(len(text) + 1):
        try:
            want = json.loads(b"[" + text[:n] + b"]") or -1
        except ValueError:
            want = -1
        for after in (text[n:], b"7" * 16, b", 0.123456" * 2):
            line = text[:n] + after
            got = numbers(line, n, out.ctypes.data, out.size)
            assert (got if got < 0 else out[:got].tolist()) == want, (n, after)


def test_a_line_longer_than_the_read_buffer_reads_as_json_reads_it(tmp_path):
    """A row whose report alone is several times load_manifest's read
    buffer loads to the sample json reads from it."""
    path = tmp_path / "m.jsonl"
    text = "Findings: " + "clear lungs, " * 250_000
    tokens = [repr((i * 7_919 % 2_000_001 - 1_000_000) / 1e6) for i in range(VISION_DIM)]
    raw = _row_line(json.dumps(dict(_HEAD_REC, id="b", text=text), sort_keys=True)[:-1],
                    tokens)
    assert len(raw) > 10 * data._READ_BUFFER
    path.write_bytes(_row_line(_HEAD, ["0.5"] * VISION_DIM) + b"\n" + raw + b"\n")
    [_, sample] = load_manifest(path)
    assert _fields(sample) == _parsed(raw, None)


def test_each_special_token_reads_as_json_reads_it():
    """Each token of the grammar's special list, alone in a row of 0.5s or
    filling it, gives what json gives."""
    numbers = _row_reader()
    for tok in _SPECIAL_TOKENS:
        for tokens in (["0.5"] * 100 + [tok] + ["0.5"] * (VISION_DIM - 101),
                       [tok] * VISION_DIM):
            raw = _row_line(_HEAD, tokens)
            assert _parsed(raw, numbers) == _parsed(raw, None), tok


def test_generated_rows_are_read_without_json(tmp_path, monkeypatch):
    """Every row the writer writes is read by the native reader: json never
    reads its features."""
    _row_reader()
    path = tmp_path / "m.jsonl"
    samples = generate_synthetic(n_patients=30, seed=4)
    save_manifest(path, samples)

    def refuse(feats):
        raise AssertionError("features read by json")

    monkeypatch.setattr(data, "_vision_floats", refuse)
    assert [_fields(s) for s in load_manifest(path)] == [_fields(s) for s in samples]


def test_manifest_bytes_deterministic(tmp_path):
    samples = generate_synthetic(n_patients=6, seed=30)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_manifest(p1, samples)
    save_manifest(p2, samples)
    assert p1.read_bytes() == p2.read_bytes()


def test_label_matrix_shape_and_dtype():
    samples = generate_synthetic(n_patients=5, seed=1)
    mat = label_matrix(samples)
    assert mat.shape == (len(samples), len(LABELS))
    assert mat.dtype == np.int64
    assert set(np.unique(mat)) <= {0, 1}


def test_round6_equals_round_on_every_element():
    """The vectorized rounding of synthetic features equals round(x, 6) bit
    for bit, on exact decimal ties and their neighbours too."""
    rng = np.random.default_rng(5)
    ties = (rng.integers(-30_000_000, 30_000_000, 20_000) + 0.5) / 1e6
    x = np.concatenate([rng.normal(0, 3, 50_000), ties, np.nextafter(ties, np.inf),
                        np.nextafter(ties, -np.inf),
                        [0.0, -0.0, -1e-9, 5e-7, -5e-7, 2.5e-6, 1e20, -3e15]])
    expected = np.array([round(float(v), 6) for v in x])
    assert _round6(x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("token", ["1e400", "-1e999"])
def test_manifest_refuses_a_number_beyond_the_float_range(tmp_path, token):
    """json reads such a number as an infinite float."""
    path = tmp_path / "m.jsonl"
    head = json.dumps({"id": "a", "labels": [0] * len(LABELS), "patient_id": "p",
                       "text": "t"})
    path.write_text(head[:-1] + ', "vision_features": [' + ", ".join(
        ["0.5"] * 100 + [token] + ["0.5"] * 1947) + "]}\n")
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert str(exc.value) == f"{path}:1: vision_features must be 2048 finite numbers"


# ------------------------------------------------------------------ writer


def _oracle_manifest(samples) -> bytes:
    """The manifest as json.dumps writes each record with sorted keys."""
    lines = []
    for s in samples:
        rec = {"id": s.id, "patient_id": s.patient_id, "text": s.text,
               "labels": s.labels}
        if s.vision_features is not None:
            rec["vision_features"] = s.vision_features.tolist()
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines).encode("utf-8")


# 6-decimal values on both sides of every edge of the row writer:
# zero and its sign, 1e-4 (below it repr writes an exponent), 1e9, and the
# carries of the last fraction digit
_EDGE_VALUES = [0.0, -0.0, 1e-4, -1e-4, 5e-05, -5e-05, 1e-06, 9.9e-05, 0.000101,
                999.999999, -999.999999, 999999999.999999, 1e9, -1e9, 1e9 + 0.5,
                123456789.123456, 0.5, -7.0, 10.0, 100.000001, 0.100001]
_SIX_DECIMALS = st.integers(0, 15).flatmap(
    lambda p: st.integers(-10**p, 10**p)).map(lambda k: k / 1e6)
_OTHER_FLOATS = st.one_of(
    st.sampled_from([0.1 + 0.2, 1 / 3, math.nan, math.inf, -math.inf, 5e-324,
                     1e300, -2.5e-7, np.nextafter(1e-4, 1.0)]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _feature_rows(draw):
    row = draw(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), _SIX_DECIMALS),
                        min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        row.insert(draw(st.integers(0, len(row))), draw(_OTHER_FLOATS))
    return np.array(row)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(st.none(), _feature_rows()), min_size=1, max_size=5),
       text=st.text(max_size=12))
def test_save_manifest_writes_the_json_dumps_bytes(tmp_path_factory, rows, text):
    """With the native row writer, where it loads, and with json alone."""
    samples = [Sample(id=f"s{i}", patient_id=f"p{i}", text=text,
                      labels=[i % 2] * len(LABELS), vision_features=row)
               for i, row in enumerate(rows)]
    path = tmp_path_factory.mktemp("writer") / "m.jsonl"
    for fmt in (_native.function("format_six_decimals"), None):
        with pytest.MonkeyPatch.context() as m:
            m.setitem(_native._functions, "format_six_decimals", fmt)
            save_manifest(path, samples)
        assert path.read_bytes() == _oracle_manifest(samples)


def _row_writer():
    """The native row writer; skips the test where this host cannot build or
    load it."""
    fmt = _native.function("format_six_decimals")
    if fmt is None:
        pytest.skip("the native row writer cannot be built or loaded here")
    return fmt


def _written(x: np.ndarray, cap=None) -> str | None:
    """The text the native row writer gives for the float64 row `x` in a
    buffer of `cap` bytes (default the 2 + 19 per value that always hold
    it); None where it refuses the row. Not a byte past `cap` is written."""
    assert x.dtype == np.float64 and x.ndim == 1 and x.flags.c_contiguous
    cap = 2 + 19 * x.size if cap is None else cap
    buf = np.full(cap + 64, ord("#"), np.uint8)
    n = _row_writer()(x.ctypes.data, x.size, buf.ctypes.data, cap)
    assert (buf[cap:] == ord("#")).all()
    return None if n < 0 else buf[:n].tobytes().decode("ascii")


@pytest.mark.parametrize("row, fast", [
    ([0.0, -0.0, 1e-4, -1e-4, 999.999999, 999999999.999999, -12.5], True),
    ([0.5, 5e-07], False),                 # below 1e-6
    ([0.5, 1e9], False),                   # at or beyond 1e9
    ([0.5, 0.1 + 0.2], False),             # not a 6-decimal number
    ([0.5, math.nan], False), ([math.inf], False), ([-math.inf, 0.5], False),
    ([0.5, 5e-05, -1.5e-05, 1e-06], True),  # repr writes exponents
])
def test_six_decimal_rows_take_the_array_path(row, fast):
    """The native row writer writes a row of 6-decimal values as json.dumps
    does and refuses every other row."""
    got = _written(np.array(row))
    assert (got is not None) == fast
    if fast:
        assert got == json.dumps(row)


def test_generated_rows_take_the_array_path():
    """The native row writer writes every generated row, the rows with a
    value below 1e-4 too."""
    samples = generate_synthetic(n_patients=40, seed=8)
    assert any(((np.abs(s.vision_features) < 1e-4) & (s.vision_features != 0)).any()
               for s in samples)
    for s in samples:
        assert _written(s.vision_features) == json.dumps(s.vision_features.tolist())


def test_the_row_writer_refuses_a_buffer_it_might_overflow():
    """A buffer shorter than the longest text the row's length allows is
    refused and not written past, even where this row's text would fit."""
    longest = np.full(5, -999999999.999999)
    text = json.dumps(longest.tolist())
    assert _written(longest, cap=len(text)) == text
    assert _written(longest, cap=len(text) - 1) is None
    assert _written(np.array([0.5, 7.0]), cap=len("[0.5, 7.0]")) is None
    assert _written(np.array([]), cap=2) == "[]"
    assert _written(np.array([]), cap=1) is None


def test_every_exponent_form_matches_json_dumps():
    """Each k/1e6 with 1 <= |k| < 100, where repr writes an exponent, mixed
    into rows of ordinary 6-decimal values, reads as json.dumps writes it."""
    rng = np.random.default_rng(41)
    small = np.array([k / 1e6 for k in range(-99, 100) if k])
    for width in (1, 3, 9):
        ordinary = rng.integers(-10 ** width, 10 ** width, small.size) / 1e6
        for row in (small, np.stack([ordinary, small], axis=1).ravel(),
                    np.concatenate([small[::-1], ordinary, [0.0, -0.0]])):
            assert _written(row) == json.dumps(row.tolist())
        for x in small:
            assert _written(np.array([x])) == json.dumps([x])


# Digests of manifests written by the generator and writer before either was
# vectorized; a change to the draws or to the number format moves them.
GEN_DATA_12_SEED_9_SHA256 = \
    "754853d47d7d3e8fe52819c7400a2f6da8b5cf8e1f7cc875a77836df82d14a59"
PLANNED_60_SEED_5_SHA256 = \
    "73a64da70966b5fe9571f0178876c495ac913f882c056984fcd25810040014e7"


def test_gen_data_manifest_keeps_its_digest(tmp_path):
    path = tmp_path / "gen.jsonl"
    assert main(["gen-data", "--patients", "12", "--seed", "9", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_DATA_12_SEED_9_SHA256


def test_planned_leaky_manifest_keeps_its_digest(tmp_path):
    plan = {"Cardiomegaly": "vision", "Effusion": "text", "Edema": "both",
            "Hernia": "none"}
    path = tmp_path / "planned.jsonl"
    save_manifest(path, generate_synthetic(60, seed=5, leak_prob=0.9,
                                           pad_findings_to=12, signal_plan=plan))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PLANNED_60_SEED_5_SHA256
