"""Synthetic corpus generation, patient-level splitting, and manifest IO."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petfuse.data import (DEFAULT_PREVALENCE, LABELS, Sample, SplitSpec,
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


# ------------------------------------------------------------------- split


def test_split_ten_patients_is_7_2_1():
    samples = _mk_samples(10)
    train, val, test = split_patients(samples, SplitSpec(0.70, 0.15, 0.15))
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
    train, val, test = split_patients(samples, SplitSpec(0.70, 0.15, 0.15))
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


def test_split_rejects_bad_fractions():
    with pytest.raises(ConfigError):
        split_patients(_mk_samples(5), SplitSpec(0.5, 0.2, 0.2))


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


# --------------------------------------------------------------- generator


def test_generate_deterministic_bytes():
    a = generate_synthetic(n_patients=25, seed=42)
    b = generate_synthetic(n_patients=25, seed=42)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.to_record() == y.to_record()


def test_generate_seed_sensitivity():
    a = generate_synthetic(n_patients=25, seed=1)
    b = generate_synthetic(n_patients=25, seed=2)
    assert any(x.to_record() != y.to_record() for x, y in zip(a, b))


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
    assert [s.to_record() for s in loaded] == [s.to_record() for s in samples]


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
    floats or bools, each converted with float(); None when rejected."""
    if not isinstance(feats, list) or len(feats) != 2048 or not all(
            isinstance(v, (int, float)) for v in feats):
        return None
    try:
        return [float(v) for v in feats]
    except OverflowError:
        return None


def _load_features(path, feats):
    rec = {"id": "a", "patient_id": "p", "text": "t", "labels": [0] * len(LABELS),
           "vision_features": feats}
    path.write_text(json.dumps(rec) + "\n")
    try:
        return load_manifest(path)[0].vision_features
    except ParseError as e:
        assert str(e) == f"{path}:1: vision_features must be 2048 numbers"
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
        assert all(type(v) is float for v in got)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("feats", [
    [[0.0] * 1024, [0.0] * 1023],     # ragged nesting: numpy raises ValueError
    [0.0] * 2047 + [None],            # an object row
    [0.0] * 2047 + [10**400],         # an int beyond the float range
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
