"""Dataset manifests, patient-level splits, and the planted-signal generator.

Manifests are JSONL: one object per line with
{id, patient_id, text, labels:[14 x {0,1}], vision_features:[2048]?}.
Label order is part of the file contract. In memory a sample's
vision_features is a read-only float64 array of shape (2048,) of finite
values. A line is written as json.dumps(record, sort_keys=True) writes it.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import _native
from . import autodiff as ad
from .errors import ConfigError, InputError, ParseError

LABELS = [
    "Atelectasis", "Cardiomegaly", "Effusion", "Infiltration", "Mass",
    "Nodule", "Pneumonia", "Pneumothorax", "Consolidation", "Edema",
    "Emphysema", "Fibrosis", "Pleural Thickening", "Hernia",
]

# Corpus-level prevalence per label, in LABELS order.
DEFAULT_PREVALENCE = [0.125, 0.109, 0.231, 0.069, 0.033, 0.057, 0.087,
                      0.017, 0.014, 0.073, 0.043, 0.029, 0.034, 0.008]

NUM_LABELS = len(LABELS)
VISION_DIM = 2048
SIGNAL_CHANNELS = ("vision", "text", "both", "none")


@dataclass
class Sample:
    id: str
    patient_id: str
    text: str
    labels: list[int]
    vision_features: np.ndarray | None = None


def _round6(x: np.ndarray) -> np.ndarray:
    """round(float(v), 6) of every element of x, in one vectorized pass.

    k = rint(x*1e6) is the correctly rounded integer unless x*1e6 lies
    within its own rounding error of a half; those elements, and exact ties
    (which round() breaks on the decimal value), go through round(). Then
    k/1e6 is the double nearest to k/10**6, which is what round() returns.
    """
    scaled = x * 1e6
    k = np.rint(scaled)
    out = k / 1e6
    near_half = np.abs(np.abs(scaled - k) - 0.5) <= np.maximum(1e-6, np.spacing(scaled))
    for i in np.flatnonzero(near_half):
        out[i] = round(float(x[i]), 6)
    return out


def _read_only(values) -> np.ndarray:
    """`values` as a float64 array that cannot be written to."""
    arr = np.asarray(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


SPLIT_FRACTIONS = (0.70, 0.15, 0.15)  # train, val, test


@dataclass
class SplitSpec:
    seed: int = 0


def split_patients(samples, spec: SplitSpec):
    """Patient-disjoint train/val/test partition in SPLIT_FRACTIONS, shuffled
    by `spec.seed`, with largest-remainder rounding.

    Remainder ties go to the earlier split (train, then val, then test).
    """
    by_patient: dict[str, list] = {}
    for s in samples:
        if not s.patient_id:
            raise InputError(f"sample {s.id} has an empty patient_id")
        by_patient.setdefault(s.patient_id, []).append(s)
    patients = list(by_patient)
    if len(patients) < 3:
        raise InputError(f"need at least 3 patients to split, got {len(patients)}")

    n = len(patients)
    quotas = [f * n for f in SPLIT_FRACTIONS]
    counts = [int(q) for q in quotas]
    seats = n - sum(counts)
    order = sorted(range(3), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:seats]:
        counts[i] += 1

    rng = ad.make_rng(spec.seed, "split")
    shuffled = [patients[i] for i in rng.permutation(n)]
    splits, lo = [], 0
    for c in counts:
        chunk = shuffled[lo:lo + c]
        splits.append([s for pid in chunk for s in by_patient[pid]])
        lo += c
    return tuple(splits)


# -- synthetic generator -------------------------------------------------------

_FILLER_SENTENCES = [
    "Heart size and mediastinal contours are stable.",
    "Lungs are adequately inflated.",
    "The trachea is midline.",
    "Osseous structures are intact.",
    "No acute osseous abnormality.",
    "The cardiomediastinal silhouette is unremarkable.",
]

# Canonical mention term plus one synonym per label, in LABELS order.
_TERMS = [
    ("atelectasis", "subsegmental atelectasis"),
    ("cardiomegaly", "enlarged heart"),
    ("effusion", "pleural fluid"),
    ("infiltration", "infiltrate"),
    ("mass", "mass lesion"),
    ("nodule", "nodular density"),
    ("pneumonia", "airspace disease"),
    ("pneumothorax", "apical pneumothorax"),
    ("consolidation", "lobar consolidation"),
    ("edema", "pulmonary edema"),
    ("emphysema", "hyperinflation"),
    ("fibrosis", "fibrotic change"),
    ("pleural thickening", "pleural scarring"),
    ("hernia", "hiatal hernia"),
]

# Label-neutral pathology mentions used to pad every report to a constant
# number of maskable findings.
DISTRACTOR_TERMS = ["granuloma", "calcification", "opacity", "scoliosis",
                    "tortuous aorta", "degenerative changes", "bony island",
                    "azygos lobe"]


_SIDES = ["left", "right", "bilateral"]
_REGIONS = ["base", "apex", "lobe"]


def _pick(options: list[str], rng) -> str:
    """The option that rng.choice(options) draws, from the same one integer
    draw, without converting the list to an array on every call."""
    return options[rng.integers(len(options))]


def _mention_sentence(term: str, rng) -> str:
    loc = f"{_pick(_SIDES, rng)} {_pick(_REGIONS, rng)}"
    style = rng.integers(0, 3)
    if style == 0:
        return f"There is {term} at the {loc}."
    if style == 1:
        size = round(float(rng.uniform(0.5, 6.0)), 1)
        return f"{term.capitalize()} at the {loc} measuring {size} cm."
    return f"Findings consistent with {term}."


def generate_synthetic(n_patients: int, prevalence_profile=None, signal_plan=None,
                       seed: int = 0, leak_prob: float = 0.9,
                       pad_findings_to: int = 6,
                       signal_strength: float = 2.0) -> list[Sample]:
    """Desk-scale corpus with label signal planted in chosen channels.

    Each report opens with two filler sentences.

    signal_plan maps each label name to vision/text/both/none (default both).
    Text-assigned labels leak their canonical mention term with probability
    leak_prob and, independently, a synonym with the same probability. Reports
    are padded with label-neutral pathology mentions to a constant count so
    masking them leaves no residual count signal.
    """
    if n_patients < 1:
        raise ConfigError(f"need at least 1 patient, got {n_patients}")
    if not 0.0 <= leak_prob <= 1.0:  # NaN fails the comparison too
        raise ConfigError(f"leak probability must lie in [0, 1], got {leak_prob}")
    prev = list(DEFAULT_PREVALENCE if prevalence_profile is None else prevalence_profile)
    if len(prev) != NUM_LABELS:
        raise ConfigError(f"prevalence profile must have {NUM_LABELS} entries")
    if any(p <= 0.0 or p >= 1.0 for p in prev):
        raise ConfigError("prevalences must lie strictly inside (0, 1)")
    plan = {name: "both" for name in LABELS}
    if signal_plan:
        for name, channel in signal_plan.items():
            if name not in plan:
                raise ConfigError(f"unknown label in signal plan: {name}")
            if channel not in SIGNAL_CHANNELS:
                raise ConfigError(f"unknown signal channel: {channel}")
            plan[name] = channel

    ds_rng = ad.make_rng(seed, "synthetic", "directions")
    directions = ds_rng.normal(0, 1, (NUM_LABELS, VISION_DIM))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    samples = []
    for pi in range(n_patients):
        rng = ad.make_rng(seed, "synthetic", "patient", pi)
        labels = (rng.random(NUM_LABELS) < np.asarray(prev)).astype(int)
        n_samples = 2 if rng.random() < 0.1 else 1
        for si in range(n_samples):
            srng = ad.make_rng(seed, "synthetic", "sample", pi, si)
            features = srng.normal(0, 1, VISION_DIM)
            for j, name in enumerate(LABELS):
                if labels[j] and plan[name] in ("vision", "both"):
                    features = features + signal_strength * directions[j]

            mentions = []
            for j, name in enumerate(LABELS):
                if labels[j] and plan[name] in ("text", "both"):
                    if srng.random() < leak_prob:
                        mentions.append(_TERMS[j][0])
                    if srng.random() < leak_prob:
                        mentions.append(_TERMS[j][1])
            while len(mentions) < pad_findings_to:
                mentions.append(_pick(DISTRACTOR_TERMS, srng))

            sentences = [_pick(_FILLER_SENTENCES, srng) for _ in range(2)]
            sentences += [_mention_sentence(m, srng) for m in mentions]
            samples.append(Sample(
                id=f"s{pi:05d}_{si}",
                patient_id=f"p{pi:05d}",
                text=" ".join(sentences),
                labels=[int(x) for x in labels],
                vision_features=_read_only(_round6(features)),
            ))
    return samples


# -- manifest io ----------------------------------------------------------------

_REQUIRED = ("id", "patient_id", "text", "labels")
_OPTIONAL = ("vision_features",)


def _vision_floats(feats) -> np.ndarray | None:
    """A manifest's vision_features as a read-only float64 array; None unless
    it is a list of VISION_DIM finite JSON numbers (a bool counts as an int;
    json reads NaN, Infinity and numbers beyond the float range as
    non-finite floats)."""
    if not isinstance(feats, list) or len(feats) != VISION_DIM:
        return None
    try:
        arr = np.frombuffer(array.array("d", feats))
    except (TypeError, OverflowError):
        return None  # a str, None, list or dict; an int beyond the float range
    arr = _read_only(arr)
    return arr if np.isfinite(arr).all() else None


def _sample(path, lineno: int, rec) -> Sample:
    """The sample of the JSON value `rec` read from manifest line `lineno`;
    ParseError unless it is an object holding exactly the manifest's fields,
    each valid."""
    if not isinstance(rec, dict):
        raise ParseError(f"{path}:{lineno}: a sample must be a JSON object")
    for key in _REQUIRED:
        if key not in rec:
            raise ParseError(f"{path}:{lineno}: missing field {key!r}")
    unknown = set(rec) - set(_REQUIRED) - set(_OPTIONAL)
    if unknown:
        raise ParseError(f"{path}:{lineno}: unknown fields {sorted(unknown)}")
    labels = rec["labels"]
    if (not isinstance(labels, list) or len(labels) != NUM_LABELS
            or any(v not in (0, 1) for v in labels)):
        raise ParseError(f"{path}:{lineno}: labels must be {NUM_LABELS} binary values")
    if not isinstance(rec["text"], str):
        raise ParseError(f"{path}:{lineno}: text must be a string")
    if not rec["patient_id"]:
        raise ParseError(f"{path}:{lineno}: empty patient_id")
    feats = rec.get("vision_features")
    if feats is not None:
        feats = _vision_floats(feats)
        if feats is None:
            raise ParseError(
                f"{path}:{lineno}: vision_features must be {VISION_DIM} finite numbers")
    return Sample(str(rec["id"]), str(rec["patient_id"]), rec["text"],
                  [int(v) for v in labels], feats)


def _parse_line(path, lineno: int, raw: bytes) -> Sample | None:
    """The sample on manifest line `lineno`, whose bytes are `raw`; None for
    a blank line.

    Where the native reader, `parse_numbers`, loaded, a line that has a head
    (`_head`) whose feature bytes it reads as VISION_DIM numbers is the
    head's sample with those numbers. That is the sample json reads from the
    whole line: the head holds every other field, and each number is the
    double float() gives its text. Every other line is read by json, so its
    errors are json's."""
    numbers = _native.function("parse_numbers")
    head = None if numbers is None else _head(raw)
    if head is not None:
        rec, start, end = head
        feats = np.empty(VISION_DIM)
        # the address of raw's own bytes: the list is read where it lies
        at = ctypes.cast(raw, ctypes.c_void_p).value + start
        if numbers(at, end - start, feats.ctypes.data, VISION_DIM) == VISION_DIM:
            sample = _sample(path, lineno, rec)
            sample.vision_features = _read_only(feats)
            return sample
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}:{lineno}: not UTF-8 ({e.reason})") from e
    if not line:
        return None
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as e:  # or an int too long to parse, or deep nesting
        why = e.msg if isinstance(e, json.JSONDecodeError) else e
        raise ParseError(f"{path}:{lineno}: invalid JSON ({why})") from e
    return _sample(path, lineno, rec)


def _samples(path, lines, parse) -> list[Sample]:
    """The samples of a manifest's lines (bytes, as iterating its file in
    binary mode yields them), each read by `parse(path, lineno, raw)`;
    sample ids must be unique (models cache frozen text features by id)."""
    samples = []
    id_line: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        sample = parse(path, lineno, raw)
        if sample is None:
            continue
        if sample.id in id_line:
            raise ParseError(f"{path}:{lineno}: duplicate sample id {sample.id!r} "
                             f"(first on line {id_line[sample.id]})")
        id_line[sample.id] = lineno
        samples.append(sample)
    return samples


def _hashed(lines, digest):
    """`lines`, each passed to `digest.update` as it is read."""
    for raw in lines:
        digest.update(raw)
        yield raw


# load_manifest's read buffer: a gen-data row is about 22 KB, so the default
# buffer splits each line over several reads that are joined again
_READ_BUFFER = 1 << 17


def load_manifest(path, digest=None) -> list[Sample]:
    """Samples of a JSONL manifest; every line is checked, and sample ids
    must be unique. `digest`, a hashlib object, is updated with every byte
    of the file."""
    with open(path, "rb", buffering=_READ_BUFFER) as f:
        return _samples(path, f if digest is None else _hashed(f, digest), _parse_line)


_FEATURES_KEY = b', "vision_features": ['
_SPACE = b" \t\n\r\x0b\x0c"  # what bytes.strip() strips


def _head(raw: bytes) -> tuple[dict, int, int] | None:
    """A manifest line's JSON object without its vision_features, read from
    the bytes before `, "vision_features": [`, and the start and end in
    `raw` of the bytes between that `[` and the line's closing `]}`; None
    unless the line ends in `]}`, no '"' follows that key, and those bytes
    closed by "}" are a non-empty object without vision_features, which
    makes that key its last one (after an empty one, `{, "vision_features":
    [...]}` is not JSON). No copy of the list is made."""
    end = len(raw)
    while end and raw[end - 1] in _SPACE:
        end -= 1
    at = raw.find(_FEATURES_KEY, 0, end)
    start = at + len(_FEATURES_KEY)
    if at < 0 or raw[end - 2:end] != b"]}" or raw.find(b'"', start, end) >= 0:
        return None
    try:
        rec = json.loads(raw[:at].decode("utf-8") + "}")
    # the key sat inside a nested value, not UTF-8, an int too long to parse,
    # or nesting too deep
    except (ValueError, RecursionError):
        return None
    if isinstance(rec, dict) and rec and "vision_features" not in rec:
        return rec, start, end - 2
    return None


def load_splits(path, spec: SplitSpec, sha256: str, scored):
    """split_patients(load_manifest(path), spec), with vision features read
    only for the splits indexed in `scored` (0 train, 1 validation, 2 test)
    when the file's SHA-256 is `sha256`.

    That digest is one that load_manifest took of a manifest it read whole
    and accepted. So on a match each line that has a head (`_head`) is
    checked from its head alone, and its sample has no vision_features
    unless its split is scored: a scored one is read again from its whole
    line. Any other line is read as load_manifest reads it. A file with
    another digest is read by load_manifest.
    """
    with open(path, "rb") as f:
        data = f.read()
    if hashlib.sha256(data).hexdigest() != sha256:
        del data  # so that it is not held while load_manifest reads the file
        return split_patients(load_manifest(path), spec)
    lines = io.BytesIO(data)
    spans = {}  # sample id -> (line number, start, end) of each line read from its head

    def parse(path, lineno, raw):
        head = _head(raw)
        if head is None:
            return _parse_line(path, lineno, raw)
        sample = _sample(path, lineno, head[0])
        end = lines.tell()
        spans[sample.id] = (lineno, end - len(raw), end)
        return sample

    def whole(sample):
        lineno, start, end = spans[sample.id]
        return _parse_line(path, lineno, data[start:end])

    splits = split_patients(_samples(path, lines, parse), spec)
    for i in scored:
        splits[i][:] = [whole(s) if s.id in spans else s for s in splits[i]]
    return splits


def save_manifest(path, samples):
    """Write samples as JSONL, each line the bytes of json.dumps(record,
    sort_keys=True): vision_features, when present, sorts last and is
    appended to the other fields' JSON.

    Where the native writer, `format_six_decimals`, loaded, a non-empty,
    1-D, C-contiguous float64 row of zeros and 6-decimal values (the rows
    gen-data makes) is written by it, and every other row by json."""
    fmt = _native.function("format_six_decimals")
    # room for VISION_DIM values; the writer refuses a longer row, which json writes
    buf = np.empty(2 + 19 * VISION_DIM, np.uint8)
    with open(path, "wb") as f:
        for s in samples:
            head = json.dumps({"id": s.id, "labels": s.labels,
                               "patient_id": s.patient_id, "text": s.text},
                              sort_keys=True)
            x = s.vision_features
            if x is None:
                f.write(f"{head}\n".encode())
                continue
            n = -1
            if (fmt is not None and x.dtype == np.float64 and x.ndim == 1 and x.size
                    and x.flags.c_contiguous):
                n = fmt(x.ctypes.data, x.size, buf.ctypes.data, buf.size)
            f.write(f'{head[:-1]}, "vision_features": '.encode())
            f.write(buf[:n] if n >= 0 else json.dumps(x.tolist()).encode())
            f.write(b"}\n")


def label_matrix(samples) -> np.ndarray:
    return np.asarray([s.labels for s in samples], dtype=np.int64)
