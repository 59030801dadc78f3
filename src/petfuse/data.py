"""Dataset manifests, patient-level splits, and the planted-signal generator.

Manifests are JSONL: one object per line with
{id, patient_id, text, labels:[14 x {0,1}], vision_features:[2048]?}.
Label order is part of the file contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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
    vision_features: list[float] | None = None

    def to_record(self) -> dict:
        rec = {"id": self.id, "patient_id": self.patient_id, "text": self.text,
               "labels": self.labels}
        if self.vision_features is not None:
            rec["vision_features"] = self.vision_features
        return rec


@dataclass
class SplitSpec:
    train: float = 0.70
    val: float = 0.15
    test: float = 0.15
    seed: int = 0

    def validate(self):
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")


def split_patients(samples, spec: SplitSpec):
    """Patient-disjoint train/val/test partition, largest-remainder rounding.

    Remainder ties go to the earlier split (train, then val, then test).
    """
    spec.validate()
    by_patient: dict[str, list] = {}
    for s in samples:
        if not s.patient_id:
            raise InputError(f"sample {s.id} has an empty patient_id")
        by_patient.setdefault(s.patient_id, []).append(s)
    patients = list(by_patient)
    if len(patients) < 3:
        raise InputError(f"need at least 3 patients to split, got {len(patients)}")

    n = len(patients)
    fractions = (spec.train, spec.val, spec.test)
    quotas = [f * n for f in fractions]
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


def _mention_sentence(term: str, rng) -> str:
    loc = f"{rng.choice(['left', 'right', 'bilateral'])} {rng.choice(['base', 'apex', 'lobe'])}"
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
                mentions.append(str(srng.choice(DISTRACTOR_TERMS)))

            sentences = [str(srng.choice(_FILLER_SENTENCES)) for _ in range(2)]
            sentences += [_mention_sentence(m, srng) for m in mentions]
            samples.append(Sample(
                id=f"s{pi:05d}_{si}",
                patient_id=f"p{pi:05d}",
                text=" ".join(sentences),
                labels=[int(x) for x in labels],
                vision_features=[round(float(x), 6) for x in features],
            ))
    return samples


# -- manifest io ----------------------------------------------------------------

_REQUIRED = ("id", "patient_id", "text", "labels")
_OPTIONAL = ("vision_features",)


def _vision_floats(feats) -> list[float] | None:
    """A manifest's vision_features as floats; None unless it is a list of
    VISION_DIM JSON numbers (a bool counts as an int)."""
    try:
        arr = np.array(feats)
    except ValueError:  # a ragged nested list
        return None
    if arr.dtype.kind in "biuf":
        return arr.astype(np.float64).tolist() if arr.shape == (VISION_DIM,) else None
    # an object or string array, e.g. one holding a None or an int beyond
    # 64 bits: element by element
    if not isinstance(feats, list) or len(feats) != VISION_DIM or not all(
            isinstance(v, (int, float)) for v in feats):
        return None
    try:
        return [float(v) for v in feats]
    except OverflowError:  # an int beyond the float range
        return None


def load_manifest(path) -> list[Sample]:
    """Samples of a JSONL manifest; every line is checked, and sample ids
    must be unique (models cache frozen text features by id)."""
    samples = []
    id_line: dict[str, int] = {}
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise ParseError(f"{path}:{lineno}: not UTF-8 ({e.reason})") from e
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
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
                raise ParseError(
                    f"{path}:{lineno}: labels must be {NUM_LABELS} binary values")
            if not isinstance(rec["text"], str):
                raise ParseError(f"{path}:{lineno}: text must be a string")
            if not rec["patient_id"]:
                raise ParseError(f"{path}:{lineno}: empty patient_id")
            feats = rec.get("vision_features")
            if feats is not None:
                feats = _vision_floats(feats)
                if feats is None:
                    raise ParseError(
                        f"{path}:{lineno}: vision_features must be {VISION_DIM} numbers")
            sid = str(rec["id"])
            if sid in id_line:
                raise ParseError(f"{path}:{lineno}: duplicate sample id {sid!r} "
                                 f"(first on line {id_line[sid]})")
            id_line[sid] = lineno
            samples.append(Sample(sid, str(rec["patient_id"]),
                                  rec["text"], [int(v) for v in labels],
                                  feats))
    return samples


def save_manifest(path, samples):
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            f.write(json.dumps(s.to_record(), sort_keys=True) + "\n")


def label_matrix(samples) -> np.ndarray:
    return np.asarray([s.labels for s in samples], dtype=np.int64)
