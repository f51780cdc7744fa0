"""Utterance manifests: TAB-separated `id<TAB>path[<TAB>frames]` records.

Record order is significant and preserved through parsing and slicing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ManifestError
from .rng import RngState, uniform


@dataclass(frozen=True)
class ManifestRecord:
    utterance_id: str
    path: str
    num_frames: int | None = None


@dataclass(frozen=True)
class Manifest:
    records: tuple[ManifestRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


#: Substrings an utterance id may not contain: the id names the record's output
#: files, so these would let it reach outside the output directory.
_UNSAFE_ID_PARTS = ("/", "\\", "\0", "..")


def parse_manifest(text: str) -> Manifest:
    """Parse manifest text; `#` lines and blank lines are skipped.

    Malformed lines, duplicate ids and ids that contain `/`, `\\`, NUL or
    `..` raise ManifestError naming the line.
    """
    records: list[ManifestRecord] = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise ManifestError(f"line {lineno}: expected 2 or 3 tab-separated fields, got {len(fields)}")
        utterance_id, path = fields[0], fields[1]
        if not utterance_id or not path:
            raise ManifestError(f"line {lineno}: empty id or path")
        if any(part in utterance_id for part in _UNSAFE_ID_PARTS):
            raise ManifestError(
                f"line {lineno}: utterance id {utterance_id!r} contains a path separator, '..' or NUL"
            )
        num_frames = None
        if len(fields) == 3:
            try:
                num_frames = int(fields[2])
            except ValueError:
                raise ManifestError(f"line {lineno}: frame count {fields[2]!r} is not an integer") from None
            if num_frames < 0:
                raise ManifestError(f"line {lineno}: frame count must be nonnegative, got {num_frames}")
        if utterance_id in seen:
            raise ManifestError(
                f"line {lineno}: duplicate utterance id {utterance_id!r} (first seen on line {seen[utterance_id]})"
            )
        seen[utterance_id] = lineno
        records.append(ManifestRecord(utterance_id=utterance_id, path=path, num_frames=num_frames))
    return Manifest(records=tuple(records))


def format_manifest(manifest: Manifest) -> str:
    """Inverse of parse_manifest (modulo comments and blank lines)."""
    lines = []
    for rec in manifest.records:
        if rec.num_frames is None:
            lines.append(f"{rec.utterance_id}\t{rec.path}")
        else:
            lines.append(f"{rec.utterance_id}\t{rec.path}\t{rec.num_frames}")
    return "".join(line + "\n" for line in lines)


def slice_manifest(
    manifest: Manifest, fractions: Sequence[float | Fraction], seed: int
) -> list[Manifest]:
    """Nested random subsets: shuffle once, then take a ceil(fraction*N) prefix per fraction.

    Fractions must be ascending and in (0, 1]; smaller slices are prefixes of
    larger ones.  Pass Fraction values to keep the ceil arithmetic exact.
    """
    if not fractions:
        raise ValueError("need at least one fraction")
    for frac in fractions:
        if not 0 < frac <= 1:
            raise ValueError(f"fractions must be in (0, 1], got {frac}")
    if list(fractions) != sorted(fractions):
        raise ValueError(f"fractions must be ascending, got {list(fractions)}")

    shuffled = list(manifest.records)
    rng = RngState(seed)
    for i in range(len(shuffled) - 1, 0, -1):  # Fisher-Yates
        j, rng = uniform(rng, i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    return [Manifest(records=tuple(shuffled[: math.ceil(frac * len(shuffled))])) for frac in fractions]
