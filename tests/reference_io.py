"""Frozen row-by-row reference readers and writers for the two dataset formats.

``parse_dataset`` reads a dataset document ballot by ballot, and
``load_profile_csv`` reads a long-form CSV row by row with ``csv.reader``
into a dict of cells.  These were the package's readers before it read
whole instances and whole files at once.  ``save_dataset`` writes a
dataset with ``json.dump(..., indent=2)`` or, through ``save_profile_csv``,
with one ``csv.writer`` row per cell: the package's writers before it
encoded each id once and rendered each distinct ballot once.  The
differential tests in ``test_io_differential`` compare the package with
them.

Do not optimise or refactor this module: it is the slow, obvious version
that the package's readers and writer are checked against.  Only the plain
data types, ``DatasetFormatError`` and ``dataset_document`` come from the
package; the JSON document's ground truth is left out of the reader, as it
is read by code the readers share.
"""

from __future__ import annotations

import collections
import csv
import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from approvalmle.io import CSV_HEADER, DatasetFormatError
from approvalmle.model import GroundTruth, Profile, approval_matrix


def parse_dataset(doc: dict, strict: bool = False) -> Profile:
    """The profile of a dataset document, read one ballot at a time."""
    if not isinstance(doc, dict):
        raise DatasetFormatError("dataset document must be a JSON object")
    for key in ("alternatives", "voters", "instances"):
        if key not in doc:
            raise DatasetFormatError(f"dataset document lacks the {key!r} key")
        if not isinstance(doc[key], list):
            raise DatasetFormatError(
                f"dataset document: {key!r} must be a list, got {type(doc[key]).__name__}"
            )

    alt_ids = [str(a) for a in doc["alternatives"]]
    voter_ids = [str(v) for v in doc["voters"]]
    index = {aid: j for j, aid in enumerate(alt_ids)}
    declared = set(voter_ids)

    instance_ids = []
    ballots = []  # one list of alternative indices per (instance, voter)
    for pos, entry in enumerate(doc["instances"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise DatasetFormatError(
                f"instance entry {pos} must be an object with an 'id' key, got {entry!r}"
            )
        zid = str(entry["id"])
        ballots_map = entry.get("ballots", {})
        if not isinstance(ballots_map, dict):
            raise DatasetFormatError(
                f"instance {zid!r}: ballots must map voter ids to lists of alternatives"
            )
        unknown_voters = ballots_map.keys() - declared
        if unknown_voters:
            raise DatasetFormatError(
                f"instance {zid!r} has ballots for undeclared voters "
                f"{sorted(unknown_voters)}"
            )
        if len(ballots_map) < len(declared):
            missing = [v for v in voter_ids if v not in ballots_map]
            if strict:
                raise DatasetFormatError(
                    f"instance {zid!r} omits ballots for voters {missing}"
                )
            warnings.warn(
                f"instance {zid!r} omits ballots for {len(missing)} voter(s); "
                "treating them as empty",
                stacklevel=2,
            )
        for vid in voter_ids:
            approved = ballots_map.get(vid, [])
            if not isinstance(approved, list):
                raise DatasetFormatError(
                    f"instance {zid!r}, voter {vid!r}: a ballot must be a list of "
                    f"alternative ids, got {approved!r}"
                )
            try:
                ballots.append([index[str(a)] for a in approved])
            except KeyError as exc:
                raise DatasetFormatError(
                    f"instance {zid!r}, voter {vid!r} approves unknown "
                    f"alternative {exc}"
                ) from None
        instance_ids.append(zid)

    shape = (len(instance_ids), len(voter_ids), len(alt_ids))
    approvals = approval_matrix(ballots, len(alt_ids)).reshape(shape)
    return Profile(alt_ids, voter_ids, instance_ids, approvals)


def _first_appearance_index() -> dict:
    """Dict that gives each new key the next index, 0, 1, 2, ..., on lookup."""
    return collections.defaultdict(itertools.count().__next__)


def load_profile_csv(path) -> Profile:
    """The profile of a long-form CSV, read one row at a time."""
    instance_ids = _first_appearance_index()
    voter_ids = _first_appearance_index()
    alt_ids = _first_appearance_index()
    cells: dict = {}  # (instance, voter, alternative) index -> approved
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise DatasetFormatError(
                f"expected CSV header {CSV_HEADER}, got {header}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise DatasetFormatError(f"malformed CSV row: {row}")
            zid, vid, aid, approved = row
            if approved not in ("0", "1"):
                raise DatasetFormatError(
                    f"approved must be 0 or 1, got {approved!r} in row {row}"
                )
            cells[instance_ids[zid], voter_ids[vid], alt_ids[aid]] = approved == "1"
    if not cells:
        raise DatasetFormatError("empty CSV dataset")
    indices = np.fromiter(itertools.chain.from_iterable(cells), np.intp).reshape(-1, 3)
    approvals = np.zeros((len(instance_ids), len(voter_ids), len(alt_ids)), dtype=bool)
    approvals[tuple(indices.T)] = np.fromiter(cells.values(), bool, len(cells))
    return Profile(alt_ids, voter_ids, instance_ids, approvals)


def dataset_document(profile: Profile, ground_truth: GroundTruth | None = None) -> dict:
    """Serialize a profile (and optional ground truth) to a dataset document."""
    alt_ids = list(profile.alternative_ids)
    doc = {
        "alternatives": alt_ids,
        "voters": list(profile.voters),
        "instances": [
            {
                "id": zid,
                "ballots": {
                    vid: list(itertools.compress(alt_ids, row))
                    for vid, row in zip(profile.voters, rows)
                },
            }
            for zid, rows in zip(profile.instance_ids, profile.approvals.tolist())
        ],
    }
    if ground_truth is not None:
        doc["ground_truth"] = {
            zid: [alt_ids[j] for j in sorted(truth)]
            for zid, truth in zip(profile.instance_ids, ground_truth)
        }
    return doc


def save_dataset(path, profile: Profile, ground_truth=None):
    """Write a dataset as JSON, or as the long-form CSV for a ``.csv`` path."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if ground_truth is not None:
            raise DatasetFormatError(
                "the long-form CSV carries ballots only; write ground truth "
                "to the JSON format"
            )
        save_profile_csv(path, profile)
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_document(profile, ground_truth), fh, indent=2)
        fh.write("\n")


def save_profile_csv(path, profile: Profile) -> None:
    """Write the full dense (instance, voter, alternative) grid as 0/1 rows."""
    alt_ids = list(profile.alternative_ids)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for zid, rows in zip(profile.instance_ids, profile.approvals.tolist()):
            for vid, row in zip(profile.voters, rows):
                for aid, approved in zip(alt_ids, row):
                    writer.writerow([zid, vid, aid, int(approved)])
