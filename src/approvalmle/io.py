"""On-disk formats: dataset documents, parameter files, reports.

Two dataset encodings are supported and round-trip losslessly:

* JSON document with keys ``alternatives`` (list of ids), ``voters`` (list of
  ids), ``instances`` (list of ``{"id":..., "ballots": {voter_id: [alt_id]}}``)
  and an optional ``ground_truth`` map from instance id to a list of
  alternative ids.
* Long-form CSV with header ``instance_id,voter_id,alternative_id,approved``
  and one 0/1 row per (instance, voter, alternative) cell, for spreadsheet
  interoperability.  Declaration order follows first appearance.  Ground truth
  does not fit this shape and travels in the JSON format only.

In the JSON format a ballots map may omit voters; unless strict mode is on,
omitted voters get an empty ballot and a warning.
"""

from __future__ import annotations

import collections
import csv
import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from .model import GroundTruth, ParamVector, Profile, approval_matrix


class DatasetFormatError(ValueError):
    """The file cannot be interpreted as a dataset document."""


def _truth_tuple(profile: Profile, truth_map: dict) -> GroundTruth:
    unknown = set(truth_map) - set(profile.instance_ids)
    if unknown:
        raise DatasetFormatError(
            f"ground_truth names unknown instances: {sorted(unknown)}"
        )
    index = {aid: j for j, aid in enumerate(profile.alternative_ids)}
    truths = []
    for zid in profile.instance_ids:
        ids = truth_map.get(zid, [])
        try:
            truths.append(frozenset(index[aid] for aid in ids))
        except KeyError as exc:
            raise DatasetFormatError(
                f"ground_truth of instance {zid!r} names unknown alternative {exc}"
            ) from None
    return tuple(truths)


def _read_json_object(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path} does not contain a JSON object")
    return doc


def load_dataset(path, strict: bool = False):
    """Read a dataset file (JSON or CSV by extension).

    Returns ``(profile, ground_truth_or_None)``.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return load_profile_csv(path), None
    return parse_dataset(_read_json_object(path), strict=strict)


def parse_dataset(doc: dict, strict: bool = False):
    """Build a profile (and optional ground truth) from a dataset document."""
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
    profile = Profile(alt_ids, voter_ids, instance_ids, approvals)
    truths = None
    if "ground_truth" in doc and doc["ground_truth"] is not None:
        truths = _truth_tuple(profile, doc["ground_truth"])
    return profile, truths


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


def save_dataset(path, profile: Profile, ground_truth: GroundTruth | None = None):
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


CSV_HEADER = ["instance_id", "voter_id", "alternative_id", "approved"]


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


def _first_appearance_index() -> dict:
    """Dict that gives each new key the next index, 0, 1, 2, ..., on lookup."""
    return collections.defaultdict(itertools.count().__next__)


def load_profile_csv(path) -> Profile:
    """Read a long-form CSV; declaration order is order of first appearance.

    A cell without a row is not approved; a cell with several rows takes the
    value of its last row.
    """
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


def load_params(path) -> ParamVector:
    """Read initial parameters from a JSON file with keys p, q, t."""
    doc = _read_json_object(path)
    missing = [key for key in ("p", "q", "t") if key not in doc]
    if missing:
        raise DatasetFormatError(f"parameter file lacks keys {missing}")
    for key in ("p", "q", "t"):
        # ParamVector alone would parse "0.6" and read true as 1.0
        if not isinstance(doc[key], list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in doc[key]
        ):
            raise DatasetFormatError(f"{path}: {key} must be a list of JSON numbers")
    try:
        return ParamVector(doc["p"], doc["q"], doc["t"])
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def save_params(path, params: ParamVector) -> None:
    doc = {"p": params.p.tolist(), "q": params.q.tolist(), "t": params.t.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_assignment(path):
    """Read instance->set assignments for evaluation.

    Accepts a run report (uses its ``estimates``), a dataset document
    (uses its ``ground_truth``), or a bare ``{instance_id: [alt_id]}`` map.
    Returns ``(assignment_map, alternative_ids_or_None)``.
    """
    doc = _read_json_object(path)
    key = next((key for key in ("estimates", "ground_truth") if key in doc), None)
    mapping = doc if key is None else doc[key]
    if not isinstance(mapping, dict) or not all(
        isinstance(ids, list) and all(isinstance(a, str) for a in ids)
        for ids in mapping.values()
    ):
        raise DatasetFormatError(
            f"{path}: {'the file' if key is None else repr(key)} must map instance "
            "ids to lists of alternative id strings"
        )
    alternatives = None if key is None else doc.get("alternatives")
    if alternatives is not None and not isinstance(alternatives, list):
        raise DatasetFormatError(f"{path}: 'alternatives' must be a list of ids")
    if key == "ground_truth" and "instances" in doc:
        alternatives = list(map(str, alternatives or [])) or None
    return dict(mapping), alternatives
