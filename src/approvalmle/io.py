"""On-disk formats: dataset documents, parameter files, reports.

Two dataset encodings are supported and round-trip losslessly:

* JSON document with keys ``alternatives`` (list of ids), ``voters`` (list of
  ids), ``instances`` (list of ``{"id":..., "ballots": {voter_id: [alt_id]}}``)
  and an optional ``ground_truth`` map from every instance id to a list of
  alternative ids.
* Long-form CSV with header ``instance_id,voter_id,alternative_id,approved``
  and one 0/1 row per (instance, voter, alternative) cell, for spreadsheet
  interoperability.  Declaration order follows first appearance.  Ground truth
  does not fit this shape and travels in the JSON format only.

In the JSON format a ballots map may omit voters; unless strict mode is on,
omitted voters get an empty ballot and a warning.  ``read_assignment`` reads
every instance->alternatives map (ground truth, ``evaluate``'s) to a truth array.

Ids are strings that UTF-8 can encode; a file's leading byte-order mark is
skipped.  ``save_dataset`` writes the bytes ``json.dump(..., indent=2)`` and
``csv.writer`` would write, from ids encoded once and each distinct ballot
rendered once, one instance block at a time.  It refuses a dataset that
would not read back as written, any other id included, before the file is
created.
"""

from __future__ import annotations

import codecs
import collections
import csv
import functools
import gc
import itertools
import json
import operator
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .model import (ParamVector, Profile, _unknown_members, approval_matrix, marked_rows,
                    profile_violations, read_only)


class DatasetFormatError(ValueError):
    """The file cannot be interpreted as a dataset document."""


def _is_assignment(mapping) -> bool:
    """True when ``mapping`` is a dict from ids to lists of id strings."""
    return isinstance(mapping, dict) and all(
        isinstance(ids, list) and all(isinstance(a, str) for a in ids)
        for ids in mapping.values()
    )


def read_assignment(mapping, instance_ids, alternative_ids, what: str) -> np.ndarray:
    """The read-only ``bool[L, m]`` array whose row z marks the alternatives,
    columns in ``alternative_ids`` order, that the ``{instance id: [alternative
    id]}`` map ``mapping``, named ``what``, gives the z-th of ``instance_ids``.
    DatasetFormatError refuses a map that is not one of id-string lists (as a
    dataset document's key), one whose instances are not exactly
    ``instance_ids``, and the first unknown alternative, naming its instance.
    """
    if not _is_assignment(mapping):
        raise DatasetFormatError(
            f"dataset document: {what!r} must map instance ids to lists of "
            "alternative id strings"
        )
    if mapping.keys() != set(instance_ids):
        unknown = sorted(mapping.keys() - set(instance_ids))
        omitted = [zid for zid in instance_ids if zid not in mapping]
        raise DatasetFormatError(
            f"{what} names unknown instances {unknown} and omits instances {omitted}"
        )
    index = {aid: j for j, aid in enumerate(alternative_ids)}
    rows = list(map(mapping.__getitem__, instance_ids))
    try:
        members = list(map(index.__getitem__, itertools.chain.from_iterable(rows)))
    except KeyError as exc:
        zid = next(zid for zid, row in zip(instance_ids, rows) if exc.args[0] in row)
        raise DatasetFormatError(
            f"{what} of instance {zid!r} names unknown alternative {exc}"
        ) from None
    return read_only(marked_rows(list(map(len, rows)), members, len(alternative_ids)))


def _read_json_object(path, read):
    """``read(doc)`` of the JSON object ``doc`` in the file ``path``, with
    the cyclic garbage collector paused from the decode until ``doc`` is
    released; DatasetFormatError refuses a file that is not UTF-8, not JSON
    or not an object.

    A decoded document is a tree of lists and dicts with no reference
    cycles, so the collections its allocations would trigger free nothing:
    decoding a 250-instance, 50-voter dataset (13,255 containers) ran 16 to
    18 young and 1 to 2 middle collections, every one freeing 0 objects.
    Pausing the decode alone would leave one young collection over the
    whole tree to the next allocation (1.2 to 2.5 ms); releasing the
    document under the pause takes its containers off the collector's
    count again.  With both, ``load_dataset`` of that file took 9.9 to 10.2
    ms against 11.1 to 12.3 ms (2-vCPU machine, Python 3.11.7).  The
    collector is enabled again afterwards only if it was enabled before.
    """
    with open(path, "rb") as fh:
        text = _utf8(fh.read().removeprefix(codecs.BOM_UTF8), path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the document lives only as read's argument, released before the finally
        return read(_json_object(text, path))
    finally:
        if enabled:
            gc.enable()


def _json_object(text: str, path) -> dict:
    """The JSON object ``text`` of the file ``path``, decoded."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer literal over Python's digit limit;
        # RecursionError is nesting deeper than the decoder's recursion
        raise DatasetFormatError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path} does not contain a JSON object")
    return doc


def load_dataset(path, strict: bool = False):
    """Read a dataset file (JSON or CSV by extension).

    Returns ``(profile, truth_array_or_None)``.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return load_profile_csv(path), None
    return _read_json_object(path, functools.partial(parse_dataset, strict=strict))


def parse_dataset(doc: dict, strict: bool = False):
    """Build a profile (and optional ``bool[L, m]`` ground truth) from a dataset document.

    The instances are read once, in document order, and the first anomaly
    raises DatasetFormatError where a ballot-by-ballot reading would meet
    it; an instance that omits voters warns first, or raises when strict.
    Within an instance, the ballots are gathered by voter id, in voter
    order, with one ``operator.itemgetter`` call when the ballots map has
    exactly the declared voters, and all their members are looked up in
    one sweep; on a 250-instance, 50-voter document the parse took 4.05 ms
    against 4.2 to 4.6 ms with a ``dict.get`` per voter.  ``load_dataset``
    runs it with the garbage collector paused, which is safe because the
    decoded tree has no cycles and collections over it free nothing.
    """
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
    # itemgetter of one key gives the bare value, and of none cannot be built
    gather = (operator.itemgetter(*voter_ids) if len(voter_ids) > 1
              else lambda ballots_map: tuple(map(ballots_map.__getitem__, voter_ids)))
    instance_ids, gathered, members = [], [], []
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
        if ballots_map.keys() == declared:
            ballots = gather(ballots_map)
        else:
            unknown_voters = ballots_map.keys() - declared
            if unknown_voters:
                raise DatasetFormatError(
                    f"instance {zid!r} has ballots for undeclared voters "
                    f"{sorted(unknown_voters)}"
                )
            missing = [v for v in voter_ids if v not in ballots_map]
            if strict:
                raise DatasetFormatError(f"instance {zid!r} omits ballots for voters {missing}")
            warnings.warn(
                f"instance {zid!r} omits ballots for {len(missing)} voter(s); "
                "treating them as empty",
                stacklevel=2,
            )
            ballots = list(map(ballots_map.get, voter_ids, itertools.repeat([])))
        if not all(map(isinstance, ballots, itertools.repeat(list))):
            _member_indices(zid, voter_ids, ballots, index)  # raises at the first bad one
        start = len(members)
        try:
            members += map(index.__getitem__, itertools.chain.from_iterable(ballots))
        except (KeyError, TypeError):
            # an unknown member, or one written as a JSON number, such as 1 for the id "1"
            del members[start:]
            members += _member_indices(zid, voter_ids, ballots, index)
        gathered.append(ballots)
        instance_ids.append(zid)

    shape = (len(instance_ids), len(voter_ids), len(alt_ids))
    sizes = np.fromiter(map(len, itertools.chain.from_iterable(gathered)), np.intp,
                        shape[0] * shape[1])
    members = np.fromiter(members, np.intp, len(members))
    approvals = marked_rows(sizes, members, len(alt_ids)).reshape(shape)
    truths = None
    if doc.get("ground_truth") is not None:
        truths = read_assignment(doc["ground_truth"], instance_ids, alt_ids, "ground_truth")
    return Profile(alt_ids, voter_ids, instance_ids, approvals), truths


def _member_indices(zid: str, voter_ids: list, ballots: list, index: dict) -> list:
    """The alternative indices of instance ``zid``'s ``ballots``, voter by
    voter, each member read as its ``str``; DatasetFormatError names the
    first ballot that is not a list or member that is not an alternative."""
    indices = []
    for vid, approved in zip(voter_ids, ballots):
        if not isinstance(approved, list):
            raise DatasetFormatError(
                f"instance {zid!r}, voter {vid!r}: a ballot must be a list of "
                f"alternative ids, got {approved!r}"
            )
        for aid in map(str, approved):
            if aid not in index:
                raise DatasetFormatError(
                    f"instance {zid!r}, voter {vid!r} approves unknown alternative {aid!r}"
                )
            indices.append(index[aid])
    return indices


def save_dataset(path, profile: Profile, ground_truth: np.ndarray | None = None):
    """Write a profile (and optional ``bool[L, m]`` ground truth) as JSON,
    or as the long-form CSV when ``path`` ends in ``.csv``.

    The bytes are those of ``json.dump(..., indent=2)`` on the dataset
    document and a newline, or of one ``csv.writer`` row per cell.  Each id is
    encoded once by the ``json`` or ``csv`` module, each distinct ballot is
    rendered once, and the file is written one instance at a time.  A
    dataset that would not read back as written (an id that is not a string
    UTF-8 can encode, and ``profile_violations``: repeated ids, a ground
    truth that is not a ``bool[L, m]`` array of the profile's shape) is
    refused with ValueError before the file is created.  A ground truth may
    also be one set of alternative indices in [0, m) per instance.
    """
    path = Path(path)
    is_csv = path.suffix.lower() == ".csv"
    if is_csv and ground_truth is not None:
        raise DatasetFormatError(
            "the long-form CSV carries ballots only; write ground truth "
            "to the JSON format"
        )
    unknown = []
    if ground_truth is not None and not isinstance(ground_truth, np.ndarray):
        # sets, because perfbench/workloads.py writes the ground truth of sample_dataset
        m, sets = profile.num_alternatives, tuple(ground_truth)
        bad = [_unknown_members(truth, m) for truth in sets]
        unknown = [f"ground truth of instance {zid!r} names unknown alternatives "
                   f"{sorted(b, key=str)}" for zid, b in zip(profile.instance_ids, bad) if b]
        ground_truth = approval_matrix([() if b else t for t, b in zip(sets, bad)], m)
    violations = profile_violations(profile, ground_truth) + unknown
    for name, ids in (("alternative", profile.alternative_ids), ("voter", profile.voters),
                      ("instance", profile.instance_ids)):
        try:
            "".join(ids).encode("utf-8")
        except (TypeError, UnicodeError):
            violations.append(f"{name} ids must be strings that UTF-8 can encode")
    if violations:
        raise ValueError("cannot save a dataset that would not read back: "
                         + "; ".join(violations))
    chunks = _csv_chunks(profile) if is_csv else _json_chunks(profile, ground_truth)
    with open(path, "w", encoding="utf-8", newline="" if is_csv else None) as fh:
        fh.writelines(chunks)


def _json_chunks(profile: Profile, ground_truth: np.ndarray | None):
    """The text ``save_dataset`` writes as JSON: a head, one chunk per
    instance, and a tail with the ground truth.  Every id is encoded once,
    one text serving as its value and its object key, and the tail built,
    before this returns."""
    alternatives, voters, instance_ids = (
        list(map(json.dumps, ids))
        for ids in (profile.alternative_ids, profile.voters, profile.instance_ids)
    )
    head = (
        '{\n  "alternatives": ' + _json_block("[]", alternatives, 1)
        + ',\n  "voters": ' + _json_block("[]", voters, 1)
        + ',\n  "instances": ' + ("[" if profile.num_instances else "[]")
    )
    voter_heads = [f"{key}: " for key in voters]
    tail = "\n  ]" if profile.num_instances else ""
    if ground_truth is not None:
        truths = [
            f"{key}: " + _json_block("[]", list(itertools.compress(alternatives, row)), 2)
            for key, row in zip(instance_ids, ground_truth.tolist())
        ]
        tail += ',\n  "ground_truth": ' + _json_block("{}", truths, 1)
    tail += "\n}\n"

    def render(rows: np.ndarray) -> list:
        return [_json_block("[]", list(itertools.compress(alternatives, row)), 4)
                for row in rows.tolist()]

    def instance(z: int, zid: str, ballots: list) -> str:
        entries = list(map(str.__add__, voter_heads, ballots))
        fields = ['"id": ' + zid, '"ballots": ' + _json_block("{}", entries, 3)]
        return ("\n    " if z == 0 else ",\n    ") + _json_block("{}", fields, 2)

    ballots = _ballot_texts(profile.approvals, render)
    return itertools.chain([head], map(instance, itertools.count(), instance_ids, ballots), [tail])


def _json_block(brackets: str, items: list, level: int) -> str:
    """Encoded ``items`` in ``brackets``, as ``json.dump(..., indent=2)``
    writes a list or object whose first line is at nesting ``level``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


class _Echo:
    """A file whose ``write`` returns its text, so that ``writerow`` of a
    ``csv.writer`` on it returns the row as written."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _csv_chunks(profile: Profile):
    """The text ``save_dataset`` writes as CSV: the header, then one chunk
    per instance.  Every id is quoted before this returns."""
    row = csv.writer(_Echo()).writerow
    # a trailing empty field leaves an empty id unquoted, as it is mid-row
    instance_ids, voters, alternatives = (
        [row([x, None])[:-3] for x in ids]
        for ids in (profile.instance_ids, profile.voters, profile.alternative_ids)
    )
    # column 0 is empty; alternative j's line with flag b is column 1 + 2j + b
    lines = np.array(
        ["", *(f",{aid},{flag}\r\n" for aid in alternatives for flag in "01")], dtype=object
    )
    columns = np.arange(1, 2 * len(alternatives), 2)

    def render(rows: np.ndarray) -> list:
        # a row's texts, joined by a voter's "instance,voter" prefix, are its m lines
        picks = np.zeros((len(rows), len(alternatives) + 1), dtype=np.intp)
        picks[:, 1:] = columns + rows
        return lines[picks].tolist()

    def instance(zid: str, ballots: list) -> str:
        return "".join(map(str.join, map(f"{zid},".__add__, voters), ballots))

    ballots = _ballot_texts(profile.approvals, render)
    return itertools.chain([row(CSV_HEADER)], map(instance, instance_ids, ballots))


def _ballot_texts(approvals: np.ndarray, render):
    """Per instance z, the text of each voter's ballot row of ``approvals[z]``,
    where ``render`` maps a ``bool[k, m]`` array of rows to their k texts.

    Rows are keyed by their packed bits.  Each distinct row is rendered once,
    at the first instance that has it, and dropped after the last, so the
    texts held at any time are those of rows still to be written.
    """
    length, n, m = approvals.shape
    width = (m + 7) // 8
    matrix, keys = _byte_keys(length * n, width)
    matrix[:, :width] = np.packbits(approvals, axis=-1).reshape(length * n, width)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    _, from_end = np.unique(keys[::-1], return_index=True)
    last = keys.size - 1 - from_end
    # distinct rows in order of first and of last appearance, cut per instance
    by_first, by_last = np.argsort(first), np.argsort(last)
    cuts = np.arange(length + 1) * n
    births = np.searchsorted(first[by_first], cuts).tolist()
    deaths = np.searchsorted(last[by_last], cuts).tolist()
    texts = {}
    for z in range(length):
        new = by_first[births[z]:births[z + 1]]
        if new.size:
            texts.update(zip(new.tolist(), render(approvals[z, first[new] - z * n])))
        yield list(map(texts.__getitem__, inverse[z * n:(z + 1) * n].tolist()))
        for u in by_last[deaths[z]:deaths[z + 1]].tolist():
            del texts[u]


def _byte_keys(rows: int, width: int) -> tuple:
    """A zeroed ``uint8[rows, w]`` matrix to fill with keys of up to
    ``width`` bytes, and its 1-D view with one sortable entry per row: keys
    of up to 8 bytes compare as one integer, longer ones as byte strings."""
    matrix = np.zeros((rows, max(width, 8)), dtype=np.uint8)
    return matrix, matrix.view(np.uint64 if width <= 8 else f"S{width}").ravel()


CSV_HEADER = ["instance_id", "voter_id", "alternative_id", "approved"]


_HEADER = ",".join(CSV_HEADER).encode()
_COMMA, _NEWLINE, _RETURN, _ZERO, _ONE = b",\n\r01"
#: The separators that end the four fields of a row, as one 4-byte word.
_ROW_ENDS = np.frombuffer(b",,,\n", dtype=np.uint32)


def load_profile_csv(path) -> Profile:
    """Read a long-form CSV; declaration order is order of first appearance.

    A cell without a row is not approved; a cell with several rows takes the
    value of its last row.  A plain file is split with whole-file array
    passes; a file with quotes, NUL bytes or bare carriage returns, and any
    file those passes cannot split into four fields per row with a one-byte
    0/1 last field, is read with ``csv.reader``, which also gives every error.
    Both readings give the same profile.  A leading UTF-8 byte-order mark,
    as spreadsheets write it, is skipped.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    rows = _scan_csv(data, path)
    if rows is None:
        rows = _read_csv(data, path)
    (instance_ids, voter_ids, alt_ids), codes, approved = rows
    shape = (len(instance_ids), len(voter_ids), len(alt_ids))
    # the last row of a cell wins: it is the cell's first row counted from the end
    cells, from_end = np.unique(np.ravel_multi_index(codes, shape)[::-1], return_index=True)
    approvals = np.zeros(shape, dtype=bool)
    approvals.flat[cells] = approved[::-1][from_end]
    return Profile(alt_ids, voter_ids, instance_ids, approvals)


def _utf8(data: bytes, path) -> str:
    """``data`` decoded, or DatasetFormatError naming the file ``path``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise DatasetFormatError(f"{path} is not UTF-8 text") from None


def _read_csv(data: bytes, path) -> tuple:
    """Rows of a long-form CSV read with ``csv.reader``: the three id lists
    in first-appearance order, each row's index into them, and its flag."""
    # each new id gets the next index, 0, 1, 2, ..., on first lookup
    indexes = [collections.defaultdict(itertools.count().__next__) for _ in range(3)]
    codes = ([], [], [])
    approved = []
    reader = csv.reader(StringIO(_utf8(data, path), newline=""))
    try:
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
            if row[3] not in ("0", "1"):
                raise DatasetFormatError(
                    f"approved must be 0 or 1, got {row[3]!r} in row {row}"
                )
            for index, column, key in zip(indexes, codes, row):
                column.append(index[key])
            approved.append(row[3] == "1")
    except csv.Error as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    if not approved:
        raise DatasetFormatError("empty CSV dataset")
    return [list(index) for index in indexes], codes, np.array(approved)


def _scan_csv(data: bytes, path) -> tuple | None:
    """The rows of a plain long-form CSV, as ``_read_csv`` gives them, from
    whole-file array passes; None when ``_read_csv`` must read the file."""
    if b'"' in data or b"\0" in data or not data.startswith(_HEADER):
        return None
    if b"\r" in data:
        # csv.reader also ends a row at a bare \r; only \r\n is read here
        if data.count(b"\r") != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    text = np.frombuffer(data, dtype=np.uint8)
    if text[len(_HEADER)] != _NEWLINE:
        return None
    # every field ends at a separator; the header's four come first
    separators = text == _COMMA
    separators |= text == _NEWLINE
    ends = np.flatnonzero(separators)
    # the scan's transient arrays set the load's peak memory: free the mask
    # before the int32 copy, and reuse ``ends`` for the widths below
    del separators
    ends = ends.astype(np.int32 if text.size < 2**31 else np.intp)
    starts, ends = ends[3:-1] + 1, ends[4:]
    kinds = text[ends]
    if not _rows_tile(kinds):
        return None
    ends -= starts  # now the field widths
    starts, widths = starts.reshape(-1, 4), ends.reshape(-1, 4)
    flags = text[starts[:, 3]]
    if (widths[:, 3] != 1).any() or not ((flags == _ZERO) | (flags == _ONE)).all():
        return None
    width = int(widths[:, :3].max())
    # an id column's keys take rows x its widest id bytes: one long id among
    # many rows would make them far larger than the file
    if width > csv.field_size_limit() or len(widths) * width > 2 * text.size:
        return None
    ids, codes = zip(
        *(_first_appearance_codes(text, starts[:, c], widths[:, c], path) for c in range(3))
    )
    return ids, codes, flags == _ONE


def _rows_tile(kinds: np.ndarray) -> bool:
    """Whether the separators ``kinds`` end rows of exactly four fields."""
    if kinds.size == 0 or kinds.size % 4:
        return False
    return bool((kinds.view(np.uint32) == _ROW_ENDS).all())


def _first_appearance_codes(text: np.ndarray, starts, widths, path) -> tuple:
    """The distinct ids of one column of ``text``, in order of first
    appearance, and each row's index into them."""
    width = int(widths.max())
    matrix, keys = _byte_keys(starts.size, width)
    for offset in range(width):
        # one byte column at a time; rows whose id is shorter keep a 0 pad
        matrix[:, offset] = np.where(widths > offset, text.take(starts + offset, mode="clip"), 0)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=starts.dtype)
    rank[order] = np.arange(order.size)
    spans = zip(starts[first[order]].tolist(), widths[first[order]].tolist())
    ids = [_utf8(text[start:start + size].tobytes(), path) for start, size in spans]
    return ids, rank[inverse]


def load_params(path) -> ParamVector:
    """Read initial parameters from a JSON file with keys p, q, t."""
    return _read_json_object(path, functools.partial(_param_vector, path))


def _param_vector(path, doc: dict) -> ParamVector:
    """The parameters of the document ``doc`` of the file ``path``."""
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


def load_assignment(path):
    """Read instance->set assignments for evaluation.

    Accepts a run report (uses its ``estimates``), a dataset document
    (uses its ``ground_truth``), or a bare ``{instance_id: [alt_id]}`` map.
    Returns ``(assignment_map, alternative_ids_or_None)``; the ids are the
    file's ``alternatives`` list of strings, which may repeat.
    """
    return _read_json_object(path, functools.partial(_assignment, path))


def _assignment(path, doc: dict) -> tuple:
    """``load_assignment``'s result for the document ``doc`` of the file ``path``."""
    key = next((key for key in ("estimates", "ground_truth") if key in doc), None)
    mapping = doc if key is None else doc[key]
    if not _is_assignment(mapping):
        raise DatasetFormatError(
            f"{path}: {'the file' if key is None else repr(key)} must map instance "
            "ids to lists of alternative id strings"
        )
    alternatives = None if key is None else doc.get("alternatives")
    if key == "ground_truth" and "instances" in doc and isinstance(alternatives, list):
        # a dataset document's ids, read as ``parse_dataset`` reads them
        alternatives = list(map(str, alternatives))
    if alternatives is not None and not (
        isinstance(alternatives, list) and all(isinstance(a, str) for a in alternatives)
    ):
        raise DatasetFormatError(f"{path}: 'alternatives' must be a list of id strings")
    return dict(mapping), alternatives or None
