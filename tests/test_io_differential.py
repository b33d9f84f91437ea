"""Differential tests: the package's dataset readers and writer against
the frozen row-by-row readers and writers in ``reference_io``.

A long-form CSV is read by a whole-file array scan when it is plain, and by
``csv.reader`` otherwise.  On generated files both readings and the
reference give the same profile, ids in the same order, or the same error
message; plain files must be taken by the scan.  A dataset document, read
instance by instance with each instance's members looked up in one sweep,
gives the reference's profile, warnings and first error.  ``save_dataset``
writes the reference's bytes in both formats, and what it writes reads back
as the profile written.
"""

import csv
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io as ref
from approvalmle import Profile, approval_matrix, io
from approvalmle.io import DatasetFormatError, load_dataset, load_profile_csv, parse_dataset

HEADER = ",".join(io.CSV_HEADER)
#: Ids with spaces, non-ASCII letters, an empty one, and ones over 8 bytes.
IDS = ["z1", "a", "A", "b b", " v", "ä", "日本", "", "long_identifier_x", "long_identifier_y"]
QUOTED = ['"q,1"', '"x""y"', '"a"']
BAD_FLAGS = ["2", "", "01", " 1", "1 ", "x", "ä"]


def outcome(read, *args, **kwargs):
    """What a reader gives: the profile's ids and ballots, or its error
    message, a format error's or that of a ``Profile`` that refuses the ids."""
    try:
        result = read(*args, **kwargs)
    except ValueError as exc:
        return "error", str(exc)
    profile = result[0] if isinstance(result, tuple) else result
    return "profile", (
        profile.instance_ids, profile.voters, profile.alternative_ids,
        profile.approvals.tolist(),
    )


def read_with_csv_reader(path):
    with mock.patch.object(io, "_scan_csv", return_value=None):
        return load_profile_csv(path)


@st.composite
def csv_files(draw):
    """``(bytes, plain)``: a long-form CSV and whether the scan must read it."""
    # a few ids make repeated cells, scrambled rows and omitted cells common
    ids = st.sampled_from(draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True)))
    flag = st.sampled_from("01")
    kinds = ["row"] * 6 + ["blank"]
    sometimes = st.sampled_from([False, False, True])
    bad = draw(sometimes)
    quoted = draw(sometimes)
    if bad:
        kinds += ["short", "long", "flag", "space"]
    if quoted:
        kinds += ["quoted"]
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "row":
            lines.append(",".join(draw(st.tuples(ids, ids, ids, flag))))
        elif kind == "blank":
            lines.append("")
        elif kind == "short":
            lines.append(",".join(draw(st.tuples(ids, ids, ids))))
        elif kind == "long":
            lines.append(",".join(draw(st.tuples(ids, ids, ids, flag, flag))))
        elif kind == "flag":
            lines.append(",".join(draw(st.tuples(ids, ids, ids, st.sampled_from(BAD_FLAGS)))))
        elif kind == "space":
            lines.append(" ")
        else:
            row = draw(st.tuples(st.sampled_from(QUOTED), ids, ids, st.sampled_from(["0", '"1"'])))
            lines.append(",".join(row))
    header = draw(st.sampled_from([HEADER] * 8 + [HEADER[:-9], HEADER + ",x", " " + HEADER, ""]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [newline] * len(lines)
    bare_return = bool(ends) and draw(sometimes)
    if bare_return:
        ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    if ends and not draw(st.booleans()):
        ends[-1] = ""  # no newline at the end of the file
    text = header + newline + "".join(line + end for line, end in zip(lines, ends))
    # a blank line breaks the scan's row tiling, so csv.reader takes the file
    plain = header == HEADER and not (bad or quoted or bare_return) and lines and all(lines)
    return text.encode("utf-8"), plain


class TestCsvScan:
    @given(csv_files())
    @settings(max_examples=300, deadline=None)
    def test_scan_and_csv_reader_agree_with_the_reference(self, generated):
        data, plain = generated
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(data)
            expected = outcome(ref.load_profile_csv, path)
            assert outcome(load_profile_csv, path) == expected
            assert outcome(read_with_csv_reader, path) == expected
            if plain:
                assert io._scan_csv(data, path) is not None

    def test_saved_files_take_the_scan(self, tmp_path, worked_profile):
        path = tmp_path / "d.csv"
        io.save_dataset(path, worked_profile)
        assert io._scan_csv(path.read_bytes(), path) is not None

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_last_row_wins_and_ids_keep_first_appearance(self, tmp_path, newline):
        rows = [HEADER, "z2,v,b,1", "z1,v,a,1", "z2,v,b,0", "z1,w,a,0", "z1,v,a,0", "z2,v,b,1"]
        path = tmp_path / "d.csv"
        path.write_bytes((newline.join(rows) + newline).encode())
        assert io._scan_csv(path.read_bytes(), path) is not None
        profile = load_profile_csv(path)
        assert profile.instance_ids == ("z2", "z1")
        assert profile.voters == ("v", "w")
        assert profile.alternative_ids == ("b", "a")
        assert profile.approvals.tolist() == [[[True, False], [False, False]],
                                              [[False, False], [False, False]]]

    @pytest.mark.parametrize(
        "row", ["z,\"v,w\",a,1", "z,v\0,a,1", "z,v,a,1\rz,v,b,1", "z,v,a,1\r\n\r\nz,v,b,1"],
        ids=["quotes", "nul", "bare-return", "blank-line"],
    )
    def test_files_left_to_csv_reader_match_the_reference(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_bytes(f"{HEADER}\r\n{row}".encode())
        assert io._scan_csv(path.read_bytes(), path) is None
        expected = outcome(ref.load_profile_csv, path)
        assert expected[0] == "profile"
        assert outcome(load_profile_csv, path) == expected

    def test_one_long_id_among_many_rows_goes_to_csv_reader(self, tmp_path):
        # padding every row's key to the long id would take rows x 20 KB
        long_id = "v" * 20_000
        rows = [HEADER, f"z,{long_id},a,1"] + [f"z{i},w,a,{i % 2}" for i in range(2_000)]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        assert io._scan_csv(path.read_bytes(), path) is None
        profile = load_profile_csv(path)
        assert profile.voters == (long_id, "w")
        assert outcome(load_profile_csv, path) == outcome(ref.load_profile_csv, path)

    def test_field_over_the_csv_limit_is_a_format_error(self, tmp_path):
        path = tmp_path / "d.csv"
        limit = csv.field_size_limit()
        path.write_text(f"{HEADER}\nz,{'v' * (limit + 1)},a,1\n")
        with pytest.raises(DatasetFormatError) as info:
            load_profile_csv(path)
        assert str(info.value) == f"{path}: field larger than field limit ({limit})"

    @pytest.mark.parametrize("read", [load_profile_csv, read_with_csv_reader])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_utf8_id_named_with_the_file(self, tmp_path, read, column):
        row = [b"z", b"v", b"a", b"1"]
        row[column] = b"\xff" + row[column]
        path = tmp_path / "d.csv"
        path.write_bytes(HEADER.encode() + b"\n" + b",".join(row) + b"\n")
        with pytest.raises(DatasetFormatError) as info:
            read(path)
        assert str(info.value) == f"{path} is not UTF-8 text"


# -- JSON ------------------------------------------------------------------

ALTERNATIVES = ["a", "b", "1", "ä"]
VOTERS = ["v1", "v2", "v3", "w"]
NOT_LISTS = [5, "a", {"a": 1}, None]


#: Instance entries: well-formed objects, and the malformed kinds.
ENTRY_KINDS = ["object"] * 5 + [
    "not-an-object", "no-id", "no-ballots", "null-ballots", "list-ballots", "undeclared-voter",
]


@st.composite
def documents(draw):
    """A dataset document; some ballots omit voters, name unknown
    alternatives or are not lists.  Ids may be JSON numbers and voter ids
    may repeat, and each ballots map lists its voters in a drawn order, so
    a ballot must be found by its voter id, not its position.  Some entries are not objects or lack an id, some ballots
    maps are absent, null, lists or name undeclared voters; an instance that
    only warns may come before the first failing one."""
    sometimes = st.sampled_from([False, False, True])
    alternatives = draw(st.lists(st.sampled_from(ALTERNATIVES), unique=True, max_size=4))
    voters = draw(st.lists(st.sampled_from(VOTERS), unique=True, max_size=4))
    if voters and draw(sometimes):
        voters.append(draw(st.sampled_from(voters)))
    members = alternatives + [1] * ("1" in alternatives)
    if draw(st.booleans()):
        members = members + ["zz", 2.5, None]
    ballot = st.lists(st.sampled_from(members), max_size=4) if members else st.just([])
    if draw(st.booleans()):
        ballot = st.one_of(ballot, st.sampled_from(NOT_LISTS))
    omit = draw(st.booleans())
    kinds = st.sampled_from(ENTRY_KINDS if draw(sometimes) else ["object"])
    instances = []
    for z in range(draw(st.integers(0, 5))):
        present = [v for v in voters if not omit or draw(st.booleans())]
        ballots = {v: draw(ballot) for v in draw(st.permutations(present))}
        entry = {"id": draw(st.sampled_from([f"z{z}", z])), "ballots": ballots}
        kind = draw(kinds)
        if kind == "not-an-object":
            entry = draw(st.sampled_from([5, "z", [entry], None]))
        elif kind == "no-id":
            del entry["id"]
        elif kind == "no-ballots":
            del entry["ballots"]
        elif kind == "null-ballots":
            entry["ballots"] = None
        elif kind == "list-ballots":
            entry["ballots"] = list(ballots.items())
        elif kind == "undeclared-voter":
            ballots["u"] = draw(ballot)
        instances.append(entry)
    return {"alternatives": alternatives, "voters": voters, "instances": instances}


def parse_outcome(parse, doc, strict):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(parse, doc, strict=strict)
    return result, [str(w.message) for w in caught]


class TestParseDataset:
    @given(documents(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_ballot_by_ballot_reference(self, doc, strict):
        assert parse_outcome(parse_dataset, doc, strict) == parse_outcome(
            ref.parse_dataset, doc, strict
        )

    @pytest.mark.parametrize(
        "ballots, message",
        [
            ({"v1": 5, "v2": ["zz"]}, "instance 'z', voter 'v1': a ballot must be a list of "
             "alternative ids, got 5"),
            ({"v1": ["a", "zz"], "v2": 5}, "instance 'z', voter 'v1' approves unknown "
             "alternative 'zz'"),
            ({"v1": [], "v2": "a"}, "instance 'z', voter 'v2': a ballot must be a list of "
             "alternative ids, got 'a'"),
            ({"v1": {"a": 1}, "v2": []}, "instance 'z', voter 'v1': a ballot must be a list of "
             "alternative ids, got {'a': 1}"),
        ],
        ids=["non-list-first", "unknown-member-first", "string-of-an-id", "map-of-an-id"],
    )
    def test_first_error_of_an_instance_is_reported(self, ballots, message):
        doc = {"alternatives": ["a"], "voters": ["v1", "v2"],
               "instances": [{"id": "z", "ballots": ballots}]}
        assert outcome(parse_dataset, doc) == ("error", message)
        assert outcome(ref.parse_dataset, doc) == ("error", message)

    @pytest.mark.parametrize(
        "failing, message",
        [
            (5, "instance entry 2 must be an object with an 'id' key, got 5"),
            ({"id": "z2", "ballots": None},
             "instance 'z2': ballots must map voter ids to lists of alternatives"),
            ({"id": "z2", "ballots": {"v1": [], "v2": [], "u": []}},
             "instance 'z2' has ballots for undeclared voters ['u']"),
            ({"id": "z2", "ballots": {"v1": ["zz"], "v2": []}},
             "instance 'z2', voter 'v1' approves unknown alternative 'zz'"),
        ],
        ids=["not-an-object", "null-ballots", "undeclared-voter", "unknown-member"],
    )
    def test_warnings_of_earlier_instances_come_before_the_error(self, failing, message):
        doc = {"alternatives": ["a"], "voters": ["v1", "v2"], "instances": [
            {"id": "z0", "ballots": {"v1": ["a"]}},
            {"id": 1},
            failing,
            {"id": "z3", "ballots": {"v2": ["a"]}},
        ]}
        expected = (("error", message), [
            "instance 'z0' omits ballots for 1 voter(s); treating them as empty",
            "instance '1' omits ballots for 2 voter(s); treating them as empty",
        ])
        assert parse_outcome(parse_dataset, doc, False) == expected
        assert parse_outcome(ref.parse_dataset, doc, False) == expected

    @pytest.mark.parametrize(
        "kind", ["saved", "omitted-voters", "number-members", "string-before-number-member"]
    )
    def test_valid_documents_match_the_reference(self, worked_profile, kind):
        doc = ref.dataset_document(worked_profile, [frozenset({0})] * 4)
        if kind == "omitted-voters":
            del doc["instances"][1]["ballots"]["v2"]
            del doc["instances"][3]["ballots"]
        elif kind == "number-members":
            doc = {"alternatives": ["1", "2", "a"], "voters": ["v1", "v2"], "instances": [
                {"id": 7, "ballots": {"v1": [1, "a"], "v2": [2, 1]}},
                {"id": "z", "ballots": {"v1": [], "v2": ["2"]}},
            ]}
        elif kind == "string-before-number-member":
            # the lookup of "a" succeeds before that of 1 fails
            doc = {"alternatives": ["a", "1"], "voters": ["v1", "v2"], "instances": [
                {"id": "z", "ballots": {"v1": ["a", 1], "v2": [1]}},
            ]}
        result = parse_outcome(parse_dataset, doc, False)
        assert result[0][0] == "profile"
        assert result == parse_outcome(ref.parse_dataset, doc, False)

    def test_ballots_listed_in_reverse_voter_order(self):
        doc = {"alternatives": ["a", "b"], "voters": ["v1", "v2", "v3"], "instances": [
            {"id": "z", "ballots": {"v3": ["b"], "v2": [], "v1": ["a", "b"]}},
        ]}
        assert outcome(parse_dataset, doc) == outcome(ref.parse_dataset, doc) == (
            "profile", (("z",), ("v1", "v2", "v3"), ("a", "b"),
                        [[[True, True], [False, False], [False, True]]]),
        )

    def test_single_voter_documents(self):
        doc = {"alternatives": ["a", "b"], "voters": ["v"],
               "instances": [{"id": "z", "ballots": {"v": ["b"]}}]}
        assert outcome(parse_dataset, doc) == outcome(ref.parse_dataset, doc)

    @pytest.mark.parametrize("read", [load_dataset, io.load_params, io.load_assignment])
    def test_non_utf8_file_named(self, tmp_path, read):
        path = tmp_path / "d.json"
        path.write_bytes(b'{"p": ["\xff"]}')
        with pytest.raises(DatasetFormatError) as info:
            read(path)
        assert str(info.value) == f"{path} is not UTF-8 text"


# -- writers ---------------------------------------------------------------

#: Ids the formats must quote or escape: separators, quotes, line breaks,
#: an empty id, non-ASCII letters, and ones over 8 bytes.
WRITTEN_IDS = ["a", "", "x,y", 'q"r', "c\rd", "e\nf", "g\r\nh", "ä", "日本", " s ", "\\",
               "long_identifier_x"]

@st.composite
def written_datasets(draw):
    """``(profile, truths)``: a profile with distinct text ids, empty, full
    or mixed ballots and 0 to 3 instances, voters and alternatives, and a
    ground truth of one set per instance."""
    pool = st.sampled_from(WRITTEN_IDS) | st.text(max_size=3)
    length, n, m = (draw(st.integers(0, 3)) for _ in range(3))
    alternatives, voters, instances = (
        draw(st.lists(pool, min_size=size, max_size=size, unique=True))
        for size in (m, n, length)
    )
    cells = length * n * m
    fill = draw(st.sampled_from(["empty", "full", "mixed"]))
    if fill == "mixed":
        approvals = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    else:
        approvals = [fill == "full"] * cells
    profile = Profile(alternatives, voters, instances,
                      np.array(approvals, dtype=bool).reshape(length, n, m))
    truths = tuple(frozenset(draw(st.sets(st.integers(0, m - 1), max_size=m)) if m else ())
                   for _ in range(length))
    return profile, truths


#: What ``Profile`` says of an id that is not a string UTF-8 can encode.
REFUSED = "^(alternative|voter|instance) ids must be strings that UTF-8 can encode$"


class TestSaveDataset:
    @given(written_datasets())
    @settings(max_examples=300, deadline=None)
    def test_writes_the_reference_bytes_and_reads_back(self, dataset):
        profile, truths = dataset
        # the reference writes the sets, the package their truth array
        array = approval_matrix(truths, profile.num_alternatives)
        with tempfile.TemporaryDirectory() as tmp:
            for name, truth, written in (("d.json", truths, array), ("d.json", None, None),
                                         ("d.csv", None, None)):
                expected, path = Path(tmp) / ("ref_" + name), Path(tmp) / name
                ref.save_dataset(expected, profile, truth)
                io.save_dataset(path, profile, written)
                assert path.read_bytes() == expected.read_bytes()
                sizes = (profile.num_instances, profile.num_voters, profile.num_alternatives)
                # a CSV without cells has no rows to declare its ids
                if name == "d.json" or min(sizes) > 0:
                    read_profile, read_truth = load_dataset(path)
                    assert read_profile == profile
                    if written is None:
                        assert read_truth is None
                    else:
                        np.testing.assert_array_equal(read_truth, written)

    def test_list_valued_ids_keep_the_reference_layout(self, tmp_path):
        # a profile refuses a tuple id; its str is written as the reference writes it
        approvals = np.array([[[True, True]]])
        with pytest.raises(ValueError, match=REFUSED):
            Profile([("a", 1), "b"], ["v"], [("z", (2,))], approvals)
        profile = Profile([str(("a", 1)), "b"], ["v"], [str(("z", (2,)))], approvals)
        io.save_dataset(tmp_path / "d.json", profile)
        ref.save_dataset(tmp_path / "ref.json", profile)
        assert (tmp_path / "d.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert load_dataset(tmp_path / "d.json") == (profile, None)

    def test_non_string_ids_read_back_as_their_strings(self, tmp_path):
        # a profile refuses non-string ids; their strs write and read back
        approvals = np.array([[[True, False], [False, True]]])
        with pytest.raises(ValueError, match=REFUSED):
            Profile([1, 2.5], [3, -4], [5], approvals)
        read_back = Profile(["1", "2.5"], ["3", "-4"], ["5"], approvals)
        for name in ("d.json", "d.csv"):
            io.save_dataset(tmp_path / name, read_back)
            ref.save_dataset(tmp_path / ("ref_" + name), read_back)
            assert (tmp_path / name).read_bytes() == (tmp_path / ("ref_" + name)).read_bytes()
            assert load_dataset(tmp_path / name) == (read_back, None)
