import codecs
import gc
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import reference_io
from reference_io import dataset_document

from approvalmle import Bounds, ParamVector, Profile, approval_matrix, truth_sets
from approvalmle import io as dataset_io
from approvalmle.io import (
    DatasetFormatError,
    load_assignment,
    load_dataset,
    load_params,
    load_profile_csv,
    parse_dataset,
    read_assignment,
    save_dataset,
)
from approvalmle.synth import SynthSpec, sample_dataset


@st.composite
def profiles(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    length = draw(st.integers(1, 4))
    ballots = [
        [
            frozenset(
                draw(st.sets(st.integers(0, m - 1), max_size=m))
            )
            for _ in range(n)
        ]
        for _ in range(length)
    ]
    return Profile.build(
        [f"alt{j}" for j in range(m)],
        [f"voter{i}" for i in range(n)],
        ballots,
    )


@st.composite
def profiles_with_truths(draw):
    profile = draw(profiles())
    m = profile.num_alternatives
    truths = tuple(
        frozenset(draw(st.sets(st.integers(0, m - 1), max_size=m)))
        for _ in range(profile.num_instances)
    )
    return profile, truths


class TestJsonRoundTrip:
    @given(profiles())
    @settings(max_examples=50)
    def test_document_round_trip(self, profile):
        parsed, truths = parse_dataset(dataset_document(profile))
        assert parsed == profile
        assert truths is None

    @given(profiles_with_truths())
    @settings(max_examples=50)
    def test_document_round_trip_with_truth(self, profile_truths):
        profile, truths = profile_truths
        parsed, parsed_truths = parse_dataset(dataset_document(profile, truths))
        assert parsed == profile
        assert truth_sets(parsed_truths) == truths

    def test_file_round_trip(self, tmp_path, worked_profile):
        path = tmp_path / "data.json"
        truths = approval_matrix([{1}] * 4, 5)
        save_dataset(path, worked_profile, truths)
        profile, parsed_truths = load_dataset(path)
        assert profile == worked_profile
        np.testing.assert_array_equal(parsed_truths, truths)
        assert parsed_truths.dtype == bool and not parsed_truths.flags.writeable


class TestCsvRoundTrip:
    def test_file_round_trip(self, tmp_path, worked_profile):
        path = tmp_path / "data.csv"
        save_dataset(path, worked_profile)
        assert load_profile_csv(path) == worked_profile

    def test_load_dataset_dispatches_on_extension(self, tmp_path, worked_profile):
        path = tmp_path / "data.csv"
        save_dataset(path, worked_profile)
        profile, truths = load_dataset(path)
        assert profile == worked_profile
        assert truths is None

    def test_csv_refuses_ground_truth(self, tmp_path, worked_profile):
        with pytest.raises(DatasetFormatError):
            save_dataset(tmp_path / "d.csv", worked_profile, (frozenset({0}),) * 4)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DatasetFormatError):
            load_profile_csv(path)


class TestByteOrderMark:
    """A file that starts with the UTF-8 byte-order mark, as a spreadsheet's
    "CSV UTF-8" export writes it, reads as if it had none."""

    @pytest.mark.parametrize("voter, scanned", [("v1", True), ("v,1", False)],
                             ids=["numpy-scan", "csv-reader"])
    def test_long_csv(self, tmp_path, monkeypatch, voter, scanned):
        profile = Profile.build(["a", "b"], [voter, "v2"], [[{0}, {0, 1}], [set(), {1}]])
        path = tmp_path / "d.csv"
        save_dataset(path, profile)
        assert not path.read_bytes().startswith(codecs.BOM_UTF8)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        # a quoted id sends the file to csv.reader; a plain one is scanned
        read_csv, readers = dataset_io._read_csv, []
        monkeypatch.setattr(dataset_io, "_read_csv",
                            lambda data, name: readers.append(name) or read_csv(data, name))
        assert load_profile_csv(path) == profile
        assert readers == ([] if scanned else [path])

    def test_json_dataset(self, tmp_path, worked_profile):
        path = tmp_path / "d.json"
        truths = approval_matrix([{1}, set(), {0, 4}, {2}], 5)
        save_dataset(path, worked_profile, truths)
        saved = path.read_bytes()
        assert not saved.startswith(codecs.BOM_UTF8)
        path.write_bytes(codecs.BOM_UTF8 + saved)
        profile, loaded = load_dataset(path)
        assert profile == worked_profile
        np.testing.assert_array_equal(loaded, truths)
        # only one mark is skipped
        path.write_bytes(codecs.BOM_UTF8 * 2 + saved)
        with pytest.raises(DatasetFormatError, match="is not valid JSON: Unexpected UTF-8 BOM"):
            load_dataset(path)


ONE_CELL = np.zeros((1, 1, 1), dtype=bool)


class TestSaveRefusals:
    """A dataset that would not read back as written is refused, with
    ``validate_profile``'s messages, before the file is created."""

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize(
        "ids, message",
        [
            ((["a", "a"], ["v"], ["z"]), "duplicate alternative ids"),
            ((["a"], ["v", "v"], ["z"]), "duplicate voter ids"),
            ((["a"], ["v"], ["z", "z"]), "duplicate instance ids"),
        ],
        ids=["alternatives", "voters", "instances"],
    )
    def test_repeated_ids(self, tmp_path, suffix, ids, message):
        alternatives, voters, instances = ids
        approvals = np.zeros((len(instances), len(voters), len(alternatives)), dtype=bool)
        path = tmp_path / ("d" + suffix)
        with pytest.raises(ValueError, match=f"^cannot save a dataset that would not read "
                                             f"back: {message}$"):
            save_dataset(path, Profile(alternatives, voters, instances, approvals))
        assert not path.exists()

    @pytest.mark.parametrize(
        "truths, message",
        [
            ((frozenset({-1}),), r"ground truth of instance 'z' names unknown alternatives \[-1]"),
            ((frozenset({0, 1}),), r"ground truth of instance 'z' names unknown alternatives \[1]"),
            ((frozenset(), frozenset({0})), r"ground truth must be a bool array of shape "
             r"\(L, m\) = \(1, 1\), got bool array of shape \(2, 1\)"),
            # an extra set is counted, not read, so its None is no TypeError
            ((frozenset(), frozenset({None})), r"ground truth must be a bool array of shape "
             r"\(L, m\) = \(1, 1\), got bool array of shape \(2, 1\)"),
            (np.ones((1, 2), dtype=bool), r"ground truth must be a bool array of shape "
             r"\(L, m\) = \(1, 1\), got bool array of shape \(1, 2\)"),
            (np.ones((1, 1), dtype=int), r"ground truth must be a bool array of shape "
             r"\(L, m\) = \(1, 1\), got int64 array of shape \(1, 1\)"),
        ],
        ids=["minus-one", "equal-to-m", "extra-sets", "extra-set-naming-none",
             "array-too-wide", "int-array"],
    )
    def test_ground_truth_that_does_not_fit(self, tmp_path, truths, message):
        path = tmp_path / "d.json"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match=f"^cannot save a dataset that would not read "
                                             f"back: {message}$"):
            save_dataset(path, Profile(["a"], ["v"], ["z"], ONE_CELL), truths)
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "ids, message",
        [
            (([object()], ["v"], ["z"]), "alternative ids must be strings that UTF-8 can encode"),
            ((["a"], [("v", 1)], ["z"]), "voter ids must be strings that UTF-8 can encode"),
        ],
        ids=["value", "key"],
    )
    def test_id_json_cannot_encode_leaves_no_file(self, tmp_path, ids, message):
        path = tmp_path / "d.json"
        with pytest.raises(ValueError, match=f"^cannot save a dataset that would not read "
                                             f"back: {message}$"):
            save_dataset(path, Profile(*ids, ONE_CELL))
        assert not path.exists()

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize("kind", ["alternative", "voter", "instance"])
    @pytest.mark.parametrize(
        "bad",
        [[1], [2.5], [True], [None], [("a", 1)], [object()], ["b\ud800"], ["1", 1]],
        ids=["int", "float", "bool", "none", "tuple", "object", "surrogate", "equal-as-str"],
    )
    def test_ids_that_are_not_utf8_strings(self, tmp_path, suffix, kind, bad):
        # every reader turns an id into its str, so "1" and 1 would read back equal
        ids = {"alternative": ["a"], "voter": ["v"], "instance": ["z"], kind: bad}
        profile = Profile(ids["alternative"], ids["voter"], ids["instance"], np.zeros(
            (len(ids["instance"]), len(ids["voter"]), len(ids["alternative"])), dtype=bool))
        message = f"^cannot save a dataset that would not read back: {kind} ids must be " \
                  "strings that UTF-8 can encode$"
        kept, fresh = tmp_path / ("kept" + suffix), tmp_path / ("fresh" + suffix)
        kept.write_text("kept\n")
        for path in (kept, fresh):
            with pytest.raises(ValueError, match=message):
                save_dataset(path, profile)
        assert kept.read_text() == "kept\n"
        assert not fresh.exists()

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize("shape", [(0, 1, 1), (1, 0, 1), (1, 1, 0)],
                             ids=["no-instances", "no-voters", "no-alternatives"])
    def test_empty_profiles_are_still_written(self, tmp_path, suffix, shape):
        length, n, m = shape
        profile = Profile(["a"][:m], ["v"][:n], ["z"][:length], np.zeros(shape, dtype=bool))
        path = tmp_path / ("d" + suffix)
        save_dataset(path, profile)
        if suffix == ".json":
            assert load_dataset(path) == (profile, None)
        else:
            assert path.read_bytes() == b"instance_id,voter_id,alternative_id,approved\r\n"


def _write_csv(path, *rows):
    path.write_text("\n".join(["instance_id,voter_id,alternative_id,approved", *rows, ""]))
    return path


class TestCsvSemantics:
    @given(profiles())
    @settings(max_examples=50)
    def test_round_trip(self, profile):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            save_dataset(path, profile)
            assert load_profile_csv(path) == profile

    def test_scrambled_rows_declare_ids_in_first_appearance_order(self, tmp_path):
        path = _write_csv(
            tmp_path / "d.csv", "z2,v2,b,1", "z1,v1,a,0", "z2,v1,a,1", "z1,v2,b,0"
        )
        profile = load_profile_csv(path)
        assert profile.alternative_ids == ("b", "a")
        assert profile.voters == ("v2", "v1")
        assert [inst.id for inst in profile.instances] == ["z2", "z1"]
        assert profile.instances[0].ballots == (frozenset({0}), frozenset({1}))
        assert profile.instances[1].ballots == (frozenset(), frozenset())

    def test_repeated_cell_takes_the_last_row(self, tmp_path):
        rows = ("z,v,a,1", "z,v,b,0", "z,v,a,0", "z,v,b,1", "z,v,b,0", "z,v,b,1")
        path = _write_csv(tmp_path / "d.csv", *rows)
        assert load_profile_csv(path).instances[0].ballots == (frozenset({1}),)

    def test_omitted_cells_read_as_not_approved(self, tmp_path):
        path = _write_csv(tmp_path / "d.csv", "z1,v1,a,1", "z1,v1,b,1", "z2,v2,b,1")
        profile = load_profile_csv(path)
        assert profile.instances[0].ballots == (frozenset({0, 1}), frozenset())
        assert profile.instances[1].ballots == (frozenset(), frozenset({1}))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write_csv(tmp_path / "d.csv", "", "z,v,a,1", "")
        assert load_profile_csv(path).instances[0].ballots == (frozenset({0}),)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("z,v,a", "malformed CSV row: ['z', 'v', 'a']"),
            ("z,v,a,1,1", "malformed CSV row: ['z', 'v', 'a', '1', '1']"),
            ("z,v,a,2", "approved must be 0 or 1, got '2' in row ['z', 'v', 'a', '2']"),
        ],
    )
    def test_bad_row_rejected_with_its_message(self, tmp_path, row, message):
        path = _write_csv(tmp_path / "d.csv", "z,v,a,1", row)
        with pytest.raises(DatasetFormatError) as info:
            load_profile_csv(path)
        assert str(info.value) == message

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError) as info:
            load_profile_csv(_write_csv(tmp_path / "d.csv"))
        assert str(info.value) == "empty CSV dataset"


class TestParseDataset:
    @pytest.mark.parametrize("doc", [[], "x", None], ids=["list", "string", "null"])
    def test_document_that_is_not_an_object_rejected(self, doc):
        with pytest.raises(DatasetFormatError, match="^dataset document must be a JSON object$"):
            parse_dataset(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(DatasetFormatError, match="instances"):
            parse_dataset({"alternatives": ["a"], "voters": ["v"]})

    def test_unknown_alternative_rejected(self):
        doc = {
            "alternatives": ["a"],
            "voters": ["v"],
            "instances": [{"id": "z", "ballots": {"v": ["b"]}}],
        }
        with pytest.raises(DatasetFormatError, match="unknown"):
            parse_dataset(doc)

    def test_undeclared_voter_rejected(self):
        doc = {
            "alternatives": ["a"],
            "voters": ["v"],
            "instances": [{"id": "z", "ballots": {"ghost": ["a"]}}],
        }
        with pytest.raises(DatasetFormatError, match="undeclared"):
            parse_dataset(doc)

    def test_omitted_voter_warns_and_fills_empty(self):
        doc = {
            "alternatives": ["a"],
            "voters": ["v1", "v2"],
            "instances": [{"id": "z", "ballots": {"v1": ["a"]}}],
        }
        with pytest.warns(UserWarning, match="omits"):
            profile, _ = parse_dataset(doc)
        assert profile.instances[0].ballots[1] == frozenset()

    def test_omitted_voter_strict_mode_rejects(self):
        doc = {
            "alternatives": ["a"],
            "voters": ["v1", "v2"],
            "instances": [{"id": "z", "ballots": {"v1": ["a"]}}],
        }
        with pytest.raises(DatasetFormatError, match="omits"):
            parse_dataset(doc, strict=True)

    def test_instance_without_id_rejected(self):
        doc = {
            "alternatives": ["a"],
            "voters": ["v"],
            "instances": [{"ballots": {"v": ["a"]}}],
        }
        with pytest.raises(DatasetFormatError, match="'id' key"):
            parse_dataset(doc)

    def test_instance_that_is_not_an_object_rejected(self):
        doc = {"alternatives": ["a"], "voters": ["v"], "instances": [["a"]]}
        with pytest.raises(DatasetFormatError, match="must be an object"):
            parse_dataset(doc)

    def test_ballots_that_are_not_an_object_rejected(self):
        doc = {
            "alternatives": ["a"],
            "voters": ["v"],
            "instances": [{"id": "z", "ballots": [["a"]]}],
        }
        with pytest.raises(DatasetFormatError, match="ballots must map"):
            parse_dataset(doc)

    @pytest.mark.parametrize("ballot", [5, "a"], ids=["number", "string"])
    def test_ballot_that_is_not_a_list_rejected(self, ballot):
        doc = {
            "alternatives": ["a"],
            "voters": ["v"],
            "instances": [{"id": "z", "ballots": {"v": ballot}}],
        }
        with pytest.raises(DatasetFormatError, match="must be a list"):
            parse_dataset(doc)

    def test_ground_truth_unknown_instance_rejected(self):
        doc = {
            "alternatives": ["a"],
            "voters": ["v"],
            "instances": [{"id": "z", "ballots": {"v": []}}],
            "ground_truth": {"nope": ["a"]},
        }
        with pytest.raises(DatasetFormatError, match="unknown instances"):
            parse_dataset(doc)

    @pytest.mark.parametrize("truth", [{}, {"z2": ["a"]}], ids=["empty", "one-omitted"])
    def test_ground_truth_that_omits_an_instance_rejected(self, truth):
        doc = {
            "alternatives": ["a"],
            "voters": ["v"],
            "instances": [{"id": "z1", "ballots": {"v": []}}, {"id": "z2", "ballots": {"v": []}}],
            "ground_truth": truth,
        }
        with pytest.raises(DatasetFormatError, match=r"omits instances \['z1'"):
            parse_dataset(doc)

    @pytest.mark.parametrize(
        "truth",
        [[["a"]], {"z": 5}, {"z": "a"}, {"z": {"a": 1}}, {"z": [["a"]]}, {"z": [1]}],
        ids=["list", "number", "string", "object", "nested-list", "number-member"],
    )
    def test_ground_truth_that_is_not_a_map_of_id_lists_rejected(self, truth):
        doc = {
            "alternatives": ["a"],
            "voters": ["v"],
            "instances": [{"id": "z", "ballots": {"v": []}}],
            "ground_truth": truth,
        }
        with pytest.raises(DatasetFormatError, match="'ground_truth' must map instance ids"):
            parse_dataset(doc)


IDS = st.text(max_size=3)


@st.composite
def assignments(draw):
    """``(mapping, instance_ids, alternative_ids)``: distinct instance and
    alternative ids, and a map that gives each instance a list of the
    alternatives, repeats allowed, with keys in drawn order."""
    instance_ids = draw(st.lists(IDS, unique=True, max_size=5))
    alternative_ids = draw(st.lists(IDS, unique=True, max_size=5))
    members = st.lists(st.sampled_from(alternative_ids), max_size=6) if alternative_ids \
        else st.builds(list)
    keys = draw(st.permutations(instance_ids))
    return {zid: draw(members) for zid in keys}, instance_ids, alternative_ids


class TestReadAssignment:
    @given(assignments(), st.sampled_from(["ground_truth", "est.json: the assignment"]))
    def test_matches_a_dict_comprehension(self, drawn, what):
        mapping, instance_ids, alternative_ids = drawn
        index = {aid: j for j, aid in enumerate(alternative_ids)}
        expected = np.zeros((len(instance_ids), len(alternative_ids)), dtype=bool)
        for z, zid in enumerate(instance_ids):
            for aid in mapping[zid]:
                expected[z, index[aid]] = True
        got = read_assignment(mapping, instance_ids, alternative_ids, what)
        assert got.dtype == bool and not got.flags.writeable
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "mapping",
        [[["a"]], {"z": 5}, {"z": "a"}, {"z": {"a": 1}}, {"z": [["a"]]}, {"z": [1]}, None],
        ids=["list", "number", "string", "object", "nested-list", "number-member", "null"],
    )
    def test_refuses_what_is_not_a_map_of_id_lists(self, mapping):
        with pytest.raises(DatasetFormatError) as info:
            read_assignment(mapping, ["z"], ["a"], "ground_truth")
        assert str(info.value) == (
            "dataset document: 'ground_truth' must map instance ids to lists of "
            "alternative id strings"
        )

    @given(assignments(), IDS)
    def test_refuses_an_unknown_instance(self, drawn, extra):
        mapping, instance_ids, alternative_ids = drawn
        if extra in mapping:
            return
        mapping[extra] = []
        with pytest.raises(DatasetFormatError) as info:
            read_assignment(mapping, instance_ids, alternative_ids, "ground_truth")
        assert str(info.value) == (
            f"ground_truth names unknown instances {[extra]} and omits instances []"
        )

    @given(assignments(), st.data())
    def test_refuses_an_omitted_instance(self, drawn, data):
        mapping, instance_ids, alternative_ids = drawn
        if not instance_ids:
            return
        omitted = data.draw(st.sets(st.sampled_from(instance_ids), min_size=1))
        for zid in omitted:
            del mapping[zid]
        with pytest.raises(DatasetFormatError) as info:
            read_assignment(mapping, instance_ids, alternative_ids, "ground_truth")
        listed = [zid for zid in instance_ids if zid in omitted]
        assert str(info.value) == (
            f"ground_truth names unknown instances [] and omits instances {listed}"
        )
        assert "\n" not in str(info.value)

    @given(assignments(), st.data(), IDS)
    def test_refuses_an_unknown_alternative_naming_its_instance(self, drawn, data, bad):
        mapping, instance_ids, alternative_ids = drawn
        if not instance_ids or bad in alternative_ids:
            return
        zid = data.draw(st.sampled_from(instance_ids))
        position = data.draw(st.integers(0, len(mapping[zid])))
        mapping[zid].insert(position, bad)
        with pytest.raises(DatasetFormatError) as info:
            read_assignment(mapping, instance_ids, alternative_ids, "ground_truth")
        assert str(info.value) == (
            f"ground_truth of instance {zid!r} names unknown alternative {bad!r}"
        )
        assert "\n" not in str(info.value)

    def test_names_the_first_unknown_alternative_in_instance_order(self):
        # instances in the listed order, not the map's; members in list order
        mapping = {"z3": ["a", "q"], "z1": ["a"], "z2": ["b", "p", "q"]}
        with pytest.raises(DatasetFormatError) as info:
            read_assignment(mapping, ["z1", "z2", "z3"], ["a", "b"], "ground_truth")
        assert str(info.value) == "ground_truth of instance 'z2' names unknown alternative 'p'"

    @given(profiles_with_truths())
    @settings(max_examples=50)
    def test_load_dataset_reads_back_the_saved_ground_truth(self, drawn):
        # the array, and the same truths as sets, write the same bytes
        profile, truths = drawn
        array = approval_matrix(truths, profile.num_alternatives)
        with tempfile.TemporaryDirectory() as tmp:
            path, from_sets = Path(tmp) / "data.json", Path(tmp) / "sets.json"
            save_dataset(path, profile, array)
            save_dataset(from_sets, profile, truths)
            assert from_sets.read_bytes() == path.read_bytes()
            loaded_profile, loaded = load_dataset(path)
            assert loaded_profile == profile
            np.testing.assert_array_equal(loaded, array)


class TestParams:
    def test_round_trip(self, tmp_path):
        params = ParamVector([0.5, 0.6], [0.4, 0.3], [0.5, 0.2, 0.9])
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"p": [0.5, 0.6], "q": [0.4, 0.3], "t": [0.5, 0.2, 0.9]}))
        loaded = load_params(path)
        np.testing.assert_array_equal(loaded.packed(), params.packed())

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"p": [0.5]}))
        with pytest.raises(DatasetFormatError):
            load_params(path)

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[0.5]", json.dumps({"p": ["x"], "q": [0.4], "t": [0.5]})],
        ids=["not-json", "not-an-object", "not-numbers"],
    )
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "params.json"
        path.write_text(text)
        with pytest.raises(DatasetFormatError):
            load_params(path)

    @pytest.mark.parametrize(
        "key, value",
        [("p", ["0.5", "0.6"]), ("q", [True, 0.3]), ("t", [0.5, None, 0.9])],
        ids=["strings", "booleans", "null"],
    )
    def test_members_that_are_not_json_numbers_rejected(self, tmp_path, key, value):
        path = tmp_path / "params.json"
        doc = {"p": [0.5, 0.6], "q": [0.4, 0.3], "t": [0.5, 0.2, 0.9], key: value}
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match=f": {key} must be a list of JSON numbers$"):
            load_params(path)


class TestLoadAssignment:
    def test_bare_map(self, tmp_path):
        path = tmp_path / "est.json"
        path.write_text(json.dumps({"z1": ["a"], "z2": []}))
        mapping, alts = load_assignment(path)
        assert mapping == {"z1": ["a"], "z2": []}
        assert alts is None

    def test_report_estimates(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(
            json.dumps({"alternatives": ["a", "b"], "estimates": {"z": ["b"]}})
        )
        mapping, alts = load_assignment(path)
        assert mapping == {"z": ["b"]}
        assert alts == ["a", "b"]

    def test_dataset_ground_truth(self, tmp_path, worked_profile):
        path = tmp_path / "data.json"
        save_dataset(path, worked_profile, (frozenset({0}),) * 4)
        mapping, alts = load_assignment(path)
        assert mapping["z1"] == ["a1"]
        assert alts == list(worked_profile.alternative_ids)


@pytest.fixture
def collector():
    """Restores the garbage collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _json_file(tmp_path, kind):
    """A file for each JSON reader, or for each of its refusals."""
    path = tmp_path / "doc.json"
    if kind == "not-utf8":
        path.write_bytes(b'{"p": ["\xff"]}')
    elif kind == "invalid":
        path.write_text("{not json")
    elif kind == "too-deep":
        path.write_text("[" * 100_000 + "]" * 100_000)
    elif kind == "not-an-object":
        path.write_text("[0.5]")
    elif kind == "dataset":
        save_dataset(path, Profile.build(["a"], ["v1", "v2"], [[{0}, set()]]),
                     np.zeros((1, 1), dtype=bool))
    elif kind == "params":
        path.write_text(json.dumps({"p": [0.6], "q": [0.3], "t": [0.5]}))
    else:
        path.write_text(json.dumps({"z": ["a"]}))
    return path


READERS = [load_dataset, load_params, load_assignment]


class TestCollectorPause:
    """The JSON readers pause the cyclic garbage collector while they decode
    and read a document, and leave it as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("read, kind", [(load_dataset, "dataset"), (load_params, "params"),
                                            (load_assignment, "assignment")],
                             ids=["dataset", "params", "assignment"])
    def test_a_successful_read_keeps_the_callers_state(self, tmp_path, collector, read, kind,
                                                       enabled):
        path = _json_file(tmp_path, kind)
        (gc.enable if enabled else gc.disable)()
        read(path)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("kind, message", [
        ("not-utf8", "is not UTF-8 text"),
        ("invalid", "is not valid JSON"),
        ("too-deep", "is not valid JSON: maximum recursion depth exceeded"),
        ("not-an-object", "does not contain a JSON object"),
    ])
    @pytest.mark.parametrize("read", READERS)
    def test_a_refusal_keeps_the_callers_state(self, tmp_path, collector, read, kind, message,
                                               enabled):
        path = _json_file(tmp_path, kind)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(DatasetFormatError, match=message):
            read(path)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("read, doc, message", [
        (load_dataset, {}, "lacks the 'alternatives' key"),
        (load_params, {}, "lacks keys"),
        (load_assignment, {"z": 5}, "must map instance ids"),
    ], ids=["dataset", "params", "assignment"])
    def test_a_document_refused_after_its_decode_keeps_the_callers_state(
            self, tmp_path, collector, read, doc, message, enabled):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(DatasetFormatError, match=message):
            read(path)
        assert gc.isenabled() is enabled

    def test_the_document_is_read_with_the_collector_paused(self, tmp_path, collector,
                                                            monkeypatch):
        seen = []
        parse = dataset_io.parse_dataset
        monkeypatch.setattr(dataset_io, "parse_dataset",
                            lambda doc, strict: seen.append(gc.isenabled()) or parse(doc, strict))
        gc.enable()
        load_dataset(_json_file(tmp_path, "dataset"))
        assert seen == [False]
        assert gc.isenabled()

    def test_a_benchmark_scale_load_runs_no_collection(self, tmp_path, collector):
        # pausing the decode alone would leave a young collection over the
        # whole document, about 13,000 containers, to the parse
        path = tmp_path / "crowd.json"
        save_dataset(path, *sample_dataset(CROWD))
        generations = []
        gc.callbacks.append(record := lambda phase, info: generations.append(info["generation"]))
        try:
            gc.enable()
            load_dataset(path)
        finally:
            gc.callbacks.remove(record)
        assert generations == []


#: The benchmark's ``crowd`` shape: 250 instances of 50 voters over 5
#: alternatives, enough containers that a decode would meet collections.
CROWD = SynthSpec.homogeneous(5, 50, 250, Bounds(1, 2), p=0.7, q=0.4, seed=53)


def test_benchmark_scale_dataset_reads_back_as_the_reference_reads_it(tmp_path):
    profile, truths = sample_dataset(CROWD)
    path = tmp_path / "crowd.json"
    save_dataset(path, profile, truths)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded_profile, loaded = load_dataset(path)
        assert loaded_profile == profile
        assert truth_sets(loaded) == truths
        assert reference_io.parse_dataset(json.loads(path.read_text())) == profile
