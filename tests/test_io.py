import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approvalmle import ParamVector, Profile
from approvalmle.io import (
    DatasetFormatError,
    dataset_document,
    load_assignment,
    load_dataset,
    load_params,
    load_profile_csv,
    parse_dataset,
    save_dataset,
    save_params,
    save_profile_csv,
)


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
        assert parsed_truths == truths

    def test_file_round_trip(self, tmp_path, worked_profile):
        path = tmp_path / "data.json"
        truths = (frozenset({1}),) * 4
        save_dataset(path, worked_profile, truths)
        profile, parsed_truths = load_dataset(path)
        assert profile == worked_profile
        assert parsed_truths == truths


class TestCsvRoundTrip:
    def test_file_round_trip(self, tmp_path, worked_profile):
        path = tmp_path / "data.csv"
        save_profile_csv(path, worked_profile)
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


class TestParseDataset:
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


class TestParams:
    def test_round_trip(self, tmp_path):
        params = ParamVector([0.5, 0.6], [0.4, 0.3], [0.5, 0.2, 0.9])
        path = tmp_path / "params.json"
        save_params(path, params)
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
