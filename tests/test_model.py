import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from approvalmle import (
    AmleConfig,
    Bounds,
    Instance,
    ParamVector,
    Profile,
    TruthCounts,
    clamp_unit,
    hamming_accuracy,
    harmonic_accuracy,
    run_amle,
    subset_accuracy,
    truth_sets,
    uniform_init,
    validate_profile,
)
from approvalmle.benchmark import restrict_voters
from approvalmle.io import load_dataset, save_dataset
from approvalmle.model import approval_matrix, ranked_prefixes
from approvalmle.synth import SynthSpec, sample_dataset
from conftest import WORKED_FIRST_TRUTHS
from reference_seed import param_vector_fields


#: ``(Profile field, id kind)``, in the order the constructor checks them.
ID_KINDS = [("alternative_ids", "alternative"), ("voters", "voter"), ("instance_ids", "instance")]


class TestValidateProfile:
    def test_worked_profile_is_valid(self, worked_profile, worked_bounds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_profile(worked_profile, worked_bounds) is None
            truths = approval_matrix([{0}] * 4, 5)
            assert validate_profile(worked_profile, worked_bounds, truths) is None

    def test_inverted_bounds_reported(self, worked_profile):
        with pytest.raises(ValueError, match=r"^invalid profile: invalid bounds \(3, 2\) for m=5$"):
            validate_profile(worked_profile, Bounds(3, 2))

    def test_ragged_ballots_reported(self):
        with pytest.raises(ValueError, match="ragged"):
            Profile.build(
                ["a", "b"],
                ["v1", "v2", "v3"],
                [[{0}, {1}, {0}], [{0}, {1}]],
            )

    @pytest.mark.parametrize("instance_ids", [["z1"], ["z1", "z2", "z3"]], ids=["fewer", "more"])
    def test_instance_ids_for_another_number_of_rows_reported(self, instance_ids):
        # a bad member in a row without an id would have no label
        with pytest.raises(ValueError, match=rf"^{len(instance_ids)} instance ids for 2 rows$"):
            Profile.build(["a", "b"], ["v"], [[{0}], [{1.5}]], instance_ids)

    def test_unknown_alternative_reported(self):
        with pytest.raises(ValueError, match="unknown alternatives"):
            Profile.build(["a", "b"], ["v1"], [[{0, 5}]])

    def test_mixed_bad_members_reported_in_order(self):
        ballots = [[{0}, {1}], [{0, 2.0, "x"}, {1}], [{0}], [{True}, {-1, np.int64(1)}]]
        with pytest.raises(ValueError) as excinfo:
            Profile.build(["a", "b"], ["v1", "v2"], ballots, ["z1", "z2", "z3", "z4"])
        # ragged instances are raised first, alone
        assert str(excinfo.value) == "ragged ballots: instance 'z3' has 1 ballots, expected 2"
        del ballots[2]
        with pytest.raises(ValueError) as excinfo:
            Profile.build(["a", "b"], ["v1", "v2"], ballots, ["z1", "z2", "z4"])
        # a bool equals an index but is not one
        assert str(excinfo.value).split("; ") == [
            "instance 'z2', voter position 0 names unknown alternatives [2.0, 'x']",
            "instance 'z4', voter position 0 names unknown alternatives [True]",
            "instance 'z4', voter position 1 names unknown alternatives [-1]",
        ]

    def test_upper_bound_above_m_reported(self, worked_profile):
        with pytest.raises(ValueError, match=r"^invalid profile: invalid bounds \(0, 9\) for m=5$"):
            validate_profile(worked_profile, Bounds(0, 9))

    def test_ground_truth_size_warns_not_violates(self, worked_profile, worked_bounds):
        # one UserWarning per set outside [1, 2], in instance order
        truths = approval_matrix([{0, 1, 2}, {0}, set(), {1}], 5)
        with pytest.warns(UserWarning) as record:
            assert validate_profile(worked_profile, worked_bounds, truths) is None
        assert [(w.category, str(w.message)) for w in record] == [
            (UserWarning, "ground truth of instance 'z1' has size 3 outside [1, 2]"),
            (UserWarning, "ground truth of instance 'z3' has size 0 outside [1, 2]"),
        ]
        # stacklevel=2: each warning points at the caller's line
        assert {w.filename for w in record} == {__file__}

    @pytest.mark.parametrize(
        "truths, got",
        [
            (np.zeros((2, 2), dtype=bool), "bool array of shape \\(2, 2\\)"),
            (np.zeros((1, 3), dtype=bool), "bool array of shape \\(1, 3\\)"),
            (np.zeros(2, dtype=bool), "bool array of shape \\(2,\\)"),
            (np.zeros((1, 2), dtype=np.uint8), "uint8 array of shape \\(1, 2\\)"),
            # the set form, which a reading of each row as a set would misread
            ((frozenset({1}),), "tuple"),
            ([[True, False]], "list"),
        ],
        ids=["too-many-rows", "too-many-columns", "one-dimensional", "uint8", "tuple-of-sets",
             "nested-list"],
    )
    def test_ground_truth_that_is_not_a_truth_array(self, truths, got):
        profile = Profile.build(["a", "b"], ["v"], [[{0}]])
        message = ("^invalid profile: ground truth must be a bool array of shape "
                   "\\(L, m\\) = \\(1, 2\\), got " + got + "$")
        with pytest.raises(ValueError, match=message):
            validate_profile(profile, Bounds(0, 2), truths)

    @pytest.mark.parametrize(
        "member, shown", [("a", "'a'"), (None, "None"), (1.5, "1.5"), (True, "True")],
        ids=["string", "none", "float", "bool"],
    )
    def test_ground_truth_members_that_are_not_indices(self, tmp_path, member, shown):
        # save_dataset still takes sets: the member test of Profile.build, an
        # int or numpy integer in [0, m)
        profile = Profile.build(["a", "b"], ["v"], [[{0}]])
        message = f"ground truth of instance 'z1' names unknown alternatives \\[{shown}]$"
        path = tmp_path / "d.json"
        with pytest.raises(ValueError, match="^cannot save a dataset that would not read back: "
                                             + message):
            save_dataset(path, profile, (frozenset({member}),))
        assert not path.exists()


class TestBounds:
    @pytest.mark.parametrize(
        "lower, upper",
        [(1.0, 2.0), (1, 2.5), (np.float64(1.0), 2), ("1", 2), (None, 2), (1, [2]),
         (True, True), (0, False)],
        ids=["floats", "float-upper", "numpy-float", "string", "none", "list", "bools",
             "bool-upper"],
    )
    def test_refuses_ends_that_are_not_integers(self, lower, upper):
        with pytest.raises(ValueError) as info:
            Bounds(lower, upper)
        assert str(info.value) == f"bounds must be integers, got ({lower!r}, {upper!r})"

    def test_numpy_integers_are_integers(self):
        assert Bounds(np.int64(1), np.uint8(2)) == Bounds(1, 2)

    def test_run_amle_never_meets_float_bounds(self, worked_profile, worked_init):
        # float ends used to reach the counting row, which raised a TypeError
        with pytest.raises(ValueError, match=r"^bounds must be integers, got \(1.0, 2.0\)$"):
            run_amle(worked_profile, Bounds(1.0, 2.0), worked_init)


class TestClamp:
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_idempotent(self, x):
        once = clamp_unit(x)
        assert np.array_equal(clamp_unit(once), once)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_order_preserving(self, x, y):
        if x > y:
            x, y = y, x
        assert clamp_unit(x) <= clamp_unit(y)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            clamp_unit(0.5, epsilon=0.6)


#: One ParamVector field, valid or not: every kind of refusal the
#: constructor names (a non-number, a shape other than 1-D, a value outside
#: (0, 1), NaN) and lengths that may not match.
PARAM_FIELD = st.one_of(
    st.lists(st.floats(0.01, 0.99), max_size=4),
    st.lists(
        st.one_of(
            st.floats(0.01, 0.99),
            st.sampled_from([0.0, 1.0, -0.5, 2.0, 5e-324, float("nan"), float("inf")]),
        ),
        max_size=4,
    ),
    st.sampled_from([0.5, 2.0, "x", None, [[0.5]], [[2.0, 0.5]], [[0.5], [0.5, 0.5]]]),
    st.sampled_from([["x"], [{"a": 1}], ["0.5"], [None], [True, 0.5]]),
    st.lists(st.floats(0.01, 0.99), max_size=4).map(np.array),
    st.lists(st.floats(0.01, 2.0), max_size=4).map(lambda values: np.array([values])),
)


class TestParamVector:
    def test_arrays_are_read_only(self):
        params = ParamVector([0.5, 0.6], [0.4, 0.3], [0.5] * 3)
        for array in (params.p, params.q, params.t, params.packed()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.9

    def test_packed_order_is_p_q_t(self):
        params = ParamVector([0.1, 0.2], [0.3, 0.4], [0.5, 0.6, 0.7])
        assert np.array_equal(
            params.packed(), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        )

    def test_require_open_unit(self):
        with pytest.raises(ValueError, match=re.escape("p must lie strictly in (0, 1), got 0.0")):
            ParamVector([0.0], [0.5], [0.5])

    @pytest.mark.parametrize(
        "p, q, t, message",
        [
            ([0.5, 0.6], [0.4], [0.5], "q has 1 entries for the 2 of p"),
            ([[0.5], [0.6]], [0.4, 0.3], [0.5], "p must be 1-D, got shape (2, 1)"),
            (0.5, [0.4], [0.5], "p must be 1-D, got shape ()"),
            ([0.5], [0.4], [[0.5]], "t must be 1-D"),
            ([0.5], [{"a": 1}], [0.5], "q must be a list of numbers"),
            ([0.5], ["x"], [0.5], "q must be a list of numbers"),
            ([0.5], [0.4], [0.5, 1.0], "t must lie strictly in (0, 1), got 1.0"),
            ([0.5], [0.0], [0.5], "q must lie strictly in (0, 1), got 0.0"),
            ([float("nan")], [0.4], [0.5], "p must lie strictly in (0, 1), got nan"),
        ],
        ids=[
            "short-q", "column-p", "scalar-p", "matrix-t", "object-q", "string-q",
            "t-at-one", "q-at-zero", "nan-p",
        ],
    )
    def test_constructor_rejects_invalid_fields(self, p, q, t, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ParamVector(p, q, t)

    def test_out_of_range_message_is_one_line(self):
        with pytest.raises(ValueError) as info:
            ParamVector([0.5] * 100 + [1.0], [0.4] * 101, [0.5])
        assert str(info.value) == "p must lie strictly in (0, 1), got 1.0"

    @given(PARAM_FIELD, PARAM_FIELD, PARAM_FIELD)
    @example([2.0], [[0.5]], [0.5])
    @example([0.5], [0.5, 2.0], [[0.5]])
    @example([0.5, 0.5], [0.5], [2.0])
    def test_refuses_exactly_as_the_field_by_field_constructor(self, p, q, t):
        # one pass over the packed values must keep the order of the refusals:
        # p, q, t, each by type and shape and then by value, then the lengths
        try:
            want = param_vector_fields(p, q, t)
        except Exception as error:
            with pytest.raises(Exception) as info:
                ParamVector(p, q, t)
            assert (type(info.value), str(info.value)) == (type(error), str(error))
            return
        params = ParamVector(p, q, t)
        for got, field in zip((params.p, params.q, params.t), want):
            assert got.dtype == field.dtype and got.shape == field.shape
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in field.tolist()]
        assert params.packed().tolist() == [x for field in want for x in field.tolist()]


@st.composite
def index_set_ballots(draw):
    """``(m, n, ballots)`` with ``ballots[z][i]`` a frozenset of indices in [0, m)."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 5))
    ballot = st.frozensets(st.integers(0, m - 1)) if m else st.just(frozenset())
    ballots = draw(st.lists(st.lists(ballot, min_size=n, max_size=n), max_size=5))
    return m, n, ballots


class TestProfile:
    @given(index_set_ballots())
    def test_build_round_trips_index_sets(self, drawn):
        m, n, ballots = drawn
        profile = Profile.build(
            [f"a{j}" for j in range(m)], [f"v{i}" for i in range(n)], ballots
        )
        assert [inst.ballots for inst in profile.instances] == [tuple(row) for row in ballots]
        flat = [ballot for row in ballots for ballot in row]
        np.testing.assert_array_equal(
            profile.approvals, approval_matrix(flat, m).reshape(len(ballots), n, m)
        )

    def test_compares_unequal_to_another_type(self, worked_profile):
        assert worked_profile.__eq__(5) is NotImplemented
        assert (worked_profile == 5) is False

    def test_approvals_are_read_only_copies(self, worked_profile):
        source = worked_profile.approvals.copy()
        profile = Profile(
            worked_profile.alternative_ids, worked_profile.voters,
            worked_profile.instance_ids, source,
        )
        source[0, 0, 0] = not source[0, 0, 0]
        assert profile == worked_profile
        with pytest.raises(ValueError):
            profile.approvals[0, 0, 0] = True

    def test_voter_major_ballots_are_built_once_and_read_only(
        self, worked_profile, monkeypatch
    ):
        profile = Profile(
            worked_profile.alternative_ids, worked_profile.voters,
            worked_profile.instance_ids, worked_profile.approvals,
        )
        moveaxis, moves = np.moveaxis, []

        def counting_moveaxis(*args, **kwargs):
            moves.append(args[1:])
            return moveaxis(*args, **kwargs)

        monkeypatch.setattr(np, "moveaxis", counting_moveaxis)
        result = run_amle(profile, Bounds(1, 2), uniform_init(3, 5), AmleConfig(max_iterations=4))
        assert result.iterations > 1
        by_voter = profile.by_voter
        assert moves == [(1, 0)]
        np.testing.assert_array_equal(by_voter, moveaxis(profile.approvals, 1, 0))
        assert by_voter.flags.c_contiguous
        with pytest.raises(ValueError):
            by_voter[0, 0, 0] = True

    @pytest.mark.parametrize("shape", [(4, 3, 4), (4, 2, 5), (3, 3, 5), (4, 15)])
    def test_constructor_rejects_wrong_shape(self, worked_profile, shape):
        with pytest.raises(ValueError, match="approvals has shape"):
            Profile(
                worked_profile.alternative_ids, worked_profile.voters,
                worked_profile.instance_ids, np.zeros(shape, dtype=bool),
            )

    @pytest.mark.parametrize("field, kind", ID_KINDS, ids=[kind for _, kind in ID_KINDS])
    @pytest.mark.parametrize(
        "bad",
        [["b"], ("b",), 1, 2.5, True, None, object(), {"b": 1}, "b\ud800"],
        ids=["list", "tuple", "int", "float", "bool", "none", "object", "dict", "surrogate"],
    )
    def test_constructor_refuses_ids_that_are_not_utf8_strings(self, field, kind, bad):
        # every reader turns an id into its str, so 1 would read back as "1";
        # a lone surrogate cannot be written at all
        ids = {"alternative_ids": ["a", "b"], "voters": ["v", "w"], "instance_ids": ["z", "y"]}
        ids[field][1] = bad
        with pytest.raises(ValueError) as info:
            Profile(**ids, approvals=np.zeros((2, 2, 2), dtype=bool))
        assert str(info.value) == f"{kind} ids must be strings that UTF-8 can encode"

    @pytest.mark.parametrize("field, kind", ID_KINDS, ids=[kind for _, kind in ID_KINDS])
    def test_constructor_refuses_repeated_ids(self, field, kind):
        ids = {"alternative_ids": ["a", "b"], "voters": ["v", "w"], "instance_ids": ["z", "y"]}
        ids[field][1] = ids[field][0]
        repeated = ids[field][0]
        with pytest.raises(ValueError) as info:
            Profile(**ids, approvals=np.zeros((2, 2, 2), dtype=bool))
        assert str(info.value) == f"{kind} ids must be distinct; repeated: [{repeated!r}]"

    def test_repeated_ids_are_listed_sorted_once_each(self):
        with pytest.raises(ValueError) as info:
            Profile.build(["a"], ["w", "v", "w", "u", "v", "w"], [[set()] * 6])
        assert str(info.value) == "voter ids must be distinct; repeated: ['v', 'w']"

    def test_the_first_kind_that_breaks_the_invariant_is_named(self):
        # checked in the order alternative, voter, instance; a kind's type
        # before its repeats, which sorted() could not order
        with pytest.raises(ValueError) as info:
            Profile(["a", "a"], [1, 1], [None], np.zeros((1, 2, 2), dtype=bool))
        assert str(info.value) == "alternative ids must be distinct; repeated: ['a']"
        with pytest.raises(ValueError) as info:
            Profile(["a", "b"], [1, "v", 1], ["z", "z"], np.zeros((2, 3, 2), dtype=bool))
        assert str(info.value) == "voter ids must be strings that UTF-8 can encode"

    def test_string_subclasses_are_strings(self):
        profile = Profile([np.str_("a")], ["v"], ["z"], np.ones((1, 1, 1), dtype=bool))
        assert profile.alternative_ids == ("a",)

    @pytest.mark.parametrize(
        "path",
        ["constructor", "build", "json", "csv", "sample_profile", "restrict_voters"],
    )
    def test_ballots_are_one_read_only_voter_major_block(
        self, worked_profile, tmp_path, path
    ):
        def saved(suffix):
            file = tmp_path / f"data{suffix}"
            save_dataset(file, worked_profile)
            return load_dataset(file)[0]

        make = {
            "constructor": lambda: Profile(
                worked_profile.alternative_ids, worked_profile.voters,
                worked_profile.instance_ids, worked_profile.approvals.tolist(),
            ),
            "build": lambda: worked_profile,
            "json": lambda: saved(".json"),
            "csv": lambda: saved(".csv"),
            "sample_profile": lambda: sample_dataset(
                SynthSpec.homogeneous(4, 6, 5, Bounds(1, 2), 0.8, 0.25, seed=3)
            )[0],
            "restrict_voters": lambda: restrict_voters(worked_profile, [2, 0]),
        }
        profile = make[path]()
        assert np.shares_memory(profile.approvals, profile.by_voter)
        assert profile.by_voter.flags.c_contiguous
        for ballots in (profile.approvals, profile.by_voter):
            with pytest.raises(ValueError):
                ballots[0, 0, 0] = True

    def test_restrict_voters_equals_build_on_kept_ballots(self, worked_profile):
        keep = [2, 0]
        expected = Profile.build(
            worked_profile.alternative_ids,
            [worked_profile.voters[i] for i in sorted(keep)],
            [[inst.ballots[i] for i in sorted(keep)] for inst in worked_profile.instances],
            worked_profile.instance_ids,
        )
        assert restrict_voters(worked_profile, keep) == expected


def test_instance_coerces_ballots_to_frozensets():
    inst = Instance("z", [{0, 1}, [1], set()])
    assert all(isinstance(b, frozenset) for b in inst.ballots)
    assert inst.ballots[1] == frozenset({1})


class TestTruthArray:
    @pytest.mark.parametrize("member", [3, -1], ids=["m", "negative"])
    def test_approval_matrix_rejects_indices_outside(self, member):
        with pytest.raises(ValueError, match=rf"^set 1 names unknown alternatives \[{member}]$"):
            approval_matrix([{0}, {member}], 3)

    @given(st.lists(st.frozensets(st.integers(0, 5)), max_size=6))
    def test_truth_sets_inverts_approval_matrix(self, sets):
        assert truth_sets(approval_matrix(sets, 6)) == tuple(sets)

    def test_ranked_prefixes_mark_the_first_k(self):
        order = np.array([[3, 0, 1, 2], [0, 1, 2, 3], [2, 1, 0, 3]])
        marked = ranked_prefixes(order, np.array([2, 0, 4]))
        assert truth_sets(marked) == (frozenset({0, 3}), frozenset(), frozenset(range(4)))
        assert not marked.flags.writeable

    # ``0 in row`` holds for a bool row that holds a False, so a tuple of sets
    # passed where the array goes must be refused, not read
    @pytest.mark.parametrize(
        "call",
        [
            lambda profile, truths: TruthCounts.count(profile.approvals, truths),
            lambda profile, truths: hamming_accuracy(truths, truths),
            lambda profile, truths: subset_accuracy(truths, truths),
            lambda profile, truths: harmonic_accuracy(truths, truths),
        ],
        ids=["count", "hamming", "subset", "harmonic"],
    )
    def test_sets_where_the_array_goes_are_refused(self, worked_profile, call):
        with pytest.raises(ValueError, match=re.escape("shape (L, m)")):
            call(worked_profile, WORKED_FIRST_TRUTHS)

    @pytest.mark.parametrize(
        "truths",
        [
            np.zeros((4, 5), dtype=int),
            np.zeros((3, 5), dtype=bool),
            np.zeros((4, 4), dtype=bool),
            np.zeros(20, dtype=bool),
        ],
        ids=["int", "short", "narrow", "flat"],
    )
    def test_count_names_the_expected_shape(self, worked_profile, truths):
        with pytest.raises(ValueError, match=re.escape("(L, m) = (4, 5)")):
            TruthCounts.count(worked_profile.approvals, truths)

    def test_count_leaves_the_callers_array_writable(self, worked_profile):
        truths = approval_matrix(WORKED_FIRST_TRUTHS, 5)
        counts = TruthCounts.count(worked_profile.approvals, truths)
        truths[0] = True
        assert truth_sets(counts.truths) == WORKED_FIRST_TRUTHS
        assert not counts.truths.flags.writeable

    def test_metrics_refuse_estimates_of_another_shape(self):
        with pytest.raises(ValueError, match=re.escape("(L, m) = (2, 5)")):
            hamming_accuracy(np.zeros((2, 4), dtype=bool), np.zeros((2, 5), dtype=bool))
