"""Tests for fixture states, seeded generators, and the state-file format."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bicorr import states, streams
from bicorr.detect import classify_pure_by_rank, ppt_is_separable
from bicorr.qstate import (
    InvalidState,
    as_density_matrix,
    bloch_decompose,
    density_from_pure,
)
from bicorr.states import (
    ParseError,
    StateSpec,
    XiOutOfRange,
    bell_state,
    chen_state,
    dumps_state,
    haar_random_pure,
    load_state_file,
    loads_state,
    mixed_spec,
    pure_spec,
    random_mixed,
    random_product_pure,
    random_separable_mixed,
    save_state_file,
    werner,
)


class TestFixtures:
    def test_singlet_amplitudes(self):
        np.testing.assert_allclose(
            bell_state("psi-"), np.array([0, 1, -1, 0]) / np.sqrt(2), atol=1e-15
        )

    def test_phi_plus_amplitudes(self):
        np.testing.assert_allclose(
            bell_state("phi+"), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_all_bell_states_are_entangled(self):
        for which in ("phi+", "phi-", "psi+", "psi-"):
            assert classify_pure_by_rank(bell_state(which)).label == "Entangled"

    def test_unknown_bell_state(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("omega")

    def test_chen_state_values(self):
        psi = chen_state()
        np.testing.assert_allclose(psi, np.array([1, 1, 0, 1]) / np.sqrt(3), atol=1e-15)
        bf = bloch_decompose(density_from_pure(psi))
        np.testing.assert_allclose(bf.a, np.array([2, 0, 1]) / 3, atol=1e-12)
        assert abs(np.linalg.norm(bf.a) ** 2 - 5 / 9) < 1e-12
        assert classify_pure_by_rank(psi).label == "Entangled"


class TestWerner:
    def test_endpoints(self):
        np.testing.assert_allclose(werner(0.0), np.eye(4) / 4, atol=1e-15)
        np.testing.assert_allclose(
            werner(1.0), density_from_pure(bell_state("psi-")), atol=1e-15
        )

    def test_midpoint_entries(self):
        rho = werner(0.5)
        np.testing.assert_allclose(np.diag(rho).real, [0.125, 0.375, 0.375, 0.125])
        assert rho[1, 2] == -0.25
        assert rho[2, 1] == -0.25

    def test_bloch_form(self):
        for xi in np.linspace(0, 1, 11):
            bf = bloch_decompose(werner(xi))
            np.testing.assert_allclose(bf.a, 0.0, atol=1e-12)
            np.testing.assert_allclose(bf.b, 0.0, atol=1e-12)
            np.testing.assert_allclose(bf.f, -xi * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("xi", [-0.01, 1.01, 5.0])
    def test_rejects_xi_outside_range(self, xi):
        with pytest.raises(XiOutOfRange):
            werner(xi)

    @pytest.mark.parametrize(
        "xi, got",
        [
            ("0.5", "'0.5'"),  # drew werner(0.5), while a state file refuses a string entry
            ([0.5, "0.2"], "[0.5, '0.2']"),
            (True, "True"),  # drew werner(1.0)
            (np.True_, "np.True_"),
            (None, "None"),  # failed as "xi lies nan outside [0, 1]"
            ([0.5, None], "[0.5, None]"),
            (1j, "1j"),  # raised TypeError
            ([0.5, True], "[0.5, True]"),  # numpy cast it to werner([0.5, 1.0])
            ([[0.5], [np.False_]], "[[0.5], [np.False_]]"),
            ((1, True), "(1, True)"),  # cast to int64
            ([0.5, [0.2, 0.3]], "[0.5, [0.2, 0.3]]"),  # numpy's "inhomogeneous shape" ValueError
            ([np.zeros(2), np.zeros(3)], "[array([0., 0.]), array([0., 0., 0.])]"),
        ],
        ids=[
            "str", "str-in-a-list", "True", "np.True_", "None", "None-in-a-list", "complex",
            "True-in-a-list", "np.False_-in-a-nested-list", "True-among-ints", "ragged-list",
            "ragged-arrays",
        ],
    )
    def test_rejects_an_xi_that_is_not_a_real_number(self, xi, got):
        message = f"xi must be a real number or a stack of them, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            werner(xi)
        assert not isinstance(caught.value, XiOutOfRange)

    def test_takes_integers_as_their_floats(self):
        assert werner(np.int64(1)).tobytes() == werner(1.0).tobytes()
        assert werner([0, 1]).tobytes() == werner([0.0, 1.0]).tobytes()


# Each generator as draw(seed, k) for one seed or a sequence: seeds at both ends of the
# 64-bit range, a count per seed where the generator takes one.
STACK_SEEDS = list(range(300)) + list(range(2**64 - 100, 2**64 + 20))
STACK_KS = [1 + seed % 6 for seed in STACK_SEEDS]
STACKABLE = {
    "haar_random_pure": lambda seed, k: haar_random_pure(seed),
    "random_product_pure": lambda seed, k: random_product_pure(seed),
    "random_separable_mixed": lambda seed, k: random_separable_mixed(seed, k),
    "random_separable_mixed(k=4)": lambda seed, k: random_separable_mixed(seed),
    "random_mixed": lambda seed, k: random_mixed(seed, k),
    "random_mixed(k=4)": lambda seed, k: random_mixed(seed),
    "random_density": lambda seed, k: states.random_density(seed),
    "werner": lambda seed, k: werner(np.asarray(seed, dtype=float) % 101 / 100),
}


class TestGenerators:
    def test_haar_states_are_normalized(self):
        for seed in range(200):
            assert abs(np.linalg.norm(haar_random_pure(seed)) - 1) < 1e-12

    def test_generators_are_seed_deterministic(self):
        for seed in (0, 7, 123456789):
            np.testing.assert_array_equal(haar_random_pure(seed), haar_random_pure(seed))
            np.testing.assert_array_equal(
                random_product_pure(seed), random_product_pure(seed)
            )
            np.testing.assert_array_equal(
                random_separable_mixed(seed, 3), random_separable_mixed(seed, 3)
            )
            np.testing.assert_array_equal(random_mixed(seed, 3), random_mixed(seed, 3))

    def test_seed_to_output_map_is_pinned(self):
        # One digest over every generator's bytes at seeds 0-999, taken before the
        # mixtures were rewritten without np.kron/np.outer; every check's inputs hang on it.
        digest = hashlib.sha256()
        for seed in range(1000):
            draws = [haar_random_pure(seed), random_product_pure(seed)]
            for k in range(1, 6):
                draws += [random_separable_mixed(seed, k), random_mixed(seed, k)]
            draws.append(states.random_density(seed))
            for draw in draws:
                digest.update(draw.tobytes())
        assert digest.hexdigest() == (
            "74a6dec7dc3f9a50346c8f99c044647cf8ecdf7f10dc459073c793794381a415"
        )

    def test_different_seeds_differ(self):
        assert not np.allclose(haar_random_pure(1), haar_random_pure(2))

    def test_product_states_have_zero_correlation_matrix(self):
        from bicorr.correlation import correlation_matrix

        for seed in range(200):
            cm = correlation_matrix(density_from_pure(random_product_pure(seed)))
            assert np.abs(cm.c).max() < 1e-10

    def test_separable_mixtures_pass_validation_and_ppt(self):
        for seed in range(200):
            rho = random_separable_mixed(seed, 1 + seed % 6)
            as_density_matrix(rho)
            assert ppt_is_separable(rho)

    def test_pure_state_mixtures_pass_validation(self):
        for seed in range(200):
            as_density_matrix(random_mixed(seed, 1 + seed % 6))

    def test_component_count_must_be_positive(self):
        with pytest.raises(ValueError):
            random_separable_mixed(0, 0)


def test_a_random_density_stack_is_seeded_by_one_kernel_call(monkeypatch):
    # Every kind and every k group takes its rows of the one seeding; none seeds on its own.
    calls, kernel = [], streams._generate_state

    def counted(words):
        calls.append(len(words))
        return kernel(words)

    monkeypatch.setattr(streams, "_generate_state", counted)
    for name in ("SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name, lambda *args: pytest.fail("seeded one by one"))
    rho = states.random_density(range(200))
    assert calls == [200]
    monkeypatch.undo()
    assert rho.tobytes() == np.stack([states.random_density(s) for s in range(200)]).tobytes()


def test_the_declared_numpy_floor_is_at_least_2_0():
    # The generators normalize with np.vecdot, which numpy added in 2.0.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    (floor,) = [dep for dep in project["dependencies"] if re.match(r"numpy\b", dep)]
    version = re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)*", floor)
    assert version and tuple(map(int, version.groups())) >= (2, 0)


@pytest.mark.parametrize("name", STACKABLE)
class TestSeedStacks:
    def test_a_seed_stack_equals_one_call_per_seed(self, name):
        draw = STACKABLE[name]
        stack = draw(STACK_SEEDS, STACK_KS)
        each = np.stack([draw(seed, k) for seed, k in zip(STACK_SEEDS, STACK_KS)])
        assert stack.shape == each.shape and stack.tobytes() == each.tobytes()

    def test_an_empty_seed_list_gives_an_empty_stack(self, name):
        shape = STACKABLE[name](0, 1).shape
        assert STACKABLE[name]([], []).shape == (0,) + shape


class TestSeedStackInputs:
    def test_every_seed_type_draws_the_same_stack(self):
        top = 2**64 - 3
        expected = haar_random_pure([top, top + 1, top + 2])
        for seeds in (range(top, top + 3), np.arange(top, top + 3, dtype=np.uint64)):
            assert haar_random_pure(seeds).tobytes() == expected.tobytes()
        assert random_mixed(np.arange(5), np.arange(1, 6)).tobytes() == (
            random_mixed(range(5), [1, 2, 3, 4, 5]).tobytes()
        )

    @pytest.mark.parametrize(
        "draw, seed, k",
        [
            (random_mixed, 3, 2.5),
            (random_mixed, 3, 2.0),
            (random_separable_mixed, 3, True),
            (random_separable_mixed, 3, np.True_),
            (random_separable_mixed, range(3), [1.5, 2, 3]),
            (random_mixed, range(3), [True, 2, 3]),
            (random_mixed, range(3), np.array([True, True, False])),
            (random_mixed, range(3), np.array([2.0, 2.0, 2.0])),
        ],
    )
    def test_a_count_that_is_not_an_integer_is_rejected(self, draw, seed, k):
        # Each was truncated or taken as 0/1 and drew without an error.  Every stack here fails
        # at its first entry, which an integer array holds as its Python value.
        at, got = ("", k) if np.ndim(k) == 0 else (" at stack index 0", np.asarray(k, object)[0])
        message = f"k{at} must be an integer from 1 to {2**63 - 1}, got {got!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            draw(seed, k)

    def test_a_stack_with_a_bad_count_or_xi_is_rejected(self):
        message = f"^k at stack index 1 must be an integer from 1 to {2**63 - 1}, got 0$"
        with pytest.raises(ValueError, match=message):
            random_mixed([1, 2, 3], [2, 0, 2])
        with pytest.raises(XiOutOfRange, match="^xi at stack index 1 lies 0.5 outside"):
            werner([0.2, 1.5, 0.3])

    def test_a_ragged_stack_of_counts_is_named(self):
        # numpy raised "could not broadcast input array from shape (2,2) into shape (2,)".
        message = f"^k must be an integer from 1 to {2**63 - 1}, got \\[array\\("
        with pytest.raises(ValueError, match=message):
            random_mixed(range(2), [np.zeros((2, 2)), np.zeros((2, 3))])

    def test_a_count_past_int64_is_named_as_out_of_range(self):
        # It was called "not an integer count".
        message = f"^k must be an integer from 1 to {2**63 - 1}, got {2**70}$"
        with pytest.raises(ValueError, match=message):
            random_mixed(3, 2**70)


GENERATORS = [
    haar_random_pure,
    random_product_pure,
    random_separable_mixed,
    random_mixed,
    states.random_density,
]


@pytest.mark.parametrize("draw", GENERATORS, ids=lambda draw: draw.__name__)
class TestSeedInputs:
    """Every generator takes seeds through one integer rule, and names the seed that breaks it."""

    @pytest.mark.parametrize(
        "seed, at, got",
        [
            (True, "", "True"),  # ran as seed 1
            (np.True_, "", "np.True_"),
            ([0, True], " at stack index 1", "True"),
            ([[0, 1], [2, False]], " at stack index 1, 1", "False"),
        ],
        ids=["True", "np.True_", "in-a-list", "in-a-nested-list"],
    )
    def test_a_bool_seed_is_rejected(self, draw, seed, at, got):
        message = f"^seed{at} must be an integer of at least 0, got {got}$"
        with pytest.raises(ValueError, match=message):
            draw(seed)

    @pytest.mark.parametrize(
        "seed, got",
        [(0.5, "0.5"), (np.float64(3.0), "np.float64(3.0)"), ("3", "'3'"), (None, "None")],
        ids=["float", "numpy-float", "str", "None"],
    )
    def test_a_seed_that_is_not_an_integer_is_rejected(self, draw, seed, got):
        # numpy's SeedSequence raised TypeError for each.
        message = f"seed must be an integer of at least 0, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            draw(seed)

    def test_a_ragged_stack_of_seeds_is_named(self, draw):
        # numpy raised "could not broadcast input array from shape (2,2) into shape (2,)".
        message = r"^seed must be an integer of at least 0, got \[array\("
        with pytest.raises(ValueError, match=message):
            draw([np.zeros((2, 2)), np.zeros((2, 3))])

    @pytest.mark.parametrize(
        "seeds, at, got",
        [
            ([1.5] + list(range(40)), 0, "1.5"),
            (list(range(40)) + [2.5], 40, "2.5"),
            (list(range(20)) + [np.float64(3.0)], 20, "np.float64(3.0)"),
            (list(range(40)) + [-1], 40, "-1"),
            (list(range(1)) + [-1], 1, "-1"),
        ],
        ids=["first", "last", "numpy float", "negative", "negative-below-crossover"],
    )
    def test_a_bad_seed_in_a_stack_is_named_by_its_index(self, draw, seeds, at, got):
        # seed_words raised numpy's TypeError or ValueError for these, naming no seed.
        message = f"seed at stack index {at} must be an integer of at least 0, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            draw(seeds)


MATRIX_LAYOUT = "matrix must be 4 x 4 [re, im] pairs of floats"


class TestStateFiles:
    def test_pure_round_trip(self, tmp_path):
        spec = pure_spec(chen_state(), label="chen")
        path = tmp_path / "chen.json"
        save_state_file(path, spec)
        loaded = load_state_file(path)
        assert loaded.kind == "pure"
        assert loaded.label == "chen"
        np.testing.assert_array_equal(loaded.amplitudes, spec.amplitudes)

    def test_mixed_round_trip_is_exact(self, tmp_path):
        spec = mixed_spec(random_mixed(9), label="mixture")
        path = tmp_path / "mixed.json"
        save_state_file(path, spec)
        loaded = load_state_file(path)
        np.testing.assert_array_equal(loaded.matrix.matrix, spec.matrix.matrix)

    def test_a_zero_keeps_its_sign_only_by_the_parse_rule(self):
        # re + 1j * im: an im of -0.0 reads as 0.0; a re of -0.0 stays only beside a negative im.
        written = [[0.6, -0.0], [-0.0, -0.8], [-0.0, 0.0], [-0.0, -0.0]]
        echoed = [[0.6, 0.0], [-0.0, -0.8], [0.0, 0.0], [-0.0, 0.0]]
        spec = loads_state(json.dumps({"kind": "pure", "amplitudes": written}))
        assert json.dumps(states.state_doc(spec)["amplitudes"]) == json.dumps(echoed)
        matrix = np.full((4, 4, 2), -0.0)
        matrix[[0, 1, 2, 3], [0, 1, 2, 3], 0] = 0.25
        matrix[0, 1] = [-0.0, 0.0]
        spec = loads_state(json.dumps({"kind": "mixed", "matrix": matrix.tolist()}))
        echo = np.array(states.state_doc(spec)["matrix"])
        assert not np.signbit(echo[..., 1]).any()  # every imaginary zero reads as 0.0
        assert np.signbit(echo[..., 0]).sum() == 16 - 4 - 1  # every -0.0 re but [0, 1]'s

    def test_density_of_pure_spec(self):
        spec = pure_spec(bell_state("psi-"))
        np.testing.assert_allclose(
            spec.matrix.matrix, density_from_pure(bell_state("psi-")), atol=1e-15
        )

    @pytest.mark.parametrize(
        "build, state, shape",
        [
            (pure_spec, np.stack([bell_state("psi-")] * 2), "(2, 4)"),
            (pure_spec, bell_state("psi-")[None], "(1, 4)"),
            (mixed_spec, werner([0.2, 0.5]), "(2, 4, 4)"),
        ],
        ids=["two pure states", "a stack of one", "two Werner states"],
    )
    def test_a_spec_holds_one_state(self, build, state, shape):
        # A stack was kept, and written by dumps_state to a document loads_state refused.
        message = f"a state spec holds one state, got a stack of shape {shape}"
        with pytest.raises(InvalidState, match=f"^{re.escape(message)}$"):
            build(state)

    def test_rejects_malformed_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            loads_state("{not json")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ParseError, match="kind"):
            loads_state('{"kind": "pureish", "amplitudes": []}')

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(ParseError, match="pairs"):
            loads_state('{"kind": "pure", "amplitudes": [[1, 0], [0, 0]]}')

    def test_rejects_missing_matrix(self):
        with pytest.raises(ParseError, match="matrix"):
            loads_state('{"kind": "mixed"}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"kind": "pure"}]', "state document must be a JSON object"),
            ('{"kind": "mixed", "label": 7, "matrix": []}', "label must be a string"),
            ('{"kind": "pure", "label": "x"}', "pure state document needs an 'amplitudes' field"),
        ],
        ids=["array", "numeric-label", "pure-without-amplitudes"],
    )
    def test_rejects_a_malformed_document(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            loads_state(text)

    @pytest.mark.parametrize(
        "last_row, cause",
        [
            ([[0.25, 0], [0, 0], [0, 0], [0]], ValueError),
            ([[0.25, 0], [0, 0], [0, 0]], ValueError),  # ragged against the other rows
            ([[0.25, 0], [0, 0], [0, 0], ["a", 0]], ValueError),
            ([[0.25, 0], [0, 0], [0, 0], [10**400, 0]], ValueError),  # the number rule's
        ],
        ids=["ragged-row", "row-of-3-pairs", "non-numeric", "integer-overflows-a-float"],
    )
    def test_rejects_a_malformed_matrix_row(self, last_row, cause):
        row = [[0.25, 0], [0, 0], [0, 0], [0, 0]]
        text = json.dumps({"kind": "mixed", "matrix": [row, row, row, last_row]})
        with pytest.raises(ParseError, match=f"^{re.escape(MATRIX_LAYOUT)}$") as info:
            loads_state(text)
        assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize(
        "matrix, shape",
        [([[[0.25, 0]] * 3] * 4, "(4, 3, 2)"), ([[[0.25, 0]] * 4] * 3, "(3, 4, 2)"), (0.25, "()")],
        ids=["rows-of-3-pairs", "3-rows", "a-number"],
    )
    def test_rejects_a_matrix_of_the_wrong_shape(self, matrix, shape):
        message = f"{MATRIX_LAYOUT}, got shape {shape}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            loads_state(json.dumps({"kind": "mixed", "matrix": matrix}))

    @pytest.mark.parametrize(
        "value", ["1", True, False, None], ids=["string", "true", "false", "null"]
    )
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_rejects_an_entry_that_is_not_a_number(self, kind, value):
        # float() takes "1" and true as 1.0, false as 0.0 and null as nan.
        if kind == "pure":
            doc = {"kind": kind, "amplitudes": [[value, 0], [0, 0], [0, 0], [0, 0]]}
            layout = "amplitudes must be 4 [re, im] pairs of floats"
        else:
            doc = {"kind": kind, "matrix": (np.eye(4)[..., None] * [0.25, 0]).tolist()}
            doc["matrix"][0][0][1] = value
            layout = MATRIX_LAYOUT
        with pytest.raises(ParseError, match=f"^{re.escape(layout)}$"):
            loads_state(json.dumps(doc))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("inf", ["Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_an_infinite_imaginary_part_is_refused_without_a_warning(self, kind, inf):
        # re + 1j * im computed 0 * inf, whose RuntimeWarning came before the refusal.
        if kind == "pure":
            text = f'{{"kind": "pure", "amplitudes": [[1, {inf}], [0, 0], [0, 0], [0, 0]]}}'
            message = "amplitude magnitude inf exceeds 1"
        else:
            doc = {"kind": "mixed", "matrix": (np.eye(4)[..., None] * [0.25, 0]).tolist()}
            doc["matrix"][0][1][1] = "im"
            text = json.dumps(doc).replace('"im"', inf)
            message = "density matrix entry magnitude inf exceeds 1"
        with pytest.raises(InvalidState, match=f"^{re.escape(message)}$"):
            loads_state(text)

    def test_invalid_state_is_reported_by_validation(self):
        doc = dumps_state(StateSpec(kind="pure", amplitudes=np.array([1, 0, 0, 0])))
        bad = doc.replace("1.0", "0.9", 1)
        with pytest.raises(InvalidState):
            loads_state(bad)
