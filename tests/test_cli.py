"""End-to-end tests of the command-line surface via ``cli.main``."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from bicorr import states
from bicorr.cli import build_analysis_report, main
from bicorr.correlation import ObservablePair, covariance_direct
from bicorr.detect import ppt_is_separable
from bicorr.shotsim import ShotConfig
from bicorr.states import load_state_file, mixed_spec, random_mixed, save_state_file
from bicorr.verify import ALL_CHECKS, run_all


@pytest.fixture()
def singlet_file(tmp_path):
    path = tmp_path / "singlet.json"
    assert main(["gen", "--kind", "bell-psim", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def chen_file(tmp_path):
    path = tmp_path / "chen.json"
    assert main(["gen", "--kind", "chen", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def scaled_singlet_file(tmp_path):
    """The singlet times sqrt(1 - 0.9e-9): its norm^2 is within NORM_TOL of 1, so the document is
    accepted as pure, but Tr rho^2 = 1 - 1.8e-9 is below the protocol's purity cut 1 - 1e-9."""
    path = tmp_path / "scaled.json"
    psi = states.bell_state("psi-") * np.sqrt(1 - 0.9e-9)
    save_state_file(path, states.pure_spec(psi, label="scaled singlet"))
    return str(path)


class TestAnalyze:
    def test_singlet_report(self, singlet_file, capsys):
        assert main(["analyze", singlet_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["correlation"]["c"], -np.eye(3), atol=1e-12)
        singular_values = report["correlation"]["singular_values"]
        np.testing.assert_allclose(singular_values, np.ones(3), atol=1e-12)
        assert report["verdicts"]["rank_dichotomy"]["label"] == "Entangled"
        assert report["verdicts"]["ppt"]["separable"] is False

    def test_chen_report(self, chen_file, capsys):
        assert main(["analyze", chen_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        expected = (2 / 9) * np.array([[1, 0, -2], [0, -3, 0], [2, 0, 2]])
        np.testing.assert_allclose(report["correlation"]["c"], expected, atol=1e-12)
        assert abs(report["correlation"]["det"] + 16 / 81) < 1e-12

    def test_product_state_is_separable(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["gen", "--kind", "product", "--seed", "3", "--out", str(path)])
        capsys.readouterr()
        assert main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        singular_values = report["correlation"]["singular_values"]
        np.testing.assert_allclose(singular_values, np.zeros(3), atol=1e-12)
        assert report["verdicts"]["rank_dichotomy"]["label"] == "Separable"

    def test_human_output_mentions_verdicts(self, singlet_file, capsys):
        assert main(["analyze", singlet_file]) == 0
        out = capsys.readouterr().out
        assert "rank dichotomy: Entangled" in out
        assert "ppt oracle:     Entangled" in out

    def test_weak_entanglement_reports_no_contradicting_rank(self, tmp_path, capsys):
        # cos t|00> + sin t|11> at t = 3e-9: c has singular values (6e-9, 6e-9, 3.6e-17),
        # so a rank at a fixed cut would contradict the Entangled verdict.
        t = 3e-9
        path = tmp_path / "weak.json"
        save_state_file(path, states.pure_spec(np.array([np.cos(t), 0, 0, np.sin(t)])))
        assert main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "rank" not in report["correlation"]
        assert report["verdicts"]["rank_dichotomy"]["label"] == "Entangled"
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rank:" not in out
        assert "det(c):" in out

    def test_a_pure_document_is_pure_to_the_protocol(self, scaled_singlet_file, capsys):
        assert main(["analyze", scaled_singlet_file, "--json"]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdicts["rank_dichotomy"]["label"] == "Entangled"
        assert verdicts["protocol"] == {
            "label": "Entangled",
            "basis": "BinaryProtocol",
            "detail": "non-zero correlation at probe 3",
        }

    def test_missing_file_is_an_error(self, capsys):
        assert main(["analyze", "/nonexistent/state.json"]) == 3

    def test_json_report_round_trips(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_state_file(path, mixed_spec(random_mixed(17), label="m"))
        assert main(["analyze", str(path), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        back = tmp_path / "back.json"
        back.write_text(json.dumps(first["state"]))
        assert main(["analyze", str(back), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(
            second["correlation"]["c"], first["correlation"]["c"], atol=1e-12
        )
        np.testing.assert_allclose(second["bloch"]["a"], first["bloch"]["a"], atol=1e-12)

    def test_json_report_is_pinned(self):
        # sha256 of the analyze --json reports of the Bell, Chen and Werner fixtures and of 100
        # Haar and 100 mixed seeded documents, each parsed from its file text; taken with numpy
        # 2.4's bundled OpenBLAS, which a different BLAS or LAPACK build can move in the last bit.
        bells = ("phi+", "phi-", "psi+", "psi-")
        specs = [states.pure_spec(states.bell_state(which), which) for which in bells]
        specs.append(states.pure_spec(states.chen_state(), "chen"))
        specs += [mixed_spec(states.werner(xi), "werner") for xi in (0.0, 1 / 3, 0.5, 1.0)]
        specs += [states.pure_spec(psi) for psi in states.haar_random_pure(range(100))]
        specs += [mixed_spec(rho) for rho in random_mixed(range(100))]
        digest = hashlib.sha256()
        for spec in specs:
            report = build_analysis_report(states.loads_state(states.dumps_state(spec)))
            digest.update(json.dumps(report).encode() + b"\n")
        assert digest.hexdigest() == (
            "267908a0c666d500c93a622266dccbe851212742743ffa844150b7463ade0554"
        )


class TestDetect:
    def test_singlet_exact_exit_code(self, singlet_file):
        assert main(["detect", singlet_file]) == 1

    def test_exact_is_no_flag(self, singlet_file, capsys):
        # Exact calls are what detect makes without --shots; the flag that said so is gone.
        assert main(["detect", singlet_file, "--exact"]) == 3
        assert "unrecognized arguments: --exact" in capsys.readouterr().err

    def test_product_state_exit_code(self, tmp_path):
        path = tmp_path / "p.json"
        main(["gen", "--kind", "product", "--seed", "7", "--out", str(path)])
        assert main(["detect", str(path)]) == 0
        assert main(["detect", str(path), "--shots", "100000", "--seed", "7"]) == 0

    def test_mixed_state_is_indeterminate(self, tmp_path):
        path = tmp_path / "w.json"
        main(["gen", "--kind", "werner", "--xi", "0.2", "--out", str(path)])
        assert main(["detect", str(path)]) == 2
        assert main(["detect", str(path), "--assume-pure"]) == 1

    def test_a_pure_document_is_pure_to_the_protocol(self, scaled_singlet_file, capsys):
        assert main(["detect", scaled_singlet_file, "--json"]) == 1
        exact = json.loads(capsys.readouterr().out)
        assert exact["verdict"]["detail"] == "non-zero correlation at probe 3"
        assert main(["detect", scaled_singlet_file, "--shots", "10000", "--json"]) == 1
        shots = json.loads(capsys.readouterr().out)
        assert shots["verdict"]["detail"].startswith("non-zero correlation at probe 3; ")

    def test_shot_mode_reports_statistics(self, singlet_file, capsys):
        code = main(
            ["detect", singlet_file, "--shots", "10000", "--seed", "1", "--z", "4", "--json"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["shots"] == {"shots": 10000, "seed": 1, "z_threshold": 4.0}
        assert doc["verdict"]["label"] == "Entangled"

    def test_shot_defaults_are_the_shot_configs(self, singlet_file, capsys):
        assert main(["detect", singlet_file, "--shots", "1000", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["shots"] == dataclasses.asdict(ShotConfig(shots=1000))

    def test_custom_probes(self, singlet_file):
        code = main(
            ["detect", singlet_file, "--y", "0,0,1", "--xs", "1,0,0;0,1,0;0,0,1"]
        )
        assert code == 1

    def test_dependent_probes_are_an_error(self, singlet_file):
        code = main(["detect", singlet_file, "--xs", "1,0,0;0,1,0;1,1,0"])
        assert code == 3

    def test_short_probe_set_is_independent(self, singlet_file):
        # Independence is judged on the directions, not on the Gram determinant 1e-12 of 0.01 I.
        assert main(["detect", singlet_file, "--xs", "0.01,0,0;0,0.01,0;0,0,0.01"]) == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--y", "1,2", "--y needs 3 comma-separated numbers, got '1,2'"),
            ("--y", "0,a,1", "--y has a non-numeric component in '0,a,1'"),
            ("--xs", "1,0,0;0,1,0", "--xs needs 3 semicolon-separated vectors, got '1,0,0;0,1,0'"),
        ],
        ids=["two-numbers", "non-numeric", "two-vectors"],
    )
    def test_a_malformed_vector_is_an_input_error(self, singlet_file, flag, value, message, capsys):
        assert main(["detect", singlet_file, flag, value]) == 3
        assert capsys.readouterr() == ("", f"bicorr: error: {message}\n")

    def test_subnormal_y_is_a_direction_for_shots(self, singlet_file):
        assert main(["detect", singlet_file, "--y", "5e-324,5e-324,0", "--shots", "1000"]) == 1

    @pytest.mark.parametrize(
        "amplitudes",
        [
            f"[[{10**400}, 0], [0, 0], [0, 0], [0, 0]]",  # overflows a float
            "[" * 200_000 + "]" * 200_000,  # deeper than the parser's recursion limit
        ],
        ids=["401-digit integer", "200000 brackets deep"],
    )
    def test_malformed_state_file_is_an_input_error(self, amplitudes, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"kind": "pure", "amplitudes": {amplitudes}}}')
        assert main(["detect", str(path)]) == 3
        assert capsys.readouterr().err.startswith("bicorr: error: ")

    def test_an_infinite_imaginary_part_is_an_input_error(self, tmp_path, capsys):
        # Under the suite's warning filter this raised the RuntimeWarning of 0 * inf.
        path = tmp_path / "inf.json"
        path.write_text('{"kind": "pure", "amplitudes": [[1, Infinity], [0, 0], [0, 0], [0, 0]]}')
        assert main(["detect", str(path)]) == 3
        assert capsys.readouterr().err == "bicorr: error: amplitude magnitude inf exceeds 1\n"

    def test_repeat_runs_are_identical(self, singlet_file, capsys):
        args = ["detect", singlet_file, "--shots", "5000", "--seed", "9", "--json"]
        assert main(args) == 1
        first = capsys.readouterr().out
        assert main(args) == 1
        assert capsys.readouterr().out == first


class TestSweepWerner:
    def test_ppt_flip_and_reference_column(self, capsys):
        code = main(
            ["sweep-werner", "--from", "0", "--to", "1", "--steps", "11", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["rows"]
        assert len(rows) == 11
        for row in rows:
            assert abs(row["covariance"] - row["reference"]) < 1e-12
        flags = [row["ppt_separable"] for row in rows]
        assert flags == [True] * 4 + [False] * 7

    def test_orthogonal_pair_gives_zero_column(self, capsys):
        code = main(
            [
                "sweep-werner",
                "--from", "0", "--to", "1", "--steps", "5",
                "--pair", "1,0,0|0,0,1",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(abs(row["covariance"]) < 1e-12 for row in doc["rows"])

    def test_rows_equal_the_per_state_results(self, capsys):
        argv = ["--from", "0", "--to", "1", "--steps", "41", "--pair", "0.6,0,0.8|0,0.28,0.96"]
        assert main(["sweep-werner", *argv, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        pair = ObservablePair(x=[0.6, 0, 0.8], y=[0, 0.28, 0.96])
        assert len(rows) == 41
        for row in rows:
            rho = states.werner(row["xi"])
            assert row["covariance"] == covariance_direct(rho, pair)
            assert row["ppt_separable"] is ppt_is_separable(rho)

    def test_text_table(self, capsys):
        argv = ["--from", "0", "--to", "1", "--steps", "3", "--pair", "1,0,0|0.6,0,0.8"]
        assert main(["sweep-werner", *argv]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "pair: x=[ 1,  0,  0]  y=[ 0.6,  0,  0.8]",
            "        xi          covariance           -xi/4 x.y  ppt",
            "  0.000000      0.000000000000     -0.000000000000  separable",
            "  0.500000     -0.075000000000     -0.075000000000  entangled",
            "  1.000000     -0.150000000000     -0.150000000000  entangled",
        ]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--steps", "0"], "--steps must be an integer of at least 1, got 0"),
            (["--steps", "3", "--pair", "1,0,0"], "--pair needs 'x1,x2,x3|y1,y2,y3', got '1,0,0'"),
        ],
        ids=["no-steps", "pair-without-bar"],
    )
    def test_bad_grid_or_pair_is_an_input_error(self, extra, message, capsys):
        assert main(["sweep-werner", "--from", "0", "--to", "1", *extra]) == 3
        assert capsys.readouterr() == ("", f"bicorr: error: {message}\n")

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--from", "0", "--to", "inf"], "--to must be a finite number, got inf"),
            (["--from", "nan", "--to", "1"], "--from must be a finite number, got nan"),
            (["--from=-inf", "--to", "1"], "--from must be a finite number, got -inf"),
        ],
        ids=["to-inf", "from-nan", "from-minus-inf"],
    )
    def test_a_bound_that_is_not_finite_is_an_input_error(self, bounds, message, capsys):
        # linspace spread an infinite bound into nans, with numpy's RuntimeWarning on stderr.
        assert main(["sweep-werner", *bounds, "--steps", "2"]) == 3
        assert capsys.readouterr() == ("", f"bicorr: error: {message}\n")

    @pytest.mark.parametrize("bound", ["-0.5", "1.5", "1.7976931348623157e+308"])
    def test_a_bound_outside_0_1_is_an_input_error(self, bound, capsys):
        # A huge --to made linspace overflow, with numpy's RuntimeWarning, before werner refused
        # the grid.
        assert main(["sweep-werner", "--from", "0", "--to", bound, "--steps", "470"]) == 3
        message = f"--to must lie in [0, 1], got {float(bound)}"
        assert capsys.readouterr() == ("", f"bicorr: error: {message}\n")

    def test_endpoint_matches_singlet(self, capsys):
        main(["sweep-werner", "--from", "1", "--to", "1", "--steps", "1", "--json"])
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert abs(row["covariance"] + 0.25) < 1e-12
        assert row["ppt_separable"] is False


@pytest.mark.parametrize(
    "stubbed, argv",
    [
        ("werner", ["sweep-werner", "--from", "0", "--to", "1", "--steps", "3"]),
        ("random_separable_mixed", ["gen", "--kind", "sep-mixed", "--out", "x.json"]),
    ],
    ids=["sweep-werner", "gen"],
)
def test_out_of_memory_is_an_input_error(stubbed, argv, monkeypatch, tmp_path, capsys):
    # The stub stands in for an allocation larger than the machine: a real
    # one can succeed where memory is overcommitted, and then exhaust it.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(states, stubbed, out_of_memory)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert capsys.readouterr().err == "bicorr: error: Unable to allocate 7.28 TiB\n"


class TestGen:
    def test_werner_requires_xi(self, tmp_path, capsys):
        code = main(["gen", "--kind", "werner", "--out", str(tmp_path / "w.json")])
        assert code == 3

    def test_every_kind_produces_a_loadable_state(self, tmp_path):
        kinds = [
            ("bell-phip", []), ("bell-phim", []), ("bell-psip", []), ("bell-psim", []),
            ("chen", []), ("werner", ["--xi", "0.4"]),
            ("haar", ["--seed", "5"]), ("product", ["--seed", "5"]),
            ("sep-mixed", ["--seed", "5", "--k", "3"]),
        ]
        for kind, extra in kinds:
            path = tmp_path / f"{kind}.json"
            assert main(["gen", "--kind", kind, "--out", str(path)] + extra) == 0
            load_state_file(path)

    @pytest.mark.parametrize("kind", ["haar", "product", "sep-mixed"])
    def test_a_negative_seed_is_named(self, kind, tmp_path, capsys):
        # It read "expected non-negative integer", which names no input.
        assert main(["gen", "--kind", kind, "--seed", "-1", "--out", str(tmp_path / "s.json")]) == 3
        message = "bicorr: error: seed must be an integer of at least 0, got -1\n"
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "s.json").exists()

    def test_gen_is_seed_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--kind", "haar", "--seed", "11", "--out", str(a)])
        main(["gen", "--kind", "haar", "--seed", "11", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestVerify:
    def test_small_trial_budget_is_rejected(self):
        assert main(["verify", "--trials", "50"]) == 3

    def test_fractional_trial_count_is_rejected_before_any_check(self):
        lines = []
        message = r"^trials must be an integer of at least 100, got 150\.5$"
        with pytest.raises(ValueError, match=message):
            run_all(trials=150.5, out=lines.append)
        assert lines == []

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_outside_the_64_bit_range_is_rejected_before_any_check(self, seed):
        lines = []
        message = f"seed must be an integer from 0 to {2**64 - 1}, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_all(trials=100, seed=seed, out=lines.append)
        assert lines == []

    def test_a_bool_seed_is_rejected_before_any_check(self):
        lines = []  # True ran as seed 1
        message = f"^seed must be an integer from 0 to {2**64 - 1}, got True$"
        with pytest.raises(ValueError, match=message):
            run_all(trials=100, seed=True, out=lines.append)
        assert lines == []

    @pytest.mark.parametrize(
        "trials, seed",
        [
            (100, np.int64(2**63 - 1)),
            (100, np.uint64(2**64 - 1)),
            (100, np.uint64(2**64 - 200)),
            (np.int8(100), 0),
        ],
        ids=["int64-max", "uint64-max", "uint64-top-200", "int8-trials"],
    )
    def test_numpy_integers_print_the_lines_of_python_ints(self, trials, seed):
        # seed + 808 wrapped in uint64 and 3 * trials in int8; both are taken as Python ints.
        lines, expected = [], []
        assert run_all(trials, seed, lines.append) == run_all(int(trials), int(seed), expected.append)
        assert lines == expected

    def test_largest_seeds_wrap_the_shot_seeds(self, capsys):
        # The shot checks draw at (seed + i) mod 2**64, so no check is cut off near the top.
        assert main(["verify", "--trials", "100", "--seed", str(2**64 - 5)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(ALL_CHECKS) + 1
        assert all(line.startswith("[PASS] ") for line in lines[:-1])

    def test_reduced_run_passes(self, capsys):
        assert main(["verify", "--trials", "150"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(ALL_CHECKS) + 1
        for line, (name, _) in zip(lines, ALL_CHECKS):
            assert line.startswith(f"[PASS] {name}: ")
        assert lines[-1] == "verification: all suites passed"
