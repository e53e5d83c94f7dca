"""Command-line interface: reports, files, exit codes."""

import dataclasses
import hashlib
import json
import math
import pathlib
import re

import pytest

from bayesfuse import load_distribution, search
from bayesfuse.cli import fmt17, main


@pytest.fixture()
def files(tmp_path):
    """Standard input files used across the CLI tests."""

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "prior": write("prior.json", {"kind": "discrete", "atoms": [["0", 0.5], ["1", 0.5]]}),
        "like": write("like.json", {"kind": "discrete", "atoms": [["0", 0.8], ["1", 0.2]]}),
        "skew": write("skew.json", {"kind": "discrete", "atoms": [["0", 0.9], ["1", 0.1]]}),
        "far": write("far.json", {"kind": "discrete", "atoms": [["2", 0.5], ["3", 0.5]]}),
        "pm0": write("pm0.json", {"kind": "discrete", "atoms": [["0", 1.0]]}),
        "pm3": write("pm3.json", {"kind": "discrete", "atoms": [["3", 1.0]]}),
        "tmp": tmp_path,
        "write": write,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


def strip_timing(out):
    return "\n".join(l for l in out.splitlines() if not l.startswith("elapsed_seconds"))


class TestFmt17:
    def test_round_trips_floats_bit_for_bit(self, rng):
        for value in rng.uniform(-1e6, 1e6, 200):
            assert float(fmt17(float(value))) == float(value)
        assert float(fmt17(0.1)) == 0.1
        assert fmt17(True) == "true"


class TestPosteriorCommand:
    def test_writes_the_product_rule_posterior(self, capsys, files):
        out_file = str(files["tmp"] / "post.json")
        code, out, _ = run(capsys, "posterior", files["prior"], files["like"], "--out", out_file)
        assert code == 0
        assert report_value(out, "overlap_mass") == "0.5"
        assert report_value(out, "loss_lower_bound_bits") == "1"
        posterior = load_distribution(out_file)
        assert posterior.masses == (0.8, 0.2)

    def test_equal_weights_match_the_unweighted_run(self, capsys, files):
        plain_out = str(files["tmp"] / "plain.json")
        weighted_out = str(files["tmp"] / "weighted.json")
        run(capsys, "posterior", files["prior"], files["like"], "--out", plain_out)
        code, out, _ = run(
            capsys,
            "posterior", files["prior"], files["like"],
            "--w0", "7", "--wL", "7", "--out", weighted_out,
        )
        assert code == 0
        assert report_value(out, "rule") == "bayes"
        assert load_distribution(plain_out) == load_distribution(weighted_out)

    def test_unequal_weights_use_the_weighted_rule(self, capsys, files):
        code, out, _ = run(
            capsys, "posterior", files["prior"], files["like"], "--w0", "2", "--wL", "1"
        )
        assert code == 0
        assert report_value(out, "rule") == "weighted"
        assert float(report_value(out, "posterior_atom_0")) == pytest.approx(2 / 3, abs=1e-12)

    def test_disjoint_supports_exit_incompatible(self, capsys, files):
        code, _, err = run(capsys, "posterior", files["prior"], files["far"])
        assert code == 3
        assert "not compatible" in err

    def test_disjoint_supports_with_weights_exit_degenerate(self, capsys, files):
        code, _, _ = run(
            capsys, "posterior", files["prior"], files["far"], "--w0", "2", "--wL", "1"
        )
        assert code == 4

    def test_malformed_file_exits_parse_error(self, capsys, files):
        bad = files["write"]("bad.json", {"kind": "nonsense"})
        code, _, _ = run(capsys, "posterior", bad, files["like"])
        assert code == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("posterior", "--w0", "0"),
            ("posterior", "--wL", "-1"),
            ("loss", "--w0", "nan"),
            ("verify", "--wL", "inf"),
        ],
    )
    def test_bad_weight_exits_two(self, capsys, files, command, flag, value):
        inputs = [files["prior"], files["like"]]
        if command == "loss":
            inputs.insert(0, files["prior"])
        if command == "verify":
            inputs += ["--objective", "weighted"]
        weights = {"--w0": "1", "--wL": "1", flag: value}
        argv = [a for pair in weights.items() for a in pair]
        code, out, err = run(capsys, command, *inputs, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be positive")

    def test_reports_are_reproducible_modulo_timing(self, capsys, files):
        _, first, _ = run(capsys, "posterior", files["prior"], files["like"])
        _, second, _ = run(capsys, "posterior", files["prior"], files["like"])
        assert strip_timing(first) == strip_timing(second)

    def test_json_report_parses(self, capsys, files):
        code, out, _ = run(capsys, "posterior", files["prior"], files["like"], "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "posterior"
        assert payload["overlap_mass"] == 0.5
        assert payload["posterior_atom_0"] == 0.8

    def test_written_files_reparse_exactly(self, capsys, files, rng):
        masses = rng.dirichlet([1.0] * 5)
        src = files["write"](
            "rnd.json",
            {"kind": "discrete", "atoms": [[str(k), float(m)] for k, m in enumerate(masses)]},
        )
        out_file = str(files["tmp"] / "rnd_post.json")
        run(capsys, "posterior", src, src, "--out", out_file)
        first = load_distribution(out_file)
        again = str(files["tmp"] / "rnd_post2.json")
        run(capsys, "posterior", out_file, out_file, "--out", again)
        second = load_distribution(out_file)
        assert first == second


class TestLossCommand:
    def test_product_rule_attains_the_bound(self, capsys, files):
        post = str(files["tmp"] / "post.json")
        run(capsys, "posterior", files["prior"], files["like"], "--out", post)
        code, out, _ = run(capsys, "loss", post, files["prior"], files["like"])
        assert code == 0
        assert report_value(out, "attained") == "true"
        assert report_value(out, "value_bits") == report_value(out, "lower_bound_bits")

    def test_uniform_candidate_loses_log2_ten_bits(self, capsys, files):
        code, out, _ = run(capsys, "loss", files["prior"], files["prior"], files["skew"])
        assert code == 0
        assert float(report_value(out, "value_bits")) == pytest.approx(
            math.log2(10.0), abs=1e-12
        )
        assert report_value(out, "attained") == "false"

    def test_exhaustive_flag_matches_the_fast_path(self, capsys, files):
        atoms = [[str(k), 1 / 12] for k in range(12)]
        wide = files["write"]("wide.json", {"kind": "discrete", "atoms": atoms})
        _, fast, _ = run(capsys, "loss", wide, wide, wide)
        code, slow, _ = run(capsys, "loss", wide, wide, wide, "--exhaustive")
        assert code == 0
        assert report_value(slow, "method") == "exhaustive"
        assert abs(
            float(report_value(fast, "value_bits")) - float(report_value(slow, "value_bits"))
        ) <= 1e-12

    def test_exhaustive_guard_exits_too_large(self, capsys, files):
        atoms = [[str(k), 1 / 21] for k in range(21)]
        big = files["write"]("big.json", {"kind": "discrete", "atoms": atoms})
        code, _, _ = run(capsys, "loss", big, big, big, "--exhaustive")
        assert code == 5

    def test_weighted_loss_report(self, capsys, files):
        post = str(files["tmp"] / "wpost.json")
        run(
            capsys,
            "posterior", files["prior"], files["like"],
            "--w0", "2", "--wL", "1", "--out", post,
        )
        code, out, _ = run(
            capsys, "loss", post, files["prior"], files["like"], "--w0", "2", "--wL", "1"
        )
        assert code == 0
        assert report_value(out, "objective") == "weighted"
        assert report_value(out, "attained") == "true"

    def test_json_report_encodes_infinite_loss_as_a_string(self, capsys, files):
        stray = files["write"](
            "stray.json", {"kind": "discrete", "atoms": [["0", 0.5], ["9", 0.5]]}
        )
        code, out, _ = run(capsys, "loss", stray, files["prior"], files["like"], "--json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"bare {constant} is not JSON")

        payload = json.loads(out, parse_constant=reject)
        assert payload["value_bits"] == "inf"
        assert payload["lower_bound_bits"] == 1.0

    def test_incompatible_exits_three(self, capsys, files):
        code, _, _ = run(capsys, "loss", files["prior"], files["prior"], files["far"])
        assert code == 3


class TestVerifyCommand:
    def test_shannon_objective_passes(self, capsys, files):
        code, out, _ = run(
            capsys,
            "verify", files["prior"], files["like"],
            "--objective", "shannon", "--K", "200",
        )
        assert code == 0
        assert float(report_value(out, "linf_distance")) <= 0.01
        assert report_value(out, "pass") == "true"

    def test_mlr_objective_on_a_single_atom_pair(self, capsys, files):
        a = files["write"]("a.json", {"kind": "discrete", "atoms": [["0", 0.4], ["1", 0.6]]})
        b = files["write"]("b.json", {"kind": "discrete", "atoms": [["1", 0.3], ["2", 0.7]]})
        code, out, _ = run(capsys, "verify", a, b, "--objective", "mlr", "--K", "50")
        assert code == 0
        assert float(report_value(out, "linf_distance")) == 0.0

    def test_weighted_objective_matches_the_closed_form(self, capsys, files):
        code, out, _ = run(
            capsys,
            "verify", files["prior"], files["like"],
            "--objective", "weighted", "--w0", "2", "--wL", "1", "--K", "300",
        )
        assert code == 0
        assert float(report_value(out, "argmin_atom_0")) == pytest.approx(2 / 3, abs=1 / 300)

    def test_budget_exceeded_exits_five(self, capsys, files):
        atoms = [[str(k), 1 / 8] for k in range(8)]
        big = files["write"]("big8.json", {"kind": "discrete", "atoms": atoms})
        code, _, _ = run(capsys, "verify", big, big, "--K", "1000")
        assert code == 5

    def test_weighted_objective_requires_weights(self, capsys, files):
        code, _, _ = run(capsys, "verify", files["prior"], files["like"], "--objective", "weighted")
        assert code == 2

    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_resolution_below_one_exits_two(self, capsys, files, K):
        code, out, err = run(capsys, "verify", files["prior"], files["like"], "--K", K)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --K must be at least 1")

    def test_cross_check_disagreement_exits_one(self, capsys, files, monkeypatch):
        real = search.weighted_max_loss_exhaustive

        def skewed(p1, pair):
            return dataclasses.replace(real(p1, pair), value=5.0, attained=False)

        monkeypatch.setattr(search, "weighted_max_loss_exhaustive", skewed)
        code, out, err = run(capsys, "verify", files["prior"], files["like"], "--K", "20")
        assert code == 1
        assert out == ""
        assert err.startswith("error: singleton fast path disagrees")
        assert re.search(r"by [\d.e+-]+ bits", err)

    @pytest.mark.parametrize(
        "objective",
        [("shannon",), ("weighted", "--w0", "2", "--wL", "1")],
        ids=lambda objective: objective[0],
    )
    def test_disjoint_pair_exits_incompatible(self, capsys, files, objective):
        # Compatibility is checked before the weighted product, so a disjoint
        # weighted pair exits 3, not 4.
        code, out, err = run(
            capsys, "verify", files["prior"], files["far"], "--objective", *objective
        )
        assert code == 3
        assert out == ""
        assert "not compatible" in err

    def test_report_carries_scan_throughput(self, capsys, files):
        code, out, _ = run(capsys, "verify", files["prior"], files["like"], "--K", "50")
        assert code == 0
        keys = [line.split(" = ", 1)[0] for line in out.splitlines()]
        at = keys.index("evaluated_count")
        assert keys[at + 1 : at + 3] == ["scan_seconds", "points_per_second"]
        seconds = float(report_value(out, "scan_seconds"))
        rate = float(report_value(out, "points_per_second"))
        assert seconds > 0.0
        assert rate == pytest.approx(51 / seconds)


class TestSmoothCommand:
    def test_point_mass_becomes_a_flat_bump_file(self, capsys, files):
        out_file = str(files["tmp"] / "bump.json")
        code, out, _ = run(
            capsys,
            "smooth", files["pm0"], "--epsilon", "0.5", "--delta", "0.25", "--out", out_file,
        )
        assert code == 0
        bump = load_distribution(out_file)
        assert bump.densities == (1.0, 1.0, 1.0, 1.0)
        assert bump.origin == -0.5

    def test_bad_resolution_exits_six(self, capsys, files):
        out_file = str(files["tmp"] / "x.json")
        code, _, _ = run(
            capsys,
            "smooth", files["pm0"], "--epsilon", "0.3", "--delta", "0.25", "--out", out_file,
        )
        assert code == 6

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--epsilon", "-1"),
            ("--epsilon", "nan"),
            ("--delta", "-0.1"),
            ("--cells", "0"),
            ("--origin", "nan"),
            ("--origin", "inf"),
        ],
    )
    def test_out_of_range_argument_exits_two(self, capsys, files, flag, value):
        args = {"--epsilon": "0.5", "--delta": "0.25", flag: value}
        out_file = str(files["tmp"] / "x.json")
        argv = [a for pair in args.items() for a in pair]
        code, out, err = run(capsys, "smooth", files["pm0"], *argv, "--out", out_file)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be")

    def test_extent_missing_the_mass_exits_two(self, capsys, files):
        out_file = files["tmp"] / "x.json"
        code, out, err = run(
            capsys,
            "smooth", files["pm0"], "--epsilon", "1", "--delta", "0.5",
            "--origin", "100", "--cells", "4", "--out", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert err == "error: output grid captures 0.0 of the smoothed mass, need 1 within 1e-06\n"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "payload, argv, code",
        [
            # A key past the float range puts the smoothed support at infinity.
            (
                {"kind": "discrete", "atoms": [["1e400", 1.0]]},
                ("--epsilon", "1", "--delta", "0.5"),
                2,
            ),
            # 4e300 output cells, refused before any array is allocated.
            (
                {"kind": "discrete", "atoms": [["-1e300", 0.5], ["1e300", 0.5]]},
                ("--epsilon", "1", "--delta", "0.5"),
                5,
            ),
            (
                {"kind": "discrete", "atoms": [["0", 1.0]]},
                ("--epsilon", "1", "--delta", "0.5", "--cells", str(10**21)),
                5,
            ),
            # The grid ends at 2e308, past the float range.
            (
                {"kind": "grid", "origin": 1e308, "delta": 1e308, "densities": [1e-308]},
                ("--epsilon", "1", "--delta", "0.5"),
                2,
            ),
            # 2 * epsilon overflows.
            (
                {"kind": "discrete", "atoms": [["0", 1.0]]},
                ("--epsilon", "1e308", "--delta", "1e308"),
                2,
            ),
            # A forced grid whose last edge is past the float range.
            (
                {"kind": "discrete", "atoms": [["0", 1.0]]},
                ("--epsilon", "5e306", "--delta", "1e307", "--origin", "1.7e308", "--cells", "10"),
                2,
            ),
        ],
        ids=[
            "key-past-float", "wide-support", "forced-cells", "grid-end-past-float", "window",
            "forced-end-past-float",
        ],
    )
    def test_extreme_extent_exits_with_one_error_line(self, capsys, files, payload, argv, code):
        path = files["write"]("extreme.json", payload)
        out_file = files["tmp"] / "x.json"
        exit_code, out, err = run(capsys, "smooth", path, *argv, "--out", str(out_file))
        assert exit_code == code
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()

    def test_smooth_then_posterior_pipeline(self, capsys, files):
        """Disjoint point masses, once smoothed onto a shared grid with a wide
        enough window, conflate successfully."""
        sa = str(files["tmp"] / "sa.json")
        sb = str(files["tmp"] / "sb.json")
        common = ("--delta", "0.25", "--origin", "-2", "--cells", "28")
        code_a, _, _ = run(capsys, "smooth", files["pm0"], "--epsilon", "2", *common, "--out", sa)
        code_b, _, _ = run(capsys, "smooth", files["pm3"], "--epsilon", "2", *common, "--out", sb)
        assert code_a == 0 and code_b == 0
        out_file = str(files["tmp"] / "joined.json")
        code, out, _ = run(capsys, "posterior", sa, sb, "--out", out_file)
        assert code == 0
        assert float(report_value(out, "overlap_mass")) > 0.0


class TestCompatCommand:
    def test_reports_overlap(self, capsys, files):
        code, out, _ = run(capsys, "compat", files["prior"], files["like"])
        assert code == 0
        assert report_value(out, "compatible") == "true"
        assert report_value(out, "overlap_mass") == "0.5"

    def test_disjoint_pair_reports_false(self, capsys, files):
        code, out, _ = run(capsys, "compat", files["prior"], files["far"])
        assert code == 0
        assert report_value(out, "compatible") == "false"

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("discrete", "atoms", [[True, 1.0]],
             "atom key must be a JSON string or number, got True"),
            ("discrete", "atoms", [["0", "1.0"]], "mass must be a JSON number, got '1.0'"),
            ("discrete", "atoms", [["0", True]], "mass must be a JSON number, got True"),
            ("grid", "origin", "0", "origin must be a JSON number, got '0'"),
            ("grid", "delta", True, "delta must be a JSON number, got True"),
            ("grid", "densities", ["1"], "density must be a JSON number, got '1'"),
            ("grid", "densities", [False, 1], "density must be a JSON number, got False"),
            ("family", "params", {"lower": "0", "upper": 1},
             "lower must be a JSON number, got '0'"),
            ("family", "grid", {"origin": 0, "delta": 0.5, "cells": "2"},
             "cells must be a JSON integer, got '2'"),
        ],
    )
    def test_wrong_json_type_exits_two(self, capsys, files, kind, field, value, message):
        valid = {
            "discrete": {"kind": "discrete", "atoms": [["0", 1.0]]},
            "grid": {"kind": "grid", "origin": 0, "delta": 1, "densities": [1]},
            "family": {
                "kind": "family",
                "family": "uniform",
                "params": {"lower": 0, "upper": 1},
                "grid": {"origin": 0, "delta": 0.5, "cells": 2},
            },
        }[kind]
        good = files["write"]("good.json", valid)
        assert run(capsys, "compat", good, good)[0] == 0
        bad = files["write"]("bad.json", {**valid, field: value})
        code, out, err = run(capsys, "compat", bad, bad)
        assert code == 2
        assert out == ""
        assert err == f"error: malformed {kind!r} distribution: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"kind": "discrete", "atoms": [[%s, 1.0]]}' % ("1" * 5000),
             "cannot be parsed: Exceeds the limit (4300 digits)"),
            ('{"kind": "discrete", "atoms": [["0", %s]]}' % ("1" * 5000),
             "cannot be parsed: Exceeds the limit (4300 digits)"),
            ("[" * 100_000 + "]" * 100_000,
             "cannot be parsed: maximum recursion depth exceeded"),
            ('{"kind": "discrete", "atoms": [["0", 1%s]]}' % ("0" * 400),
             "malformed 'discrete' distribution: int too large to convert to float"),
        ],
        ids=["long-int-key", "long-int-mass", "deep-arrays", "mass-past-float-range"],
    )
    def test_unparseable_json_exits_two(self, capsys, files, text, message):
        bad = files["tmp"] / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, "compat", str(bad), str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_each_input_is_read_once_and_hashed_as_parsed(self, capsys, files, monkeypatch):
        opened = []
        real_open = pathlib.Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        code, out, _ = run(capsys, "compat", files["prior"], files["like"])
        assert code == 0
        assert opened == [files["prior"], files["like"]]
        for role, path in (("prior", files["prior"]), ("likelihood", files["like"])):
            digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
            assert report_value(out, f"{role}_sha256") == digest


class TestMlrCommand:
    def test_profile_of_the_product_rule(self, capsys, files):
        post = str(files["tmp"] / "post.json")
        run(capsys, "posterior", files["prior"], files["like"], "--out", post)
        code, out, _ = run(capsys, "mlr", post, files["prior"], files["like"])
        assert code == 0
        assert report_value(out, "spread") == "0"

    def test_underflowing_product_leaves_no_zero_atom(self, capsys, files):
        # p*p on atom "2" is 1e-400, which underflows to 0: "2" is off the joint support.
        p = files["write"]("p.json", {"kind": "discrete", "atoms": [["1", 1.0], ["2", 1e-200]]})
        post = str(files["tmp"] / "post.json")
        assert run(capsys, "posterior", p, p, "--out", post)[0] == 0
        assert load_distribution(post).atoms == (("1", 1.0),)
        code, out, _ = run(capsys, "mlr", post, p, p)
        assert code == 0
        assert report_value(out, "spread") == "0"

    def test_stray_mass_exits_seven(self, capsys, files):
        stray = files["write"](
            "stray.json", {"kind": "discrete", "atoms": [["0", 0.5], ["9", 0.5]]}
        )
        code, _, _ = run(capsys, "mlr", stray, files["prior"], files["like"])
        assert code == 7


class TestUnderflowingProducts:
    """A joint term that underflows to a subnormal exits 3, naming its label."""

    @pytest.fixture()
    def pairs(self, files):
        write = files["write"]
        tiny = {"kind": "discrete", "atoms": [["0", 1e-160], ["1", 1e-160], ["2", 1 - 2e-160]]}
        return {
            # The only joint cell, 3, has the product 1.08e-318.
            "grid_prior": write("gp.json", {
                "kind": "grid", "origin": 0.0, "delta": 0.25,
                "densities": [4, 0, 0, 1.445e-159],
            }),
            "grid_like": write("gl.json", {
                "kind": "grid", "origin": 0.0, "delta": 0.25,
                "densities": [0, 4, 7.06e-160, 7.49e-160],
            }),
            "prior": write("tp.json", tiny),
            "like": write("tl.json", {**tiny, "atoms": [["0", 1e-160], ["1", 1e-160], ["3", 1 - 2e-160]]}),
            "candidate": write("tc.json", {"kind": "discrete", "atoms": [["0", 0.5], ["1", 0.5]]}),
            "skewed": write("ts.json", {"kind": "discrete", "atoms": [["0", 0.75], ["1", 0.25]]}),
        }

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["posterior", "grid_prior", "grid_like"], "3"),
            (["posterior", "prior", "like", "--out", "out"], "0"),
            (["mlr", "candidate", "prior", "like"], "0"),
            (["verify", "prior", "like", "--K", "4"], "0"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_exits_three(self, capsys, files, pairs, argv, label):
        out_file = files["tmp"] / "out.json"
        argv = [str(out_file) if arg == "out" else pairs.get(arg, arg) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: prior-likelihood product underflows at {label}\n"
        assert not out_file.exists()

    def test_compat_and_loss_still_report(self, capsys, pairs):
        code, out, _ = run(capsys, "compat", pairs["prior"], pairs["like"])
        assert code == 0
        assert report_value(out, "compatible") == "true"
        code, out, _ = run(capsys, "loss", pairs["skewed"], pairs["prior"], pairs["like"])
        assert code == 0
        assert report_value(out, "witness") == "0"
        assert report_value(out, "attained") == "false"
