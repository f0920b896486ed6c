import json
import math
import re
from pathlib import Path

import pytest

import signedspectra
from signedspectra import SignedGraph, proofmoves
from signedspectra.cli import build_parser, main, parse_partition
from signedspectra.cycles import is_ck_negative_free
from signedspectra.families import extremal_graph
from signedspectra.proofmoves import greedy_ascent
from signedspectra.spectra import char_poly_exact
from signedspectra.switching import is_balanced, switching_equivalent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_spectrum_pipeline(tmp_path, capsys):
    target = tmp_path / "g.sg"
    code, _, _ = run(capsys, "gen", "--family", "extremal", "--n", "5", "-o", str(target))
    assert code == 0
    code, out, _ = run(capsys, "spectrum", str(target))
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 5
    assert record["lambda1"] == pytest.approx(2.2360680, abs=1e-6)
    assert record["lambda1"] == pytest.approx(math.sqrt(5), abs=1e-9)


def test_gen_accepts_alternate_family_labels(tmp_path, capsys):
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    assert run(capsys, "gen", "--family", "gamma1", "--n", "6", "-o", str(a))[0] == 0
    assert run(capsys, "gen", "--family", "extremal", "--n", "6", "-o", str(b))[0] == 0
    assert a.read_text() == b.read_text()


def test_spectrum_exact_charpoly(tmp_path, capsys):
    target = tmp_path / "g.sg"
    extremal_graph(5).save(target)
    code, out, _ = run(capsys, "spectrum", str(target), "--exact")
    record = json.loads(out)
    assert record["charpoly"] == list(char_poly_exact(extremal_graph(5)).coeffs)


def test_check_extremal5(tmp_path, capsys):
    target = tmp_path / "g.sg"
    extremal_graph(5).save(target)
    code, out, _ = run(capsys, "check", str(target))
    assert code == 0
    record = json.loads(out)
    assert record["balanced"] is False
    assert record["c4_negative_free"] is True
    assert record["shortest_negative_cycle"]["length"] == 3
    assert record["balance_witness"]["sign"] == -1


def test_check_order_two_negative_edge(tmp_path, capsys):
    # below order 4 there is no 4-cycle, so the bitset test answers true by itself
    target = tmp_path / "k2.sg"
    target.write_text("2 1\n1 2 -\n")
    code, out, _ = run(capsys, "check", str(target))
    assert code == 0
    assert out == (
        '{"n": 2, "balanced": true, "c4_negative_free": true, '
        '"shortest_negative_cycle": null, "bisigning": [1, -1]}\n'
    )


def test_quotient_subcommand(tmp_path, capsys):
    target = tmp_path / "g.sg"
    extremal_graph(5).save(target)
    code, out, _ = run(capsys, "quotient", str(target), "--partition", "1|2|3|4-5")
    assert code == 0
    record = json.loads(out)
    assert record["equitable"] is True
    assert record["matrix"] == [[0, -1, 1, 0], [-1, 0, 1, 0], [1, 1, 0, 2], [0, 0, 1, 1]]


def test_quotient_violation(tmp_path, capsys):
    p4 = SignedGraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    target = tmp_path / "p4.sg"
    p4.save(target)
    code, out, _ = run(capsys, "quotient", str(target), "--partition", "1-2|3-4")
    assert code == 0
    record = json.loads(out)
    assert record["equitable"] is False
    assert set(record["violation"]) == {"block_i", "block_j", "row"}


def test_quotient_partition_of_wrong_size_exits_1(tmp_path, capsys):
    target = tmp_path / "g.sg"
    extremal_graph(5).save(target)
    code, out, err = run(capsys, "quotient", str(target), "--partition", "1|2-4")
    assert code == 1
    assert out == ""
    assert err == "error: partition covers 4 vertices, graph has 5\n"


def test_parse_partition_syntax():
    part = parse_partition("1|2|3|4-10", 10)
    assert part.blocks == ((0,), (1,), (2,), (3, 4, 5, 6, 7, 8, 9))
    part2 = parse_partition("1,3|2|4-5", 5)
    assert part2.blocks == ((0, 2), (1,), (3, 4))
    with pytest.raises(ValueError):
        parse_partition("1|2", 3)
    with pytest.raises(ValueError):
        parse_partition("1|1-2", 2)
    with pytest.raises(ValueError, match=re.escape("empty item in partition '1,|2'")):
        parse_partition("1,|2", 2)
    with pytest.raises(ValueError, match="empty range '3-2'"):
        parse_partition("1|3-2", 3)
    with pytest.raises(ValueError, match=re.escape("range '4-' in partition '1-3|4-' has an empty end")):
        parse_partition("1-3|4-", 4)
    with pytest.raises(ValueError, match=re.escape("range '-1' in partition '-1|2' has an empty end")):
        parse_partition("-1|2", 2)
    with pytest.raises(ValueError, match=re.escape("range '4-5-6' in partition '1|2|3|4-5-6' has a non-integer end")):
        parse_partition("1|2|3|4-5-6", 6)
    with pytest.raises(ValueError, match=re.escape("item 'x' in partition '1|x' is not an integer")):
        parse_partition("1|x", 2)
    with pytest.raises(ValueError, match=re.escape("item '1.5' in partition '1.5|2' is not an integer")):
        parse_partition("1.5|2", 2)


def test_normalize_outputs_equivalent_graph(tmp_path, capsys):
    g = SignedGraph(4, {(0, 1): -1, (1, 2): -1, (2, 3): -1, (0, 3): -1, (0, 2): 1})
    target = tmp_path / "g.sg"
    g.save(target)
    code, out, _ = run(capsys, "normalize", str(target))
    assert code == 0
    switched = SignedGraph.from_sg(out)
    assert switching_equivalent(switched, g)
    assert char_poly_exact(switched) == char_poly_exact(g)


def test_verify_subcommand(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--n", "5", "--out", str(out_path))
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["verdict"] is True
    assert json.loads(out) == record


def test_verify_progress_goes_to_stderr_as_json(capsys):
    code, out, err = run(capsys, "verify", "--n", "7", "--long-run", "--progress")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["verdict"] is True
    progress = [json.loads(line) for line in err.splitlines()]
    assert progress and all(p["census_n"] == 7 for p in progress)


def test_verify_jobs_accepts_only_one(capsys):
    assert run(capsys, "verify", "--n", "5", "--jobs", "2")[0] == 1
    assert run(capsys, "verify", "--n", "5", "--jobs", "1")[0] == 0


def test_benchmark_census_command_lines_parse(tmp_path, capsys):
    # the exact argv of perfbench's census steps
    checkpoint = str(tmp_path / "census-7.ckpt")
    n6 = ["verify", "--n", "6", "--jobs", "1"]
    n7 = ["verify", "--n", "7", "--jobs", "1", "--long-run", "--checkpoint", checkpoint]
    args = build_parser().parse_args(n6)
    assert (args.n, args.jobs, args.long_run, args.checkpoint) == (6, 1, False, None)
    args = build_parser().parse_args(n7)
    assert (args.n, args.jobs, args.long_run, args.checkpoint) == (7, 1, True, checkpoint)
    code, out, _ = run(capsys, *n6)
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_verify_exit_code_on_failed_verdict(tmp_path, capsys):
    # a catalog holding only the 5-cycle cannot reach the extremal index,
    # so the verdict fails and the exit code signals it
    from signedspectra.enumeration import encode_graph6

    c5 = SignedGraph(5, {(v, (v + 1) % 5): 1 for v in range(5)})
    catalog = tmp_path / "only_c5.g6"
    catalog.write_text(encode_graph6(c5) + "\n")
    code, out, _ = run(capsys, "verify", "--n", "5", "--graphs", str(catalog))
    assert code == 3
    assert json.loads(out)["verdict"] is False


def test_verify_refuses_a_catalog_that_repeats_a_graph(tmp_path, capsys):
    from signedspectra.enumeration import encode_graph6

    line = encode_graph6(extremal_graph(5)) + "\n"
    catalog = tmp_path / "twice.g6"
    catalog.write_text(line * 2)
    code, out, err = run(capsys, "verify", "--n", "5", "--graphs", str(catalog))
    assert code == 1
    assert out == ""
    assert "catalog graphs 1 and 2 have the same edge list" in err


def test_verify_refuses_a_catalog_with_isomorphic_graphs(tmp_path, capsys):
    from signedspectra.enumeration import encode_graph6

    g = extremal_graph(5)
    assert g.relabel([1, 2, 3, 4, 0]).edge_set() != g.edge_set()
    catalog = tmp_path / "relabelled.g6"
    catalog.write_text(encode_graph6(g) + "\n" + encode_graph6(g.relabel([1, 2, 3, 4, 0])) + "\n")
    code, out, err = run(capsys, "verify", "--n", "5", "--graphs", str(catalog))
    assert code == 1
    assert out == ""
    assert "catalog graphs 1 and 2 are isomorphic" in err


@pytest.mark.parametrize("header", ["3 x", "3 1 +"])
def test_verify_reads_a_catalog_with_a_bad_first_header_as_sg(tmp_path, capsys, header):
    catalog = tmp_path / "bad.sgl"
    catalog.write_text(header + "\n1 2\n")
    code, out, err = run(capsys, "verify", "--n", "3", "--graphs", str(catalog))
    assert code == 2
    assert out == ""
    assert "line 1:" in err and "header" in err and "graph6" not in err


def test_verify_on_dumps_of_the_builtin_catalog_matches_the_builtin_census(tmp_path, capsys):
    from signedspectra.enumeration import encode_graph6, enumerate_underlying

    def report(*argv):
        code, out, _ = run(capsys, "verify", "--n", "7", *argv)
        assert code == 0
        record = json.loads(out)
        del record["seconds"]
        return record

    catalog = enumerate_underlying(7)
    g6 = tmp_path / "all7.g6"
    g6.write_text("".join(encode_graph6(SignedGraph(7, dict.fromkeys(e, 1))) + "\n" for e in catalog))
    sg = tmp_path / "all7.sgl"
    sg.write_text("".join(f"7 {len(e)}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in e) for e in catalog))
    checkpoint = tmp_path / "census-7.ckpt"
    builtin = report("--checkpoint", str(checkpoint))
    written = checkpoint.read_bytes()
    for dump in (g6, sg):
        assert report("--graphs", str(dump)) == builtin
        # a dump hashes to the built-in catalog, so the built-in run's checkpoint resumes
        assert report("--graphs", str(dump), "--checkpoint", str(checkpoint)) == builtin
        assert checkpoint.read_bytes() == written


@pytest.mark.parametrize("tol", ["1e-9", "-1", "0", "nan", "inf"])
def test_verify_bad_tolerance_is_a_usage_error(capsys, tol):
    # the verdict is exact, so verify has no --tol at all, not even the old default
    code, out, err = run(capsys, "verify", "--n", "5", "--tol", tol)
    assert code == 1
    assert out == ""
    assert "tol" in err


@pytest.mark.parametrize("catalog", ["5 4\n1 2\n2 3\n3 4\n4 5\n", ""], ids=["path", "empty"])
def test_verify_without_eligible_classes_prints_strict_json(tmp_path, capsys, catalog):
    # a path, or no graph at all: no class is eligible, so there is no maximum
    path = tmp_path / "trees.sg"
    path.write_text(catalog)
    code, out, _ = run(capsys, "verify", "--n", "5", "--graphs", str(path))
    assert code == 3
    record = json.loads(out, parse_constant=reject_constant)
    assert record["max_lambda1"] is None
    assert record["eligible_count"] == 0 and record["witness_sg"] == []
    assert record["verdict"] is False


def test_verify_bad_checkpoint_record_names_the_line(tmp_path, capsys):
    ck = tmp_path / "census5.jsonl"
    assert run(capsys, "verify", "--n", "5", "--checkpoint", str(ck))[0] == 0
    header = ck.read_text().splitlines()[0]
    no_index = {"classes": 1, "eligible": 0, "best": 0, "keep": []}
    ck.write_text(header + "\n" + json.dumps(no_index) + "\n")
    code, out, err = run(capsys, "verify", "--n", "5", "--checkpoint", str(ck))
    assert code == 1
    assert out == ""
    assert "line 2" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "record",
    [
        {"i": 0, "classes": "x", "eligible": 0, "best": 0, "keep": []},
        {"i": 0, "classes": 1, "eligible": 0, "best": 99, "keep": [[99, 5]]},
        # task 7 keeps pattern 1: json.dumps writes Infinity, which strict JSON refuses
        {"i": 7, "classes": 2, "eligible": 1, "best": math.inf, "keep": [[math.inf, 1]]},
    ],
)
def test_verify_checkpoint_record_values_are_checked(tmp_path, capsys, record):
    # a record whose values cannot belong to its task, or are not strict JSON, is refused, not summed
    ck = tmp_path / "census5.jsonl"
    assert run(capsys, "verify", "--n", "5", "--checkpoint", str(ck))[0] == 0
    ck.write_text(ck.read_text().splitlines()[0] + "\n" + json.dumps(record) + "\n")
    before = ck.read_bytes()
    code, out, err = run(capsys, "verify", "--n", "5", "--checkpoint", str(ck))
    assert code == 1
    assert out == ""
    assert "line 2" in err and "Traceback" not in err
    assert ck.read_bytes() == before


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_verify_checkpoint_is_strict_json(tmp_path, capsys):
    # graphs with no eligible class record best as null, not -Infinity
    ck = tmp_path / "census6.jsonl"
    code, first, _ = run(capsys, "verify", "--n", "6", "--checkpoint", str(ck))
    assert code == 0
    lines = ck.read_text().splitlines()
    records = [json.loads(line, parse_constant=reject_constant) for line in lines]
    assert len(records) == 1 + 156
    assert any(r["best"] is None and r["keep"] == [] for r in records[1:])
    assert all(r["best"] is not None for r in records[1:] if r["keep"])
    code, resumed, _ = run(capsys, "verify", "--n", "6", "--checkpoint", str(ck))
    assert code == 0
    first, resumed = json.loads(first), json.loads(resumed)
    first.pop("seconds")
    resumed.pop("seconds")
    assert first == resumed
    assert ck.read_text().splitlines() == lines


def json_commands(tmp_path):
    g = tmp_path / "g.sg"
    extremal_graph(6).save(g)
    return {
        "spectrum": ["spectrum", str(g), "--exact"],
        "check": ["check", str(g)],
        "quotient": ["quotient", str(g), "--partition", "1|2|3|4-6"],
        "verify": ["verify", "--n", "5"],
        "bounds": ["bounds", "--n", "5"],
    }


@pytest.mark.parametrize("command", ["spectrum", "check", "quotient", "verify", "bounds"])
def test_json_stdout_is_strict(tmp_path, capsys, command):
    # NaN and Infinity are not JSON; every line a subcommand prints must parse strictly
    code, out, _ = run(capsys, *json_commands(tmp_path)[command])
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        json.loads(line, parse_constant=reject_constant)


def test_verify_past_builtin_order_names_the_graphs_option(capsys):
    code, out, err = run(capsys, "verify", "--n", "10")
    assert code == 1
    assert out == ""
    assert "--graphs" in err


def test_search_subcommand(capsys):
    code, out, _ = run(capsys, "search", "--n", "5", "--seed", "3", "--max-steps", "40")
    assert code == 0
    trajectory = [float(line.split()[-1]) for line in out.splitlines() if line.startswith("#")]
    assert trajectory == sorted(trajectory)
    body = "".join(line + "\n" for line in out.splitlines() if not line.startswith("#"))
    final = SignedGraph.from_sg(body)
    assert final.n == 5


def test_search_sampler_give_up_is_an_error_line(monkeypatch, capsys):
    # no trials at all: the start sampler gives up at once
    monkeypatch.setattr(proofmoves, "SAMPLE_TRIALS", 0)
    code, out, err = run(capsys, "search", "--n", "17", "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == (
        "error: rejection sampling found no unbalanced graph of order 17 without a "
        "negative 4-cycle in 0 trials\n"
    )


def test_search_refuses_a_negative_step_count(capsys):
    code, out, err = run(capsys, "search", "--n", "8", "--seed", "1", "--max-steps", "-3")
    assert code == 1
    assert out == ""
    assert err == "error: max_steps must be >= 0, got -3\n"
    code, out, err = run(capsys, "search", "--n", "8", "--seed", "1", "--max-steps", "0")
    assert code == 0 and err == ""
    assert [line.split()[:3] for line in out.splitlines() if line.startswith("#")] == [["#", "step", "0"]]


def test_search_at_order_17_prints_an_unbalanced_c4_negative_free_graph(capsys):
    code, out, err = run(capsys, "search", "--n", "17", "--seed", "1")
    assert code == 0 and err == ""
    body = "".join(line + "\n" for line in out.splitlines() if not line.startswith("#"))
    final = SignedGraph.from_sg(body)
    assert final.n == 17
    assert not is_balanced(final).balanced
    assert is_ck_negative_free(final, 4)


def flat_ints(operands):
    return [v for op in operands for v in (op if isinstance(op, (list, tuple)) else [op])]


def test_search_progress_goes_to_stderr_as_json(capsys):
    argv = ("search", "--n", "8", "--seed", "0")
    code, plain, plain_err = run(capsys, *argv)
    assert code == 0 and plain_err == ""
    code, out, err = run(capsys, *argv, "--progress")
    assert code == 0
    assert out == plain
    trajectory = [float(line.split()[-1]) for line in out.splitlines() if line.startswith("#")]
    progress = [json.loads(line) for line in err.splitlines()]
    applied = greedy_ascent(8, 0).applied
    assert [p["step"] for p in progress] == list(range(1, len(trajectory)))
    assert len(progress) == len(applied)
    for p, mv, before, after in zip(progress, applied, trajectory, trajectory[1:]):
        assert set(p) == {"step", "move", "operands", "rayleigh_delta", "gain"}
        assert p["move"] == mv.kind.value
        assert [v - 1 for v in flat_ints(p["operands"])] == flat_ints(mv.operands)
        assert p["gain"] == after - before
        # Rayleigh: the realized gain is at least the certified delta
        assert p["gain"] >= p["rayleigh_delta"] - 1e-9


def test_bounds_subcommand(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "5")
    assert code == 0
    assert json.loads(out) == {"n": 5, "all_hold": True}


def test_jobs_environment_variable_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("SIGNEDSPECTRA_JOBS", "x")
    code, out, _ = run(capsys, "gen", "--family", "kn+", "--n", "3")
    assert code == 0
    assert out.startswith("3 3\n")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "gen", "--family", "nope", "--n", "5")[0] == 1
    assert run(capsys, "spectrum")[0] == 1
    assert run(capsys, "unknown-subcommand")[0] == 1
    assert run(capsys, "gen", "--family", "extremal", "--n", "5", "--bogus")[0] == 1


def test_io_and_parse_errors_exit_2(tmp_path, capsys):
    assert run(capsys, "spectrum", str(tmp_path / "missing.sg"))[0] == 2
    bad = tmp_path / "bad.sg"
    bad.write_text("3 1\n1 2 *\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 2" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out == f"signedspectra {signedspectra.__version__}\n"
    # requires-python is 3.10, which has no tomllib
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == signedspectra.__version__
