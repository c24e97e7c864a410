"""Command-line workflows: exit codes, round trips, determinism."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from qubusim.cli import main
from qubusim.sequence import count_ops, load_sequence

from oracles import product_coupling, random_dense_coupling


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    doc = {"N": 2, "n": 1, "eps": [1.0, 1.0], "V": [[0.0, 0.5], [0.5, 0.0]], "r": 1.0}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def model3_file(tmp_path):
    rng = np.random.default_rng(223)
    v = random_dense_coupling(3, rng)
    path = tmp_path / "model3.json"
    doc = {"N": 3, "n": 1, "eps": [1.0, 1.2, 0.8], "V": v.tolist(), "r": 1.0}
    path.write_text(json.dumps(doc))
    return str(path)


def test_compile_writes_sequence_with_counts(model3_file, tmp_path):
    out = str(tmp_path / "seq.json")
    assert main(["compile", "--model", model3_file, "--strategy", "carryover",
                 "--out", out]) == 0
    seq = load_sequence(out)
    assert count_ops(seq)["bus"] == 8


def test_compile_fixed_range(tmp_path):
    rng = np.random.default_rng(227)
    n, p = 5, 2
    v = np.zeros((n, n))
    for m in range(n):
        for l in range(m + 1, min(m + p, n - 1) + 1):
            v[m, l] = v[l, m] = rng.uniform(0.3, 1.0)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"N": n, "n": 2, "eps": [1.0] * n, "V": v.tolist(), "r": 1.0}))
    out = str(tmp_path / "seq.json")
    assert main(["compile", "--model", str(path), "--strategy", "fixed-range",
                 "--p", "2", "--out", out]) == 0
    assert count_ops(load_sequence(out))["bus"] == 16


def test_compile_fixed_range_without_p_is_a_usage_error(model3_file, tmp_path, capsys):
    out = tmp_path / "seq.json"
    code = main(["compile", "--model", model3_file, "--strategy", "fixed-range",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("qubusim compile: error:")
    assert not out.exists()


def test_compile_infeasible_limited_exits_2(tmp_path, capsys):
    # the first product-structure constraint appears at N=4 (two rows sharing
    # two columns); a random dense 4x4 matrix is generically infeasible
    rng = np.random.default_rng(229)
    v = random_dense_coupling(4, rng)
    path = tmp_path / "m4.json"
    path.write_text(json.dumps(
        {"N": 4, "n": 2, "eps": [1.0] * 4, "V": v.tolist(), "r": 1.0}))
    out = str(tmp_path / "seq.json")
    code = main(["compile", "--model", str(path), "--strategy", "limited",
                 "--out", out])
    assert code == 2
    assert "product" in capsys.readouterr().err


def test_compile_limited_feasible(tmp_path):
    n = 4
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"N": n, "n": 2, "eps": [1.0] * n, "V": product_coupling(n).tolist(), "r": 1.0}))
    out = str(tmp_path / "seq.json")
    assert main(["compile", "--model", str(path), "--strategy", "limited",
                 "--out", out]) == 0
    assert count_ops(load_sequence(out))["bus"] == 12


def test_verify_roundtrip_and_corruption(model3_file, tmp_path, capsys):
    out = str(tmp_path / "seq.json")
    main(["compile", "--model", model3_file, "--strategy", "stepwise", "--out", out])
    assert main(["verify", "--model", model3_file, "--sequence", out]) == 0
    assert "PASS" in capsys.readouterr().out

    doc = json.loads(Path(out).read_text())
    for ins in doc["instructions"]:
        if ins["op"] == "disp":
            ins["beta"][0] += 0.1
            break
    corrupted = tmp_path / "bad.json"
    corrupted.write_text(json.dumps(doc))
    assert main(["verify", "--model", model3_file, "--sequence", str(corrupted)]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["0", "-0.5", "nan", "inf"])
def test_verify_tolerance_must_be_positive_and_finite(model3_file, tmp_path, capsys, tol):
    out = str(tmp_path / "seq.json")
    main(["compile", "--model", model3_file, "--strategy", "stepwise", "--out", out])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", model3_file, "--sequence", out, "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --tol" in captured.err


@pytest.mark.parametrize("field", ["beta", "u"])
def test_verify_non_finite_sequence_exits_3(model3_file, tmp_path, capsys, field):
    out = str(tmp_path / "seq.json")
    main(["compile", "--model", model3_file, "--strategy", "carryover", "--out", out])
    capsys.readouterr()
    doc = json.loads(Path(out).read_text())
    if field == "beta":
        next(i for i in doc["instructions"] if i["op"] == "disp")["beta"][0] = float("nan")
    else:
        doc["instructions"].append({"op": "local", "q": 0, "label": "",
                                    "u": [[[float("inf"), 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [1.0, 0.0]]]})
        doc["counts"]["local"] += 1
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--model", model3_file, "--sequence", str(bad)]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL")
    # The file is rejected before any arithmetic runs on the bad entry.
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err


def test_verify_register_size_mismatch_exits_3(model_file, model3_file, tmp_path, capsys):
    out = str(tmp_path / "seq3.json")
    main(["compile", "--model", model3_file, "--strategy", "carryover", "--out", out])
    capsys.readouterr()
    assert main(["verify", "--model", model_file, "--sequence", out]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL")


@pytest.mark.parametrize("argv", [
    ["gap", "--substeps", "0"],
    ["gap", "--substeps", "-1"],
    ["gap", "--k", "0"],
    ["gap", "--tau", "0"],
    ["gap", "--tau", "nan"],
    ["gap", "--shots", "-1"],
    ["pea", "--substeps", "0"],
    ["pea", "--k", "0"],
    ["pea", "--tau", "inf"],
    ["count", "--budget", "0"],
    ["count", "--budget", "inf"],
    ["count", "--delta", "2"],
    ["count", "--delta", "0"],
    ["gap", "--k", "two"],
], ids=" ".join)
def test_non_positive_numeric_arguments_are_usage_errors(argv, model_file, capsys):
    if argv[0] != "count":
        argv = argv + ["--model", model_file]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {argv[1]}" in err


@pytest.fixture
def model10_file(tmp_path):
    path = tmp_path / "model10.json"
    doc = {"N": 10, "n": 1, "eps": [1.0] * 10, "V": np.zeros((10, 10)).tolist(), "r": 1.0}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join(argv)) for argv, message in [
        (["gap", "--k", "11"], "inverse QFT too large"),
        (["pea", "--k", "11"], "inverse QFT too large"),
        (["gap", "--tau", "100"], "tau too large"),
        (["pea", "--tau", "100"], "tau too large"),
        (["gap", "--shots", "5", "--seed", "-1"], "non-negative seed"),
        (["pea", "--shots", "5", "--seed", "-1"], "non-negative seed"),
        (["count", "--budget", "1"], "budget below"),
    ]
])
def test_inputs_that_cannot_run_exit_2_with_one_line(argv, message, model_file, tmp_path, capsys):
    out = str(tmp_path / "out.txt")
    if argv[0] != "count":
        argv = argv + ["--model", model_file]
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"qubusim {argv[0]}: error:")
    assert message in lines[0]
    assert captured.out == ""
    assert not (tmp_path / "out.txt").exists()


def test_gap_controlled_step_beyond_simulator_exits_2(model10_file, capsys):
    # The 11-qubit controlled step is beyond the simulator.
    assert main(["gap", "--model", model10_file, "--k", "2"]) == 2
    assert "controlled step too large" in capsys.readouterr().err


def test_gap_auto_substeps_beyond_trotter_error_exits_2(tmp_path, capsys):
    # N = 9 fits the simulator with k = 3, but the automatic substep count
    # needs trotter_error, which stops at 8 modes.
    path = tmp_path / "model9.json"
    path.write_text(json.dumps(
        {"N": 9, "n": 1, "eps": [1.0] * 9, "V": np.zeros((9, 9)).tolist(), "r": 1.0}))
    spectrum = tmp_path / "spectrum.csv"
    assert main(["gap", "--model", str(path), "--k", "3",
                 "--spectrum-out", str(spectrum)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "give --substeps" in lines[0]
    assert not spectrum.exists()


def test_gap_compiles_one_trotter_step(model3_file, monkeypatch, capsys):
    # The substep search evaluates the product formula exactly; the one
    # step compiled is the controlled step run_pea folds.
    import qubusim.builders as builders
    from qubusim import pea

    calls = []
    build = builders.build_trotter_step

    def counted(*args, **kwargs):
        calls.append(kwargs.get("controlled"))
        return build(*args, **kwargs)

    monkeypatch.setattr(builders, "build_trotter_step", counted)
    monkeypatch.setattr(pea, "build_trotter_step", counted)
    assert main(["gap", "--model", model3_file, "--k", "4"]) == 0
    assert "pea gap:" in capsys.readouterr().out
    assert calls == [0]


def test_gap_auto_substeps_exhausted_exits_2(tmp_path, capsys):
    # At k = 10 no first-order count up to 256 substeps meets the target.
    path = tmp_path / "model3.json"
    path.write_text(json.dumps({"N": 3, "n": 1, "eps": [1.0, 1.5, 2.0],
                                "V": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
                                "r": 1.0}))
    out, spectrum = tmp_path / "out.txt", tmp_path / "spectrum.csv"
    assert main(["gap", "--model", str(path), "--k", "10", "--order", "1",
                 "--out", str(out), "--spectrum-out", str(spectrum)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("qubusim gap: error: no substep count up to 256 meets the error "
                            "target; give --substeps\n")
    assert captured.out == ""
    assert not out.exists() and not spectrum.exists()

@pytest.mark.parametrize("argv", [
    ["gap"], ["gap", "--method", "exact"], ["pea"],
], ids=" ".join)
def test_one_level_sector_exits_2_with_one_line(argv, tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"N": 1, "n": 0, "eps": [1.0], "V": [[0.0]], "r": 1.0}))
    out, spectrum = tmp_path / "out.txt", tmp_path / "spectrum.csv"
    argv = argv + ["--model", str(path), "--out", str(out)]
    if argv[0] == "gap":
        argv += ["--spectrum-out", str(spectrum)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"qubusim {argv[0]}: error:")
    assert "one level" in lines[0]
    assert captured.out == ""
    assert not out.exists() and not spectrum.exists()


def test_verify_beyond_simulator_exits_2(tmp_path, capsys):
    n = 12
    path = tmp_path / "model12.json"
    path.write_text(json.dumps({"N": n, "n": n // 2, "eps": [1.0] * n,
                                "V": random_dense_coupling(n, np.random.default_rng(12)).tolist(),
                                "r": 1.0}))
    seq = str(tmp_path / "seq12.json")
    assert main(["compile", "--model", str(path), "--out", seq]) == 0
    assert count_ops(load_sequence(seq))["bus"] == n * n - n + 2
    capsys.readouterr()
    assert main(["verify", "--model", str(path), "--sequence", seq]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qubusim verify: error:")
    assert "12 qubits" in lines[0]
    assert captured.out == ""


def test_gap_exact_and_pea(model_file, capsys):
    assert main(["gap", "--model", model_file, "--method", "both", "--k", "6"]) == 0
    out = capsys.readouterr().out
    assert "exact gap: 1.0" in out
    pea_line = [l for l in out.splitlines() if l.startswith("pea gap")][0]
    gap = float(pea_line.split()[2])
    res = float(pea_line.split()[4])
    assert abs(gap - 1.0) <= res


def test_gap_lists_tied_peaks_by_outcome_index(model_file, capsys):
    # The two peaks are equal by the model's mode symmetry.
    assert main(["gap", "--model", model_file, "--k", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "peak phases: 1.5707963267948966 (w=0.4054), -1.5707963267948966 (w=0.4054)")


def test_gap_degenerate_exits_4(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"N": 2, "n": 1, "eps": [1.0, 1.0], "V": [[0.0, 0.0], [0.0, 0.0]], "r": 1.0}))
    assert main(["gap", "--model", str(path), "--method", "pea", "--k", "4",
                 "--substeps", "1"]) == 4
    assert capsys.readouterr().out.splitlines()[-1] == (
        "pea gap: unresolved peaks (need two distinct outcome peaks)")


def test_gap_ranks_the_outcomes_once(model_file, monkeypatch, capsys):
    # run_pea ranks the distribution once for the phases and the gap, and
    # the CLI prints the gap run_pea found.
    from qubusim import pea

    calls = []
    rank = pea._tied_outcomes
    monkeypatch.setattr(pea, "_tied_outcomes", lambda dist: calls.append(dist) or rank(dist))
    assert main(["gap", "--model", model_file, "--k", "6"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[1].startswith("pea gap: 1.0")


def test_pea_json_output(model_file, tmp_path):
    out = str(tmp_path / "res.json")
    assert main(["pea", "--model", model_file, "--k", "4", "--substeps", "1",
                 "--shots", "100", "--seed", "3", "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["k"] == 4
    assert abs(sum(doc["distribution"].values()) - 1.0) < 1e-9
    assert sum(doc["counts"].values()) == 100


def test_count_tables_and_rows(tmp_path):
    out = str(tmp_path / "table.csv")
    assert main(["count", "--out", out]) == 0
    text = Path(out).read_text()
    assert "crossover,5" in text
    maxn = [l for l in text.splitlines() if l.startswith("maxN_nn")][0]
    assert abs(int(maxn.split(",")[1]) - 72) <= 1
    maxg = [l for l in text.splitlines() if l.startswith("maxN_general")][0]
    assert abs(int(maxg.split(",")[1]) - 26) <= 1


def test_count_verify_mode_has_no_mismatches(tmp_path):
    out = str(tmp_path / "table.json")
    assert main(["count", "--verify-counts", "--format", "json", "--out", out]) == 0
    rows = json.loads(Path(out).read_text())
    for row in rows:
        if row["compiled"] is not None:
            assert row["compiled"] == row["formula"], row


def test_count_verify_mode_exits_3_on_mismatch(tmp_path, monkeypatch, capsys):
    from qubusim import cli
    from qubusim.resources import ReportRow, ResourceReport

    def mismatching(seed):
        return ResourceReport([ReportRow("naive", n=3, formula_count=12, compiled_count=13)])

    monkeypatch.setattr(cli, "verify_counts", mismatching)
    out = str(tmp_path / "table.csv")
    assert main(["count", "--verify-counts", "--out", out]) == 3
    assert "1 count mismatches" in capsys.readouterr().err
    assert "naive,3" in Path(out).read_text()


@pytest.mark.parametrize("argv, seed", [([], 7), (["--seed", "0"], 0), (["--seed", "5"], 5)])
def test_count_verify_mode_passes_the_seed(monkeypatch, tmp_path, argv, seed):
    from qubusim import cli
    from qubusim.resources import ResourceReport

    seen = []
    monkeypatch.setattr(cli, "verify_counts", lambda seed: seen.append(seed) or ResourceReport())
    assert main(["count", "--verify-counts", "--out", str(tmp_path / "t.csv")] + argv) == 0
    assert seen == [seed]


def test_outputs_are_deterministic(model_file, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["pea", "--model", model_file, "--k", "4", "--substeps", "1",
            "--shots", "64", "--seed", "11"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()

    c, d = str(tmp_path / "c.csv"), str(tmp_path / "d.csv")
    assert main(["count", "--seed", "5", "--out", c]) == 0
    assert main(["count", "--seed", "5", "--out", d]) == 0
    assert Path(c).read_bytes() == Path(d).read_bytes()


def test_compile_roundtrip_counts_exact(model3_file, tmp_path):
    out = str(tmp_path / "seq.json")
    main(["compile", "--model", model3_file, "--strategy", "naive", "--out", out])
    doc = json.loads(Path(out).read_text())
    seq = load_sequence(out)
    counts = count_ops(seq)
    assert doc["counts"]["bus"] == counts["bus"]
    assert doc["counts"]["local"] == counts["local"]


def test_gap_spectrum_out(model_file, tmp_path):
    spec_path = str(tmp_path / "spectrum.csv")
    assert main(["gap", "--model", model_file, "--method", "exact",
                 "--spectrum-out", spec_path]) == 0
    lines = Path(spec_path).read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 3  # two single-excitation levels


# (substep count, two heaviest outcomes, gap estimate) of `qubusim gap --k 6`
# on the models of _pinned_gap_models, recorded before the column fold
# composed its displacement runs through per-qubit running sums.
GAP_PINS = [
    (16, [57, 1], 0.4854237613927386),
    (4, [7, 10], 0.2789671666192979),
    (16, [12, 10], 0.1422206447544159),
    (16, [2, 4], 0.26090307486559466),
]


def _pinned_gap_models(tmp_path):
    """Four seeded pairing models, N = 3, 4, 4, 5, drawn as the pea-gap benchmark draws them."""
    rng = np.random.default_rng(1010)
    for i, n in enumerate((3, 4, 4, 5)):
        eps = rng.uniform(0.5, 2.0, n)
        v = np.triu(rng.uniform(0.05, 0.5, (n, n)), 1)
        path = tmp_path / f"model-{i}.json"
        path.write_text(json.dumps({"N": n, "n": n // 2, "eps": eps.tolist(),
                                    "V": (v + v.T).tolist(), "r": 1.0}))
        yield str(path)


def test_gap_outcomes_are_pinned(tmp_path, monkeypatch, capsys):
    import qubusim.cli as cli
    from qubusim.pea import _rank_outcomes

    chosen, results = [], []
    search, run = cli.substeps_for_target, cli.run_pea
    monkeypatch.setattr(cli, "substeps_for_target",
                        lambda *a, **kw: chosen.append(search(*a, **kw)) or chosen[-1])
    monkeypatch.setattr(cli, "run_pea", lambda *a: results.append(run(*a)) or results[-1])
    for path, (substeps, peaks, gap) in zip(_pinned_gap_models(tmp_path), GAP_PINS, strict=True):
        assert main(["gap", "--model", path, "--k", "6"]) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("pea gap:")][0]
        assert chosen[-1] == substeps
        assert [y for y, _ in _rank_outcomes(results[-1].distribution)[:2]] == peaks
        assert float(line.split()[2]) == pytest.approx(gap, rel=1e-12, abs=0.0)
