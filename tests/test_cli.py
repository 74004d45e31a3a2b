import json
import math

import numpy as np
import pytest

from fracbeam.cli import ResultTable, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def data_rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_modes_no_tip(capsys):
    code, out = run_cli(capsys, "modes", "--case", "no-tip", "--n-modes", "1")
    assert code == 0
    header, rows = data_rows(out)
    beta_sq = float(rows[0][header.index("beta_sq")])
    assert beta_sq == pytest.approx(3.51602, abs=1e-4)


def test_modes_tip_mass(capsys):
    code, out = run_cli(capsys, "modes", "--case", "tip-mass")
    assert code == 0
    header, rows = data_rows(out)
    assert float(rows[0][header.index("beta_sq")]) == pytest.approx(1.38569, abs=1e-4)


def test_modes_custom_alias(capsys):
    _, out_custom = run_cli(capsys, "modes", "--case", "custom", "--M", "0", "--J", "0")
    _, out_plain = run_cli(capsys, "modes", "--case", "no-tip")
    assert data_rows(out_custom) == data_rows(out_plain)


def test_coeffs_case1_values(capsys):
    code, out = run_cli(capsys, "coeffs", "--case", "no-tip")
    assert code == 0
    header, rows = data_rows(out)
    row = dict(zip(header, map(float, rows[0])))
    assert row["K_l"] == pytest.approx(12.3624, rel=1e-3)
    assert row["K_nl"] == pytest.approx(20.2203, rel=1e-3)
    assert row["M_b"] == pytest.approx(0.782992, rel=1e-3)


def test_coeffs_matches_library(capsys, case1_coeffs):
    _, out = run_cli(capsys, "coeffs", "--case", "no-tip")
    header, rows = data_rows(out)
    row = dict(zip(header, map(float, rows[0])))
    assert row["K_l"] == case1_coeffs.k_l
    assert row["M"] == case1_coeffs.m_modal
    assert row["M_b"] == case1_coeffs.m_b


def test_constitutive_ramp(capsys):
    code, out = run_cli(capsys, "constitutive", "--kind", "ramp", "--alpha", "0.5",
                        "--dt", "0.01", "--t-final", "3")
    assert code == 0
    header, rows = data_rows(out)
    i_exact, i_l1 = header.index("stress_exact"), header.index("stress_l1")
    for row in rows[1:]:
        assert float(row[i_exact]) == pytest.approx(float(row[i_l1]), rel=1e-8)


def test_constitutive_moduli_sweep(capsys):
    code, out = run_cli(capsys, "constitutive", "--kind", "moduli", "--alpha", "1",
                        "--omega-min", "1", "--omega-max", "2", "--count", "3")
    assert code == 0
    header, rows = data_rows(out)
    # dashpot limit: loss modulus equals omega exactly
    for row in rows:
        vals = dict(zip(header, map(float, row)))
        assert vals["loss"] == vals["omega"]


def test_constitutive_tanloss_monotone(capsys):
    code, out = run_cli(capsys, "constitutive", "--kind", "tanloss",
                        "--omega", "3.51602", "--count", "9")
    assert code == 0
    header, rows = data_rows(out)
    vals = [float(r[header.index("tan_delta")]) for r in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_simulate_energy_conservative(capsys):
    code, out = run_cli(capsys, "simulate", "--model", "linear", "--er", "0",
                        "--k", "1.24", "--c", "0", "--q0", "1", "--dt", "1e-3",
                        "--t-final", "10")
    assert code == 0
    header, rows = data_rows(out)
    arr = np.array([[float(x) for x in r] for r in rows])
    q, v = arr[:, header.index("q")], arr[:, header.index("v")]
    energy = 0.5 * (v**2 + 1.24 * q**2)
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-4


def test_envelope_command(capsys):
    code, out = run_cli(capsys, "envelope", "--er", "0.1", "--alpha", "0.5",
                        "--t-final", "10", "--count", "11")
    assert code == 0
    header, rows = data_rows(out)
    amps = [float(r[header.index("amp")]) for r in rows]
    assert amps[0] == pytest.approx(1.0)
    assert all(b <= a for a, b in zip(amps, amps[1:]))
    assert "# decay_rate=" in out


def test_critical_alpha_command(capsys):
    code, out = run_cli(capsys, "critical-alpha", "--omega0", "0.5", "--cl", "1")
    assert code == 0
    header, rows = data_rows(out)
    row = dict(zip(header, rows[0]))
    assert float(row["alpha_cr"]) == pytest.approx(0.7354390369, abs=1e-9)
    assert row["in_unit_interval"] == "1"


def test_sweep_delta_three_root_interval(capsys):
    code, out = run_cli(capsys, "sweep", "--var", "delta", "--alpha", "0.4",
                        "--er", "0.1", "--f", "1", "--min", "0", "--max", "3",
                        "--count", "121")
    assert code == 0
    assert out.count("# bifurcation_delta=") == 2
    header, rows = data_rows(out)
    n_roots = [int(r[header.index("n_roots")]) for r in rows]
    assert 3 in n_roots and 1 in n_roots


def test_sweep_er_peak_monotone(capsys):
    code, out = run_cli(capsys, "sweep", "--var", "er", "--min", "0.2", "--max", "0.6",
                        "--count", "3", "--f", "0.5", "--alpha", "0.4",
                        "--delta-count", "151")
    assert code == 0
    header, rows = data_rows(out)
    peaks = [float(r[header.index("peak_amp")]) for r in rows]
    assert peaks[0] > peaks[1] > peaks[2]


def test_json_output(capsys):
    code, out = run_cli(capsys, "coeffs", "--case", "no-tip", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["command"] == "coeffs"
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["K_l"] == pytest.approx(12.3624, rel=1e-3)


def test_determinism_byte_identical(capsys):
    outs = []
    for _ in range(2):
        _, out = run_cli(capsys, "sweep", "--var", "delta", "--count", "31",
                         "--min", "0", "--max", "2", "--er", "0.1")
        outs.append(out)
    assert outs[0] == outs[1]


def test_output_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = main(["modes", "--output", str(path)])
    assert code == 0
    assert path.read_text().startswith("# fracbeam=")


def test_output_into_missing_directory_exit_code_1(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code = main(["simulate", "--t-final", "1", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("fracbeam: error: ")
    assert str(path) in captured.err
    assert not path.parent.exists()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tip-mass\nn_modes=1\nresolution=2\n")
    _, out_cfg = run_cli(capsys, "modes", "--config", str(cfg))
    header, rows = data_rows(out_cfg)
    assert float(rows[0][header.index("beta_sq")]) == pytest.approx(1.38569, abs=1e-4)
    # explicit flag overrides the file
    _, out_flag = run_cli(capsys, "modes", "--config", str(cfg), "--case", "no-tip")
    header, rows = data_rows(out_flag)
    assert float(rows[0][header.index("beta_sq")]) == pytest.approx(3.51602, abs=1e-4)


def test_json_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"case": "tip-mass", "resolution": 2}))
    _, out = run_cli(capsys, "modes", "--config", str(cfg))
    header, rows = data_rows(out)
    assert float(rows[0][header.index("beta_sq")]) == pytest.approx(1.38569, abs=1e-4)


@pytest.mark.parametrize("name, text", [
    ("bad.cfg", "alpha=0.3\nalpah=0.3\n"),
    ("bad.json", json.dumps({"alpha": 0.3, "alpah": 0.3})),
    # a key of another command is as unknown as a typo
    ("other.cfg", "n_modes=2\n"),
])
def test_config_file_unknown_key_exit_code_2(tmp_path, capsys, name, text):
    cfg = tmp_path / name
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--t-final", "0.01"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    key = "'n_modes'" if name == "other.cfg" else "'alpah'"
    assert f"unknown key {key}" in err and "'simulate'" in err


@pytest.mark.parametrize("name, text, key", [
    ("null.json", json.dumps({"alpha": None}), "alpha"),
    ("list.json", json.dumps({"alpha": [1]}), "alpha"),
    ("bool.json", json.dumps({"dt": True}), "dt"),
    ("str.json", json.dumps({"case": 3}), "case"),
    ("word.json", json.dumps({"alpha": "abc"}), "alpha"),
    ("word.cfg", "alpha=abc\n", "alpha"),
])
def test_config_file_bad_value_exit_code_2(tmp_path, capsys, name, text, key):
    cfg = tmp_path / name
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--t-final", "0.01"])
    assert exc.value.code == 2
    assert f"bad value for key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("fraction.json", json.dumps({"n_modes": 2.5})),
    ("bool.json", json.dumps({"n_modes": True})),
    ("null.json", json.dumps({"n_modes": None})),
    ("inf.json", '{"n_modes": 1e400}'),
    ("fraction.cfg", "n_modes=2.5\n"),
])
def test_config_file_int_value_like_flag(tmp_path, capsys, name, text):
    cfg = tmp_path / name
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["modes", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "bad value for key 'n_modes'" in capsys.readouterr().err
    # the same value as a flag is a usage error too
    with pytest.raises(SystemExit) as exc:
        main(["modes", "--n-modes", "2.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, text", [
    ("int.json", json.dumps({"n_modes": 2, "M": 1, "case": "custom", "J": 0.5})),
    ("integral.json", json.dumps({"n_modes": 2.0, "M": 1.0, "case": "custom", "J": "0.5"})),
    ("int.cfg", "n_modes=2\nM=1\ncase=custom\nJ=0.5\n"),
])
def test_config_file_values_convert_like_flags(tmp_path, capsys, name, text):
    cfg = tmp_path / name
    cfg.write_text(text)
    _, out_cfg = run_cli(capsys, "modes", "--config", str(cfg))
    _, out_flag = run_cli(capsys, "modes", "--n-modes", "2", "--M", "1", "--case", "custom",
                          "--J", "0.5")
    assert out_cfg == out_flag


def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["modes", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_numerical_failure_exit_code_1(capsys):
    # eigen search range too small to bracket the requested mode count
    code = main(["modes", "--n-modes", "9", "--search-max-beta", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("flag", ["--er", "--c", "--k", "--q0", "--v0", "--dt", "--t-final"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite(capsys, flag, value):
    code = main(["simulate", "--t-final", "1", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag} must be finite" in captured.err


def _cell_join_csv(table):
    """The per-cell writer the columnar CSV writer replaced."""
    def fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return "1" if x else "0"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")
    lines = [f"# {k}={v}" for k, v in table.provenance]
    lines.append(",".join(table.columns))
    lines += [",".join(fmt(x) for x in row) for row in table.rows]
    return "\n".join(lines) + "\n"


def test_csv_bytes_match_cell_join():
    rows = [
        [0, True, math.nan, math.inf, -0.0, 1e-300, 1e300],
        [-7, False, -math.inf, -math.nan, 0.0, -1e-300, -1e300],
        [np.int64(2**52), np.bool_(True), np.float64(0.1), 1 / 3, -2.5e-17, 5e-324, 1.7976931348623157e308],
    ]
    table = ResultTable(list("abcdefg"), rows, [("fracbeam", "0"), ("x", "1")])
    assert table.to_csv() == _cell_join_csv(table)
    array_table = ResultTable(list("abcdefg"), np.asarray(rows, dtype=float), table.provenance)
    assert array_table.to_csv() == table.to_csv()
    assert ResultTable(["a"], [], []).to_csv() == "a\n"


def _indent_json(table):
    """The pure-Python indent=1 writer the C-encoded splice replaced."""
    def clean(x):
        if isinstance(x, (bool, np.bool_)):
            return bool(x)
        if isinstance(x, (int, np.integer)):
            return int(x)
        x = float(x)
        return x if math.isfinite(x) else None
    doc = {"provenance": dict(table.provenance), "columns": table.columns,
           "rows": [[clean(x) for x in row] for row in table.rows]}
    return json.dumps(doc, indent=1) + "\n"


def test_json_bytes_match_indent_writer():
    rows = [
        [0, True, math.nan, math.inf, -0.0, 1e-300, 1e300],
        [-7, False, -math.inf, -math.nan, 0.0, -1e-300, -1e300],
        [2**60, True, np.float64(0.1), 1 / 3, -2.5e-17, 5e-324, 1.7976931348623157e308],
        [np.int64(3), np.bool_(False), np.float64(math.nan), np.float64(-math.inf), 1, 2, 3],
    ]
    prov = [("fracbeam", "0"), ("x", "1"), ("bifurcation_delta", "2.5")]
    table = ResultTable(list("abcdefg"), rows, prov)
    assert table.to_json() == _indent_json(table)
    array_table = ResultTable(list("abcdefg"), np.asarray(rows, dtype=float), prov)
    assert array_table.to_json() == _indent_json(array_table)
    single = ResultTable(["a"], np.array([[1.5]]), prov)
    assert single.to_json() == _indent_json(single)
    for empty in (ResultTable(["a"], [], []), ResultTable(["a", "b"], np.empty((0, 2)), prov)):
        assert empty.to_json() == _indent_json(empty)


def test_sweep_json_matches_indent_writer(capsys):
    code, out = run_cli(capsys, "sweep", "--var", "delta", "--count", "41", "--min", "0",
                        "--max", "3", "--er", "0.1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = [[math.nan if x is None else x for x in row] for row in doc["rows"]]
    table = ResultTable(doc["columns"], rows, list(doc["provenance"].items()))
    assert out == _indent_json(table)
    assert {len(r) for r in doc["rows"]} == {11}
    assert None in doc["rows"][0] or None in doc["rows"][-1]     # NaN padding as null


_SWEEP_FLOATS = ["--f", "--er", "--alpha", "--min", "--max", "--delta-min", "--delta-max"]


@pytest.mark.parametrize("flag", _SWEEP_FLOATS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sweep_rejects_non_finite(capsys, flag, value):
    var = "er" if flag.startswith("--delta") else "delta"
    code = main(["sweep", "--var", var, "--count", "5", "--delta-count", "5",
                 f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag} must be finite, got {value}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--dt", "nan"], "--dt must be finite, got nan"),
    (["--t-final", "nan"], "--t-final must be finite, got nan"),
    (["--dt", "inf"], "--dt must be finite, got inf"),
    (["--dt", "0"], "--dt must be positive, got 0.0"),
    (["--dt=-0.01"], "--dt must be positive, got -0.01"),
    (["--t-final=-1"], "--t-final must be non-negative, got -1.0"),
])
def test_constitutive_ramp_domain(capsys, argv, message):
    code = main(["constitutive", "--kind", "ramp", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["envelope"], "--count"),
    (["constitutive", "--kind", "moduli"], "--count"),
    (["constitutive", "--kind", "tanloss"], "--count"),
    (["sweep", "--var", "delta"], "--count"),
    (["sweep", "--var", "er"], "--count"),
    (["sweep", "--var", "alpha"], "--delta-count"),
])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_empty_grid_rejected(capsys, argv, flag, count):
    code = main([*argv, f"{flag}={count}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag} must be positive, got {count}" in captured.err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sweep_overflow_is_numerical_failure(capsys):
    # the cubic's coefficients overflow a double this far from resonance
    code = main(["sweep", "--min", "0", "--max", "1e60", "--count", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "fracbeam: error: math range error" in captured.err


# every enumerated flag, with a command that takes it
_ENUMERATED = [("modes", "case"), ("constitutive", "kind"), ("simulate", "model"),
               ("sweep", "var"), ("critical-alpha", "mode")]


@pytest.mark.parametrize("command, key", _ENUMERATED)
def test_unknown_choice_exit_code_2(capsys, command, key):
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{key}", "bogus"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --{key}: invalid choice: 'bogus'" in captured.err


@pytest.mark.parametrize("command, key", _ENUMERATED)
@pytest.mark.parametrize("name", ["run.cfg", "run.json"])
def test_config_file_unknown_choice_exit_code_2(tmp_path, capsys, command, key, name):
    cfg = tmp_path / name
    cfg.write_text(json.dumps({key: "bogus"}) if name.endswith(".json") else f"{key}=bogus\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"bad value for key {key!r}" in captured.err
    assert "invalid choice: 'bogus'" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["modes", "--resolution", "0"], "--resolution must be positive, got 0"),
    (["modes", "--resolution", "-5"], "--resolution must be positive, got -5"),
    (["simulate", "--dt", "0"], "--dt must be positive, got 0.0"),
    (["simulate", "--dt", "-1"], "--dt must be positive, got -1.0"),
    (["simulate", "--t-final=-1"], "--t-final must be non-negative, got -1.0"),
    # ranges the library enforces, reported with its parameter name
    (["simulate", "--alpha", "0"], "alpha must lie in (0, 1], got 0.0"),
    (["modes", "--n-modes", "0"], "n_modes must be >= 1, got 0"),
    (["envelope", "--alpha", "1.5"], "alpha must lie in (0, 1], got 1.5"),
    (["envelope", "--a0", "0"], "a0 must be positive, got 0.0"),
    (["modes", "--case", "custom", "--M", "1"], "--case custom requires --M and --J"),
])
def test_domain_error_exit_code_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--force-amp", "1e308", "--force-freq", "1", "--t-final", "0.01"],
     "non-finite q = inf in table row 2"),
    (["envelope", "--a0", "1e200", "--count", "3"], "non-finite amp = nan in table row 1"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_table_exit_code_1(capsys, argv, message, fmt):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"fracbeam: error: {message}" in captured.err


@pytest.mark.parametrize("argv", [
    ["sweep", "--var", "er", "--min", "0.1", "--max", "1", "--count", "10", "--f", "0.5"],
    ["critical-alpha", "--omega0", "1", "--mode", "sensitivity-extremum"],
    ["sweep", "--var", "delta", "--count", "41", "--min", "0", "--max", "3", "--er", "0.1"],
])
def test_absent_values_are_not_failures(capsys, argv):
    # NaN for a fold not crossed, an order not found, a root past n_roots
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert ",nan" in out


def test_check_finite_exempts_only_absent_cells():
    absent = {"x": ("n", 0)}
    ResultTable(["n", "x"], [[0, math.nan], [1, 2.0]], absent=absent).check_finite()
    for rows in ([[1, math.nan]], [[0, 1.0], [math.inf, 2.0]]):
        with pytest.raises(FloatingPointError):
            ResultTable(["n", "x"], rows, absent=absent).check_finite()
