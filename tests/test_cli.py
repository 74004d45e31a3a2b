import json
import math
import shlex
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeam import build_mode, mode_shape_eval, solve_eigen
from fracbeam import cli, g17
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


def test_sweep_delta_descending_grid_bisects_folds(capsys):
    # a descending grid once returned its grid-interval midpoints (1.9375, 1.0875)
    folds = []
    for lo, hi in (("0", "3"), ("3", "0")):
        code, out = run_cli(capsys, "sweep", "--var", "delta", "--alpha", "0.4", "--er", "0.1",
                            "--f", "1", "--count", "121", "--min", lo, "--max", hi)
        assert code == 0
        folds.append(sorted(line for line in out.splitlines()
                            if line.startswith("# bifurcation_delta=")))
    assert folds[0] == folds[1] == ["# bifurcation_delta=1.0790707677137108",
                                    "# bifurcation_delta=1.9270034689921889"]


def test_nested_sweep_fold_columns_ordered_on_descending_grid(capsys):
    tables = []
    for dmin, dmax in (("-2", "4"), ("4", "-2")):
        code, out = run_cli(capsys, "sweep", "--var", "er", "--alpha", "0.5", "--f", "1",
                            "--count", "2", "--min", "0.08", "--max", "0.1",
                            "--delta-min", dmin, "--delta-max", dmax, "--delta-count", "1001")
        assert code == 0
        header, rows = data_rows(out)
        tables.append([dict(zip(header, map(float, r))) for r in rows])
    for up, down in zip(*tables):
        assert down["n_bifurcations"] == up["n_bifurcations"] == 2
        assert down["bif_lo"] < down["bif_hi"] and down["three_root_width"] > 0.0
        # the two grids' nodes differ in the last bits, so the folds do too
        for col in ("bif_lo", "bif_hi", "three_root_width"):
            assert down[col] == pytest.approx(up[col], rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "the discriminant is positive only on [0.907870, 0.908029], narrower than the "
    "6e-4 step of the default grid, so no node falls inside the band and no sign "
    "change is seen; locating folds from the roots of the discriminant in delta, "
    "not from grid sign changes, would find both"))
def test_sweep_finds_folds_narrower_than_the_grid_step(capsys):
    flags = ("sweep", "--var", "delta", "--case", "no-tip", "--alpha", "0.698313294254312",
             "--er", "0.0903357227059046", "--f", "1.02642058879028")
    code, fine = run_cli(capsys, *flags, "--min", "0.9", "--max", "0.92", "--count", "2001")
    assert code == 0 and fine.count("# bifurcation_delta=0.908") == 2
    code, out = run_cli(capsys, *flags)
    assert code == 0 and out.count("# bifurcation_delta=") == 2


def test_sweep_er_peak_monotone(capsys):
    code, out = run_cli(capsys, "sweep", "--var", "er", "--min", "0.2", "--max", "0.6",
                        "--count", "3", "--f", "0.5", "--alpha", "0.4",
                        "--delta-count", "151")
    assert code == 0
    header, rows = data_rows(out)
    peaks = [float(r[header.index("peak_amp")]) for r in rows]
    assert peaks[0] > peaks[1] > peaks[2]


@pytest.mark.parametrize("var, lo, hi", [("delta", -2.0, 4.0), ("alpha", 0.1, 1.0),
                                         ("er", 0.05, 1.0), ("f", 0.1, 2.0)])
def test_sweep_runs_at_its_defaults(capsys, var, lo, hi):
    # --min/--max default to a range inside the swept variable's domain
    code, out = run_cli(capsys, "sweep", "--var", var)
    assert code == 0
    echo = dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))
    assert (float(echo["min"]), float(echo["max"])) == (lo, hi)
    header, rows = data_rows(out)
    swept = [float(r[0]) for r in rows]
    assert header[0] == var and (swept[0], swept[-1]) == (lo, hi) and len(rows) == 601


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


@pytest.mark.parametrize("argv, empty", [
    (["modes", "--n-modes", "2", "--resolution", "5"], False),
    (["coeffs", "--case", "tip-mass"], False),
    (["constitutive", "--kind", "ramp", "--dt", "0.01", "--t-final", "3"], False),
    (["simulate", "--model", "nonlinear", "--t-final", "0.5"], False),
    (["envelope", "--count", "21"], False),
    (["critical-alpha", "--omega0", "1", "--mode", "sensitivity-extremum"], False),
    (["sweep", "--count", "41", "--min", "0", "--max", "3", "--er", "0.1"], False),
    (["sweep", "--var", "er", "--count", "3", "--delta-count", "31"], False),
    (["coeffs"], True),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_written_text_is_the_joined_table(monkeypatch, tmp_path, capsys, argv, empty, fmt):
    # --output and stdout take the same pieces, and they join to to_csv/to_json
    build = (lambda cfg: ResultTable(["x"], np.empty((0, 1)))) if empty else cli._COMMANDS[argv[0]]
    tables = []
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda cfg: tables.append(build(cfg)) or tables[-1])
    path = tmp_path / "table.out"
    assert main([*argv, "--format", fmt, "--output", str(path)]) == 0
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    for table, text in zip(tables, [path.read_bytes().decode("utf-8"), out], strict=True):
        assert text == (table.to_json() if fmt == "json" else table.to_csv())
    if empty and fmt == "json":
        assert json.loads(out)["rows"] == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_writer_peak_memory_is_a_fraction_of_the_text(monkeypatch, tmp_path, fmt):
    # a 200 000 x 4 time series, the size of the default simulate's table: the
    # CLI writes each chunk as it is formatted, so it never holds the table's
    # text (joining it would hold the chunks and the string, twice the text)
    t = np.arange(200_000) * 1e-3
    decay = np.exp(-t / 50)
    values = np.column_stack([t, decay * np.cos(t), -decay * np.sin(t), np.cos(3 * t) / (1 + t)])
    monkeypatch.setitem(cli._COMMANDS, "simulate", lambda cfg: ResultTable(["t", "q", "v", "a"], values))
    argv = ["simulate", "--format", fmt, "--output", str(tmp_path / "table.out")]
    assert main(argv) == 0       # also builds g17's layout tables
    size = (tmp_path / "table.out").stat().st_size
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_finite_check_writes_nothing(tmp_path, capsys, fmt):
    argv = ["envelope", "--a0", "1e200", "--count", "3", "--format", fmt]
    path = tmp_path / "table.out"
    path.write_bytes(b"# an earlier table\nx\n1\n")
    assert main([*argv, "--output", str(path)]) == 1
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("fracbeam: error: non-finite amp") == 2
    assert path.read_bytes() == b"# an earlier table\nx\n1\n"


def test_json_integer_column_error_leaves_the_output_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli._COMMANDS, "coeffs", lambda cfg: ResultTable(["n"], [[0.5]], ints=("n",)))
    path = tmp_path / "table.json"
    path.write_bytes(b"{}\n")
    with pytest.raises(TypeError, match="integer columns"):
        main(["coeffs", "--format", "json", "--output", str(path)])
    assert path.read_bytes() == b"{}\n"
    assert capsys.readouterr().out == ""


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


def test_nonlinear_step_without_a_finite_root_exit_code_1(capsys):
    # base forcing 1e300 drives q past 1e293 in a few steps; the next step's
    # cubic overflows its closed form, and the step failure is the one line
    # on stderr, with no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--model", "nonlinear", "--base-amp", "1e300", "--base-freq", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert caught == []
    [line] = captured.err.splitlines()
    assert line.startswith("fracbeam: error: step ")
    assert line.endswith("the step's cubic has no finite real root")


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


def _template_csv(table):
    """The '%'-template writer the array formatter replaced: one dtoa call per cell."""
    lines = [f"# {k}={v}" for k, v in table.provenance]
    lines.append(",".join(table.columns))
    values = table.values
    if values.size:
        row = ",".join(["%.17g"] * values.shape[1])
        lines.append("\n".join([row] * values.shape[0]) % tuple(values.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _assert_csv_matches_template(values):
    values = np.asarray(values, dtype=float)
    table = ResultTable([f"c{j}" for j in range(values.shape[1])], values, [("x", "1")])
    got, want = table.to_csv().splitlines(), _template_csv(table).splitlines()
    assert len(got) == len(want)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, bad[:5]


def _near_ties():
    """Doubles within about 1e-16 of a 17-digit rounding midpoint where 10^(16-E) is inexact.

    For k = 16 - E > 22, x = M 2^-(g+k) gives x 10^k = M 5^k / 2^g, whose
    fraction is 1/2 + delta / 2^g when M 5^k = 2^(g-1) + delta (mod 2^g).
    Below the formatter's double-double error these need its fallback band;
    delta = 0 (k = 23, 24) gives exact ties.
    """
    out = []
    for k in range(23, 297):
        p5 = 5 ** k
        for g in range(p5.bit_length() - 4, p5.bit_length() - 1):
            inverse = pow(p5, -1, 2 ** g)
            for delta in range(-32, 33):
                M = ((2 ** (g - 1) + delta) * inverse) % 2 ** g
                if 2 ** 52 <= M < 2 ** 53 and 10 ** 16 <= (M * p5) >> g < 10 ** 17:
                    out.append(math.ldexp(M, -g - k))
    return out


def test_csv_random_bit_patterns_match_template():
    rng = np.random.default_rng(20260419)
    bits = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64, endpoint=False)
    specials = np.array([0, 2 ** 63, 0x7FF0000000000000, 0xFFF0000000000000,   # +-0, +-inf
                         0x7FF8000000000000, 0xFFF8000000000000,                # quiet NaNs
                         0x7FF0000000000001, 0xFFF4000000000123,                # payload NaNs
                         1, 2 ** 63 + 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000],  # subnormal edges
                        dtype=np.uint64)
    bits[:specials.size] = specials
    values = bits.view(np.float64)
    assert np.isnan(values).sum() > 100 and (np.abs(values) < 2.3e-308).sum() > 100
    _assert_csv_matches_template(values.reshape(-1, 4))


def test_csv_edge_cases_match_template():
    edges = []
    for k in range(-323, 309):
        x = float(f"1e{k}")
        edges += [x, np.nextafter(x, math.inf), np.nextafter(x, -math.inf)]
    near_ties = _near_ties()
    assert len(near_ties) > 50
    ties = [1 + 2 ** -17, 2 ** 53 + 2.0, 0.5, 2.5e-5] + near_ties
    switches = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999984.0]
    switches += [np.nextafter(x, s) for x in switches[:4] for s in (math.inf, -math.inf)]
    integral = [float(2 ** j) for j in range(64)] + [float(2 ** j - 1) for j in range(1, 54)]
    integral += [float(i) for i in range(-1000, 1001)]
    cases = np.array(edges + ties + switches + integral)
    _assert_csv_matches_template(np.concatenate([cases, -cases])[:, None])
    # 1 + 2**-17 = 1.00000762939453125 lies halfway between two 17-digit values
    assert ResultTable(["a"], [[1 + 2 ** -17]]).to_csv() == "a\n1.0000076293945312\n"


@pytest.mark.parametrize("n_cols", [1, 3, 4])
def test_csv_chunk_boundaries_match_template(n_cols):
    rows = g17._CHUNK_CELLS // n_cols
    rng = np.random.default_rng(n_cols)
    for n_rows in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 1):
        values = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-20, 20, (n_rows, n_cols))
        values[::7] = 0.0
        _assert_csv_matches_template(values)


@given(st.lists(st.lists(st.floats(width=64), min_size=3, max_size=3), max_size=40))
@settings(max_examples=200, deadline=None)
def test_csv_hypothesis_tables_match_template(rows):
    _assert_csv_matches_template(np.array(rows, dtype=float).reshape(-1, 3))


def test_csv_writer_peak_memory_below_template_writer():
    # a table the size of the constitutive ramp's: the writer works on
    # bounded chunks and must not build whole-table temporaries
    t = np.arange(60_001) * 1e-4
    values = np.column_stack([t, np.minimum(t, 2.5) / 24, np.exp(-t) * np.cos(7 * t), np.sqrt(t)])
    table = ResultTable(["t", "strain", "stress", "x"], values, [("x", "1")])

    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(table.to_csv) < peak(lambda: _template_csv(table))


def _json_rows(table):
    """The table's cells as json encodes them: int in an integer column, else float."""
    ints = [col in table.ints for col in table.columns]
    return [[int(x) if is_int and math.isfinite(x) else x for x, is_int in zip(row, ints)]
            for row in table.values.tolist()]


def _indent_json(table):
    """The pure-Python indent=1 writer, with non-finite cells as null."""
    rows = [[x if not isinstance(x, float) or math.isfinite(x) else None for x in row]
            for row in _json_rows(table)]
    doc = {"provenance": dict(table.provenance), "columns": table.columns, "rows": rows}
    return json.dumps(doc, indent=1) + "\n"


def _dumps_json(table):
    """The json.dumps writer the array formatter replaced.

    The rows go through the C encoder compactly and the indent=1 layout is
    spliced in; the cells are numbers, so commas and brackets are all
    separators.
    """
    head = json.dumps({"provenance": dict(table.provenance), "columns": table.columns,
                       "rows": None}, indent=1)
    body = json.dumps(_json_rows(table), separators=(",", ":"))
    body = body.replace("-Infinity", "null").replace("Infinity", "null").replace("NaN", "null")
    if body != "[]":
        body = ("[\n  [\n   "
                + body[2:-2].replace(",", ",\n   ").replace("],\n   [", "\n  ],\n  [\n   ")
                + "\n  ]\n ]")
    return head[:-len("null\n}")] + body + "\n}\n"


def _assert_json_matches_dumps(values, ints=()):
    values = np.asarray(values, dtype=float)
    table = ResultTable([f"c{j}" for j in range(values.shape[1])], values, [("x", "1")], ints=ints)
    got, want = table.to_json(), _dumps_json(table)
    if got != want:
        got_cells = got.replace("\n  ],\n  [\n   ", ",\n   ").split(",\n   ")
        want_cells = want.replace("\n  ],\n  [\n   ", ",\n   ").split(",\n   ")
        assert len(got_cells) == len(want_cells)
        bad = [(i, g, w) for i, (g, w) in enumerate(zip(got_cells, want_cells)) if g != w]
        assert not bad, bad[:5]


def test_json_bytes_match_indent_writer():
    rows = [
        [0, True, math.nan, math.inf, -0.0, 1e-300, 1e300],
        [-7, False, -math.inf, -math.nan, 0.0, -1e-300, -1e300],
        [2**53 - 1, True, np.float64(0.1), 1 / 3, -2.5e-17, 5e-324, 1.7976931348623157e308],
        [np.int64(3), np.bool_(False), np.float64(math.nan), np.float64(-math.inf), 1, 2, 3],
        [-0.0, math.nan, 1e16, 1e-5, 1e-4, 123.0, -(2**53 - 1)],
    ]
    prov = [("fracbeam", "0"), ("x", "1"), ("bifurcation_delta", "2.5")]
    table = ResultTable(list("abcdefg"), rows, prov, ints=("a", "b"))
    assert table.to_json() == _indent_json(table) == _dumps_json(table)
    doc = json.loads(table.to_json())
    assert [row[:2] for row in doc["rows"]] == [[0, 1], [-7, 0], [2**53 - 1, 1], [3, 0], [0, None]]
    assert doc["rows"][3][4:] == [1.0, 2.0, 3.0] and "\n   -0.0,\n" in table.to_json()
    array_table = ResultTable(list("abcdefg"), np.asarray(rows, dtype=float), prov, ints=("a", "b"))
    assert array_table.to_json() == table.to_json()
    floats = ResultTable(list("abcdefg"), rows, prov)
    assert floats.to_json() == _indent_json(floats) == _dumps_json(floats)
    single = ResultTable(["a"], np.array([[1.5]]), prov)
    assert single.to_json() == _indent_json(single)
    for empty in (ResultTable(["a"], [], []),
                  ResultTable(["a", "b"], np.empty((0, 2)), prov, ints=("a",))):
        assert empty.to_json() == _indent_json(empty) == _dumps_json(empty)


def test_sweep_json_matches_indent_writer(capsys):
    code, out = run_cli(capsys, "sweep", "--var", "delta", "--count", "41", "--min", "0",
                        "--max", "3", "--er", "0.1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = [[math.nan if x is None else x for x in row] for row in doc["rows"]]
    table = ResultTable(doc["columns"], rows, list(doc["provenance"].items()),
                        ints=("n_roots", "stable1", "stable2", "stable3"))
    assert out == _indent_json(table)
    assert {len(r) for r in doc["rows"]} == {11}
    assert None in doc["rows"][0] or None in doc["rows"][-1]     # NaN padding as null
    assert {type(r[1]) for r in doc["rows"]} == {int}


def test_json_random_bit_patterns_match_dumps():
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64, endpoint=False)
    specials = np.array([0, 2 ** 63, 0x7FF0000000000000, 0xFFF0000000000000,   # +-0, +-inf
                         0x7FF8000000000000, 0xFFF8000000000000,                # quiet NaNs
                         0x7FF0000000000001, 0xFFF4000000000123,                # payload NaNs
                         1, 2 ** 63 + 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000],  # subnormal edges
                        dtype=np.uint64)
    bits[:specials.size] = specials
    values = bits.view(np.float64)
    assert np.isnan(values).sum() > 100 and (np.abs(values) < 2.3e-308).sum() > 100
    _assert_json_matches_dumps(values.reshape(-1, 4))


def test_json_edge_cases_match_dumps():
    rng = np.random.default_rng(15)
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    # short decimals: up to 15 digits, over the whole exponent range
    short = [float(f"{m}e{e}") for m, e in zip(rng.integers(1, 10 ** rng.integers(1, 16, 4000)),
                                                 rng.integers(-320, 300, 4000))]
    short += [round(x, int(k)) for x, k in zip(rng.uniform(-4, 4, 4000), rng.integers(0, 16, 4000))]
    near = np.array(powers + short)
    near = np.concatenate([near, np.nextafter(near, math.inf), np.nextafter(near, -math.inf)])
    # exact halves and ties between two candidates
    halves = [j + 0.5 for j in range(-1000, 1000)] + [2.0 ** 52 - 0.5, 2.0 ** 51 + 0.5]
    halves += [1 + j * 2.0 ** -17 for j in range(1, 2000, 2)]
    halves += [j * 2.0 ** -20 for j in range(1, 3000, 7)]
    # integers at and above 2^53, some exactly on a round-trip boundary
    big = [2.0 ** 53 + 2 * j for j in range(500)] + [2.0 ** 54 + 4 * j for j in range(500)]
    big += [2.0 ** 55 + 8 * j for j in range(500)]
    big += [20000000000000008.0, 1e17, 1e22, 1e23, 2.0 ** 63]
    big += rng.integers(2 ** 53, 2 ** 63, 5000, dtype=np.int64).astype(float).tolist()
    pow2 = [2.0 ** k for k in range(-1074, 1024)]
    switches = [1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e-5, 9999999999999998.0, 0.0, -0.0,
                math.inf, -math.inf, math.nan]
    switches += [np.nextafter(x, s) for x in switches[:4] for s in (math.inf, -math.inf)]
    cases = np.concatenate([near, halves, big, pow2, np.nextafter(pow2, 0), switches])
    _assert_json_matches_dumps(np.concatenate([cases, -cases])[:, None])
    # 1 + 3 * 2**-17 = 1.00002288818359375 is a tie at 17 digits; repr rounds it to even
    assert '1.0000228881835938' in ResultTable(["a"], [[1 + 3 * 2 ** -17]]).to_json()


def test_json_integer_columns_match_dumps():
    rng = np.random.default_rng(7)
    ints = rng.integers(-2 ** 53 + 1, 2 ** 53, 20_000).astype(float)
    ints[::3] = rng.integers(-20, 20, ints[::3].size)
    ints[::11] = math.nan
    ints[:8] = [0.0, -0.0, 1.0, -1.0, 2.0 ** 52, 1e15, 2.0 ** 53 - 2, -(2.0 ** 53 - 1)]
    floats = rng.standard_normal(ints.size) * 10.0 ** rng.integers(-8, 8, ints.size)
    floats[::5] = ints[::5]
    values = np.column_stack([ints, floats, ints[::-1]])
    _assert_json_matches_dumps(values, ints=("c0", "c2"))
    for bad in (0.5, 2.0 ** 53, -(2.0 ** 60)):
        with pytest.raises(TypeError):
            ResultTable(["n", "x"], [[1, 1.5], [bad, 2.0]], ints=("n",)).to_json()


@pytest.mark.parametrize("n_cols", [1, 3, 11])
def test_json_chunk_boundaries_match_dumps(n_cols):
    rows = g17._CHUNK_CELLS // n_cols
    rng = np.random.default_rng(n_cols)
    for n_rows in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 1):
        values = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-20, 20, (n_rows, n_cols))
        values[::7] = 0.0
        values[:, 0] = np.arange(n_rows) - 5.0
        values[::5, 0] = math.nan
        _assert_json_matches_dumps(values)
        _assert_json_matches_dumps(values, ints=("c0",))


# integer-column values whose text needs no decimal conversion or sits at a
# digit-count boundary
_INTEGER_EDGES = ([float(i) for i in range(10)] + [-0.0, math.nan]
                  + [float(10 ** k) for k in range(16)] + [2.0 ** 53 - 1, -(2.0 ** 53 - 1)])
_INTEGER_EDGES += [-x for x in _INTEGER_EDGES[1:10] + _INTEGER_EDGES[12:28]]


def _split_chunk_table(n_cols, seed):
    """Four chunks of ``g17._CHUNK_CELLS`` cells and a partial one, c0 an integer column.

    Chunk 0 holds only zeros, infinities and NaNs outside c0; chunk 1 has
    none; chunks 2 and 3 have one at each end; the partial chunk is all -0.0.
    """
    rows = g17._CHUNK_CELLS // n_cols
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((4 * rows + 3, n_cols)) * 10.0 ** rng.integers(-20, 20, (4 * rows + 3, n_cols))
    values[:rows] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf], (rows, n_cols))
    for end in (2 * rows, 3 * rows - 1, 3 * rows, 4 * rows - 1):
        values[end, rng.integers(n_cols)] = rng.choice([0.0, -0.0, math.nan, -math.inf])
    values[4 * rows:] = -0.0
    ints = rng.integers(-2 ** 53 + 1, 2 ** 53, values.shape[0]).astype(float)
    ints[::2] = rng.integers(-3, 4, ints[::2].size)
    ints[::13] = math.nan
    ints[rows:2 * rows] = rng.integers(1, 10, rows)          # no zero or NaN in chunk 1
    values[:, 0] = ints
    return values


@pytest.mark.parametrize("n_cols", [1, 3, 11])
def test_json_split_chunks_match_dumps(n_cols, monkeypatch):
    values = _split_chunk_table(n_cols, n_cols)
    _assert_json_matches_dumps(values)
    # only finite non-zero cells outside an integer column reach the digit search
    converted = []
    shortest = g17._shortest
    monkeypatch.setattr(g17, "_shortest", lambda v, tab: converted.append(v.size) or shortest(v, tab))
    _assert_json_matches_dumps(values, ints=("c0",))
    floats = values[:, 1:]
    assert sum(converted) == np.count_nonzero(np.isfinite(floats) & (floats != 0))
    assert len(converted) == (0 if n_cols == 1 else 3)       # no call for a chunk without digits


@pytest.mark.parametrize("n_cols", [1, 2, 11])
def test_json_integer_column_edges_match_dumps(n_cols):
    rows = g17._CHUNK_CELLS // n_cols
    edges = np.array(_INTEGER_EDGES)
    # the edges fill every chunk, and a whole run of them straddles each of the first two boundaries
    column = np.resize(edges, 3 * rows + 1)
    for start in (rows - edges.size // 2, 2 * rows - edges.size // 2):
        column[start:start + edges.size] = edges
    halves = np.resize(edges[::-1], column.size) * 0.5
    values = np.column_stack([np.roll(column, j) if j % 2 == 0 else halves for j in range(n_cols)])
    _assert_json_matches_dumps(values)
    _assert_json_matches_dumps(values, ints=tuple(f"c{j}" for j in range(0, n_cols, 2)))
    text = ResultTable(["n"], edges[:, None], ints=("n",)).to_json()
    assert json.loads(text)["rows"] == [[None if math.isnan(x) else int(x)] for x in edges]


@pytest.mark.parametrize("n_cols", [1, 4])
def test_csv_split_chunks_and_integer_columns_match_template(n_cols):
    values = _split_chunk_table(n_cols, 10 + n_cols)
    _assert_csv_matches_template(values)
    rows = g17._CHUNK_CELLS // n_cols
    edges = np.array(_INTEGER_EDGES + [2.0 ** 53, 1e16, 1e17, 1e22, -1e22])
    column = np.resize(edges, 3 * rows + 1)
    column[rows - 5:rows - 5 + edges.size] = edges
    _assert_csv_matches_template(np.column_stack([column] * n_cols))


@pytest.mark.parametrize("n_cols", [1, 4])
def test_two_byte_cells_match_template_and_dumps(n_cols):
    # "7," is 2 bytes of a 32-byte CSV row, so each row written whole at its
    # offset overlaps the 15 cells after it before they overwrite it
    rows = g17._CHUNK_CELLS // n_cols
    values = np.resize([7.0, 0.0, 1.0, 9.0, 3.0], (2 * rows + 1, n_cols))
    _assert_csv_matches_template(values)
    _assert_json_matches_dumps(values)
    _assert_json_matches_dumps(values, ints=tuple(f"c{j}" for j in range(n_cols)))
    text = "".join(g17.csv_chunks(values))
    assert len(text) == 2 * values.size


def test_longest_cells_match_template_and_dumps():
    # 24 and 23 bytes of text, 37 with JSON's row separator, in every cell of two chunks
    longest = [-1.2345678901234567e-100, -0.00012345678901234567, -1.2345678901234567e+100]
    assert [len(repr(x)) for x in longest] == [len("%.17g" % x) for x in longest] == [24, 23, 24]
    rows = g17._CHUNK_CELLS // 3
    values = np.resize(longest, (2 * rows + 1, 3))
    for shift in range(3):
        _assert_csv_matches_template(np.roll(values, shift, axis=1))
        _assert_json_matches_dumps(np.roll(values, shift, axis=1))


@pytest.mark.parametrize("x", [1.5, -2.5e-300, 0.0, -0.0, math.nan, math.inf, 7.0, -123.0])
def test_one_cell_tables_match_template_and_dumps(x):
    _assert_csv_matches_template([[x]])
    _assert_json_matches_dumps([[x]])
    if not math.isfinite(x) or x == int(x):
        _assert_json_matches_dumps([[x]], ints=("c0",))


@pytest.mark.parametrize("n_cols", [1, 3, 11])
@pytest.mark.parametrize("last", [2.5, 0.0, math.nan, 12.0])
def test_json_table_ending_on_a_chunk_boundary(n_cols, last):
    # the last chunk is full, and its last cell is the table's: no separator after it
    rows = g17._CHUNK_CELLS // n_cols
    rng = np.random.default_rng(n_cols)
    values = rng.standard_normal((2 * rows, n_cols)) * 10.0 ** rng.integers(-20, 20, (2 * rows, n_cols))
    values[-1, -1] = last
    chunks = list(g17.json_chunks(values, np.zeros(n_cols, bool)))
    assert len(chunks) == 2 and not chunks[-1].endswith((",", " ", "\n"))
    _assert_json_matches_dumps(values)
    if math.isnan(last) or last == int(last):
        # the same with the first and last columns integers
        values[:, 0] = np.arange(2 * rows)
        values[:, -1] = np.arange(2 * rows)[::-1]
        values[-1, -1] = last
        _assert_json_matches_dumps(values, ints=("c0", f"c{n_cols - 1}"))


def test_json_integer_columns_under_each_separator():
    # integer cells followed by the cell separator (c0), the row separator
    # (c2) and none (the table's last cell), with zeros, NaNs and 16 digits
    edges = np.array(_INTEGER_EDGES)
    values = np.column_stack([edges, edges * 0.5, edges[::-1]])
    for ints in (("c0",), ("c2",), ("c0", "c2")):
        _assert_json_matches_dumps(values, ints=ints)
        for last in (0.0, math.nan, 2.0 ** 53 - 1, -7.0):
            values[-1, 2] = last
            _assert_json_matches_dumps(values, ints=ints)


def test_numpy_assigns_overlapping_items_in_index_order():
    # the placement writes whole rows as void items one byte apart and relies
    # on each item overwriting the tails of those before it
    buf = np.zeros(8, np.uint8)
    items = g17._void_items(buf, 0, 4)
    items[[0, 2]] = np.frombuffer(b"abcdWXYZ", "V4")
    assert buf.tobytes() == b"abWXYZ\0\0"
    # many items, more than one inner buffer of numpy's iterators
    n, width = 20_000, 16
    rows = np.random.default_rng(0).integers(0, 256, n * width, dtype=np.uint8).view(f"V{width}")
    buf = np.zeros(n + width, np.uint8)
    g17._void_items(buf, 0, width)[np.arange(n)] = rows
    want = np.concatenate([rows.view(np.uint8)[::width], rows[-1:].view(np.uint8)[1:]])
    assert buf[:n + width - 1].tobytes() == want.tobytes()


@given(st.lists(st.tuples(st.one_of(st.integers(-2 ** 53 + 1, 2 ** 53 - 1), st.just(math.nan)),
                          st.floats(width=64), st.floats(width=64)), max_size=40))
@settings(max_examples=200, deadline=None)
def test_json_hypothesis_tables_match_dumps(rows):
    values = np.array(rows, dtype=float).reshape(-1, 3)
    _assert_json_matches_dumps(values)
    _assert_json_matches_dumps(values, ints=("c0",))


def test_json_writer_peak_memory_below_dumps_writer():
    # a 10 001-point detuning sweep; the writer works on bounded chunks and
    # builds no per-cell Python objects.  The dumps path's row lists count
    # against it, as they were built only for JSON.
    cfg = {name: flag.default for name, flag in cli._SPECS["sweep"].items()}
    table = cli.cmd_sweep({**cfg, "count": 10_001})
    assert table.values.shape == (10_001, 11)
    assert table.to_json() == _dumps_json(table)    # also builds the layout tables

    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(table.to_json) < peak(lambda: _dumps_json(table))


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


def test_sweep_overflow_is_numerical_failure(capsys):
    # the cubic's coefficients overflow a double this far from resonance;
    # numpy's overflow in the discriminant's products stays silent, and the
    # libm recompute's OverflowError is the one line on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--min", "0", "--max", "1e60", "--count", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert caught == []
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fracbeam: error: math range error")


@pytest.mark.parametrize("argv, value", [(["--f", "1e200", "--count", "5"], "f=1e+200"),
                                         (["--er", "1e150", "--count", "3"], "e_r=1e+150")])
def test_sweep_overflow_names_the_parameters(capsys, argv, value):
    # the forcing term f^2 overflows inside Python's **, the discriminant's p3^2 inside math.pow
    code = main(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "the steady-state cubic overflows at MmsParams(omega0=" in captured.err
    assert value in captured.err


@pytest.mark.parametrize("mode, omega0", [("decay-peak", "1e-320"),
                                         ("sensitivity-extremum", "1e-310")])
def test_critical_alpha_overflow_names_the_parameters(capsys, mode, omega0):
    # the slow flow's w0^(a-1) overflows at the root's order
    code = main(["critical-alpha", "--omega0", omega0, "--mode", mode])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fracbeam: error: ")
    assert ": the slow flow overflows at order " in captured.err
    assert f"MmsParams(omega0={float(omega0)!r}, " in captured.err


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


@pytest.mark.parametrize("limit, code", [("-5", 2), ("0", 2), ("1", 1)])
def test_search_max_beta_domain(capsys, limit, code):
    # a non-positive limit is a domain error; a positive one below the first
    # root is a failed eigen search
    assert main(["modes", "--search-max-beta", limit]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if code == 2:
        assert f"search_max_beta must be positive, got {float(limit)}" in captured.err
    else:
        assert "increase search_max_beta" in captured.err


@pytest.mark.parametrize("argv, message", [
    # a discrete solution that is finite near the overflow threshold is no
    # failure: q = 5.0e303 at t = 0.01, a = 0.999e308
    (["simulate", "--force-amp", "1e308", "--force-freq", "1", "--t-final", "0.01"], None),
    (["envelope", "--a0", "1e200", "--count", "3"], "non-finite amp = nan in table row 1"),
    # a = -k q0 = -1e309 overflows at t = 0
    (["simulate", "--q0", "1e308", "--k", "10", "--t-final", "0.01"],
     "non-finite a = -inf in table row 1"),
    # a = f - k q0 = 1e308 + 1e308 overflows at t = 0
    (["simulate", "--force-amp", "1e308", "--q0=-1e307", "--k", "10", "--t-final", "0.002"],
     "non-finite a = inf in table row 1"),
    # the damping rate e_r c_l overflows: the step's solve is inf / inf
    (["simulate", "--er", "1e300", "--c", "1e10", "--t-final", "0.01"],
     "non-finite q = nan in table row 2"),
    # q0^3 and v0^2 overflow in the nonlinear equation of motion at t = 0
    (["simulate", "--model", "nonlinear", "--q0", "1e120"],
     "the equation of motion overflows at t = 0 (q0 = 1e+120, v0 = 0.0)"),
    (["simulate", "--model", "nonlinear", "--v0", "1e200"],
     "the equation of motion overflows at t = 0 (q0 = 1.0, v0 = 1e+200)"),
    (["simulate", "--model", "nonlinear", "--q0", "1e120", "--alpha", "1"],
     "the equation of motion overflows at t = 0 (q0 = 1e+120, v0 = 0.0)"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_table_exit_code_1(capsys, argv, message, fmt):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0
        assert captured.err == ""
        if fmt == "json":
            doc = json.loads(captured.out)
            columns, rows = doc["columns"], doc["rows"]
        else:
            header, text_rows = data_rows(captured.out)
            columns, rows = header, [[float(x) for x in row] for row in text_rows]
        table = np.array(rows, dtype=float)
        assert np.all(np.isfinite(table))
        assert table[-1, columns.index("q")] == pytest.approx(5.0e303, rel=1e-3)
        return
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fracbeam: error: {message}"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_provenance_exit_code_1(capsys, fmt):
    # the table is finite; the sensitivity it echoes overflows
    code = main(["envelope", "--er", "4e307", "--alpha", "0.01", "--t-final", "0",
                 "--count", "2", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "fracbeam: error: non-finite sensitivity = inf in the provenance" in captured.err


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


def test_check_finite_checks_provenance_numbers():
    ok = ResultTable(["x"], [[1.0]], [("command", "sweep"), ("bifurcation_delta", 0.5)])
    ok.check_finite()
    assert "# bifurcation_delta=0.5\n" in ok.to_csv()
    assert '"bifurcation_delta": "0.5"' in ok.to_json()
    for bad in (math.nan, -math.inf):
        with pytest.raises(FloatingPointError, match="non-finite bifurcation_delta"):
            ResultTable(["x"], [[1.0]], [("bifurcation_delta", bad)]).check_finite()


def _modes_per_row(cfg):
    """The per-point modes table the one-call-per-mode builder replaced."""
    tip = cli._tip_from(cfg)
    betas = solve_eigen(tip, cfg["n_modes"], cfg["search_max_beta"])
    res = cfg["resolution"]
    s_grid = np.linspace(0.0, 1.0, res) if res > 1 else np.array([1.0])
    rows = []
    for idx, beta in enumerate(betas, start=1):
        mode = build_mode(tip, beta)
        for s in s_grid:
            rows.append([idx, beta, beta**2, s, mode_shape_eval(mode, s, 0)])
    return ResultTable(["mode", "beta", "beta_sq", "s", "phi"], rows, ints=("mode",))


def _moduli_per_row(cfg):
    """The per-row moduli and tanloss tables the array builder replaced.

    Each row is the scalar formula in Python floats, so pow, cos and sin are
    libm's, as the tables have always printed them.
    """
    def row(x, alpha, omega):
        wa = float(omega) ** float(alpha)
        half = 0.5 * math.pi * alpha
        storage = cfg["e_inf"] + cfg["e_alpha"] * wa * math.cos(half)
        loss = cfg["e_alpha"] * wa * math.sin(half)
        return [x, storage, loss, loss / storage]
    if cfg["kind"] == "moduli":
        omegas = np.linspace(cfg["omega_min"], cfg["omega_max"], cfg["count"])
        return ResultTable(["omega", "storage", "loss", "tan_delta"],
                           [row(w, cfg["alpha"], w) for w in omegas])
    alphas = np.linspace(cfg["alpha_min"], cfg["alpha_max"], cfg["count"])
    return ResultTable(["alpha", "storage", "loss", "tan_delta"],
                       [row(a, float(a), cfg["omega"]) for a in alphas])


@pytest.mark.parametrize("argv, oracle", [
    (["modes", "--case", "no-tip", "--n-modes", "4", "--resolution", "2001"], _modes_per_row),
    (["modes", "--case", "tip-mass", "--n-modes", "2", "--resolution", "2001"], _modes_per_row),
    (["modes", "--case", "no-tip", "--n-modes", "3", "--resolution", "1"], _modes_per_row),
    (["modes", "--case", "tip-mass", "--n-modes", "2", "--resolution", "1"], _modes_per_row),
    (["constitutive", "--kind", "moduli", "--alpha", "0.37", "--e-alpha", "1.3",
      "--omega-min", "1e-3", "--omega-max", "1e3", "--count", "5000"], _moduli_per_row),
    (["constitutive", "--kind", "tanloss", "--omega", "3.5160152685", "--e-alpha", "0.8",
      "--alpha-min", "0.001", "--alpha-max", "1", "--count", "5000"], _moduli_per_row),
    (["constitutive", "--kind", "tanloss", "--count", "1"], _moduli_per_row),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_array_tables_match_per_row_builders(monkeypatch, capsys, argv, oracle, fmt):
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    monkeypatch.setitem(cli._COMMANDS, argv[0], oracle)
    assert run_cli(capsys, *argv, "--format", fmt) == (0, out)
    if argv[0] == "modes" and fmt == "json":
        assert all(isinstance(row[0], int) for row in json.loads(out)["rows"])


@pytest.mark.parametrize("command", [["simulate"], ["constitutive", "--kind", "ramp"]])
@pytest.mark.parametrize("t_final, dt", [("1e300", "1e-300"), ("1e20", "1")])
def test_step_count_out_of_range_exit_code_2(capsys, command, t_final, dt):
    code = main([*command, "--t-final", t_final, "--dt", dt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "fracbeam: error: --t-final / --dt" in captured.err
    assert "too large for a step count" in captured.err


@pytest.mark.parametrize("command", [["simulate"], ["constitutive", "--kind", "ramp"]])
@pytest.mark.parametrize("t_final, dt", [("0", "0.001"), ("0.0004", "0.001"), ("1", "3")])
def test_step_count_below_one_exit_code_2(capsys, command, t_final, dt):
    # these used to fail in the library with "n_steps must be >= 1, got 0" (simulate)
    # or "sampled program needs at least 2 samples" (ramp), naming no flag
    code = main([*command, "--t-final", t_final, "--dt", dt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"fracbeam: error: --t-final / --dt = {float(t_final)} / {float(dt)} "
                            "rounds to 0 steps; it must give at least 1\n")


@pytest.mark.parametrize("command", [["simulate"], ["constitutive", "--kind", "ramp"]])
def test_step_count_of_one_runs(capsys, command):
    # 0.6 / 1 rounds to one step, the smallest run the CLI accepts
    code = main([*command, "--t-final", "0.6", "--dt", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert len([line for line in captured.out.splitlines() if not line.startswith("#")]) == 3


def test_memory_error_exit_code_1(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.49 GiB for an array")
    monkeypatch.setattr(cli, "integrate_linear", exhausted)
    code = main(["simulate", "--t-final", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "fracbeam: error: Unable to allocate 1.49 GiB for an array\n"


def test_parser_reused_across_main_calls(tmp_path, capsys):
    # main builds its parser once per process; nothing may carry over from
    # one call to the next, so each call must print what a fresh parser gives
    cfg = tmp_path / "tip.cfg"
    cfg.write_text("case=tip-mass\nresolution=3\n")
    jcfg = tmp_path / "run.json"
    jcfg.write_text(json.dumps({"alpha": 0.3, "count": 7}))
    calls = [
        ["modes", "--config", str(cfg), "--n-modes", "2", "--format", "json"],
        ["modes"],
        ["coeffs", "--alpha", "0.3", "--case", "tip-mass"],
        ["coeffs"],
        ["sweep", "--config", str(jcfg), "--format", "json"],
        ["sweep", "--count", "5"],
        ["critical-alpha", "--omega0", "1"],
        ["modes", "--config", str(cfg)],
    ]
    usage_errors = [["modes", "--bogus"], ["coeffs", "--case", "x"], ["nosuch"], [],
                    ["sweep", "--config", str(cfg)], ["modes", "--n-modes", "two"]]

    def fresh(argv):
        cli.build_parser.cache_clear()
        return outcome(argv)

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    want = [fresh(argv) for argv in calls + usage_errors]
    got = [outcome(argv) for argv in calls + usage_errors]
    assert got == want
    assert {code for code, _, _ in got[len(calls):]} == {2}
    assert all(code == 0 for code, _, _ in got[:len(calls)])
    assert cli.build_parser() is cli.build_parser()


def _readme_usage_lines():
    """The ``fracbeam ...`` lines of README's usage block, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.startswith("fracbeam ")]


def test_readme_usage_examples_exit_0(tmp_path, capsys):
    # a documented example that leaves its flags' domain fails here
    commands = _readme_usage_lines()
    assert len(commands) >= 10
    for i, argv in enumerate(commands):
        assert main([*argv, "--output", str(tmp_path / f"{i}.out")]) == 0, argv
    assert capsys.readouterr().err == ""
