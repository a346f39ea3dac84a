import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st
import pytest

from liftfg import ParseError, inference, parse_model, serialize_model, variable_elimination
from liftfg.cli import ENGINES, main
from conftest import OVERFLOWING_TEXT, THREE_RV_TEXT, make_epidemic

UNKNOWN_PAIR = THREE_RV_TEXT.replace("factor phi2 C B | 2 3 3 5",
                                     "factor phi2 C B | unknown")

UNLIFTABLE = """\
randvar A x y
randvar B x y
factor lone A B | unknown
factor s1 A | 1 2
factor s2 B | 5 6
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.fg"
    path.write_text(THREE_RV_TEXT)
    return path


@pytest.fixture
def unknown_file(tmp_path):
    path = tmp_path / "incomplete.fg"
    path.write_text(UNKNOWN_PAIR)
    return path


def test_lift_complete(tmp_path, unknown_file, capsys):
    out = tmp_path / "lifted"
    assert main(["lift", "--model", str(unknown_file), "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "unknown phi2 candidates 1 selected 1 ratio 1.0 transferred phi1" in report
    completed = parse_model((tmp_path / "lifted.model").read_text())
    assert completed.factors["phi2"].table.values == (2.0, 3.0, 3.0, 5.0)
    lifted_text = (tmp_path / "lifted.lifted").read_text()
    assert "rvgroup A: A C" in lifted_text
    assert "count B phi1 2" in lifted_text
    assert (tmp_path / "lifted.report").read_text() == report


def test_lift_is_byte_deterministic(tmp_path, unknown_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["lift", "--model", str(unknown_file), "--out", str(out_a)])
    main(["lift", "--model", str(unknown_file), "--out", str(out_b)])
    for suffix in (".model", ".lifted", ".report"):
        assert (tmp_path / ("a" + suffix)).read_bytes() == \
               (tmp_path / ("b" + suffix)).read_bytes()


def test_lift_incomplete_exit_2(tmp_path, capsys):
    path = tmp_path / "unliftable.fg"
    path.write_text(UNLIFTABLE)
    out = tmp_path / "out"
    assert main(["lift", "--model", str(path), "--out", str(out)]) == 2
    assert "transferred none" in capsys.readouterr().out
    assert (tmp_path / "out.model").exists()
    assert not (tmp_path / "out.lifted").exists()


def test_lift_malformed_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.fg"
    path.write_text("factor f A | 1 2\n")
    assert main(["lift", "--model", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err


def test_lift_does_not_mutate_input(tmp_path, unknown_file):
    before = unknown_file.read_bytes()
    main(["lift", "--model", str(unknown_file), "--out", str(tmp_path / "o")])
    assert unknown_file.read_bytes() == before


def test_infer_ve_matches_oracle(model_file, capsys):
    assert main(["infer", "--model", str(model_file), "--engine", "ve",
                 "--query", "B"]) == 0
    out = capsys.readouterr().out
    expected = variable_elimination(parse_model(THREE_RV_TEXT), "B").probs
    assert out.startswith("marginal B:")
    got = [float(tok) for tok in out.split(":")[1].split()]
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("engine", ["enumeration", "ve", "bp", "cbp"])
def test_infer_engines_agree(model_file, capsys, engine):
    assert main(["infer", "--model", str(model_file), "--engine", engine,
                 "--query", "B", "--iters", "8"]) == 0
    out = capsys.readouterr().out
    got = [float(tok) for tok in out.split(":")[1].split()]
    expected = variable_elimination(parse_model(THREE_RV_TEXT), "B").probs
    assert got == pytest.approx(expected, abs=1e-9)


def test_infer_cbp_on_ring_matches_bp(tmp_path, capsys):
    # every pairwise factor lists the ring's one supervariable twice
    lines = [f"randvar X{i} x y\nfactor u{i} X{i} | 1 1.5" for i in range(8)]
    lines += [f"factor f{i} X{i} X{(i + 1) % 8} | 1 2 2 1" for i in range(8)]
    path = tmp_path / "ring.fg"
    path.write_text("\n".join(lines) + "\n")
    got = {}
    for engine in ("bp", "cbp"):
        assert main(["infer", "--model", str(path), "--engine", engine,
                     "--query", "X3"]) == 0
        got[engine] = [float(tok) for tok in capsys.readouterr().out.split(":")[1].split()]
    assert got["cbp"] == pytest.approx(got["bp"], abs=1e-9)


def test_infer_csv_format(model_file, capsys):
    assert main(["infer", "--model", str(model_file), "--query", "B",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rv,label,p"
    rv, label, p = lines[1].split(",")
    assert (rv, label) == ("B", "true")
    assert 0.0 <= float(p) <= 1.0


def test_infer_unknown_needs_auto_lift(unknown_file, capsys):
    assert main(["infer", "--model", str(unknown_file), "--query", "B"]) == 2
    assert "auto-lift" in capsys.readouterr().err


def test_infer_auto_lift(unknown_file, model_file, capsys):
    assert main(["infer", "--model", str(unknown_file), "--query", "B",
                 "--auto-lift"]) == 0
    lifted_out = capsys.readouterr().out
    assert main(["infer", "--model", str(model_file), "--query", "B"]) == 0
    assert lifted_out == capsys.readouterr().out


def test_infer_missing_query_rv(model_file, capsys):
    assert main(["infer", "--model", str(model_file), "--query", "Q"]) == 1
    assert "no randvar" in capsys.readouterr().err


def test_infer_rejects_bad_theta(model_file, capsys):
    assert main(["infer", "--model", str(model_file), "--query", "B",
                 "--theta", "2.0"]) == 1


def test_bench_writes_csv_and_table(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--d", "2", "--instances", "2", "--seed", "42",
                 "--reps", "1", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "kl_mean" in table
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("d,seed,instance")
    assert len([ln for ln in lines if not ln.startswith("#")]) == 3


def test_bench_deterministic_kl_columns(tmp_path):
    csvs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert main(["bench", "--d", "2,4", "--instances", "2", "--seed", "7",
                     "--reps", "1", "--out", str(out)]) == 0
        rows = []
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("d,"):
                continue
            cols = line.split(",")
            rows.append(",".join(cols[:10]))   # drop timing and flag columns
        csvs.append("\n".join(rows))
    assert csvs[0] == csvs[1]


def test_bench_bad_d_list(capsys):
    assert main(["bench", "--d", "2,x"]) == 1
    assert "bad --d" in capsys.readouterr().err


def test_infer_cbp_on_crossed_roles_matches_bp(tmp_path, capsys):
    # equal-table factors with crossed argument roles: cbp lifts the model
    # through run_lifg and agrees with ground BP
    path = tmp_path / "crossed.fg"
    path.write_text("""\
randvar X0 a b
randvar X2 a b
randvar X4 a b
factor f0 X2 X4 X0 | 1 2 3 4 5 6 7 8
factor f2 X2 X0 X4 | 1 2 3 4 5 6 7 8
factor f3 X4 X0 | 1.0 1.36 0.2 1.68
factor u0 X0 | 1.0 1.3
factor u2 X2 | 1.0 1.3
factor u4 X4 | 1.0 1.3
""")
    got = {}
    for engine in ("bp", "cbp"):
        assert main(["infer", "--model", str(path), "--engine", engine,
                     "--query", "X0"]) == 0
        got[engine] = [float(tok) for tok in capsys.readouterr().out.split(":")[1].split()]
    assert got["cbp"] == pytest.approx(got["bp"], abs=1e-9)


def test_infer_accepts_byte_order_mark(tmp_path, capsys):
    plain, bom = tmp_path / "plain.fg", tmp_path / "bom.fg"
    plain.write_text(THREE_RV_TEXT, encoding="utf-8")
    bom.write_text(THREE_RV_TEXT, encoding="utf-8-sig")
    assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    outs = []
    for path in (plain, bom):
        assert main(["infer", "--model", str(path), "--engine", "ve", "--query", "B"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("marginal B: ")


def _write_free_booleans(path, n):
    """n free Boolean variables, each under its own unary factor."""
    lines = [f"randvar X{i} t f\nfactor u{i} X{i} | 1 2" for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_all_pairs(path, n):
    """n free Booleans with a pairwise factor on every pair: VE's first bucket holds all n."""
    lines = [f"randvar X{i} t f" for i in range(n)]
    lines += [f"factor f{i}_{j} X{i} X{j} | 1 2 2 1" for i in range(n) for j in range(i + 1, n)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_non_utf8(path):
    """A model whose label holds byte 0xff at offset 13."""
    path.write_bytes(b"randvar A x y\xff\nfactor f A | 1 2\n")
    return path


@pytest.mark.parametrize("case", ["lift_out_dir", "bench_out_dir",
                                  "enumeration_cap", "ve_cap", "non_utf8_model",
                                  "overflowing_potentials", "negative_d", "zero_d"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_input_errors_exit_1_without_traceback(case, tmp_path, unknown_file,
                                               monkeypatch, capsys):
    missing = tmp_path / "no_such_dir"
    overflowing = tmp_path / "overflow.fg"
    overflowing.write_text(OVERFLOWING_TEXT)
    bench = ["bench", "--d", "2", "--instances", "1", "--reps", "1"]
    argv = {
        "lift_out_dir": ["lift", "--model", str(unknown_file), "--out", str(missing / "x")],
        "bench_out_dir": bench + ["--out", str(missing / "b.csv")],
        "enumeration_cap": ["infer", "--model",
                            str(_write_free_booleans(tmp_path / "wide.fg", 30)),
                            "--engine", "enumeration", "--query", "X0"],
        "ve_cap": ["infer", "--model", str(_write_all_pairs(tmp_path / "pairs.fg", 26)),
                   "--engine", "ve", "--query", "X0"],
        "non_utf8_model": ["infer", "--model", str(_write_non_utf8(tmp_path / "latin1.fg")),
                           "--query", "A"],
        "overflowing_potentials": ["infer", "--model", str(overflowing), "--engine", "ve",
                                   "--query", "A"],
        "negative_d": ["bench", "--d", "-3", "--instances", "1"],
        "zero_d": ["bench", "--d", "4,0", "--instances", "1"],
    }[case]
    if case == "ve_cap":
        monkeypatch.setattr(inference, "_multiply", None)   # any product would raise TypeError
    assert main(argv) == 1
    err = capsys.readouterr().err
    if case == "overflowing_potentials":
        # numpy's overflow warning may precede the error line
        assert "error: cannot normalise marginal of A: total mass inf" in err
        assert "Traceback" not in err
    else:
        assert err.startswith("error: ")
    if case == "non_utf8_model":
        assert "latin1.fg" in err and "byte 13" in err
    if case == "ve_cap":
        assert f"{2 ** 26} states, over the cap of {2 ** 24}" in err
    if case in ("negative_d", "zero_d"):
        assert "--d" in err


@pytest.mark.parametrize("argv", [
    ["infer", "--model", "x.fg", "--query", "A", "--engine", "foo"],   # bad choice
    ["infer", "--model", "x.fg"],                                       # missing --query
    ["frobnicate"],                                                     # unknown subcommand
    ["lift", "--model", "x.fg", "--out", "x", "--position-mode", "literal"],  # removed option
], ids=["bad_choice", "missing_required", "unknown_subcommand", "removed_option"])
def test_usage_errors_exit_1_without_traceback(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: liftfg")
    assert "error: " in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--help"])
    assert exc.value.code == 0
    assert "--engine" in capsys.readouterr().out


def _hide(text, *names):
    """The model text with the named factors' tables replaced by unknown."""
    lines = []
    for line in text.splitlines():
        toks = line.split()
        if toks[:1] == ["factor"] and toks[1] in names:
            line = line.split("|")[0] + "| unknown"
        lines.append(line)
    return "\n".join(lines) + "\n"


VALID_TEXTS = (THREE_RV_TEXT, UNKNOWN_PAIR, UNLIFTABLE, OVERFLOWING_TEXT,
               _hide(serialize_model(make_epidemic()) + "evidence Travel_bob true\n",
                     "f1_bob", "f2_alice_m2", "f2_bob_m2"))
ODD_VALUES = ("0", "-1", "nan", "inf", "1e308", "1e-320")


@st.composite
def mutated_model_texts(draw):
    """A valid model text with a few tokens dropped, duplicated, swapped,
    replaced by an odd number or preceded by ``unknown``; CRLF line ends and
    a byte-order mark are drawn too.  Returns the file's bytes and its text."""
    lines = [line.split() for line in draw(st.sampled_from(VALID_TEXTS)).splitlines()]
    for _ in range(draw(st.integers(0, 2))):
        toks = lines[draw(st.integers(0, len(lines) - 1))]
        if not toks:
            continue
        i, j = draw(st.integers(0, len(toks) - 1)), draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "value", "unknown")))
        if op == "drop":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        elif op == "swap":
            toks[i], toks[j] = toks[j], toks[i]
        elif op == "value":
            after_bar = toks.index("|") + 1 if "|" in toks[:-1] else i
            toks[max(i, after_bar)] = draw(st.sampled_from(ODD_VALUES))
        else:
            toks.insert(i, "unknown")
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = eol.join(" ".join(toks) for toks in lines) + eol
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), text


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated_model_texts())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exit_contract_on_mutated_models(case):
    data, text = case
    try:
        g = parse_model(text)
    except ParseError:
        g = None
    else:
        assert parse_model(serialize_model(g)) == g
    query = min(g.rvs) if g is not None else "A"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.fg")
        with open(path, "wb") as fh:
            fh.write(data)
        runs = [["lift", "--model", path, "--out", os.path.join(tmp, "out")]]
        runs += [["infer", "--model", path, "--auto-lift", "--engine", engine,
                  "--query", query, "--iters", "5"] for engine in ENGINES]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if argv[0] == "lift":
                # lift fails on input errors only: exactly the texts the parser rejects
                assert (code == 1) == (g is None)
