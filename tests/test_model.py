import random

import pytest

from liftfg import (FactorGraph, Factor, PotentialTable, RandomVariable,
                    ParseError, parse_model, serialize_model, validate)
from conftest import THREE_RV_TEXT, random_graph


def test_parse_three_rv_structure(three_rv):
    assert sorted(three_rv.rvs) == ["A", "B", "C"]
    assert sorted(three_rv.factors) == ["phi1", "phi2"]
    phi1 = three_rv.factors["phi1"]
    assert phi1.args == ("A", "B")
    assert phi1.table.range_sizes == (2, 2)
    assert phi1.table.values == (2.0, 3.0, 3.0, 5.0)
    assert three_rv.factors["phi2"].args == ("C", "B")
    assert not three_rv.has_unknown


def test_parse_unknown_marker():
    g = parse_model(THREE_RV_TEXT.replace("factor phi2 C B | 2 3 3 5",
                                          "factor phi2 C B | unknown"))
    assert g.factors["phi2"].is_unknown
    assert g.factors["phi2"].args == ("C", "B")
    assert g.has_unknown


def test_parse_evidence():
    g = parse_model(THREE_RV_TEXT + "evidence B true\n")
    assert g.rvs["B"].evidence == 0
    assert g.rvs["A"].evidence is None


def test_parse_comments_blanks_and_scientific_notation():
    g = parse_model("""
    # a comment
    randvar A yes no   # trailing comment

    factor f A | 1e-3 2.5E2
    """)
    assert g.factors["f"].table.values == (1e-3, 250.0)


@pytest.mark.parametrize("text,fragment", [
    ("randvar A x y\nfactor f A B | 1 2", "undeclared randvar 'B'"),
    ("randvar A x y\nfactor f A | 1 2 3", "table length mismatch"),
    ("randvar A x y\nfactor f A | 1 0", "non-positive potential"),
    ("randvar A x y\nfactor f A | 1 -2", "non-positive potential"),
    ("randvar A x y\nrandvar A p q\nfactor f A | 1 2", "duplicate name"),
    ("randvar A x y\nfactor f A | 1 2\nfactor f A | 1 2", "duplicate name"),
    ("randvar A x y\nfactor A A | 1 2", "duplicate name"),
    ("randvar A x y\nfactor f A A | 1 2 3 4", "repeats an argument"),
    ("randvar A x\nfactor f A | 1", "at least 2 labels"),
    ("randvar A x x\nfactor f A | 1 2", "duplicate range labels"),
    ("randvar A x y\nfactor f A 1 2", "must contain '|'"),
    ("randvar A x y\nfactor f A |", "no table values"),
    ("randvar A x y\nfactor f A | one two", "expected a number"),
    ("randvar A x y\nfactor f A | inf 2", "non-finite"),
    ("randvar A x y\nfactor f A | 1 2\nevidence A z", "not in range"),
    ("randvar A x y\nfactor f A | 1 2\nevidence Q x", "undeclared randvar"),
    ("randvar A x y\nfactor f A | 1 2\nwhatever A", "unknown statement"),
    ("randvar A x y", "isolated"),
], ids=lambda v: v[:28] if isinstance(v, str) else v)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("# nothing declared\n", "invalid model: empty graph: no random variables declared"),
    ("randvar A x y\nrandvar B x y\nrandvar C x y\nfactor f B | 1 2\n",
     "invalid model: randvar A: isolated (appears in no factor); "
     "randvar C: isolated (appears in no factor)"),
], ids=["empty", "isolated"])
def test_parse_whole_graph_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == message


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_model("randvar A x y\nrandvar B x y\nfactor f A B | 1 2 3\nfactor g A B | 1 2 3 4")


def test_parse_rejects_duplicate_evidence():
    # a second observation of one variable is an error, not last-one-wins
    with pytest.raises(ParseError, match="line 7: duplicate evidence for 'A'"):
        parse_model(THREE_RV_TEXT + "evidence A true\nevidence A false\n")


def test_equal_table_text_shares_one_table(three_rv):
    assert three_rv.factors["phi1"].table is three_rv.factors["phi2"].table


def test_equal_text_at_other_range_sizes_is_another_table():
    g = parse_model("""
    randvar A x y
    randvar B x y z
    factor f A B | 1 2 3 4 5 6
    factor g B A | 1 2 3 4 5 6
    factor h B A | 1 2 3 4 5 6
    """)
    tf, tg, th = (g.factors[name].table for name in ("f", "g", "h"))
    assert (tf.range_sizes, tg.range_sizes) == ((2, 3), (3, 2))
    assert tf is not tg and tg is th


@pytest.mark.parametrize("text, message", [
    ("randvar A x y\nrandvar B x y\nfactor f A | 1 -2\nfactor g B | 1 -2\n",
     "line 3: non-positive potential in 'f'"),
    ("randvar A x y\nrandvar B x y\nfactor f A | 1 x\nfactor g B | 1 x\n",
     "line 3: expected a number, got 'x'"),
    # the text is a good table for f, but not at g's range sizes
    ("randvar A x y\nrandvar B x y\nfactor f A B | 1 2 3 4\nfactor g B | 1 2 3 4\n",
     r"line 4: table length mismatch for 'g' \(4 values for 2 cells\)"),
])
def test_repeated_table_text_fails_on_its_first_bad_line(text, message):
    with pytest.raises(ParseError, match=message):
        parse_model(text)


def test_round_trip_with_shared_tables():
    rng = random.Random(18)
    for _ in range(40):
        g = random_graph(rng, with_evidence=True, shared_tables=True)
        again = parse_model(serialize_model(g))
        assert again == g
        by_text = {}
        for f in again.factors.values():
            assert by_text.setdefault((f.table.range_sizes, f.table.values), f.table) is f.table


def test_round_trip_three_rv(three_rv):
    assert parse_model(serialize_model(three_rv)) == three_rv


def test_round_trip_preserves_unknown_and_evidence():
    text = THREE_RV_TEXT.replace("factor phi2 C B | 2 3 3 5",
                                 "factor phi2 C B | unknown") + "evidence A false\n"
    g = parse_model(text)
    out = serialize_model(g)
    assert "unknown" in out
    assert "evidence A false" in out
    assert parse_model(out) == g


def test_round_trip_random_graphs():
    rng = random.Random(20240814)
    for _ in range(40):
        g = random_graph(rng, with_evidence=True)
        text = serialize_model(g)
        again = parse_model(text)
        assert again == g
        assert serialize_model(again) == text


def test_round_trip_is_value_exact():
    v = 0.1 + 0.2   # not representable as a short decimal
    g = FactorGraph([RandomVariable("A", ("x", "y"))],
                    [Factor("f", ("A",), PotentialTable((2,), (v, 1.0)))])
    assert parse_model(serialize_model(g)).factors["f"].table.values[0] == v


def test_serializer_accepts_empty_graph():
    assert serialize_model(FactorGraph()) == ""
    assert any("empty graph" in v for v in validate(FactorGraph()))


def test_validate_clean_graph(three_rv, epidemic):
    assert validate(three_rv) == []
    assert validate(epidemic) == []


def test_validate_duplicate_argument():
    g = FactorGraph([RandomVariable("A", ("x", "y"))],
                    [Factor("f", ("A", "A"), PotentialTable((2, 2), (1, 1, 1, 1)))])
    assert any("duplicate argument" in v for v in validate(g))


def test_validate_non_positive_potential():
    g = FactorGraph([RandomVariable("A", ("x", "y"))],
                    [Factor("f", ("A",), PotentialTable((2,), (0.0, 1.0)))])
    assert any("non-positive potential" in v for v in validate(g))


def test_validate_isolated_rv():
    g = FactorGraph([RandomVariable("A", ("x", "y")), RandomVariable("B", ("x", "y"))],
                    [Factor("f", ("A",), PotentialTable((2,), (1.0, 1.0)))])
    assert any("isolated" in v for v in validate(g))


def test_validate_table_shape_mismatch():
    g = FactorGraph([RandomVariable("A", ("x", "y", "z"))],
                    [Factor("f", ("A",), PotentialTable((2,), (1.0, 1.0)))])
    assert any("do not match" in v for v in validate(g))


def test_validate_evidence_out_of_range():
    g = FactorGraph([RandomVariable("A", ("x", "y"), evidence=5)],
                    [Factor("f", ("A",), PotentialTable((2,), (1.0, 1.0)))])
    assert any("out of range" in v for v in validate(g))


def test_validate_length_mismatch():
    g = FactorGraph([RandomVariable("A", ("x", "y"))],
                    [Factor("f", ("A",), PotentialTable((2, 2), (1.0, 1.0, 1.0)))])
    assert any("table length mismatch" in v for v in validate(g))
