"""PI labeling tests: tokenizer, lexicon files, classification policy."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uitaint
from uitaint.errors import DuplicateTerm, LexiconSyntaxError
from uitaint.gui import ViewElement
from uitaint.pi import (
    CATEGORY_OF,
    DESTINATIONS,
    KIND_ORDER,
    KINDS,
    PI_GROUPS,
    LexEntry,
    Lexicon,
    classify,
    load_default_lexicon,
    load_lexicon,
    tokenize,
)
from conftest import reference_tokenize, scan_classify

LEX = load_default_lexicon()


def _view(id_name=None, hint=None, text=None):
    return ViewElement("EditText", id_name, None, hint, text, "a.xml")


@pytest.mark.parametrize(
    "raw,tokens",
    [
        ("weightEditText", ["weight", "edit", "text"]),
        ("user_birthday_button", ["user", "birthday", "button"]),
        ("fear8name", ["fear", "name"]),
        ("XMLHttpRequest", ["xml", "http", "request"]),
        ("Add a fear", ["add", "a", "fear"]),
        ("et_email2", ["et", "email"]),
        ("ALLCAPS", ["allcaps"]),
        ("x", ["x"]),
        ("42", []),
        ("", []),
    ],
)
def test_tokenize(raw, tokens):
    assert tokenize(raw) == tokens


# ASCII letters on both sides of each case change, digits, separators, and
# letters and digits outside ASCII, among them a title-case letter
_TOKEN_ALPHABET = "aAbBkKyYzZ09_- .$\t" + "éßİı٣²ǅ"
_PRINTABLE = "".join(map(chr, range(32, 127)))


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from(_TOKEN_ALPHABET) | st.sampled_from(_PRINTABLE), max_size=24))
def test_tokenize_matches_the_three_pattern_tokenizer(s):
    assert tokenize(s) == reference_tokenize(s)


def test_tokenize_matches_the_three_pattern_tokenizer_on_seeded_strings():
    rng = random.Random(33)
    for _ in range(20_000):
        alphabet = rng.choice((_TOKEN_ALPHABET, _PRINTABLE))
        s = "".join(rng.choices(alphabet, k=rng.randrange(16)))
        assert tokenize(s) == reference_tokenize(s), s


@pytest.mark.parametrize(
    "id_name,kind",
    [
        ("weightEditText", "weight"),
        ("user_birthday_button", "age"),
        ("fear8name", "mental_health"),
        ("genderSwitch", "gender"),
        ("firstNameInput", "first_name"),
        ("et_surname", "last_name"),
        ("emailAddressField", "email"),
        ("phone_number", "phone"),
        ("zipCode", "zip"),
        ("ssnEntry", "ssn"),
        ("creditCardNumber", "credit_card"),
        ("heightPicker", "height"),
        ("allergyList", "medical_history"),
        ("glucoseReading", "blood"),
        ("cigarettesPerDay", "smoke_alcohol"),
        ("submitButton", None),
    ],
    # Case ids spell a kind as its upper-case constant, e.g. PiKind.WEIGHT.
    ids=lambda v: f"PiKind.{v.upper()}" if v in KIND_ORDER else None,
)
def test_classify_by_id_name(id_name, kind):
    assert classify(_view(id_name=id_name), LEX) == kind


def test_longest_term_wins():
    # tokens [blood, pressure, medication]: "medication" (10 chars) beats
    # "pressure" (8) and "blood" (5)
    assert classify(_view(id_name="blood_pressure_medication"), LEX) == "medication"
    # "email address" (12) beats "address" (7)
    assert classify(_view(id_name="emailAddressLine"), LEX) == "email"


def test_equal_weight_breaks_by_kind_order():
    # "email" and "blood" both weigh 5; email is declared first
    assert classify(_view(id_name="emailBlood"), LEX) == "email"


def test_multi_token_terms_must_be_contiguous():
    lex = Lexicon(
        tuple(
            [LexEntry(("credit", "card"), "credit_card")]
            + [
                LexEntry((f"zz{k.replace('_', '')}",), k)
                for k in KINDS
                if k != "credit_card"
            ]
        )
    )
    assert classify(_view(id_name="creditCardField"), lex) == "credit_card"
    assert classify(_view(id_name="creditLimitCard"), lex) is None


def test_signal_priority_id_over_hint_over_text():
    assert classify(_view(id_name="weightField", hint="email"), LEX) == "weight"
    assert classify(_view(id_name="inputBox", hint="Add a fear"), LEX) == "mental_health"
    assert classify(_view(id_name="inputBox", hint="choose one", text="smoker?"), LEX) \
        == "smoke_alcohol"
    assert classify(_view(), LEX) is None


@given(
    hint=st.one_of(st.none(), st.text(max_size=20)),
    text=st.one_of(st.none(), st.text(max_size=20)),
)
def test_id_match_is_immune_to_hint_and_text(hint, text):
    assert classify(_view(id_name="weightEditText", hint=hint, text=text), LEX) \
        == "weight"


@given(st.sampled_from(sorted(LEX.entries, key=str)))
def test_every_default_term_classifies_to_its_kind_alone(entry):
    # a view whose id is exactly one term always maps to that term's kind or a
    # heavier same-tokens competitor; with the default lexicon every stand-alone
    # term resolves to its own kind.
    view = _view(id_name="".join(t.capitalize() for t in entry.tokens))
    assert classify(view, LEX) == entry.kind


def test_taxonomy_shape():
    # these orders set the CSV rows and columns, the summary's
    # pi_by_destination rows and the lexicon's tie-break between kinds
    assert KINDS == (
        "email", "first_name", "last_name", "phone", "address", "zip", "ssn",
        "credit_card", "age", "height", "weight", "gender", "medical_history",
        "medication", "blood", "mental_health", "smoke_alcohol",
    )
    assert DESTINATIONS == ("net", "localstore", "log", "fileio")
    assert tuple(CATEGORY_OF) == KINDS
    assert list(CATEGORY_OF.values()) == ["identity"] * 8 + ["anthropometric"] * 4 + ["medical"] * 5
    assert KIND_ORDER == {k: i for i, k in enumerate(KINDS)}
    assert len(PI_GROUPS) == 16
    grouped = [k for _, kinds in PI_GROUPS for k in kinds]
    assert grouped == list(KINDS)
    assert dict(PI_GROUPS)["name"] == ("first_name", "last_name")


# ---------------------------------------------------------------------------
# lexicon files


def test_lexicon_line_order_is_immaterial(tmp_path):
    lines = (Path(uitaint.__file__).parent / "data" / "lexicon.tsv").read_text().splitlines()
    shuffled = random.Random(7).sample(lines, len(lines))
    assert shuffled != lines
    path = tmp_path / "lex.tsv"
    path.write_text("\n".join(shuffled) + "\n")
    assert load_lexicon(path) == LEX


def _minimal_lines():
    return [f"{k}\tzz{k.replace('_', '')}" for k in KINDS]


def test_lexicon_requires_every_kind(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("\n".join(_minimal_lines()[:-1]) + "\n")
    with pytest.raises(LexiconSyntaxError, match="without terms"):
        load_lexicon(p)


@pytest.mark.parametrize(
    "line",
    # tokenize() splits "größe" at the non-ASCII letters, so it could never match
    ["emale\tfoo", "email foo", "email\t", "email\tnot4alpha", "weight\tgr\u00f6\u00dfe"],
)
def test_lexicon_rejects_bad_lines(tmp_path, line):
    p = tmp_path / "lex.tsv"
    p.write_text("\n".join(_minimal_lines() + [line]) + "\n")
    with pytest.raises(LexiconSyntaxError):
        load_lexicon(p)


def test_lexicon_rejects_duplicate_terms(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("\n".join(_minimal_lines() + ["email\tZzEmail"]) + "\n")
    with pytest.raises(DuplicateTerm):
        load_lexicon(p)


def test_lexicon_comments_and_case(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("# comment\n" + "\n".join(_minimal_lines()) + "\nemail\tE Mail\n")
    lex = load_lexicon(p)
    assert LexEntry(("e", "mail"), "email") in lex.entries


# ---------------------------------------------------------------------------
# the term table against the lexicon scan


_WORDS = ("email", "e", "mail", "first", "name", "blood", "pressure", "card",
          "credit", "zip", "code", "ab", "ba", "a", "smoke")


def _signal(words, seps):
    """words joined by the separators and case changes tokenize() splits on."""
    out = ""
    for word, sep in zip(words, seps):
        out += {"_": "_" + word, " ": " " + word, "camel": word.capitalize(),
                "digit": "7" + word, "upper": word.upper() + "_"}[sep]
    return out


_SIGNALS = st.one_of(
    st.none(),
    st.text(max_size=16),
    st.builds(_signal, st.lists(st.sampled_from(_WORDS), max_size=6),
              st.lists(st.sampled_from(("_", " ", "camel", "digit", "upper")),
                       min_size=6, max_size=6)),
)


@st.composite
def _lexicons(draw):
    """Lexicons of one- to three-token terms, one of them under two kinds."""
    kinds = st.sampled_from(list(KINDS))
    term = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(tuple)
    entries = {(k, (f"zz{k.replace('_', '')}",)) for k in KINDS}
    shared = draw(term)
    entries |= {(k, shared) for k in draw(st.lists(kinds, min_size=2, max_size=3, unique=True))}
    entries |= set(draw(st.lists(st.tuples(kinds, term), max_size=25)))
    ordered = sorted(entries, key=lambda e: (KIND_ORDER[e[0]], e[1]))
    return Lexicon(tuple(LexEntry(tokens, kind) for kind, tokens in ordered))


@settings(max_examples=400, deadline=None)
@given(lexicon=_lexicons(), id_name=_SIGNALS, hint=_SIGNALS, text=_SIGNALS)
def test_term_table_matches_lexicon_scan(lexicon, id_name, hint, text):
    view = _view(id_name=id_name, hint=hint, text=text)
    assert classify(view, lexicon) == scan_classify(view, lexicon)


@settings(max_examples=200, deadline=None)
@given(id_name=_SIGNALS, hint=_SIGNALS, text=_SIGNALS)
def test_term_table_matches_lexicon_scan_on_the_default_lexicon(id_name, hint, text):
    view = _view(id_name=id_name, hint=hint, text=text)
    assert classify(view, LEX) == scan_classify(view, LEX)


def test_one_term_under_two_kinds_goes_to_the_first_kind():
    entries = [LexEntry((f"zz{k.replace('_', '')}",), k) for k in KINDS]
    entries += [LexEntry(("blood", "type"), "blood"), LexEntry(("type",), "email"),
                LexEntry(("blood", "type"), "age")]
    lex = Lexicon(tuple(entries))
    assert classify(_view(id_name="bloodType"), lex) == "age"
    assert classify(_view(id_name="typeBlood"), lex) == "email"
    assert lex.longest == 2
