from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltakit.errors import DataError
from ltakit.taxonomy import (
    Taxonomy,
    format_actions,
    load_taxonomy,
    parse_action,
    save_taxonomy,
)

from conftest import actions


def write_taxonomy(path, verbs, nouns):
    path.write_text("#verbs\n" + "\n".join(verbs) + "\n#nouns\n" + "\n".join(nouns) + "\n")


def test_load_two_verbs_one_noun(tmp_path):
    path = tmp_path / "tax.txt"
    write_taxonomy(path, ["take", "put"], ["spoon"])
    tax = load_taxonomy(path)
    assert tax.num_verbs == 2
    assert tax.num_nouns == 1
    assert tax.verbs == ["take", "put"]


def test_index_order_is_file_order_not_sorted(tmp_path):
    path = tmp_path / "tax.txt"
    write_taxonomy(path, ["zebra", "apple"], ["yak", "ant"])
    tax = load_taxonomy(path)
    assert parse_action("zebra ant", tax) == (0, 1)


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("#verbs\n\ntake\n\n#nouns\n\nspoon\n\n")
    tax = load_taxonomy(path)
    assert tax.verbs == ["take"] and tax.nouns == ["spoon"]


def test_duplicate_verb_rejected_by_name(tmp_path):
    path = tmp_path / "tax.txt"
    write_taxonomy(path, ["take", "take"], ["spoon"])
    with pytest.raises(DataError, match="take"):
        load_taxonomy(path)


def test_empty_noun_section_rejected(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("#verbs\ntake\n#nouns\n")
    with pytest.raises(DataError, match="noun"):
        load_taxonomy(path)


def test_unknown_header_rejected(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("#verbs\ntake\n#adjectives\nred\n#nouns\nspoon\n")
    with pytest.raises(DataError, match="adjectives"):
        load_taxonomy(path)


def test_label_before_header_rejected(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("take\n#verbs\nput\n#nouns\nspoon\n")
    with pytest.raises(DataError, match="before any section"):
        load_taxonomy(path)


def test_repeated_section_rejected(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("#verbs\ntake\n#nouns\nspoon\n#verbs\nput\n")
    with pytest.raises(DataError, match="repeated"):
        load_taxonomy(path)


def test_load_is_deterministic(tmp_path):
    path = tmp_path / "tax.txt"
    write_taxonomy(path, ["take", "put"], ["spoon", "pot"])
    assert load_taxonomy(path) == load_taxonomy(path)


def test_save_load_round_trip(tmp_path, kitchen):
    path = tmp_path / "tax.txt"
    save_taxonomy(path, kitchen)
    assert load_taxonomy(path) == kitchen


def test_parse_action_basic(kitchen):
    assert parse_action("take spoon", kitchen) == (0, 0)
    assert parse_action("wash bowl", kitchen) == (3, 4)


def test_parse_action_unknown_token_named(kitchen):
    with pytest.raises(DataError, match="fly"):
        parse_action("fly spoon", kitchen)
    with pytest.raises(DataError, match="rocket"):
        parse_action("take rocket", kitchen)


@pytest.mark.parametrize("text", ["takespoon", "take  spoon", " take spoon", "take spoon pot", "", "take "])
def test_parse_action_malformed(kitchen, text):
    with pytest.raises(DataError) as info:
        parse_action(text, kitchen)
    assert str(info.value) == f"malformed action {text!r}: expected 'verb noun' with a single space"


def test_parse_action_error_texts(kitchen):
    with pytest.raises(DataError) as info:
        parse_action("fly pot", kitchen)
    assert str(info.value) == "unknown verb 'fly'"
    with pytest.raises(DataError) as info:
        parse_action(["x"], kitchen)
    assert str(info.value) == "action entries must be strings, got ['x']"


def test_format_action(kitchen):
    assert format_actions(actions((0, 0), (1, 0)), kitchen) == ["take spoon", "put spoon"]
    assert format_actions(actions(), kitchen) == []


def test_format_action_out_of_range(kitchen):
    with pytest.raises(DataError, match=r"action \(5, 0\) out of range for \|V\|=4, \|N\|=5"):
        format_actions(actions((0, 0), (5, 0)), kitchen)
    with pytest.raises(DataError, match=r"action \(0, -1\) out of range"):
        format_actions(actions((0, -1)), kitchen)


def test_labels_with_spaces_rejected():
    with pytest.raises(DataError):
        Taxonomy(["take out"], ["spoon"])


_label = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)


@given(
    verbs=st.lists(_label, min_size=1, max_size=8, unique=True),
    nouns=st.lists(_label, min_size=1, max_size=8, unique=True),
    data=st.data(),
)
def test_parse_format_round_trip(verbs, nouns, data):
    tax = Taxonomy(verbs, nouns)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, tax.num_verbs - 1), st.integers(0, tax.num_nouns - 1))))
    ids = actions(*pairs)
    assert [parse_action(text, tax) for text in format_actions(ids, tax)] == pairs
