from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltakit.errors import DataError
from ltakit.taxonomy import (
    Taxonomy,
    format_actions,
    load_taxonomy,
    parse_action,
    parse_actions,
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
    parsed = parse_actions(["take spoon", "wash bowl"], kitchen)
    assert parsed.dtype == np.intp and parsed.tolist() == [[0, 0], [3, 4]]
    assert parse_actions([], kitchen).shape == (0, 2)


def test_parse_action_unknown_token_named(kitchen):
    with pytest.raises(DataError, match="fly"):
        parse_action("fly spoon", kitchen)
    with pytest.raises(DataError, match="rocket"):
        parse_action("take rocket", kitchen)


@pytest.mark.parametrize("text", ["takespoon", "take  spoon", " take spoon", "take spoon pot", "", "take "])
def test_parse_action_malformed(kitchen, text):
    with pytest.raises(DataError) as single:
        parse_action(text, kitchen)
    # The vector parse raises the same error for the first bad token, with the location given.
    with pytest.raises(DataError) as vector:
        parse_actions(["take spoon", text, 7], kitchen, "f.jsonl:3")
    assert str(vector.value) == f"f.jsonl:3: {single.value}"


def test_parse_actions_repeats_and_per_token_locations(kitchen):
    # Repeated texts are resolved once and map back in place; a list of locations names each token.
    parsed = parse_actions(["wash bowl", "take spoon", "wash bowl"], kitchen)
    assert parsed.dtype == np.intp and parsed.tolist() == [[3, 4], [0, 0], [3, 4]]
    with pytest.raises(DataError) as info:
        parse_actions(["take spoon", "take spoon", "fly pot", ["x"]], kitchen, ["f:1", "f:2", "f:3", "f:4"])
    assert str(info.value) == "f:3: unknown verb 'fly'"
    with pytest.raises(DataError) as info:
        parse_actions(["take spoon", ["x"], "fly pot"], kitchen, ["f:1", "f:2", "f:3"])
    assert str(info.value) == "f:2: action entries must be strings, got ['x']"


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
    assert np.array_equal(parse_actions(format_actions(ids, tax), tax), ids)
