from __future__ import annotations

import json
import math
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ltakit.anticipation import (
    DEFAULT_PROMPT,
    LlmPredictor,
    NgramModel,
    NgramPredictor,
    PromptTemplate,
    RepeatLastPredictor,
    _search_right,
    fit_ngram,
    load_prompt_template,
    parse_response,
    render_prompt,
)
from ltakit.errors import DataError, ScriptExhausted, TransportError
from ltakit.llm_client import Failure, LlmConfig, MockLlmClient
from ltakit.taxonomy import Taxonomy

from conftest import actions, annotations_table, prediction_clips
from oracles import ngram_conditional, ngram_table, ngram_windows


def cycle_taxonomy():
    # Three single-noun verbs so actions A, B, C are ids 0, 1, 2.
    return Taxonomy(["a", "b", "c"], ["x"])


def verbs(verb_ids):
    """A clip of the actions (v, 0), one per verb id."""
    return actions(*[(v, 0) for v in verb_ids])


def stack(clips):
    """Per-clip L x 2 action arrays as one array and its clip starts."""
    return np.concatenate([actions(), *clips]), np.cumsum([0, *map(len, clips)]).tolist()


def fit(clips, order, beta, taxonomy):
    """`fit_ngram` on per-clip L x 2 action arrays."""
    return fit_ngram(*stack(clips), order, beta, taxonomy)


def corpus(histories: dict) -> tuple:
    """Clip id -> L x 2 history as `predict_corpus`'s clip ids, starts and history."""
    history, starts = stack(list(histories.values()))
    return list(histories), starts, history


def table_row(predictor, ids) -> int:
    """The predictor's table row after the action ids `ids`, found as a rollout step finds it."""
    span, unseen = predictor.model.order - 1, len(predictor._pool) - 1
    context, row = list(ids)[-span:] if span else [], 0
    if len(context) < span:
        return unseen
    for keys, nxt in zip(predictor._levels, context):
        key = row * (predictor.model.num_actions + 1) + nxt
        row = int(keys.searchsorted(key))
        if keys[row] != key:
            return unseen
    return row


def table_conditional(model, ids) -> np.ndarray:
    """The dense next-id distribution a full-width predictor table holds after `ids`: its cdf's steps."""
    predictor = NgramPredictor(model, "sample", 0, model.num_actions)
    row = table_row(predictor, ids)
    probs = np.empty(model.num_actions)
    probs[predictor._pool[row]] = np.diff(predictor._cdf[row], prepend=0.0)
    return probs


class TestPromptPlumbing:
    def test_format_action_history_empty_rejected(self, kitchen):
        # The prompt's history text is never built from an empty history: predict rejects it
        # before rendering the prompt or sending a request.
        client = MockLlmClient(["take spoon"])
        with pytest.raises(DataError, match="empty"):
            LlmPredictor(client, kitchen).predict("c", actions(), 5, 1)
        assert client.requests == []

    def test_render_prompt_substitutes_both(self):
        template = PromptTemplate("sys", "saw {history}; give {Z} more")
        assert render_prompt(template, "take spoon", 7) == "saw take spoon; give 7 more"

    @pytest.mark.parametrize(
        "user_template",
        [
            "no placeholders at all",
            "only {history}",
            "only {Z}",
            "{history} {history} {Z}",
            "{history} {Z} {Z}",
        ],
    )
    def test_render_prompt_requires_each_placeholder_once(self, user_template):
        # Checked once, when the template is built.
        with pytest.raises(DataError, match="exactly once"):
            PromptTemplate("sys", user_template)

    def test_default_prompt_renders(self):
        text = render_prompt(DEFAULT_PROMPT, "take spoon", 20)
        assert "take spoon" in text
        assert "20" in text

    def test_load_prompt_template(self, tmp_path):
        path = tmp_path / "prompt.json"
        path.write_text(json.dumps({"system_text": "s", "user_template": "{history} {Z}"}))
        template = load_prompt_template(path)
        assert template == PromptTemplate("s", "{history} {Z}")

    @pytest.mark.parametrize(
        "payload",
        [
            '["not", "an", "object"]',
            '{"system_text": "s"}',
            '{"system_text": 3, "user_template": "u"}',
            '{"system_text": "s", "user_template": ',
        ],
    )
    def test_load_prompt_template_rejects_bad_files(self, tmp_path, payload):
        path = tmp_path / "prompt.json"
        path.write_text(payload)
        with pytest.raises(DataError):
            load_prompt_template(path)


class TestParseResponse:
    def test_exact_reply(self, kitchen):
        parsed = parse_response("take spoon, stir pot", kitchen, 2)
        assert parsed.actions.tolist() == [[0, 0], [2, 1]]
        assert parsed.skipped == [] and parsed.padded == 0

    def test_newlines_and_enumeration_markers(self, kitchen):
        text = "1. take spoon\n2) stir pot\n(3) wash cup"
        parsed = parse_response(text, kitchen, 3)
        assert parsed.actions.tolist() == [[0, 0], [2, 1], [3, 2]]

    def test_whitespace_collapsed(self, kitchen):
        parsed = parse_response("  take   spoon  ", kitchen, 1)
        assert parsed.actions.tolist() == [[0, 0]]

    def test_unparseable_tokens_skipped_and_reported(self, kitchen):
        parsed = parse_response("take spoon, fly rocket, stir pot", kitchen, 3)
        assert parsed.skipped == ["fly rocket"]
        assert parsed.actions[:2].tolist() == [[0, 0], [2, 1]]

    def test_short_reply_padded_with_last_action(self, kitchen):
        parsed = parse_response("stir pot", kitchen, 4)
        assert parsed.actions.tolist() == [[2, 1]] * 4
        assert parsed.padded == 3

    def test_empty_reply_uses_fallback(self, kitchen):
        parsed = parse_response("", kitchen, 3, fallback=(1, 2))
        assert parsed.actions.tolist() == [[1, 2]] * 3
        assert parsed.padded == 3

    def test_empty_reply_without_fallback_uses_origin(self, kitchen):
        parsed = parse_response("gibberish only", kitchen, 2)
        assert parsed.actions.tolist() == [[0, 0]] * 2

    def test_long_reply_truncated(self, kitchen):
        text = ", ".join(["take spoon"] * 9)
        parsed = parse_response(text, kitchen, 4)
        assert parsed.actions.shape == (4, 2) and parsed.padded == 0

    @given(st.text(max_size=200), st.integers(1, 12))
    def test_total_on_arbitrary_text(self, text, horizon):
        taxonomy = Taxonomy(["take", "put"], ["spoon", "pot"])
        parsed = parse_response(text, taxonomy, horizon)
        assert parsed.actions.shape == (horizon, 2) and parsed.actions.dtype == np.intp
        taxonomy.check_ids(parsed.actions)

    def test_total_on_random_bytes(self, kitchen):
        rng = np.random.default_rng(51)
        for _ in range(200):
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 60)), dtype=np.uint8))
            parsed = parse_response(blob.decode("latin-1"), kitchen, 5)
            assert len(parsed.actions) == 5


class TestNgramModel:
    def test_hand_tallied_bigram_conditional(self):
        # Sequence A B C A B C: context (A,) is followed by B twice.
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1, 2, 0, 1, 2])], 2, 0.5, taxonomy)
        probs = table_conditional(model, (0,))
        # (2 + 0.5) / (2 + 3 * 0.5) = 5/7 for B, 0.5/3.5 = 1/7 elsewhere.
        assert probs[1] == pytest.approx(5 / 7)
        assert probs[0] == pytest.approx(1 / 7)
        assert probs[2] == pytest.approx(1 / 7)

    def test_unseen_context_is_uniform(self):
        model = fit([verbs([0, 1])], 2, 0.3, cycle_taxonomy())
        assert np.allclose(table_conditional(model, (2,)), 1 / 3)

    def test_conditionals_are_distributions(self):
        rng = np.random.default_rng(52)
        taxonomy = Taxonomy(["a", "b"], ["x", "y"])
        records = [actions(*[(int(rng.integers(2)), int(rng.integers(2))) for _ in range(6)]) for _ in range(10)]
        model = fit(records, 3, 0.2, taxonomy)
        for ctx in [(0, 1), (3, 3), (2, 0)]:
            probs = table_conditional(model, ctx)
            assert probs.sum() == pytest.approx(1.0)
            assert np.all(probs > 0)

    def test_unigram_ignores_context(self):
        model = fit([verbs([0, 0, 1])], 1, 0.1, cycle_taxonomy())
        assert np.array_equal(table_conditional(model, ()), table_conditional(model, (2,)))
        probs = table_conditional(model, ())
        assert probs[0] > probs[1] > probs[2]

    def test_fit_is_order_invariant(self):
        taxonomy = cycle_taxonomy()
        records = [verbs([i % 3, (i + 1) % 3, (i + 2) % 3]) for i in range(9)]
        a = fit(records, 2, 0.4, taxonomy)
        b = fit(list(reversed(records)), 2, 0.4, taxonomy)
        for ctx in [(0,), (1,), (2,)]:
            assert np.array_equal(table_conditional(a, ctx), table_conditional(b, ctx))

    def test_windows_do_not_cross_clips(self):
        taxonomy = cycle_taxonomy()
        # Two clips; the pair (A then B) only exists if windows leaked across records.
        model = fit([verbs([0, 0]), verbs([1, 1])], 2, 0.5, taxonomy)
        probs = table_conditional(model, (0,))
        assert probs[0] > probs[1]

    def test_futures_feed_the_fit(self):
        taxonomy = cycle_taxonomy()
        annotations = annotations_table([("c", actions((0, 0)), actions((1, 0), (2, 0)))])
        model = fit_ngram(*annotations.actions(), 2, 0.5, taxonomy)
        probs = table_conditional(model, (0,))
        assert probs[1] > probs[0]

    def test_most_frequent_action_breaks_ties_low(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([2, 1, 1, 2])], 1, 0.5, taxonomy)
        assert model.most_frequent_action() == (1, 0)

    def test_most_frequent_action_of_no_actions_rejected(self):
        with pytest.raises(DataError, match="^model has seen no actions$"):
            NgramModel(2, 0.5, 3, 1, *stack([])).most_frequent_action()

    def test_invalid_parameters(self):
        with pytest.raises(DataError, match="order"):
            NgramModel(0, 0.5, 2, 2, *stack([]))
        with pytest.raises(DataError, match="beta"):
            NgramModel(2, 0.0, 2, 2, *stack([]))
        with pytest.raises(DataError, match="beta"):
            NgramModel(2, float("inf"), 2, 2, *stack([]))
        # Finite, but beta summed over 97 * 300 actions is inf, so every weight would be 0.
        for beta in (1e308, 1e305):
            with pytest.raises(DataError, match="beta"):
                NgramModel(2, beta, 97, 300, *stack([]))
        assert sum(table_conditional(NgramModel(2, 1e300, 97, 300, *stack([])), ())) == pytest.approx(1.0)
        with pytest.raises(DataError, match="empty"):
            fit([], 2, 0.5, cycle_taxonomy())
        with pytest.raises(DataError, match="no actions"):
            fit([actions()], 2, 0.5, cycle_taxonomy())


class TestNgramPredictor:
    def test_greedy_rollout_follows_learned_cycle(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1, 2, 0, 1, 2, 0])], 2, 0.1, taxonomy)
        predictor = NgramPredictor(model, mode="greedy")
        result = predictor.predict("clip", actions((0, 0)), horizon=6, num_candidates=1)
        assert result[0, :, 0].tolist() == [1, 2, 0, 1, 2, 0]

    def test_greedy_tie_breaks_to_lowest_action_id(self):
        taxonomy = cycle_taxonomy()
        model = fit([actions((0, 0), (1, 0)), actions((0, 0), (2, 0))], 2, 0.5, taxonomy)
        predictor = NgramPredictor(model, mode="greedy")
        result = predictor.predict("clip", actions((0, 0)), horizon=1, num_candidates=1)
        assert result[0, 0].tolist() == [1, 0]

    def test_same_seed_same_output(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1, 2, 0, 1]) for i in range(3)], 2, 0.5, taxonomy)
        a = NgramPredictor(model, mode="sample", seed=9).predict("clip", actions((0, 0)), 8, 4)
        b = NgramPredictor(model, mode="sample", seed=9).predict("clip", actions((0, 0)), 8, 4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ_somewhere(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1, 2, 0, 1]) for i in range(3)], 2, 0.5, taxonomy)
        outs = [
            NgramPredictor(model, mode="sample", seed=s).predict("clip", actions((0, 0)), 12, 4)
            for s in range(6)
        ]
        assert len({o.tobytes() for o in outs}) > 1

    def test_clip_results_do_not_depend_on_processing_order(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1, 2, 0, 1]) for i in range(3)], 2, 0.5, taxonomy)
        predictor = NgramPredictor(model, mode="sample", seed=3)
        history = actions((0, 0))
        forward = {cid: predictor.predict(cid, history, 6, 3) for cid in ["u", "v", "w"]}
        backward = {cid: predictor.predict(cid, history, 6, 3) for cid in ["w", "v", "u"]}
        for cid in ["u", "v", "w"]:
            assert np.array_equal(forward[cid], backward[cid])

    def test_greedy_first_candidate_even_with_sampled_rest(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1, 2, 0, 1, 2, 0])], 2, 0.1, taxonomy)
        predictor = NgramPredictor(model, mode="greedy", seed=1)
        result = predictor.predict("clip", actions((0, 0)), 6, 5)
        assert result[0, :, 0].tolist() == [1, 2, 0, 1, 2, 0]
        assert len(result) == 5

    def test_sample_top_k_one_is_deterministic_argmax(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1, 2, 0, 1, 2, 0])], 2, 0.1, taxonomy)
        greedy = NgramPredictor(model, mode="greedy").predict("clip", actions((0, 0)), 6, 1)
        narrow = NgramPredictor(model, mode="sample", sample_top_k=1, seed=77).predict(
            "clip", actions((0, 0)), 6, 1
        )
        assert np.array_equal(narrow[0], greedy[0])

    def test_candidate_shape(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1, 2])], 2, 0.5, taxonomy)
        result = NgramPredictor(model, mode="sample", seed=0).predict("x", actions((2, 0)), 7, 3)
        assert len(result) == 3
        assert all(len(c) == 7 for c in result)
        assert result.shape == (3, 7, 2)

    def test_bad_arguments(self):
        taxonomy = cycle_taxonomy()
        model = fit([verbs([0, 1])], 2, 0.5, taxonomy)
        with pytest.raises(DataError, match="mode"):
            NgramPredictor(model, mode="beam")
        with pytest.raises(DataError, match="sample_top_k"):
            NgramPredictor(model, sample_top_k=0)
        predictor = NgramPredictor(model)
        with pytest.raises(DataError, match="empty history"):
            predictor.predict("c", actions(), 5, 1)
        with pytest.raises(DataError, match="horizon"):
            predictor.predict("c", actions((0, 0)), 0, 1)
        with pytest.raises(DataError, match="candidate"):
            predictor.predict("c", actions((0, 0)), 5, 0)


def reference_rollouts(model, records, mode, seed, sample_top_k, clip_id, history, horizon, num_candidates):
    """Dense rollouts of a model fitted on `records`: a fresh conditional, argmax and stable argsort at every step."""
    rng = np.random.default_rng([seed, zlib.crc32(clip_id.encode("utf-8"))])
    candidates = []
    for index in range(num_candidates):
        ids = [v * model.num_nouns + n for v, n in history.tolist()]
        out = []
        for _ in range(horizon):
            probs = np.array(ngram_conditional(model, records, ids))
            if mode == "greedy" and index == 0:
                nxt = int(np.argmax(probs))
            else:
                width = min(sample_top_k, probs.shape[0])
                pool = np.argsort(-probs, kind="stable")[:width]
                weights = probs[pool]
                nxt = int(rng.choice(pool, p=weights / weights.sum()))
            ids.append(nxt)
            out.append(divmod(nxt, model.num_nouns))
        candidates.append(out)
    return np.array(candidates)


def tied_corpus():
    # Six actions (3 verbs x 2 nouns). After action 0 the successors 1 and 2 tie,
    # action 5 never occurs, and (4,) only ever precedes 0.
    taxonomy = Taxonomy(["a", "b", "c"], ["x", "y"])
    ids = [[0, 1, 0, 2, 0, 1, 0, 2], [3, 4, 0, 1, 3, 4, 0, 2], [1, 3, 1, 3, 2, 2]]
    records = [
        actions(*[divmod(a, 2) for a in seq]) for seq in ids
    ]
    return taxonomy, records


@pytest.mark.parametrize("width", [1, 2, 5, 7, 29_100])
@pytest.mark.parametrize("seed", [0, 1, 7, 31])
def test_choice_draws_equal_cdf_search_of_uniforms(width, seed):
    # NgramPredictor replaces Generator.choice(pool, p=p) with a search of p's
    # cdf for one rng.random() uniform, all uniforms of a clip drawn at once.
    # This pins that numpy draws choice() exactly that way.
    weights = np.random.default_rng(seed + 100).integers(0, 40, width) + 0.5
    p = weights / weights.sum()
    pool = np.arange(width)[::-1] * 3  # ids that differ from positions
    one_by_one = np.random.default_rng([seed, 11])
    want = [int(one_by_one.choice(pool, p=p)) for _ in range(60)]
    cdf = p.cumsum()
    cdf /= cdf[-1]
    uniforms = np.random.default_rng([seed, 11]).random((3, 20))
    got = pool[cdf.searchsorted(uniforms.ravel(), side="right")].tolist()
    assert got == want
    # The scalar form the rollout uses agrees with the vector form.
    assert [int(pool[cdf.searchsorted(u, side="right")]) for u in uniforms.ravel().tolist()] == want


class TestMemoizedRollouts:
    # Histories ending in a seen context, in a tie, and in the unseen action 5.
    HISTORIES = {
        "seen": actions((1, 1), (2, 0)),
        "tied": actions((0, 0)),
        "unseen": actions((2, 1)),
        "long": actions((0, 1), (2, 0), (0, 0), (1, 0)),
    }

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("sample_top_k", [1, 5, 50])
    def test_matches_dense_reference_cold_and_warm(self, order, mode, sample_top_k):
        taxonomy, records = tied_corpus()
        model = fit(records, order, 0.5, taxonomy)
        predictor = NgramPredictor(model, mode=mode, seed=4, sample_top_k=sample_top_k)
        # Every clip runs twice: the predictor's step table must not change between runs.
        for clip_id, history in [*self.HISTORIES.items(), *self.HISTORIES.items()]:
            got = predictor.predict(clip_id, history, 12, 4)
            want = reference_rollouts(model, records, mode, 4, sample_top_k, clip_id, history, 12, 4)
            assert np.array_equal(got, want), clip_id

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("sample_top_k", [1, 5])
    def test_history_shorter_than_context(self, mode, sample_top_k):
        # Order 4 needs 3 context ids; a one-action history has 1, so the first steps
        # are unseen and later ones can reach seen contexts through generated ids.
        taxonomy, records = tied_corpus()
        model = fit(records, 4, 0.5, taxonomy)
        predictor = NgramPredictor(model, mode=mode, seed=3, sample_top_k=sample_top_k)
        for clip_id, history in [("one", actions((0, 0))), ("two", actions((0, 1), (0, 0)))]:
            got = predictor.predict(clip_id, history, 12, 4)
            assert np.array_equal(got, reference_rollouts(model, records, mode, 3, sample_top_k, clip_id, history, 12, 4))

    @pytest.mark.filterwarnings("ignore:(invalid value|overflow):RuntimeWarning")
    @pytest.mark.parametrize("beta", [math.inf, math.nan, 1e308])
    def test_table_rejects_weights_that_are_not_a_distribution(self, beta):
        taxonomy, records = tied_corpus()
        model = fit(records, 2, 0.5, taxonomy)
        model.beta = beta  # past the constructor's check: NaN weights, or a sum that overflows
        with pytest.raises(DataError, match="not a finite distribution"):
            NgramPredictor(model, "sample", 0, 3)

    def test_predictors_with_different_pools_share_one_model(self):
        taxonomy, records = tied_corpus()
        model = fit(records, 2, 0.5, taxonomy)
        for clip_id, history in self.HISTORIES.items():
            for top_k in (1, 3, 5):
                got = NgramPredictor(model, "sample", 8, top_k).predict(clip_id, history, 10, 3)
                want = reference_rollouts(model, records, "sample", 8, top_k, clip_id, history, 10, 3)
                assert np.array_equal(got, want), (clip_id, top_k)

    def test_wide_table_is_built_without_a_second_copy(self):
        # At a wide sample_top_k the table is most of anticipate's memory (pool and cdf, 16 bytes
        # an entry), so building it, normalising the cdf included, must not copy it whole.
        clips = [actions(*[(verb, noun) for noun in range(4)]) for verb in range(40)]
        model = NgramModel(2, 0.5, 100, 100, *stack(clips))
        tracemalloc.start()
        try:
            predictor = NgramPredictor(model, "sample", 0, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = predictor._pool.nbytes + predictor._cdf.nbytes
        assert table > 19_000_000 and peak < 1.2 * table

    def test_memoized_pools_own_their_memory(self):
        taxonomy, records = tied_corpus()
        predictor = NgramPredictor(fit(records, 2, 0.5, taxonomy), "sample", 0, 3)
        assert predictor._pool.base is None and predictor._cdf.base is None
        row = table_row(predictor, (0,))
        assert predictor._pool[row].tolist() == [1, 2, 0]
        assert np.diff(predictor._cdf[row], prepend=0.0).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sparse_step_matches_dense_conditional(self, order):
        taxonomy, records = tied_corpus()
        model = fit(records, order, 0.5, taxonomy)
        contexts = list(ngram_windows(model, records))
        if order > 1:
            unseen = (5,) * (order - 1)  # action 5 never occurs
            assert unseen not in contexts
            contexts.append(unseen)
        for context in contexts:
            probs = np.array(ngram_conditional(model, records, context))
            for width in (1, 2, 3, model.num_actions):
                predictor = NgramPredictor(model, "sample", 0, width)
                pool = predictor._pool[table_row(predictor, context)]
                weights = np.diff(predictor._cdf[table_row(predictor, context)], prepend=0.0)
                dense_pool = np.argsort(-probs, kind="stable")[:width]
                assert pool.tolist() == dense_pool.tolist(), (context, width)
                assert pool[0] == int(np.argmax(probs))
                dense_weights = probs[dense_pool] / probs[dense_pool].sum()
                np.testing.assert_allclose(weights, dense_weights, rtol=1e-12, atol=0)


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_table_equals_per_context_oracle(self, data):
        # The sorted pass must build every row's pool and cdf bit for bit as the row-at-a-time
        # oracle does. Few distinct ids make count ties common; repeated patterns give clips
        # long enough for order 24, and short clips hold no window at all.
        num_verbs, num_nouns = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        num_actions = num_verbs * num_nouns
        ids = st.integers(0, data.draw(st.integers(1, num_actions)) - 1)
        pattern = st.tuples(st.lists(ids, min_size=1, max_size=5), st.integers(1, 12))
        clip = st.one_of(st.lists(ids, max_size=6), pattern.map(lambda p: p[0] * p[1]))
        clips = data.draw(st.lists(clip, min_size=1, max_size=6).filter(any))
        order, width = data.draw(st.sampled_from([1, 2, 3, 4, 24])), data.draw(st.integers(1, num_actions))
        records = [actions(*[divmod(a, num_nouns) for a in clip]) for clip in clips]
        beta = data.draw(st.sampled_from([1e-3, 0.1, 0.5, 1.0, 3.7]))
        model = NgramModel(order, beta, num_verbs, num_nouns, *stack(records))
        predictor = NgramPredictor(model, "sample", 0, width)
        pool, cdf = ngram_table(model, records, width)
        assert predictor._pool.tolist() == pool.tolist()
        assert predictor._cdf.tobytes() == cdf.tobytes()
        # A rollout step finds each seen context at the oracle's row: contexts in sorted order.
        contexts = sorted(ngram_windows(model, records))
        assert [table_row(predictor, context) for context in contexts] == list(range(len(contexts)))


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 29_100])
def test_vectorised_search_equals_searchsorted_right(width):
    # The batched rollout searches every rollout's cdf row at once; it must give exactly
    # searchsorted(side="right"), ties included, which random uniforms almost never hit.
    rng = np.random.default_rng(width)
    cdf = np.cumsum(rng.integers(0, 3, (7, width)) + 0.0, axis=1)  # zero weights: repeated entries
    cdf = np.hstack([cdf, cdf[:, -1:] + 1]) / (cdf[:, -1:] + 1)  # rows end in 1.0, as in the table
    rows = rng.integers(0, len(cdf), 500)
    values = np.concatenate([cdf[rows[:200], rng.integers(0, width + 1, 200)],  # exact ties
                             rng.random(200), [-1.0, 0.0, 1.0, 2.0] * 25])
    want = [int(cdf[row].searchsorted(value, side="right")) for row, value in zip(rows.tolist(), values.tolist())]
    assert _search_right(cdf, rows, values).tolist() == want


class TestCorpusRollouts:
    """predict_corpus advances every clip's K rollouts together; each clip must match its own dense oracle."""

    # Endings that are seen, tied and unseen (action 5), an unseen action inside the last
    # m-1 at orders 3 and 4, and histories shorter than m-1 at orders 3 and 4.
    HISTORIES = {**TestMemoizedRollouts.HISTORIES, "short": actions((0, 1), (0, 0)),
                 "through-unseen": actions((1, 1), (2, 1), (0, 0)),
                 "routine": actions((1, 1), (2, 0), (0, 0), (1, 1))}

    def check(self, model, records, histories, mode, seed, sample_top_k, horizon, num_candidates):
        predictor = NgramPredictor(model, mode=mode, seed=seed, sample_top_k=sample_top_k)
        got = predictor.predict_corpus(*corpus(histories), horizon, num_candidates)
        assert got.clip_ids == list(histories)
        for clip_id, candidates in prediction_clips(got):
            want = reference_rollouts(model, records, mode, seed, sample_top_k, clip_id, histories[clip_id],
                                      horizon, num_candidates)
            assert np.array_equal(candidates, want), clip_id
            single = predictor.predict(clip_id, histories[clip_id], horizon, num_candidates)
            assert np.array_equal(single, want), clip_id

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("sample_top_k", [1, 5, 6])  # 6 = |A|: the whole vocabulary
    def test_matches_dense_reference(self, order, mode, sample_top_k):
        taxonomy, records = tied_corpus()
        model = fit(records, order, 0.5, taxonomy)
        self.check(model, records, self.HISTORIES, mode, 5, sample_top_k, 12, 4)

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_order_past_single_int64_keys(self, mode):
        # Base-(|A|+1) keys of 23 ids would pass 2**63 (7**23 > 2**63); the per-position
        # prefix codes stay small. Clips long enough for order-24 windows, and histories
        # that end on seen contexts, unseen ones and ones shorter than 23 ids.
        taxonomy, records = tied_corpus()
        assert (taxonomy.num_verbs * taxonomy.num_nouns + 1) ** 23 > 2**63
        long = [np.concatenate([clip] * 4) for clip in records]
        model = fit(long, 24, 0.5, taxonomy)
        assert len(NgramPredictor(model)._pool) > 1  # seen contexts, then the unseen row
        histories = {f"h{i}": clip[: 23 + i] for i, clip in enumerate(long)}
        histories.update(self.HISTORIES)
        self.check(model, long, histories, mode, 2, 3, 15, 3)

    def test_table_keys_that_could_overflow_are_rejected(self):
        # |A| = 2**62: (1 context + 1) * (|A| + 1) > 2**63
        model = NgramModel(2, 0.5, 2**31, 2**31, *stack([actions((0, 0), (0, 1))]))
        with pytest.raises(DataError, match="overflow int64 keys"):
            NgramPredictor(model)

    def test_first_empty_history_in_order_is_reported(self):
        # Every predictor, the LLM's before it sends a request, and its one-clip predict too.
        taxonomy, records = tied_corpus()
        client = MockLlmClient(["a x"])
        for predictor in (NgramPredictor(fit(records, 2, 0.5, taxonomy)), RepeatLastPredictor(),
                          LlmPredictor(client, taxonomy)):
            histories = {"ok": actions((0, 0)), "first": actions(), "second": actions()}
            with pytest.raises(DataError, match=r"^clip 'first': empty history, nothing to anticipate from$"):
                predictor.predict_corpus(*corpus(histories), 5, 2)
            with pytest.raises(DataError, match=r"^clip 'c': empty history"):
                predictor.predict("c", actions(), 5, 2)
            with pytest.raises(DataError, match="horizon"):
                predictor.predict_corpus(*corpus({"ok": actions((0, 0))}), 0, 2)
            empty = predictor.predict_corpus(*corpus({}), 5, 2)
            assert (empty.clip_ids, empty.starts, empty.candidates.shape) == ([], [0], (0, 5, 2))
            assert empty.candidates.dtype == np.intp
        assert client.requests == []

    @pytest.mark.parametrize("clip_ids, starts, message", [
        (["a", "b"], [0, 1], r"^clips \['a'\]\.\.\['b'\] hold rows \[0\]\.\.\[1\] of 3 \(need 3 row starts"),
        (["a"], [0, 5], r"^clips \['a'\]\.\.\['a'\] hold rows \[0\]\.\.\[5\] of 3 \(need 2 row starts"),
        (["a", "b"], [1, 2, 3], r"^clips \['a'\]\.\.\['b'\] hold rows \[1\]\.\.\[3\] of 3"),
        (["a", "b"], [0, 1, 2], r"^clips \['a'\]\.\.\['b'\] hold rows \[0\]\.\.\[2\] of 3"),
        (["a"], [0, 3, 3], r"^clips \['a'\]\.\.\['a'\] hold rows \[0\]\.\.\[3\] of 3 \(need 2 row starts"),
        (["a", "b", "c"], [0, 2, 1, 3], r"^clip 'b': empty history"),  # a start below the one before it
    ], ids=["short", "outrun", "not-from-0", "rows-left-out", "extra-start", "decreasing"])
    def test_starts_must_split_the_history(self, clip_ids, starts, message):
        # Starts that leave rows out, outrun the history or do not begin at 0 are a DataError,
        # not a table of the wrong size, another clip's context, or an IndexError.
        taxonomy, records = tied_corpus()
        client = MockLlmClient(["a x"])
        history = actions((0, 0), (1, 1), (2, 0))
        for predictor in (NgramPredictor(fit(records, 2, 0.5, taxonomy)), RepeatLastPredictor(),
                          LlmPredictor(client, taxonomy)):
            with pytest.raises(DataError, match=message):
                predictor.predict_corpus(clip_ids, starts, history, 4, 1)
        assert client.requests == []

    def test_repeated_clip_id_rejected_before_any_request(self):
        # Every predictor refuses the history's repeated id up front, not the output table's after each clip ran.
        taxonomy, records = tied_corpus()
        client = MockLlmClient(["a x"] * 6)
        for predictor in (NgramPredictor(fit(records, 2, 0.5, taxonomy)), RepeatLastPredictor(),
                          LlmPredictor(client, taxonomy)):
            with pytest.raises(DataError, match=r"^duplicate clip id 'a' in history$"):
                predictor.predict_corpus(["a", "b", "a"], [0, 1, 2, 3], actions((0, 0), (1, 0), (2, 0)), 3, 2)
        assert client.requests == []

    def test_greedy_single_candidate_seeds_no_generator(self, monkeypatch):
        # Greedy K=1 is the argmax rollout alone: no uniform is drawn, so no per-clip Generator is built.
        taxonomy, records = tied_corpus()
        model = fit(records, 2, 0.5, taxonomy)
        self.check(model, records, self.HISTORIES, "greedy", 5, 3, 12, 1)
        seeded, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *args: seeded.append(args) or default_rng(*args))
        NgramPredictor(model).predict_corpus(*corpus(self.HISTORIES), 12, 1)
        assert seeded == []
        NgramPredictor(model).predict_corpus(*corpus(self.HISTORIES), 12, 2)
        assert len(seeded) == len(self.HISTORIES)

    def test_clip_results_do_not_depend_on_batch_order(self):
        taxonomy, records = tied_corpus()
        predictor = NgramPredictor(fit(records, 3, 0.5, taxonomy), mode="sample", seed=6, sample_top_k=4)
        forward = predictor.predict_corpus(*corpus(self.HISTORIES), 9, 3)
        backward = predictor.predict_corpus(*corpus(dict(reversed(self.HISTORIES.items()))), 9, 3)
        assert backward.clip_ids == list(reversed(self.HISTORIES))
        by_clip = lambda predictions: {clip_id: c.tolist() for clip_id, c in prediction_clips(predictions)}
        assert by_clip(forward) == by_clip(backward)


class TestTableAgainstOneClip:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_predict_corpus_equals_predict_per_clip(self, data):
        # Orders 1-5 and history lengths 1 to m + 1: shorter than the context, equal to it, longer.
        order = data.draw(st.integers(1, 5))
        taxonomy, records = tied_corpus()
        ids = st.integers(0, 5)  # action 5 never occurs in the corpus
        histories = {f"h{i}": actions(*[divmod(a, 2) for a in data.draw(st.lists(ids, min_size=1, max_size=order + 1))])
                     for i in range(data.draw(st.integers(0, 6)))}
        mode, num_candidates = data.draw(st.sampled_from(["greedy", "sample"])), data.draw(st.integers(1, 4))
        for predictor in (NgramPredictor(fit(records, order, 0.5, taxonomy), mode, 3, data.draw(st.integers(1, 6))),
                          RepeatLastPredictor()):
            got = predictor.predict_corpus(*corpus(histories), 7, num_candidates)
            assert got.clip_ids == list(histories)
            assert got.starts == list(range(0, len(histories) * num_candidates + 1, num_candidates))
            assert got.candidates.dtype == np.intp and got.candidates.shape == (len(histories) * num_candidates, 7, 2)
            for clip_id, candidates in prediction_clips(got):
                assert np.array_equal(candidates, predictor.predict(clip_id, histories[clip_id], 7, num_candidates))


class TestRepeatLast:
    def test_repeats_final_history_action(self):
        result = RepeatLastPredictor().predict("c", actions((1, 2), (3, 4)), 5, 2)
        assert result.tolist() == [[[3, 4]] * 5] * 2

    def test_candidates_are_independent_lists(self):
        result = RepeatLastPredictor().predict("c", actions((1, 1)), 3, 2)
        result[0][0] = (0, 0)
        assert result[1][0].tolist() == [1, 1]


class TestLlmPredictor:
    def test_parses_scripted_completions(self, kitchen):
        client = MockLlmClient(["take spoon, stir pot", "wash cup"])
        predictor = LlmPredictor(client, kitchen)
        result = predictor.predict("clip", actions((0, 0)), horizon=2, num_candidates=2)
        assert result[0].tolist() == [[0, 0], [2, 1]]
        assert result[1].tolist() == [[3, 2], [3, 2]]

    def test_first_request_is_temperature_zero(self, kitchen):
        config = LlmConfig("mock://local", "m", temperature=0.6, backoff_base=0.0)
        client = MockLlmClient(["take spoon", "take spoon", "take spoon"], config)
        LlmPredictor(client, kitchen).predict("c", actions((0, 0)), 1, 3)
        assert [r["temperature"] for r in client.requests] == [0.0, 0.6, 0.6]

    def test_none_temperature_falls_back_to_config(self, kitchen):
        config = LlmConfig("mock://local", "m", temperature=0.8, backoff_base=0.0)
        client = MockLlmClient(["take spoon", "take spoon"], config)
        LlmPredictor(client, kitchen).predict("c", actions((0, 0)), 1, 2)
        assert [r["temperature"] for r in client.requests] == [0.0, 0.8]

    def test_prompt_carries_full_history(self, kitchen):
        client = MockLlmClient(["take spoon"])
        history = actions((0, 0), (1, 1), (2, 3))
        LlmPredictor(client, kitchen).predict("c", history, 1, 1)
        user = client.requests[0]["messages"][1]["content"]
        assert "take spoon, put pot, stir pan" in user
        assert client.requests[0]["messages"][0]["content"] == DEFAULT_PROMPT.system_text

    def test_transport_failures_retried_then_succeed(self, kitchen):
        config = LlmConfig("mock://local", "m", max_retries=2, backoff_base=0.0)
        client = MockLlmClient([Failure(), Failure(), "take spoon"], config)
        result = LlmPredictor(client, kitchen).predict("c", actions((0, 0)), 2, 1)
        assert result.tolist() == [[[0, 0], [0, 0]]]
        assert len(client.requests) == 3

    def test_exhausted_retries_name_the_clip(self, kitchen):
        config = LlmConfig("mock://local", "m", max_retries=0, backoff_base=0.0)
        client = MockLlmClient([Failure("down")], config)
        with pytest.raises(TransportError, match="clip 'c07'"):
            LlmPredictor(client, kitchen).predict("c07", actions((0, 0)), 2, 1)

    def test_custom_template_and_fallback(self, kitchen):
        client = MockLlmClient(["nothing usable here"])
        template = PromptTemplate("short sys", "H={history} Z={Z}")
        predictor = LlmPredictor(client, kitchen, template=template, fallback=(2, 2))
        result = predictor.predict("c", actions((1, 1)), 3, 1)
        assert result[0].tolist() == [[2, 2]] * 3
        assert client.requests[0]["messages"][1]["content"] == "H=put pot Z=3"

    HISTORIES = {"one": actions((0, 0)), "two": actions((1, 1), (2, 3)), "three": actions((3, 2), (0, 4), (1, 0))}

    def test_predict_corpus_is_predict_per_clip_in_order(self, kitchen):
        # Distinct replies: each clip's candidates and the request log follow clip order.
        replies = [f"{verb} {noun}" for verb in ("take", "put", "stir") for noun in ("spoon", "pot", "cup")]
        script = [Failure("blip"), *replies]
        corpus_client, clip_client = MockLlmClient(script), MockLlmClient(script)
        got = LlmPredictor(corpus_client, kitchen).predict_corpus(*corpus(self.HISTORIES), 2, 3)
        assert (got.clip_ids, got.starts) == (list(self.HISTORIES), [0, 3, 6, 9])
        assert got.candidates.dtype == np.intp and got.candidates.shape == (9, 2, 2)
        per_clip = LlmPredictor(clip_client, kitchen)
        for position, (clip_id, candidates) in enumerate(prediction_clips(got)):
            want = per_clip.predict(clip_id, self.HISTORIES[clip_id], 2, 3, position=position)
            assert np.array_equal(candidates, want)
        assert corpus_client.requests == clip_client.requests and len(clip_client.requests) == 10

    def test_workers_match_the_serial_run(self, kitchen):
        # All replies alike, so arrival order cannot show in the candidates; the log is keyed by clip.
        histories = {f"c{i}": self.HISTORIES[name] for i, name in enumerate(list(self.HISTORIES) * 4)}
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 4):
                client = MockLlmClient(["take spoon, stir pot"] * 24)
                runs.append((LlmPredictor(client, kitchen, workers=workers).predict_corpus(*corpus(histories), 2, 2),
                             client.requests))
        finally:
            sys.setswitchinterval(interval)
        (serial, serial_log), (pooled, pooled_log) = runs
        assert (pooled.clip_ids, pooled.starts) == (serial.clip_ids, serial.starts)
        assert np.array_equal(pooled.candidates, serial.candidates) and pooled_log == serial_log

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, kitchen, workers):
        with pytest.raises(DataError, match=f"^workers must be >= 1, got {workers}$"):
            LlmPredictor(MockLlmClient(["take spoon"]), kitchen, workers=workers)

    def test_script_exhaustion_not_swallowed(self, kitchen):
        client = MockLlmClient(["take spoon"])
        predictor = LlmPredictor(client, kitchen)
        predictor.predict("c", actions((0, 0)), 1, 1)
        with pytest.raises(ScriptExhausted):
            predictor.predict("c", actions((0, 0)), 1, 1)
