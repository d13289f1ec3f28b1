from __future__ import annotations

import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ltakit.anticipation import (
    DEFAULT_PROMPT,
    LlmPredictor,
    NgramModel,
    NgramPredictor,
    PromptTemplate,
    RepeatLastPredictor,
    fit_ngram,
    format_action_history,
    load_prompt_template,
    parse_response,
    render_prompt,
)
from ltakit.dataset_io import ClipRecord
from ltakit.errors import DataError, ScriptExhausted, TransportError
from ltakit.llm_client import Failure, LlmConfig, MockLlmClient
from ltakit.taxonomy import Taxonomy

from conftest import actions
from oracles import ngram_conditional


def cycle_taxonomy():
    # Three single-noun verbs so actions A, B, C are ids 0, 1, 2.
    return Taxonomy(["a", "b", "c"], ["x"])


def record(clip_id, verb_ids, taxonomy=None):
    return ClipRecord(clip_id, actions(*[(v, 0) for v in verb_ids]))


class TestPromptPlumbing:
    def test_format_action_history(self, kitchen):
        text = format_action_history(actions((0, 0), (2, 1)), kitchen)
        assert text == "take spoon, stir pot"

    def test_format_action_history_empty_rejected(self, kitchen):
        with pytest.raises(DataError, match="empty"):
            format_action_history(actions(), kitchen)

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
        with pytest.raises(DataError, match="exactly once"):
            render_prompt(PromptTemplate("sys", user_template), "h", 5)

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
        model = fit_ngram([record("c", [0, 1, 2, 0, 1, 2])], 2, 0.5, taxonomy)
        probs = ngram_conditional(model, (0,))
        # (2 + 0.5) / (2 + 3 * 0.5) = 5/7 for B, 0.5/3.5 = 1/7 elsewhere.
        assert probs[1] == pytest.approx(5 / 7)
        assert probs[0] == pytest.approx(1 / 7)
        assert probs[2] == pytest.approx(1 / 7)

    def test_unseen_context_is_uniform(self):
        model = fit_ngram([record("c", [0, 1])], 2, 0.3, cycle_taxonomy())
        assert np.allclose(ngram_conditional(model, (2,)), 1 / 3)

    def test_conditionals_are_distributions(self):
        rng = np.random.default_rng(52)
        taxonomy = Taxonomy(["a", "b"], ["x", "y"])
        records = [
            ClipRecord(
                f"c{i}",
                actions(*[(int(rng.integers(2)), int(rng.integers(2))) for _ in range(6)]),
            )
            for i in range(10)
        ]
        model = fit_ngram(records, 3, 0.2, taxonomy)
        for ctx in [(0, 1), (3, 3), (2, 0)]:
            probs = np.array(ngram_conditional(model, ctx))
            assert probs.sum() == pytest.approx(1.0)
            assert np.all(probs > 0)

    def test_unigram_ignores_context(self):
        model = fit_ngram([record("c", [0, 0, 1])], 1, 0.1, cycle_taxonomy())
        assert np.array_equal(ngram_conditional(model, ()), ngram_conditional(model, (2,)))
        probs = ngram_conditional(model, ())
        assert probs[0] > probs[1] > probs[2]

    def test_fit_is_order_invariant(self):
        taxonomy = cycle_taxonomy()
        records = [record(f"c{i}", [i % 3, (i + 1) % 3, (i + 2) % 3]) for i in range(9)]
        a = fit_ngram(records, 2, 0.4, taxonomy)
        b = fit_ngram(list(reversed(records)), 2, 0.4, taxonomy)
        for ctx in [(0,), (1,), (2,)]:
            assert np.array_equal(ngram_conditional(a, ctx), ngram_conditional(b, ctx))

    def test_windows_do_not_cross_clips(self):
        taxonomy = cycle_taxonomy()
        # Two clips; the pair (A then B) only exists if windows leaked across records.
        model = fit_ngram([record("c1", [0, 0]), record("c2", [1, 1])], 2, 0.5, taxonomy)
        probs = ngram_conditional(model, (0,))
        assert probs[0] > probs[1]

    def test_futures_feed_the_fit(self):
        taxonomy = cycle_taxonomy()
        rec = ClipRecord("c", actions((0, 0)), actions((1, 0), (2, 0)))
        model = fit_ngram([rec], 2, 0.5, taxonomy)
        probs = ngram_conditional(model, (0,))
        assert probs[1] > probs[0]

    def test_most_frequent_action_breaks_ties_low(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record("c", [2, 1, 1, 2])], 1, 0.5, taxonomy)
        assert model.most_frequent_action() == (1, 0)

    def test_invalid_parameters(self):
        with pytest.raises(DataError, match="order"):
            NgramModel(0, 0.5, 2, 2)
        with pytest.raises(DataError, match="beta"):
            NgramModel(2, 0.0, 2, 2)
        with pytest.raises(DataError, match="beta"):
            NgramModel(2, float("inf"), 2, 2)
        # Finite, but beta summed over 97 * 300 actions is inf, so every weight would be 0.
        for beta in (1e308, 1e305):
            with pytest.raises(DataError, match="beta"):
                NgramModel(2, beta, 97, 300)
        assert sum(ngram_conditional(NgramModel(2, 1e300, 97, 300), ())) == pytest.approx(1.0)
        with pytest.raises(DataError, match="empty"):
            fit_ngram([], 2, 0.5, cycle_taxonomy())
        with pytest.raises(DataError, match="no actions"):
            fit_ngram([ClipRecord("c", actions())], 2, 0.5, cycle_taxonomy())


class TestNgramPredictor:
    def test_greedy_rollout_follows_learned_cycle(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record("c", [0, 1, 2, 0, 1, 2, 0])], 2, 0.1, taxonomy)
        predictor = NgramPredictor(model, mode="greedy")
        result = predictor.predict("clip", actions((0, 0)), horizon=6, num_candidates=1)
        verbs = result.candidates[0, :, 0].tolist()
        assert verbs == [1, 2, 0, 1, 2, 0]

    def test_greedy_tie_breaks_to_lowest_action_id(self):
        taxonomy = cycle_taxonomy()
        model = NgramModel(2, 0.5, taxonomy.num_verbs, taxonomy.num_nouns)
        model.observe(actions((0, 0), (1, 0)))
        model.observe(actions((0, 0), (2, 0)))
        predictor = NgramPredictor(model, mode="greedy")
        result = predictor.predict("clip", actions((0, 0)), horizon=1, num_candidates=1)
        assert result.candidates[0, 0].tolist() == [1, 0]

    def test_same_seed_same_output(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record(f"c{i}", [0, 1, 2, 0, 1]) for i in range(3)], 2, 0.5, taxonomy)
        a = NgramPredictor(model, mode="sample", seed=9).predict("clip", actions((0, 0)), 8, 4)
        b = NgramPredictor(model, mode="sample", seed=9).predict("clip", actions((0, 0)), 8, 4)
        assert np.array_equal(a.candidates, b.candidates)

    def test_different_seeds_differ_somewhere(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record(f"c{i}", [0, 1, 2, 0, 1]) for i in range(3)], 2, 0.5, taxonomy)
        outs = [
            NgramPredictor(model, mode="sample", seed=s).predict("clip", actions((0, 0)), 12, 4)
            for s in range(6)
        ]
        assert len({o.candidates.tobytes() for o in outs}) > 1

    def test_clip_results_do_not_depend_on_processing_order(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record(f"c{i}", [0, 1, 2, 0, 1]) for i in range(3)], 2, 0.5, taxonomy)
        predictor = NgramPredictor(model, mode="sample", seed=3)
        history = actions((0, 0))
        forward = {cid: predictor.predict(cid, history, 6, 3) for cid in ["u", "v", "w"]}
        backward = {cid: predictor.predict(cid, history, 6, 3) for cid in ["w", "v", "u"]}
        for cid in ["u", "v", "w"]:
            assert np.array_equal(forward[cid].candidates, backward[cid].candidates)

    def test_greedy_first_candidate_even_with_sampled_rest(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record("c", [0, 1, 2, 0, 1, 2, 0])], 2, 0.1, taxonomy)
        predictor = NgramPredictor(model, mode="greedy", seed=1)
        result = predictor.predict("clip", actions((0, 0)), 6, 5)
        assert result.candidates[0, :, 0].tolist() == [1, 2, 0, 1, 2, 0]
        assert len(result.candidates) == 5

    def test_sample_top_k_one_is_deterministic_argmax(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record("c", [0, 1, 2, 0, 1, 2, 0])], 2, 0.1, taxonomy)
        greedy = NgramPredictor(model, mode="greedy").predict("clip", actions((0, 0)), 6, 1)
        narrow = NgramPredictor(model, mode="sample", sample_top_k=1, seed=77).predict(
            "clip", actions((0, 0)), 6, 1
        )
        assert np.array_equal(narrow.candidates[0], greedy.candidates[0])

    def test_candidate_shape(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record("c", [0, 1, 2])], 2, 0.5, taxonomy)
        result = NgramPredictor(model, mode="sample", seed=0).predict("x", actions((2, 0)), 7, 3)
        assert len(result.candidates) == 3
        assert all(len(c) == 7 for c in result.candidates)
        assert result.candidates.shape == (3, 7, 2)

    def test_bad_arguments(self):
        taxonomy = cycle_taxonomy()
        model = fit_ngram([record("c", [0, 1])], 2, 0.5, taxonomy)
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


def reference_rollouts(model, mode, seed, sample_top_k, clip_id, history, horizon, num_candidates):
    """Dense rollouts: a fresh conditional, argmax and stable argsort at every step."""
    rng = np.random.default_rng([seed, zlib.crc32(clip_id.encode("utf-8"))])
    candidates = []
    for index in range(num_candidates):
        ids = [v * model.num_nouns + n for v, n in history.tolist()]
        out = []
        for _ in range(horizon):
            probs = np.array(ngram_conditional(model, ids))
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
        ClipRecord(f"t{i}", actions(*[divmod(a, 2) for a in seq])) for i, seq in enumerate(ids)
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
        model = fit_ngram(records, order, 0.5, taxonomy)
        predictor = NgramPredictor(model, mode=mode, seed=4, sample_top_k=sample_top_k)
        # Every clip runs twice: the predictor's step table must not change between runs.
        for clip_id, history in [*self.HISTORIES.items(), *self.HISTORIES.items()]:
            got = predictor.predict(clip_id, history, 12, 4).candidates
            want = reference_rollouts(model, mode, 4, sample_top_k, clip_id, history, 12, 4)
            assert np.array_equal(got, want), clip_id

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("sample_top_k", [1, 5])
    def test_history_shorter_than_context(self, mode, sample_top_k):
        # Order 4 needs 3 context ids; a one-action history has 1, so the first steps
        # are unseen and later ones can reach seen contexts through generated ids.
        taxonomy, records = tied_corpus()
        model = fit_ngram(records, 4, 0.5, taxonomy)
        predictor = NgramPredictor(model, mode=mode, seed=3, sample_top_k=sample_top_k)
        for clip_id, history in [("one", actions((0, 0))), ("two", actions((0, 1), (0, 0)))]:
            got = predictor.predict(clip_id, history, 12, 4).candidates
            assert np.array_equal(got, reference_rollouts(model, mode, 3, sample_top_k, clip_id, history, 12, 4))

    @pytest.mark.filterwarnings("ignore:(invalid value|overflow):RuntimeWarning")
    @pytest.mark.parametrize("beta", [math.inf, math.nan, 1e308])
    def test_table_rejects_weights_that_are_not_a_distribution(self, beta):
        taxonomy, records = tied_corpus()
        model = fit_ngram(records, 2, 0.5, taxonomy)
        model.beta = beta  # past the constructor's check: NaN weights, or a sum that overflows
        with pytest.raises(DataError, match="not a finite distribution"):
            NgramPredictor(model, "sample", 0, 3)

    def test_predictors_with_different_pools_share_one_model(self):
        taxonomy, records = tied_corpus()
        model = fit_ngram(records, 2, 0.5, taxonomy)
        for clip_id, history in self.HISTORIES.items():
            for top_k in (1, 3, 5):
                got = NgramPredictor(model, "sample", 8, top_k).predict(clip_id, history, 10, 3)
                want = reference_rollouts(model, "sample", 8, top_k, clip_id, history, 10, 3)
                assert np.array_equal(got.candidates, want), (clip_id, top_k)

    def test_observe_invalidates_memoized_steps(self):
        taxonomy = cycle_taxonomy()
        first = [record("c1", [0, 1, 2, 0, 1, 2, 0])]
        # After these, action 0 is mostly followed by 2 instead of 1.
        second = [record(f"d{i}", [0, 2, 0, 2]) for i in range(3)]
        model = fit_ngram(first, 2, 0.1, taxonomy)
        predictor = NgramPredictor(model, mode="greedy", seed=2)
        history = actions((0, 0))
        stale = predictor.predict("clip", history, 6, 3)
        for rec in second:
            model.observe(rec.observed)
        # A predictor reads its model at construction, so only a new one sees the update.
        assert np.array_equal(predictor.predict("clip", history, 6, 3).candidates, stale.candidates)
        refreshed = NgramPredictor(model, mode="greedy", seed=2).predict("clip", history, 6, 3)
        fresh_model = fit_ngram(first + second, 2, 0.1, taxonomy)
        fresh = NgramPredictor(fresh_model, mode="greedy", seed=2).predict("clip", history, 6, 3)
        assert np.array_equal(refreshed.candidates, fresh.candidates)
        assert not np.array_equal(refreshed.candidates[0], stale.candidates[0])

    def test_memoized_pools_own_their_memory(self):
        taxonomy, records = tied_corpus()
        model = fit_ngram(records, 2, 0.5, taxonomy)
        greedy, pool, weights = model.step((0,), 3)
        assert greedy == 1
        assert pool.base is None and weights.base is None
        assert pool.tolist() == [1, 2, 0]
        assert weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sparse_step_matches_dense_conditional(self, order):
        taxonomy, records = tied_corpus()
        model = fit_ngram(records, order, 0.5, taxonomy)
        contexts = list(model._transitions)
        if order > 1:
            unseen = (5,) * (order - 1)  # action 5 never occurs
            assert unseen not in contexts
            contexts.append(unseen)
        for context in contexts:
            probs = np.array(ngram_conditional(model, context))
            for width in (1, 2, 3, model.num_actions):
                greedy, pool, weights = model.step(context, width)
                dense_pool = np.argsort(-probs, kind="stable")[:width]
                assert pool.tolist() == dense_pool.tolist(), (context, width)
                assert greedy == pool[0] == int(np.argmax(probs))
                dense_weights = probs[dense_pool] / probs[dense_pool].sum()
                np.testing.assert_allclose(weights, dense_weights, rtol=1e-12, atol=0)


class TestRepeatLast:
    def test_repeats_final_history_action(self):
        result = RepeatLastPredictor().predict("c", actions((1, 2), (3, 4)), 5, 2)
        assert result.candidates.tolist() == [[[3, 4]] * 5] * 2

    def test_candidates_are_independent_lists(self):
        result = RepeatLastPredictor().predict("c", actions((1, 1)), 3, 2)
        result.candidates[0][0] = (0, 0)
        assert result.candidates[1][0].tolist() == [1, 1]


class TestLlmPredictor:
    def test_parses_scripted_completions(self, kitchen):
        client = MockLlmClient(["take spoon, stir pot", "wash cup"])
        predictor = LlmPredictor(client, kitchen)
        result = predictor.predict("clip", actions((0, 0)), horizon=2, num_candidates=2)
        assert result.candidates[0].tolist() == [[0, 0], [2, 1]]
        assert result.candidates[1].tolist() == [[3, 2], [3, 2]]

    def test_first_request_is_temperature_zero(self, kitchen):
        config = LlmConfig("mock://local", "m", temperature=0.8, backoff_base=0.0)
        client = MockLlmClient(["take spoon", "take spoon", "take spoon"], config)
        LlmPredictor(client, kitchen, temperature=0.6).predict("c", actions((0, 0)), 1, 3)
        assert [r["temperature"] for r in client.requests] == [0.0, 0.6, 0.6]

    def test_none_temperature_falls_back_to_config(self, kitchen):
        config = LlmConfig("mock://local", "m", temperature=0.8, backoff_base=0.0)
        client = MockLlmClient(["take spoon", "take spoon"], config)
        LlmPredictor(client, kitchen).predict("c", actions((0, 0)), 1, 2)
        assert [r["temperature"] for r in client.requests] == [0.0, 0.8]

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -0.5])
    def test_bad_temperature_rejected(self, kitchen, temperature):
        # The scripted client's default config says nothing about this value.
        with pytest.raises(DataError, match="temperature"):
            LlmPredictor(MockLlmClient(["take spoon"]), kitchen, temperature=temperature)

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
        assert result.candidates.tolist() == [[[0, 0], [0, 0]]]
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
        assert result.candidates[0].tolist() == [[2, 2]] * 3
        assert client.requests[0]["messages"][1]["content"] == "H=put pot Z=3"

    def test_script_exhaustion_not_swallowed(self, kitchen):
        client = MockLlmClient(["take spoon"])
        predictor = LlmPredictor(client, kitchen)
        predictor.predict("c", actions((0, 0)), 1, 1)
        with pytest.raises(ScriptExhausted):
            predictor.predict("c", actions((0, 0)), 1, 1)
