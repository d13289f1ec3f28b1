"""Independent reference implementations the test suite checks against.

Everything here is deliberately written in plain Python (loops, sorted(),
dicts) with no code shared with the package, so a bug would have to be made
twice to go unnoticed. `synth_rows` and `ngram_table` are the exceptions: the
bits they must match are numpy's, so they use numpy one row at a time.
"""

from __future__ import annotations

import json
import math

import numpy as np


def osa_distance(a, b) -> int:
    """Edit distance by recursive search over edit scripts, memoized on prefix lengths.

    At every prefix pair the search branches over delete, insert,
    substitute/match, and (when the last two tokens are crossed) an adjacent
    transposition; the restriction that a transposed pair is never edited
    again is what the (i-2, j-2) recursion encodes.
    """
    memo: dict[tuple[int, int], int] = {}

    def search(i: int, j: int) -> int:
        if (i, j) in memo:
            return memo[(i, j)]
        if i == 0:
            best = j
        elif j == 0:
            best = i
        else:
            best = search(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1)
            best = min(best, search(i - 1, j) + 1)
            best = min(best, search(i, j - 1) + 1)
            if i >= 2 and j >= 2 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                best = min(best, search(i - 2, j - 2) + 1)
        memo[(i, j)] = best
        return best

    return search(len(a), len(b))


def tally_cooccurrence(annotations, num_verbs: int, num_nouns: int) -> list[list[float]]:
    """Flat scan over every action of every record, counted into a dict."""
    counts: dict[tuple[int, int], int] = {}
    for record in annotations:
        sequences = [record.observed]
        if record.future is not None:
            sequences.append(record.future)
        for seq in sequences:
            for action in seq:
                key = (action.verb, action.noun)
                counts[key] = counts.get(key, 0) + 1
    return [
        [float(counts.get((v, n), 0)) for n in range(num_nouns)] for v in range(num_verbs)
    ]


def top_k_by_sort(values, k: int) -> list[tuple[int, float]]:
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return [(i, float(values[i])) for i in order[:k]]


def rerank_reference(verb_probs, noun_probs, row_stochastic, col_stochastic, k: int):
    """Mirror of the documented two-branch re-ranking procedure, loops only.

    Returns (chosen, candidates, naive, used_fallback) where candidates are
    (verb, noun, score, branch) tuples in final output order.
    """
    vp = [float(x) for x in verb_probs]
    np_ = [float(x) for x in noun_probs]
    row = [[float(x) for x in r] for r in row_stochastic]
    col = [[float(x) for x in r] for r in col_stochastic]

    verb_branch = []
    for v, p_verb in top_k_by_sort(vp, k):
        adjusted = [np_[n] * row[v][n] for n in range(len(np_))]
        for n, q in top_k_by_sort(adjusted, k):
            verb_branch.append((p_verb * q, v, n, "verb_anchored"))
    verb_branch = sorted(verb_branch, key=lambda t: (-t[0], t[1], t[2]))[:k]

    noun_branch = []
    for n, p_noun in top_k_by_sort(np_, k):
        adjusted = [vp[v] * col[v][n] for v in range(len(vp))]
        for v, q in top_k_by_sort(adjusted, k):
            noun_branch.append((p_noun * q, v, n, "noun_anchored"))
    noun_branch = sorted(noun_branch, key=lambda t: (-t[0], t[1], t[2]))[:k]

    merged: dict[tuple[int, int], tuple[float, str]] = {}
    for score, v, n, branch in verb_branch + noun_branch:
        held = merged.get((v, n))
        if held is None or score > held[0]:
            merged[(v, n)] = (score, branch)
    candidates = sorted(
        ((v, n, score, branch) for (v, n), (score, branch) in merged.items()),
        key=lambda t: (-t[2], t[0], t[1]),
    )

    naive = (vp.index(max(vp)), np_.index(max(np_)))
    if candidates[0][2] > 0.0:
        chosen, used_fallback = (candidates[0][0], candidates[0][1]), False
    else:
        chosen, used_fallback = naive, True
    return chosen, candidates, naive, used_fallback


def min_track_ed(candidates, gt, project) -> tuple[float, int]:
    """Loop-style min-over-candidates normalized edit distance for one track."""
    best_ed, best_idx = None, None
    for idx, cand in enumerate(candidates):
        pred = [project(a) for a in cand]
        truth = [project(a) for a in gt]
        ed = min(1.0, osa_distance(pred, truth) / len(truth))
        if best_ed is None or ed < best_ed:
            best_ed, best_idx = ed, idx
    return best_ed, best_idx


def ngram_windows(model, clips) -> dict[tuple[int, ...], dict[int, int]]:
    """Context (m-1 action ids) -> next id -> count, over every length-m window that lies inside
    one clip's actions (an L x 2 array each), an action's id being verb * |N| + noun."""
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for pairs in clips:
        ids = [verb * model.num_nouns + noun for verb, noun in pairs.tolist()]
        for i in range(len(ids) - model.order + 1):
            successors = counts.setdefault(tuple(ids[i : i + model.order - 1]), {})
            successors[ids[i + model.order - 1]] = successors.get(ids[i + model.order - 1], 0) + 1
    return counts


def ngram_conditional(model, clips, ids) -> list[float]:
    """Dense smoothed next-action distribution after the action ids `ids`, for an n-gram model
    with `model`'s order and beta fitted on `clips`.

    The context is the last m-1 ids (fewer if `ids` is shorter, none for a
    unigram). Every one of the |V|*|N| ids weighs beta plus the number of
    times it followed that context, divided by the total weight.
    """
    span = model.order - 1
    counts = ngram_windows(model, clips).get(tuple(ids[-span:]) if span else (), {})
    weights = [model.beta + counts.get(i, 0) for i in range(model.num_actions)]
    total = math.fsum(weights)
    return [w / total for w in weights]


def ngram_table(model, clips, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The predictor's (pool, cdf) table built one context at a time: a row per seen context in
    sorted order, then the unseen row.

    A row's pool takes ids by weight (beta plus its count after the
    context), descending, ties toward the lowest id: the observed
    successors by count, then the lowest unseen ids. Its cdf is the cumsum
    of the pool's weights over their total, divided by its last entry. The
    bits to match are numpy's sum and cumsum, so those use numpy.
    """
    counts = ngram_windows(model, clips)
    contexts = sorted(counts)
    pool, cdf = np.empty((len(contexts) + 1, width), np.intp), np.empty((len(contexts) + 1, width))
    for row, context in enumerate([*contexts, None]):
        successors = sorted(counts.get(context, {}).items(), key=lambda item: (-item[1], item[0]))[:width]
        unseen = [i for i in range(width) if i not in counts.get(context, {})]  # used only if all successors fit
        pool[row] = [nxt for nxt, _ in successors] + unseen[: width - len(successors)]
        weights = np.full(width, model.beta)
        weights[: len(successors)] += [count for _, count in successors]
        np.cumsum(weights / weights.sum(), out=cdf[row])
        cdf[row] /= cdf[row, -1]
    return pool, cdf


def distributions_jsonl(table) -> str:
    """The distributions file as one `json.dumps` of a record dict per segment.

    Rows go through `tolist()`, so an int array writes ints (1) where the
    package writes floats (1.0); compare int input after casting to float.
    """
    rows = [
        {"clip_id": clip_id, "segment": i, "verb_probs": verb, "noun_probs": noun}
        for clip_id, a, b in zip(table.clip_ids, table.starts, table.starts[1:])
        for i, (verb, noun) in enumerate(zip(table.verb_probs[a:b].tolist(), table.noun_probs[a:b].tolist()))
    ]
    return "".join(json.dumps(row) + "\n" for row in rows)


def recognition_jsonl(table, taxonomy) -> str:
    """The recognition file as one `json.dumps` of a record dict per segment, built in loops."""
    text = lambda pair: f"{taxonomy.verbs[pair[0]]} {taxonomy.nouns[pair[1]]}"
    lines = []
    candidates = [
        {"action": text(pair), "score": score, "branch": "verb_anchored" if verb_anchored else "noun_anchored"}
        for pair, score, verb_anchored in zip(
            table.candidates.tolist(), table.scores.tolist(), table.verb_anchored.tolist()
        )
    ]
    start = 0
    for clip_id, a, b in zip(table.clip_ids, table.starts, table.starts[1:]):
        for i, r in enumerate(range(a, b)):
            count = int(table.counts[r])
            row = {
                "clip_id": clip_id, "segment": i, "chosen": text(table.chosen[r].tolist()),
                "naive": text(table.naive[r].tolist()), "fallback": bool(table.fallback[r]),
                "candidates": candidates[start : start + count],
            }
            start += count
            lines.append(json.dumps(row) + "\n")
    return "".join(lines)


def synth_rows(config):
    """Each clip's (verb rows, noun rows) as the synthetic generator makes them, one row at a time.

    The generator's calls are made in its order: per clip the template, the
    offset and the jitter; per segment the verb distractor, then the noun one.
    Each row is a softmax of its own one-hot, the distractor mass moved onto
    one entry, and a division by its own sum.
    """
    def noisy_vector(size, true_index, pool, mass, rng):
        logits = np.zeros(size)
        logits[true_index] = 1.0
        logits = logits / config.noise_temperature
        shifted = np.exp(logits - logits.max())
        vec = shifted / shifted.sum()
        if mass > 0 and pool:
            drawn = min(float(rng.uniform(0.0, 2.0 * mass)), 0.95)
            target = pool[int(rng.integers(len(pool)))]
            vec = (1.0 - drawn) * vec
            vec[target] += drawn
        return vec / vec.sum()

    rng = np.random.default_rng(config.seed)
    num_verbs, num_nouns, length = config.num_verbs, config.num_nouns, config.routine_length
    drawn = rng.permutation(num_nouns)[: config.num_templates * length]
    templates = [[(int(n) % num_verbs, int(n)) for n in drawn[t * length : (t + 1) * length]]
                 for t in range(config.num_templates)]
    clips = []
    for _ in range(config.num_clips):
        routine = templates[int(rng.integers(config.num_templates))]
        offset = int(rng.integers(length))
        actions = [routine[(offset + i) % length] for i in range(config.observed_segments + config.horizon)]
        if config.routine_jitter > 0:
            for i in range(len(actions)):
                if rng.random() < config.routine_jitter:
                    noun = int(rng.integers(num_nouns))
                    actions[i] = (noun % num_verbs, noun)
        verbs, nouns = [], []
        for verb, noun in actions[: config.observed_segments]:
            verb_pool = [u for u in range(num_verbs) if u != verb]
            noun_pool = [n for n in range(num_nouns) if n % num_verbs != verb]
            verbs.append(noisy_vector(num_verbs, verb, verb_pool, config.verb_distractor_mass, rng))
            nouns.append(noisy_vector(num_nouns, noun, noun_pool, config.noun_distractor_mass, rng))
        clips.append((np.array(verbs), np.array(nouns)))
    return clips
