"""Independent oracle implementations used to cross-check the library.

These deliberately avoid the library's own code paths: the n-gram oracle
counts with flat string-keyed dictionaries and multiplies exact rationals in
linear space, and the n-gram float scorer counts in one dict per label and
adds `math.log` terms left to right; the metrics oracle recomputes every figure from first
principles with plain loops; gradients come from central finite differences, and
the dense convolution's from one whole-batch im2col product and max-pool.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np


class CharIndex:
    """A charset's character -> index map, rebuilt from its `chars` alone in
    a dict of the oracle's own: unknown characters go to `len(chars)`, and
    `size` counts that slot. The library's `Charset.indices` reads a table
    this never touches."""

    def __init__(self, chars) -> None:
        self.index = {ch: i for i, ch in enumerate(chars)}
        self.size = len(self.index) + 1

    def lookup(self, ch: str) -> int:
        return self.index.get(ch, len(self.index))


def ngram_reference_probs(
    train_pairs: list[tuple[str, str]],
    charset,
    n: int,
    alpha: Fraction,
    text: str,
) -> dict[str, Fraction]:
    """Exact per-label probability of `text` under additive smoothing.

    `train_pairs` is a list of (text, label_code). Characters are mapped
    through `charset`, anything with a `size` and a `lookup` such as a
    `CharIndex` (unknowns to the reserved slot), n-1 boundary
    markers are prepended, and each position contributes
    (count + alpha) / (total + alpha * V) with V the charset size.
    """
    v = charset.size
    counts: dict[tuple[str, tuple, int], int] = {}
    totals: dict[tuple[str, tuple], int] = {}
    for sample, code in train_pairs:
        seq = [charset.lookup(ch) for ch in sample]
        padded = ["^"] * (n - 1) + seq
        for i, x in enumerate(seq):
            history = tuple(padded[i : i + n - 1])
            counts[(code, history, x)] = counts.get((code, history, x), 0) + 1
            totals[(code, history)] = totals.get((code, history), 0) + 1
    labels = sorted({code for _, code in train_pairs})
    seq = [charset.lookup(ch) for ch in text]
    padded = ["^"] * (n - 1) + seq
    result: dict[str, Fraction] = {}
    for code in labels:
        prob = Fraction(1)
        for i, x in enumerate(seq):
            history = tuple(padded[i : i + n - 1])
            c = counts.get((code, history, x), 0)
            t = totals.get((code, history), 0)
            prob *= (c + alpha) / (t + alpha * v)
        result[code] = prob
    return result


def ngram_reference_log_probs(corpus, charset, n: int, alpha: float, text: str) -> dict:
    """Per-label float log-probability of `text`, by the dict-per-label scorer
    the sorted-array table replaced: a Counter of n-gram tuples per label,
    history totals summed out of it, and one left-to-right `math.log` loop.
    Characters map through `charset`'s `lookup`, as in `ngram_reference_probs`."""
    bos = [-1] * (n - 1)
    counts = {label: Counter() for label in corpus.labels}
    for inst in corpus:
        padded = bos + [charset.lookup(ch) for ch in inst.text]
        counts[inst.label].update(zip(*(padded[k:] for k in range(n))))
    padded = bos + [charset.lookup(ch) for ch in text]
    keys = [(gram, gram[:-1]) for gram in zip(*(padded[k:] for k in range(n)))]
    smoothing = alpha * charset.size
    result = {}
    for label, grams in counts.items():
        totals: Counter = Counter()
        for gram, count in grams.items():
            totals[gram[:-1]] += count
        lp = 0.0
        for gram, history in keys:
            lp += math.log((grams.get(gram, 0) + alpha) / (totals.get(history, 0) + smoothing))
        result[label] = lp
    return result


def charset_reference(texts, max_size: int | None = None) -> tuple[str, ...]:
    """The characters of `texts` by the rule `build_charset` keeps: a Counter
    of characters ranked by (count descending, character ascending), then
    the first `max_size - 1` of them under a cap."""
    freq: Counter = Counter()
    for text in texts:
        freq.update(text)
    ranked = sorted(freq, key=lambda ch: (-freq[ch], ch))
    return tuple(ranked if max_size is None else ranked[: max_size - 1])


def next_char_probs(model, history: tuple) -> dict:
    """Per label, the model's smoothed P(c | history) for every char index c,
    read off its own scores. `history` is beginning-of-text markers (-1) then
    the indices of some text s, which is the history after s, so
    P(c | history) = exp(score(s + c) - score(s))."""
    chars = (*model.charset.chars, "\uffff")  # the last stands for the unknown slot
    assert chars[-1] not in model.charset.chars
    prefix = "".join(chars[s] for s in history if s != -1)
    base = model.classify(prefix).per_label
    after = [model.classify(prefix + ch).per_label for ch in chars]
    return {label: [math.exp(lp[label] - base[label]) for lp in after] for label in base}


def ngram_reference_best(probs: dict[str, Fraction]) -> str:
    """Argmax with exact ties going to the smallest code."""
    best_code, best_prob = None, None
    for code in sorted(probs):
        if best_prob is None or probs[code] > best_prob:
            best_code, best_prob = code, probs[code]
    return best_code


def log_of_fraction(f: Fraction) -> float:
    return math.log(f.numerator) - math.log(f.denominator)


def reference_report(codes: list[str], cells: list[list[int]]) -> dict:
    """Recompute all evaluation figures with plain loops (no numpy)."""
    n = len(codes)
    total = sum(sum(r) for r in cells)
    correct = sum(cells[i][i] for i in range(n))
    per_class = {}
    for i, code in enumerate(codes):
        tp = cells[i][i]
        col = sum(cells[r][i] for r in range(n))
        row = sum(cells[i])
        p = tp / col if col else 0.0
        r = tp / row if row else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        per_class[code] = {"precision": p, "recall": r, "f1": f1, "support": row}
    f1_values = [per_class[c]["f1"] for c in codes]
    return {
        "accuracy": correct / total,
        "f1_micro": correct / total,
        "f1_macro": sum(f1_values) / n,
        "f1_weighted": sum(per_class[c]["f1"] * per_class[c]["support"] for c in codes) / total,
        "per_class": per_class,
    }


def max_pool_reference(conv: np.ndarray, pool: int, g: np.ndarray):
    """Max over non-overlapping windows of `pool` steps along the time axis of
    conv[..., time, ch], the remainder dropped, as one reduction over a
    [..., windows, pool, ch] reshape; with conv's gradient for the pooled
    output's gradient `g`: each window's argmax (its first maximal step) gets
    g, every other step g * 0. Returns (pooled, d conv)."""
    *lead, time, ch = conv.shape
    used = time // pool * pool
    windows = conv[..., :used, :].reshape(*lead, used // pool, pool, ch)
    hit = np.arange(pool)[:, None] == windows.argmax(axis=-2)[..., None, :]
    g_conv = np.zeros_like(conv)
    g_conv[..., :used, :] = (g[..., None, :] * hit).reshape(*lead, used, ch)
    return windows.max(axis=-2), g_conv


def conv_dense_reference(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, g: np.ndarray, pool: int = 1):
    """Dense conv1d over x[..., time, in_ch] as one whole-batch im2col product,
    then, for pool > 1, `max_pool_reference`, with the gradients for the
    output gradient `g`: the kernel gradient is one product over the full
    width x in_ch, and the input gradient is scattered tap by tap from the
    windows' gradient. Returns (out, d kernels, d bias, d x)."""
    out_ch, width, in_ch = kernels.shape
    *lead, time, _ = x.shape
    out_len = time - width + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (width, in_ch), axis=(-2, -1))
    windows = windows.reshape(-1, width * in_ch)
    kmat = kernels.reshape(out_ch, width * in_ch)
    out = (windows @ kmat.T + bias).reshape(*lead, out_len, out_ch)
    if pool > 1:
        out, g = max_pool_reference(out, pool, g)
    rows = g.reshape(-1, out_ch)
    g_kernels = (rows.T @ windows).reshape(out_ch, width, in_ch)
    g_windows = (rows @ kmat).reshape(*lead, out_len, width, in_ch)
    g_x = np.zeros_like(x)
    for w in range(width):
        g_x[..., w : w + out_len, :] += g_windows[..., w, :]
    return out, g_kernels, rows.sum(axis=0), g_x


def central_difference(f, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() with respect to `arr` in place."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = arr[idx]
        arr[idx] = original + h
        f_plus = f()
        arr[idx] = original - h
        f_minus = f()
        arr[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-12) -> float:
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
