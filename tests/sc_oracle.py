"""Genie-aided successive-cancellation (SC) decoding of a BSC mixture: a
Monte Carlo estimate of every polar branch's error probability.

Arikan ("Channel polarization", IEEE Trans. Inf. Theory 55(7), 2009)
defines SC decoding.  With the all-zero codeword, which the channels'
symmetry allows, and the true earlier bits, the decision on a bit is the
ML decision of its synthetic channel, and its log-likelihood ratio (LLR)
is a fixed butterfly over LLRs of the base channel: a minus step takes the
boxplus of two independent LLRs, a plus step their sum.  So the error
frequency of branch alpha is an unbiased estimate of Perr(A_alpha(base))
from samples of the base channel alone, and it shares no code with
``bidmc.polar``.

A branch of level k holds 2^(depth - k) independent LLRs per frame, each
of them a sample, so one butterfly estimates every branch of every level.
An LLR of 0 counts as half an error.  numpy only; seeded by the caller's
generator.

Run as ``python tests/sc_oracle.py --depth 10 --n 16 --frames 20000``:
the worst z-score of the quantized chains of ``construct(random_channel(
instance_rng(0, 0), 16), depth, n)`` against the estimate, over every
branch.
"""

import argparse
import time

import numpy as np

from bidmc import construct, error_probability, instance_rng, random_channel

# Frames per block, so that a block holds about 2^20 LLRs.
_BLOCK_LLRS = 2**20


def sample_llrs(sigmas: np.ndarray, weights: np.ndarray, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """LLRs of a BSC mixture's outputs for input 0: particle j with
    probability weights[j], then a flip with probability sigmas[j].  The
    LLR is +inf at sigma 0 and 0 at sigma 1/2."""
    cdf = np.cumsum(weights)
    s = sigmas[np.minimum(np.searchsorted(cdf, rng.random(shape) * cdf[-1], side="right"), sigmas.size - 1)]
    with np.errstate(divide="ignore"):
        magnitude = np.where(s >= 0.5, 0.0, np.log1p(-s) - np.log(s))
    return np.where(rng.random(shape) < s, -magnitude, magnitude)


def boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 atanh(tanh(a / 2) tanh(b / 2)), in the form that stays finite:
    sign(a) sign(b) min(|a|, |b|) plus a correction that is 0 when either
    LLR is infinite."""
    with np.errstate(invalid="ignore"):
        correction = np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    head = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return head + np.where(np.isfinite(a) & np.isfinite(b), correction, 0.0)


def estimate(channel, depth: int, frames: int, rng: np.random.Generator) -> dict[str, tuple[float, float]]:
    """Per branch alpha of length 1..depth ("0" minus, "1" plus, the first
    transform first): the SC error frequency and its standard error."""
    width = 2**depth
    block = max(1, _BLOCK_LLRS // width)
    sums = [np.zeros((2, 2**k)) for k in range(1, depth + 1)]
    done = 0
    while done < frames:
        f = min(block, frames - done)
        llr = sample_llrs(channel.sigmas, channel.weights, (f, 1, width), rng)
        for k in range(depth):
            half = llr.shape[-1] // 2
            a, b = llr[..., :half], llr[..., half:]
            # Branch j of this level becomes branches 2j (minus) and 2j + 1.
            llr = np.stack((boxplus(a, b), a + b), axis=2).reshape(f, -1, half)
            errors = (llr < 0.0) + 0.5 * (llr == 0.0)
            sums[k] += (errors.sum(axis=(0, 2)), (errors * errors).sum(axis=(0, 2)))
        done += f
    out = {}
    for k, (total, squares) in enumerate(sums, start=1):
        samples = frames * 2 ** (depth - k)
        mean = total / samples
        se = np.sqrt(np.maximum(squares / samples - mean * mean, 0.0) / (samples - 1))
        for j in range(2**k):
            out[format(j, f"0{k}b")] = (float(mean[j]), float(se[j]))
    return out


def z_scores(run, found: dict[str, tuple[float, float]]) -> dict[str, float]:
    """Per branch, (estimate - Perr(quantized)) / se: above z, a quantized
    chain looks better than the channel it degrades.  A branch whose
    samples all agree (se 0) scores 0 within 1e-12 of its estimate, the
    round-off of Perr's sum, and +inf past it."""
    scores = {}
    for alpha, (mean, se) in found.items():
        gap = mean - error_probability(run.records[alpha].quantized)
        scores[alpha] = gap / se if se > 0.0 else 0.0 if gap <= 1e-12 else np.inf
    return scores


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depth", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--frames", type=int, required=True)
    args = parser.parse_args()
    base = random_channel(instance_rng(0, 0), 16)
    start = time.perf_counter()
    run = construct(base, args.depth, args.n)
    built = time.perf_counter()
    found = estimate(base, args.depth, args.frames, np.random.default_rng(0))
    done = time.perf_counter()
    scores = z_scores(run, found)
    alpha = max(scores, key=scores.get)
    print(f"branches {len(found)}  frames {args.frames}  construct {built - start:.1f} s  "
          f"SC {done - built:.1f} s  worst z {scores[alpha]:.2f} at '{alpha}'")


if __name__ == "__main__":
    main()
