"""Pretraining: the corpora and objectives behind the baseline gap.

MentalBERT's advantage in Table IV comes from domain pretraining, so the
mechanism must physically exist here: a large unlabeled mental-health
corpus (more synthetic forum posts, disjoint seed from the labelled
data), a mixed general-domain corpus, and three objectives —

* **MLM** (BERT family): 15% of tokens masked, 80/10/10 mask/random/keep;
* **CLM** (GPT-2): next-token prediction under the causal mask;
* **PLM** (XLNet): masked prediction like MLM but trained on the
  relative-position encoder, standing in for permutation language
  modelling (the part of XLNet's objective a small model can exploit).
"""

from __future__ import annotations

import numpy as np

from repro.core.labels import DIMENSIONS
from repro.models.classifier import TransformerClassifier
from repro.nn.batching import window_bucketed_batches
from repro.nn.functional import cross_entropy
from repro.nn.optim import Adam

__all__ = [
    "build_pretraining_corpus",
    "mask_tokens",
    "pretrain",
]


def build_pretraining_corpus(
    domain: str, *, size: int = 1500, seed: int = 101
) -> list[str]:
    """Unlabeled pretraining texts.

    ``mental_health`` draws fresh synthetic forum posts (disjoint seed
    from the labelled corpus, so no train/test leakage).  ``mixed``
    replaces a third of them with general-domain text (off-topic forum
    chatter and meta sentences), diluting the in-domain signal the way
    web-scale pretraining dilutes any one domain.
    """
    from repro.corpus.generator import GeneratorConfig, assemble, generate_drafts
    from repro.corpus.templates import FILLER_SENTENCES, OFFTOPIC_SENTENCES

    if domain not in ("mixed", "mental_health"):
        raise ValueError(f"unknown pretraining domain {domain!r}")
    per_class = max(1, size // len(DIMENSIONS))
    config = GeneratorConfig(
        class_counts={dim: per_class for dim in DIMENSIONS},
        seed=seed,
        target_total_words=None,
        target_total_sentences=None,
        label_noise=0.0,
    )
    drafts = generate_drafts(config)
    texts = [assemble(d, f"pretrain-{i}").text for i, d in enumerate(drafts)]
    if domain == "mental_health":
        return texts
    rng = np.random.default_rng(seed + 1)
    generic_pool = OFFTOPIC_SENTENCES + FILLER_SENTENCES
    n_generic = len(texts) // 2
    generic = [
        " ".join(
            str(generic_pool[int(j)])
            for j in rng.choice(len(generic_pool), size=int(rng.integers(1, 4)))
        )
        for _ in range(n_generic)
    ]
    mixed = texts[: len(texts) - n_generic] + generic
    order = rng.permutation(len(mixed))
    return [mixed[i] for i in order]


def mask_tokens(
    token_ids: np.ndarray,
    *,
    mask_id: int,
    pad_id: int,
    vocab_size: int,
    rng: np.random.Generator,
    mask_prob: float = 0.15,
) -> tuple[np.ndarray, np.ndarray]:
    """BERT-style masking: returns ``(corrupted_ids, mlm_targets)``.

    Targets are -100 except at selected positions.  Of the selected
    tokens, 80% become ``[MASK]``, 10% a random token, 10% unchanged.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    targets = np.full_like(ids, -100)
    selectable = ids != pad_id
    selected = selectable & (rng.random(ids.shape) < mask_prob)
    targets[selected] = ids[selected]

    corrupted = ids.copy()
    roll = rng.random(ids.shape)
    to_mask = selected & (roll < 0.8)
    to_random = selected & (roll >= 0.8) & (roll < 0.9)
    corrupted[to_mask] = mask_id
    corrupted[to_random] = rng.integers(5, vocab_size, size=int(to_random.sum()))
    return corrupted, targets


def _mlm_step(
    model: TransformerClassifier, batch: np.ndarray, rng: np.random.Generator
):
    corrupted, targets = mask_tokens(
        batch,
        mask_id=model.vocab.mask_id,
        pad_id=model.vocab.pad_id,
        vocab_size=len(model.vocab),
        rng=rng,
    )
    if not (targets != -100).any():
        return None
    logits = model.lm_logits(corrupted)
    return cross_entropy(logits, np.where(targets == -100, -100, targets), ignore_index=-100)


def _clm_step(model: TransformerClassifier, batch: np.ndarray, rng):
    inputs = batch[:, :-1]
    targets = batch[:, 1:].copy()
    targets[targets == model.vocab.pad_id] = -100
    if not (targets != -100).any():
        return None
    logits = model.lm_logits(inputs)
    return cross_entropy(logits, targets, ignore_index=-100)


def pretrain(
    model: TransformerClassifier,
    texts: list[str],
    *,
    steps: int,
    objective: str,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    seed: int = 0,
    bucket_window: int = 8,
) -> list[float]:
    """Run the pretraining objective; returns the per-step loss trace.

    PLM shares the masked-prediction step with MLM — the permutation
    flavour lives in the model's relative-position attention, which is
    what the objective trains.

    ``bucket_window > 1`` draws that many batches' worth of sample ids
    at once and sorts them by token count before slicing into batches,
    so each batch pads to near-uniform lengths; ``<= 1`` restores one
    independent uniform draw per step.
    """
    if objective not in ("mlm", "clm", "plm"):
        raise ValueError(f"unknown objective {objective!r}")
    if not texts:
        raise ValueError("pretraining corpus is empty")
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), learning_rate)
    step_fn = _clm_step if objective == "clm" else _mlm_step
    losses: list[float] = []
    n = len(texts)
    # Tokenise the corpus once; every step then only gathers and pads.
    rows = [model.encode_ids(text) for text in texts]
    lengths = [len(row) for row in rows]
    queue: list[list[int]] = []
    for _step in range(steps):
        if bucket_window > 1:
            if not queue:
                block = rng.integers(0, n, size=batch_size * bucket_window)
                queue = list(
                    window_bucketed_batches(
                        block.tolist(), lengths, batch_size, window=bucket_window
                    )
                )
                queue.reverse()  # pop() consumes in sorted order
            picks = queue.pop()
        else:
            picks = rng.integers(0, n, size=batch_size).tolist()
        token_ids = model.pad_rows([rows[i] for i in picks])
        loss = step_fn(model, token_ids, rng)
        if loss is None:  # pragma: no cover - requires degenerate batch
            continue
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.step()
        losses.append(loss.item())
    return losses
