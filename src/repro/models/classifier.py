"""The shared transformer classifier wrapping all six baseline variants.

A single parameterised module covers every architecture in Table IV: the
config decides causality, position encoding, pooling, and (for Flan-T5)
an encoder-decoder layout with an instruction prefix.  Model-specific
subclasses in :mod:`repro.models.bert` etc. exist to give each baseline a
stable public name and its published configuration.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.models.config import ModelConfig
from repro.nn.attention import MultiHeadAttention  # noqa: F401 (re-export context)
from repro.nn.functional import attention_mask_from_padding, cross_entropy
from repro.nn.layers import Embedding, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor
from repro.nn.transformer import DecoderBlock, TransformerEncoder
from repro.text.vocab import Vocabulary

__all__ = ["TransformerClassifier"]


class TransformerClassifier(Module):
    """Sequence classifier over token ids, architecture set by config."""

    def __init__(
        self, config: ModelConfig, vocab: Vocabulary, n_classes: int
    ) -> None:
        super().__init__()
        if not vocab.has_specials:
            raise ValueError("classifier vocabulary needs special tokens")
        self.config = config
        self.vocab = vocab
        self.n_classes = n_classes
        self.encoder = TransformerEncoder(
            vocab_size=len(vocab),
            max_len=config.max_len + 8,  # headroom for CLS / prefix tokens
            dim=config.dim,
            n_layers=config.n_layers,
            n_heads=config.n_heads,
            ffn_hidden=config.ffn_hidden,
            causal=config.causal,
            relative_positions=config.relative_positions,
            use_absolute_positions=config.use_absolute_positions,
            dropout=config.dropout,
            seed=config.seed,
        )
        if config.encoder_decoder:
            self.decoder_query = Embedding(1, config.dim, seed=config.seed + 7)
            self.decoder_block = DecoderBlock(
                config.dim,
                config.n_heads,
                config.ffn_hidden,
                dropout=config.dropout,
                seed=config.seed + 8,
            )
            self.decoder_norm = LayerNorm(config.dim)
        self.pooler = Linear(config.dim, config.dim, seed=config.seed + 5)
        self.classifier = Linear(config.dim, n_classes, seed=config.seed + 6)
        # Language-model head for pretraining (MLM / CLM / PLM).
        self.lm_head = Linear(config.dim, len(vocab), seed=config.seed + 9)
        self._prefix_ids = self._encode_prefix()

    @property
    def weights_version(self) -> int:
        """Monotonic count of in-place weight mutations on this model.

        Bumped by ``Module.load_state_dict`` (checkpoint / pretraining-
        cache restore) and by ``Trainer.fit`` at epoch boundaries; the
        ``PredictionEngine`` mixes it into cache keys so stale cached
        predictions are never served after the weights change.
        """
        return int(getattr(self, "_weights_version", 0))

    # ------------------------------------------------------------------
    # Tokenisation
    # ------------------------------------------------------------------
    def _encode_prefix(self) -> list[int]:
        if self.config.instruction_prefix is None:
            return []
        return [self.vocab[t] for t in self.config.instruction_prefix.split()]

    def encode_ids(self, text: str) -> list[int]:
        """Token ids for one text, with CLS/prefix handling applied.

        This is the single tokenisation path: ``encode_batch`` and the
        prediction engine's length-bucketed batching both build on it.
        """
        config = self.config
        ids = self.vocab.encode(text, max_len=config.max_len)
        if config.pooling == "cls":
            ids = [self.vocab.cls_id] + ids
        if self._prefix_ids:
            ids = self._prefix_ids + ids
        return ids

    def pad_rows(self, rows: list[list[int]]) -> np.ndarray:
        """Right-pad id rows to the longest row → ``(B, T)`` matrix."""
        width = max(len(r) for r in rows)
        batch = np.full((len(rows), width), self.vocab.pad_id, dtype=np.int64)
        for i, row in enumerate(rows):
            batch[i, : len(row)] = row
        return batch

    def encode_batch(self, texts: list[str]) -> np.ndarray:
        """Token-id matrix ``(B, T)`` with CLS/prefix and right padding."""
        return self.pad_rows([self.encode_ids(text) for text in texts])

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def _pool(self, hidden: Tensor, token_ids: np.ndarray) -> Tensor:
        config = self.config
        pad = self.vocab.pad_id
        if config.pooling == "cls":
            pooled = hidden[:, 0, :]
        elif config.pooling == "mean":
            keep = (token_ids != pad).astype(np.float32)[:, :, None]
            weights = Tensor(keep / np.maximum(keep.sum(axis=1, keepdims=True), 1.0))
            pooled = (hidden * weights).sum(axis=1)
        else:  # last non-pad token (GPT-2 style)
            lengths = (token_ids != pad).sum(axis=1)
            rows = np.arange(token_ids.shape[0])
            pooled = hidden[rows, np.maximum(lengths - 1, 0), :]
        return pooled

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Class logits ``(B, n_classes)`` from a token-id batch."""
        mask = attention_mask_from_padding(token_ids, self.vocab.pad_id)
        hidden = self.encoder(token_ids, padding_mask=mask)
        if self.config.encoder_decoder:
            batch = token_ids.shape[0]
            query = self.decoder_query(np.zeros((batch, 1), dtype=np.int64))
            decoded = self.decoder_block(query, hidden, memory_padding_mask=mask)
            pooled = self.decoder_norm(decoded)[:, 0, :]
        else:
            pooled = self._pool(hidden, token_ids)
        return self.classifier(self.pooler(pooled).tanh())

    def lm_logits(self, token_ids: np.ndarray) -> Tensor:
        """Token logits ``(B, T, V)`` for the pretraining objectives."""
        mask = attention_mask_from_padding(token_ids, self.vocab.pad_id)
        hidden = self.encoder(token_ids, padding_mask=mask)
        return self.lm_head(hidden)

    # ------------------------------------------------------------------
    def classification_loss(
        self, token_ids: np.ndarray, labels: np.ndarray
    ) -> Tensor:
        return cross_entropy(self.forward(token_ids), labels)

    def _infer(
        self,
        texts: list[str],
        batch_size: int,
        head: Callable[[Tensor], np.ndarray],
    ) -> list[np.ndarray]:
        """``head`` of the class logits, per ``batch_size`` chunk of texts.

        Runs in eval mode without a tape, and restores the caller's
        train/eval mode afterwards, even when the forward raises.
        """
        from repro.nn.tensor import no_grad

        was_training = self.training
        self.eval()
        try:
            with no_grad():
                return [
                    head(self.forward(self.encode_batch(texts[i : i + batch_size])))
                    for i in range(0, len(texts), batch_size)
                ]
        finally:
            if was_training:
                self.train()

    def predict(self, texts: list[str], *, batch_size: int = 64) -> np.ndarray:
        """Predicted class ids for raw texts (inference mode)."""
        outputs = self._infer(
            texts, batch_size, lambda logits: logits.data.argmax(axis=1)
        )
        return np.concatenate(outputs) if outputs else np.empty(0, dtype=np.int64)

    def predict_proba(self, texts: list[str], *, batch_size: int = 64) -> np.ndarray:
        """Class probabilities for raw texts (used by LIME)."""
        outputs = self._infer(
            texts, batch_size, lambda logits: logits.softmax(axis=-1).data
        )
        if not outputs:
            return np.empty((0, self.n_classes))
        return np.concatenate(outputs)
