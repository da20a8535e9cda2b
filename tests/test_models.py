"""Tests for the transformer baselines: configs, classifier, pretraining, trainer."""

import numpy as np
import pytest

from repro.core.labels import DIMENSIONS
from repro.models.classifier import TransformerClassifier
from repro.models.config import MODEL_CONFIGS, ModelConfig, scaled_for_tests
from repro.models.pretrain import build_pretraining_corpus, mask_tokens, pretrain
from repro.models.trainer import Trainer
from repro.text.vocab import Vocabulary


@pytest.fixture(scope="module")
def vocab(small_dataset):
    return Vocabulary.build(small_dataset.texts, max_size=800)


def _tiny(name: str) -> ModelConfig:
    return scaled_for_tests(MODEL_CONFIGS[name])


class TestConfigs:
    def test_all_six_baselines_configured(self):
        assert set(MODEL_CONFIGS) == {
            "BERT", "DistilBERT", "MentalBERT", "Flan-T5", "XLNet", "GPT-2.0",
        }

    def test_paper_hyperparameters(self):
        # §III-A: BERT family lr 1e-3 batch 16; Flan-T5 3e-4 batch 8;
        # XLNet 1e-3 batch 8; GPT-2 3e-4 batch 4; all 10 epochs.
        assert MODEL_CONFIGS["BERT"].learning_rate == 1e-3
        assert MODEL_CONFIGS["BERT"].batch_size == 16
        assert MODEL_CONFIGS["Flan-T5"].learning_rate == 3e-4
        assert MODEL_CONFIGS["Flan-T5"].batch_size == 8
        assert MODEL_CONFIGS["XLNet"].batch_size == 8
        assert MODEL_CONFIGS["GPT-2.0"].learning_rate == 3e-4
        assert MODEL_CONFIGS["GPT-2.0"].batch_size == 4
        assert all(c.epochs == 10 for c in MODEL_CONFIGS.values())

    def test_architectural_distinctions(self):
        assert MODEL_CONFIGS["DistilBERT"].n_layers < MODEL_CONFIGS["BERT"].n_layers
        assert MODEL_CONFIGS["MentalBERT"].pretrain_domain == "mental_health"
        assert MODEL_CONFIGS["BERT"].pretrain_domain == "mixed"
        assert MODEL_CONFIGS["Flan-T5"].encoder_decoder
        assert MODEL_CONFIGS["XLNet"].relative_positions
        assert not MODEL_CONFIGS["XLNet"].use_absolute_positions
        assert MODEL_CONFIGS["GPT-2.0"].causal
        assert MODEL_CONFIGS["GPT-2.0"].pooling == "last"

    def test_mentalbert_pretrains_longer(self):
        assert (
            MODEL_CONFIGS["MentalBERT"].pretrain_steps
            > MODEL_CONFIGS["BERT"].pretrain_steps
        )

    def test_invalid_pooling(self):
        with pytest.raises(ValueError):
            ModelConfig(name="x", pooling="bogus")

    def test_invalid_objective(self):
        with pytest.raises(ValueError):
            ModelConfig(name="x", pretrain_objective="bogus")


class TestClassifier:
    @pytest.mark.parametrize("name", list(MODEL_CONFIGS))
    def test_forward_all_architectures(self, name, vocab):
        model = TransformerClassifier(_tiny(name), vocab, len(DIMENSIONS))
        token_ids = model.encode_batch(["i feel alone", "my job drains me today"])
        logits = model(token_ids)
        assert logits.shape == (2, 6)

    def test_encode_batch_pads(self, vocab):
        model = TransformerClassifier(_tiny("BERT"), vocab, 6)
        batch = model.encode_batch(["one", "one two three four"])
        assert batch.shape[0] == 2
        assert (batch[0] == vocab.pad_id).sum() > 0

    def test_cls_token_prepended(self, vocab):
        model = TransformerClassifier(_tiny("BERT"), vocab, 6)
        batch = model.encode_batch(["hello"])
        assert batch[0, 0] == vocab.cls_id

    def test_instruction_prefix_prepended(self, vocab):
        model = TransformerClassifier(_tiny("Flan-T5"), vocab, 6)
        batch = model.encode_batch(["hello"])
        prefix = MODEL_CONFIGS["Flan-T5"].instruction_prefix.split()
        assert batch[0, : len(prefix)].tolist() == [vocab[t] for t in prefix]

    def test_predict_returns_ids(self, vocab):
        model = TransformerClassifier(_tiny("BERT"), vocab, 6)
        ids = model.predict(["i feel alone", "my job is gone"])
        assert ids.shape == (2,)
        assert all(0 <= i < 6 for i in ids)

    def test_predict_proba_normalised(self, vocab):
        model = TransformerClassifier(_tiny("GPT-2.0"), vocab, 6)
        probs = model.predict_proba(["i cannot sleep at night"])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    @pytest.mark.parametrize("method", ["predict", "predict_proba"])
    @pytest.mark.parametrize("training", [False, True])
    def test_inference_keeps_the_callers_mode(self, vocab, method, training):
        """Regression: predict and predict_proba ended with an unconditional
        train(), so dropout went live on a model the caller had put in eval."""
        model = TransformerClassifier(_tiny("BERT"), vocab, 6)
        if training:
            model.train()
        else:
            model.eval()
        getattr(model, method)(["i feel alone", "my job is gone"])
        assert all(module.training is training for module in model.modules())

    def test_vocab_without_specials_rejected(self):
        bare = Vocabulary(["a", "b"], specials=False)
        with pytest.raises(ValueError):
            TransformerClassifier(_tiny("BERT"), bare, 6)

    def test_lm_logits_shape(self, vocab):
        model = TransformerClassifier(_tiny("BERT"), vocab, 6)
        token_ids = model.encode_batch(["i feel alone tonight"])
        logits = model.lm_logits(token_ids)
        assert logits.shape == (1, token_ids.shape[1], len(vocab))


class TestPretraining:
    def test_corpus_domains_differ(self):
        domain = build_pretraining_corpus("mental_health", size=60, seed=5)
        mixed = build_pretraining_corpus("mixed", size=60, seed=5)
        assert len(domain) == len(mixed) > 0
        # The mixed corpus contains general-domain text absent from the
        # domain corpus.
        assert any("forum" in t.lower() or "weather" in t.lower() for t in mixed)

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            build_pretraining_corpus("bogus")

    def test_mask_tokens_contract(self):
        rng = np.random.default_rng(0)
        ids = np.arange(5, 45).reshape(4, 10)
        corrupted, targets = mask_tokens(
            ids, mask_id=4, pad_id=0, vocab_size=50, rng=rng, mask_prob=0.5
        )
        selected = targets != -100
        assert selected.any()
        # Unselected positions are untouched.
        np.testing.assert_array_equal(corrupted[~selected], ids[~selected])
        # Targets hold the original token at selected positions.
        np.testing.assert_array_equal(targets[selected], ids[selected])

    def test_mask_tokens_never_selects_pads(self):
        rng = np.random.default_rng(1)
        ids = np.zeros((2, 6), dtype=np.int64)
        _, targets = mask_tokens(
            ids, mask_id=4, pad_id=0, vocab_size=10, rng=rng, mask_prob=0.9
        )
        assert (targets == -100).all()

    def test_mlm_pretraining_reduces_loss(self, vocab, small_dataset):
        model = TransformerClassifier(_tiny("BERT"), vocab, 6)
        losses = pretrain(
            model, small_dataset.texts, steps=30, objective="mlm", seed=0
        )
        assert len(losses) == 30
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_clm_pretraining_reduces_loss(self, vocab, small_dataset):
        model = TransformerClassifier(_tiny("GPT-2.0"), vocab, 6)
        losses = pretrain(
            model, small_dataset.texts, steps=30, objective="clm", seed=0
        )
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_invalid_objective_rejected(self, vocab):
        model = TransformerClassifier(_tiny("BERT"), vocab, 6)
        with pytest.raises(ValueError):
            pretrain(model, ["text"], steps=1, objective="bogus")

    def test_empty_corpus_rejected(self, vocab):
        model = TransformerClassifier(_tiny("BERT"), vocab, 6)
        with pytest.raises(ValueError):
            pretrain(model, [], steps=1, objective="mlm")


class TestTrainer:
    def test_fit_improves_over_chance(self, vocab, small_dataset):
        from dataclasses import replace

        config = replace(_tiny("BERT"), epochs=6)
        trainer = Trainer(config, vocab)
        split = small_dataset.fixed_split(train=100, validation=20, test=22)
        trainer.fit(split.train.texts, split.train.labels)
        accuracy = trainer.score(split.test.texts, split.test.labels)
        assert accuracy > 1.0 / 6 + 0.1  # clearly above chance

    def test_val_tracking(self, vocab, small_dataset):
        from dataclasses import replace

        config = replace(_tiny("BERT"), epochs=2)
        trainer = Trainer(config, vocab)
        split = small_dataset.fixed_split(train=100, validation=20, test=22)
        result = trainer.fit(
            split.train.texts,
            split.train.labels,
            val_texts=split.validation.texts,
            val_labels=split.validation.labels,
        )
        assert len(result.val_accuracies) == 2
        assert result.train_losses

    def test_empty_training_rejected(self, vocab):
        trainer = Trainer(_tiny("BERT"), vocab)
        with pytest.raises(ValueError):
            trainer.fit([], [])

    def test_length_mismatch_rejected(self, vocab):
        trainer = Trainer(_tiny("BERT"), vocab)
        with pytest.raises(ValueError):
            trainer.fit(["a"], [])

    def test_predict_returns_dimensions(self, vocab, small_dataset):
        trainer = Trainer(_tiny("BERT"), vocab)
        trainer.fit(small_dataset.texts[:40], small_dataset.labels[:40])
        predictions = trainer.predict(small_dataset.texts[:5])
        assert all(p in DIMENSIONS for p in predictions)

    def test_pretraining_cache_reused(self, vocab, small_dataset):
        from dataclasses import replace

        config = replace(
            _tiny("BERT"), pretrain_objective="mlm", pretrain_steps=5
        )
        first = Trainer(config, vocab, use_pretraining_cache=True)
        first.maybe_pretrain()
        second = Trainer(config, vocab, use_pretraining_cache=True)
        second.maybe_pretrain()
        state_a = first.model.state_dict()
        state_b = second.model.state_dict()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_pretraining_disk_cache_roundtrip(
        self, vocab, monkeypatch, tmp_path
    ):
        from dataclasses import replace

        import repro.models.trainer as trainer_module

        config = replace(
            _tiny("BERT"), pretrain_objective="mlm", pretrain_steps=5
        )
        monkeypatch.setenv("REPRO_PRETRAIN_CACHE", str(tmp_path))
        monkeypatch.setattr(trainer_module, "_PRETRAINED_CACHE", {})
        first = Trainer(config, vocab, use_pretraining_cache=True)
        first.maybe_pretrain()
        assert list(tmp_path.glob("*.npz")), "checkpoint not written to disk"

        # A fresh process is simulated by clearing the in-memory cache;
        # the second trainer must restore identical weights from disk.
        monkeypatch.setattr(trainer_module, "_PRETRAINED_CACHE", {})
        second = Trainer(config, vocab, use_pretraining_cache=True)
        second.maybe_pretrain()
        assert not second.result.pretrain_losses  # no re-pretraining
        state_a = first.model.state_dict()
        state_b = second.model.state_dict()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_pretraining_disk_cache_disabled(self, vocab, monkeypatch, tmp_path):
        from dataclasses import replace

        import repro.models.trainer as trainer_module

        config = replace(
            _tiny("BERT"), pretrain_objective="mlm", pretrain_steps=5
        )
        monkeypatch.setenv("REPRO_PRETRAIN_CACHE", "0")
        monkeypatch.setattr(trainer_module, "_PRETRAINED_CACHE", {})
        trainer = Trainer(config, vocab, use_pretraining_cache=True)
        trainer.maybe_pretrain()
        assert trainer.result.pretrain_losses  # really pretrained
        assert not list(tmp_path.glob("*.npz"))


class TestModelPersistence:
    def test_classifier_weights_roundtrip(self, vocab, small_dataset, tmp_path):
        import numpy as np

        from repro.nn.serialization import load_weights, save_weights

        trainer = Trainer(_tiny("BERT"), vocab)
        trainer.fit(small_dataset.texts[:60], small_dataset.labels[:60])
        path = tmp_path / "bert.npz"
        save_weights(trainer.model, path)

        clone = TransformerClassifier(_tiny("BERT"), vocab, 6)
        load_weights(clone, path)
        texts = small_dataset.texts[:8]
        np.testing.assert_array_equal(
            trainer.model.predict(texts), clone.predict(texts)
        )

    def test_wrong_config_rejected_on_load(self, vocab, tmp_path):
        from repro.nn.serialization import load_weights, save_weights

        source = TransformerClassifier(_tiny("BERT"), vocab, 6)
        path = tmp_path / "bert.npz"
        save_weights(source, path)
        # Flan-T5's encoder-decoder layout has extra parameters, so the
        # state dicts cannot match.  (BERT vs GPT-2 share a parameter
        # layout — causality is a mask, not a weight.)
        other = TransformerClassifier(_tiny("Flan-T5"), vocab, 6)
        with pytest.raises(ValueError):
            load_weights(other, path)
