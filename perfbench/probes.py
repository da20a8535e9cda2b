"""Span probes around the program's public functions.

Installed by the traced launchers (``serve.py --trace-out`` and
``cv.py``) before the program runs.  Every probe times a call from
outside; nothing in ``src/`` knows it is traced.
"""

from __future__ import annotations

import http.server

from spans import RID, Recorder


def install_server_probes(recorder: Recorder, index: dict[str, int]) -> list:
    """Probe the HTTP gateway, fleet, batching server, engine and models.

    ``index`` maps each benchmark input text to its position, which
    becomes the request id of every span serving it.  Returns a list
    that fills with each inference server as it starts, so the launcher
    can read their engine counters at exit.
    """
    from repro.engine.engine import PredictionEngine
    from repro.engine.server import BatchingServerBase, ServerStats
    from repro.ml.logistic import LogisticRegression
    from repro.models.classifier import TransformerClassifier
    from repro.serving import gateway
    from repro.serving.fleet import ModelFleet
    from repro.text.tfidf import TfidfVectorizer

    handler = http.server.BaseHTTPRequestHandler
    parse_request = handler.parse_request
    handle_one_request = handler.handle_one_request
    send_response = handler.send_response

    # The handler span runs from the start of parse_request (the request
    # line has been read) to the return of handle_one_request; the write
    # span from send_response to that same return, which is after the
    # body write.
    def probed_parse_request(self):
        recorder.begin("gateway.handler")
        span = recorder.begin("gateway.parse")
        try:
            return parse_request(self)
        finally:
            recorder.end(span)

    def probed_send_response(self, *args, **kwargs):
        if recorder.open_span("gateway.write") is None:
            recorder.begin("gateway.write")
        return send_response(self, *args, **kwargs)

    def probed_handle_one_request(self):
        try:
            return handle_one_request(self)
        finally:
            for name in ("gateway.write", "gateway.handler"):
                span = recorder.open_span(name)
                if span is not None:
                    recorder.end(span)

    handler.parse_request = probed_parse_request
    handler.send_response = probed_send_response
    handler.handle_one_request = probed_handle_one_request
    recorder.wrap(handler, "handle", "gateway.connection")

    def decode_probe(attr: str, first_text) -> None:
        original = getattr(gateway, attr)

        def probed(raw):
            span = recorder.begin("protocol.decode")
            try:
                request = original(raw)
            finally:
                recorder.end(span)
            rid = index.get(first_text(request))
            span[RID] = rid
            outer = recorder.open_span("gateway.handler")
            if outer is not None:
                outer[RID] = rid
            return request

        setattr(gateway, attr, probed)

    decode_probe("parse_predict_request", lambda request: request.text)
    decode_probe("parse_predict_batch_request", lambda request: request.texts[0])
    recorder.wrap(gateway, "format_prediction", "protocol.encode")
    recorder.wrap(ModelFleet, "route", "fleet.route")

    submit = BatchingServerBase.submit

    def probed_submit(self, text):
        span = recorder.begin("server.admit", index.get(text))
        try:
            future = submit(self, text)
        finally:
            recorder.end(span)
        result = future.result

        def probed_result(*args, **kwargs):
            wait = recorder.begin("server.wait", span[RID])
            try:
                return result(*args, **kwargs)
            finally:
                recorder.end(wait)

        future.result = probed_result
        return future

    BatchingServerBase.submit = probed_submit
    recorder.wrap(BatchingServerBase, "predict", "server.predict")
    recorder.wrap(ServerStats, "record_batch", "server.stats")

    servers: list = []
    start = BatchingServerBase.start

    def probed_start(self):
        servers.append(self)
        return start(self)

    BatchingServerBase.start = probed_start
    recorder.wrap(
        PredictionEngine,
        "predict_proba",
        "engine.call",
        rid=lambda args: [index.get(text) for text in args[1]],
        size=lambda args: len(args[1]),
    )
    recorder.wrap(
        TfidfVectorizer, "transform", "text.transform", size=lambda args: len(args[1])
    )
    recorder.wrap(TransformerClassifier, "encode_ids", "text.encode", size=lambda args: 1)
    recorder.wrap(LogisticRegression, "predict_proba", "ml.predict")
    recorder.wrap(TransformerClassifier, "forward", "models.forward")
    return servers


def install_training_probes(recorder: Recorder) -> None:
    """Probe the layers only training runs: fits, fine-tuning, backward, steps."""
    from repro.ml.logistic import LogisticRegression
    from repro.ml.naive_bayes import GaussianNaiveBayes
    from repro.ml.svm import LinearSVM
    from repro.models.trainer import Trainer
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.text.tfidf import TfidfVectorizer

    recorder.wrap(TfidfVectorizer, "fit_transform", "text.fit")
    recorder.wrap(LogisticRegression, "fit", "ml.fit.lr")
    recorder.wrap(LinearSVM, "fit", "ml.fit.svm")
    recorder.wrap(GaussianNaiveBayes, "fit", "ml.fit.gnb")
    recorder.wrap(Trainer, "fit", "models.finetune")
    recorder.wrap(Tensor, "backward", "nn.backward")
    recorder.wrap(Adam, "step", "nn.optim_step")
