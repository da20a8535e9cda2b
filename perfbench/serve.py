"""Launch ``holistix-serve``, optionally with span probes installed.

    python3 perfbench/serve.py [--trace-out SPANS.json --inputs TEXTS.json] \\
        -- <holistix-serve arguments>

Without ``--trace-out`` this is ``holistix-serve`` itself.  With it, the
probes in :mod:`probes` wrap the serving stack's public functions before
``repro.serving.cli.main`` runs, spans stay in memory, and they are
written to ``SPANS.json`` once the server has drained after SIGTERM.
``TEXTS.json`` is the benchmark's input list; a text's position in it is
the request id of every span serving that text.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out")
    parser.add_argument("--inputs")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    recorder = servers = None
    if args.trace_out:
        from probes import install_server_probes
        from spans import Recorder

        with open(args.inputs, encoding="utf-8") as handle:
            index = {text: i for i, text in enumerate(json.load(handle))}
        recorder = Recorder()
        servers = install_server_probes(recorder, index)

    from repro.serving.cli import main as serve_main

    code = serve_main(serve_args)
    if recorder is not None:
        engine = {"padded_tokens": 0, "padded_tokens_naive": 0}
        for server in servers:
            stats = server.engine_stats()
            engine["padded_tokens"] += stats.padded_tokens
            engine["padded_tokens_naive"] += stats.padded_tokens_naive
        recorder.dump(args.trace_out, engine=engine)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
