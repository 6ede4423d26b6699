"""Start ``repro serve`` with layer tracing and GC accounting installed.

Wrappers and ``gc.callbacks`` go in first; then the CLI's own ``main``
runs with the remaining arguments, exactly as ``python -m repro`` would.
When the server drains (SIGTERM), the spans are written to ``TRACE_OUT``.

Usage::

    python repobench/serve_launcher.py TRACE_OUT serve --model M --port 0
"""

from __future__ import annotations

import sys

from tracing import TARGETS, Tracer, install

#: modules the serve path imports, loaded before wrappers rebind globals.
SERVE_MODULES = (
    "repro.__main__",
    "repro.serve.server",
    "repro.serve.batcher",
    "repro.serve.registry",
    "repro.detector.pipeline",
    "repro.detector.batch",
    "repro.deob",
    "repro.deob.engine",
    "repro.features.extractor",
    "repro.flows.graph",
    "repro.rules.context",
)


def main() -> int:
    trace_out = sys.argv[1]
    tracer = Tracer()
    install(
        tracer,
        targets=tuple(t for t in TARGETS if not t.layer.startswith("scan.")),
        preload=SERVE_MODULES,
    )
    tracer.watch_gc()
    from repro.__main__ import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
