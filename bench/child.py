"""Child process of the benchmark; run with PYTHONPATH pointing at src/.

    python bench/child.py setup
        prints the seconds spent importing genemagic and genemagic.cli and
        loading every canonical table.
    python bench/child.py trace SPANS_FILE ARG...
        runs ``genemagic ARG...`` with every layer function traced, writes
        the spans and call counts to SPANS_FILE and exits with the
        command's exit code.  Two more spans time the import of
        genemagic.cli and the installation of the tracer.

Nothing is imported before the clock starts except ``sys`` and ``time``,
which the interpreter has loaded already.
"""

import sys
import time

start = time.perf_counter_ns()


def setup() -> None:
    import genemagic
    import genemagic.cli  # noqa: F401

    for table_id in genemagic.CANONICAL_IDS:
        genemagic.load_canonical(table_id)
    print((time.perf_counter_ns() - start) / 1e9)


def trace(spans_file: str, argv: list[str]) -> int:
    before = time.perf_counter_ns()
    import genemagic.cli

    imported = time.perf_counter_ns()
    import tracer

    recorder = tracer.Tracer()
    tracer.install(recorder)
    ready = time.perf_counter_ns()
    code = recorder.run_op(0, genemagic.cli.main, argv)
    spans = recorder.spans + [
        tracer.Span("startup.import", before, imported, -1, 0),
        tracer.Span("bench.setup", imported, ready, -1, 0),
    ]
    tracer.dump(spans_file, spans, recorder.calls + tracer.cache_counts())
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup()
    else:
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
