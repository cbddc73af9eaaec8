"""Run one langselect CLI verb in this (fresh) interpreter.

    python3 bench/child.py [--trace SPANS.json] -- VERB ARGS...

Without ``--trace`` nothing but ``langselect.cli.main`` is imported and
called, so untraced timings carry no wrappers.
"""
import sys


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, verb_args = argv[:split], argv[split + 1:]
    if not opts:
        from langselect import cli

        return cli.main(verb_args)
    import tracer

    from langselect import cli

    spans = tracer.install()
    try:
        return cli.main(verb_args)
    finally:
        tracer.write(spans, opts[1])


if __name__ == "__main__":
    sys.exit(main())
