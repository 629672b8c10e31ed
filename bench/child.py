"""Child process of the benchmark: timed start-up, or one traced CLI call.

    child.py setup <t_spawn> [params ...]
        import mrpgen, load each params file, print the timings as JSON
    child.py trace <t_spawn> <op> <parent> <spans.json> -- <mrpgen CLI args>
        run ``mrpgen.cli.main`` with the tracer installed, write the spans,
        exit with the CLI's exit code

``t_spawn`` is the parent's ``time.perf_counter()`` just before the spawn;
on Linux that clock is CLOCK_MONOTONIC, which all processes share, so the
difference to this process's first reading is the interpreter start-up.
"""

import json
import sys
import time

T_START = time.perf_counter()


def main(argv: list[str]) -> int:
    mode, t_spawn = argv[0], float(argv[1])
    t_import = time.perf_counter()
    from mrpgen import cli, formats
    t_imported = time.perf_counter()
    if mode == "setup":
        for path in argv[2:]:
            formats.load_params(path)
        print(json.dumps({"interp_s": T_START - t_spawn,
                          "import_s": t_imported - t_import,
                          "load_s": time.perf_counter() - t_imported}))
        return 0
    from tracer import Tracer
    op, parent, spans_path = argv[2], argv[3], argv[4]
    cli_args = argv[argv.index("--") + 1:]
    tracer = Tracer(op, root=parent)
    tracer.add_span("cli.interp", "cli", t_spawn, T_START)
    tracer.add_span("cli.import", "cli", t_import, t_imported)
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
