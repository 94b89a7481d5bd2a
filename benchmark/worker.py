"""One cold round of a workload, in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON OUT_JSON SRC_DIR [--setup-only] [--trace]

The round times its set-up (from just before `import toric_hodge` until
every problem document is written and every fan is built), then every
operation of the corpus, and writes the outputs, the timings and the peak
resident memory to OUT_JSON.  Checking the outputs is left to the parent
process, so that this process holds only the program and its inputs.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(argv):
    spec_path, out_path, src_dir = argv[:3]
    flags = set(argv[3:])
    t0 = time.perf_counter()
    import toric_hodge  # noqa: F401  (timed as part of set-up)
    from toric_hodge import cli, hilbert
    from toric_hodge.fans import Fan

    module_dir = os.path.dirname(os.path.abspath(toric_hodge.__file__))
    if os.path.dirname(module_dir) != os.path.abspath(src_dir):
        raise SystemExit(f"toric_hodge imported from {module_dir}, not from {src_dir}")
    with open(spec_path, encoding="utf-8") as fh:
        corpus = json.load(fh)
    doc_dir = os.path.join(os.path.dirname(out_path), f"docs-{os.getpid()}")
    os.makedirs(doc_dir)
    paths = {}
    for name, doc in corpus["docs"].items():
        paths["@" + name] = os.path.join(doc_dir, name + ".json")
        with open(paths["@" + name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    fans = {
        name: Fan(dim=len(f["rays"][0]), rays=tuple(map(tuple, f["rays"])),
                  maximal_cones=tuple(map(tuple, f["max_cones"])))
        for name, f in corpus["fans"].items()
    }
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}

    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            import tracing  # the benchmark directory is on sys.path as the script's

            tracer = tracing.Tracer()
            tracer.install()
        contexts = {}

        def run(op):
            if op["call"] == "cli":
                argv = [paths.get(a, a) for a in op["argv"]]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
                return json.loads(buf.getvalue())
            if op["call"] == "context":
                contexts[op["fan"]] = hilbert.build_context(fans[op["fan"]])
                return None
            return hilbert.h_of_s(contexts[op["fan"]], tuple(op["s"]))

        outputs, errors, times = {}, {}, {}
        start = time.perf_counter()
        for op in corpus["ops"]:
            t = time.perf_counter()
            try:
                outputs[op["id"]] = run(op)
            except Exception as exc:  # every failure is counted, and the round goes on
                errors[op["id"]] = f"{type(exc).__name__}: {exc}"
            times[op["id"]] = time.perf_counter() - t
        wall_s = time.perf_counter() - start
        result.update(outputs=outputs, errors=errors, times=times, wall_s=wall_s,
                      peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics(wall_s)

    for name in os.listdir(doc_dir):
        os.remove(os.path.join(doc_dir, name))
    os.rmdir(doc_dir)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
