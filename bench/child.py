"""One benchmark child process: an import probe, or one `nswp verify` call.

    python3 bench/child.py import <out.json> <t_spawn>
    python3 bench/child.py verify|trace <out.json> <t_spawn> <run_dir> <verify args...>

``t_spawn`` is CLOCK_MONOTONIC just before the parent started this process,
so setup_s covers interpreter start-up and ``import nswp.cli``. ``verify``
times ``nswp.cli.main(["verify", ...])`` in-process; ``trace`` does the same
with span wrappers installed and also writes the spans. The parent sets
PYTHONPATH to the checkout's ``src`` and pins BLAS/OpenMP threads to 1.
"""

import json
import resource
import sys
import time


def _versions() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main() -> int:
    mode, out_path, t_spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    import nswp.cli
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_spawn
    result = {"setup_s": setup_s, "nswp_file": nswp.__file__, "versions": _versions()}

    if mode != "import":
        run_dir, verify_args = sys.argv[4], sys.argv[5:]
        argv = ["verify", *verify_args, "--out", run_dir]
        rec = None
        if mode == "trace":
            import layers
            import spans
            rec = spans.SpanRecorder()
            result["bindings"] = layers.install(rec)
        t0 = time.perf_counter()
        if rec is None:
            code = nswp.cli.main(argv)
        else:
            code = rec.call(layers.ROOT, nswp.cli.main, argv)
        result["wall_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rec is not None:
            result["trace"] = rec.to_dict()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
