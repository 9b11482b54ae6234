"""Record the exit code and stdout sha256 of every seed-independent operation.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/record_digests.py

Writes ``bench/expected.json``, which the benchmark's oracle compares every
``audit``, ``verify-bounds`` and ``spectrum`` operation against. Run it only
at a commit whose output is known to be right: the digests define "correct".
"""

import contextlib
import io
import json

from shorsim import cli

import workloads as wl


def main() -> None:
    digests = {}
    for argv in wl.seed_independent_ops():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digests[wl.op_key(argv)] = {
            "exit": code, "sha256": wl.digest(out.getvalue()),
        }
    wl.EXPECTED_PATH.write_text(
        json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(digests)} digests to {wl.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
