"""SHA-256 of every CLI artifact on the four benchmark inputs, in all five modes.

Not a test: a command whose output two source trees can be compared by.
It generates the inputs of the four workloads of ``bench/workloads.py`` at
seed 1, runs ``python -m daereach.cli`` on them in each of the modes
``index``, ``decouple``, ``check-consistency``, ``reach`` and ``verify``
(one BLAS thread, so that the bytes do not depend on the host's threads),
and prints one line per input file and per artifact::

    <workload> <mode> exit=<code> <file> <sha256>

``verdict.json`` is hashed without its ``timings``, as canonical JSON.
Run it from the root of a checkout, optionally on another checkout's
source tree (both the inputs and the CLI then come from that tree)::

    python tests/artifacts.py [--src path/to/src] [--work scratch/dir]

and compare the outputs with ``diff``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MODES = ("index", "decouple", "check-consistency", "reach", "verify")
SEED = 1


def _digest(path):
    if path.name == "verdict.json":
        document = json.loads(path.read_text(encoding="utf-8"))
        document.pop("timings", None)
        data = json.dumps(document, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def _argv(inputs, mode, out_dir):
    argv = inputs.cli_argv(out_dir)
    argv[argv.index("--mode") + 1] = mode
    return argv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(REPO / "src"), help="the daereach source tree")
    parser.add_argument("--work", default=None, help="directory for inputs and outputs")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    work = None if args.work is None else str(Path(args.work).resolve())
    sys.path[:0] = [src, str(REPO)]
    from bench.workloads import WORKLOADS, generate

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=src)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(dir=work) as work:
        os.chdir(work)  # the paths, which verdict.json records, are relative to it
        for name, workload in WORKLOADS.items():
            inputs = generate(workload, SEED, Path(name) / "inputs")
            for path in sorted(inputs.directory.iterdir()):
                print(f"{name} inputs - {path.name} {_digest(path)}")
            for mode in MODES:
                out_dir = Path(name) / mode
                done = subprocess.run(
                    [sys.executable, "-m", "daereach.cli", *_argv(inputs, mode, out_dir)],
                    env=env, capture_output=True, text=True,
                )
                for path in sorted(out_dir.iterdir()):
                    print(f"{name} {mode} exit={done.returncode} {path.name} {_digest(path)}")
        os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
