"""Record the CSVs of the small command configs that tests/test_cli.py compares.

    PYTHONPATH=src python tests/record_outputs.py

runs every config in RECORDED_CASES at RECORDED_SEED and rewrites
tests/data/recorded/<command>/ with the CSVs it writes.
test_every_command_reruns_to_identical_csv_bytes runs the same configs
and compares each CSV with its recorded copy, cell by cell.  Re-record only
after a change that is meant to move a number, and list each moved file
and column, with its largest relative move, in CHANGES.md.  Never
re-record to make a defect pass.
"""

import pathlib
import shutil
import sys
import tempfile

RECORDED_DIR = pathlib.Path(__file__).resolve().parent / "data" / "recorded"
RECORDED_SEED = 11
# one config per command, small enough for tier-1
RECORDED_CASES = [
    ["simulate", "n=16", "steps=10", "sample_every=5"],
    ["residuals", "n=16", "steps=10", "sample_every=5"],
    ["verify-null", "null_samples=2000"],
    ["verify-cone", "rtol=1e-3"],
    ["verify-norms", "n=16", "norm_tuples=2", "n_t=64"],
    ["scaling", "n=16"],
    ["probe-bilinear", "n=16", "probe_samples=2", "n_active=16"],
]


def run_case(args, out):
    """Run one config at the recorded seed into the directory out; returns the exit status."""
    from monopole_lab.cli import main

    return main([*args, "--seed", str(RECORDED_SEED), "--out", str(out)])


def record():
    for args in RECORDED_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "run"
            status = run_case(args, out)
            if status != 0:
                sys.exit(f"{' '.join(args)} exited {status}; nothing recorded for it")
            target = RECORDED_DIR / args[0]
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for path in sorted(out.glob("*.csv")):
                shutil.copyfile(path, target / path.name)
                print(f"recorded {target / path.name}")


if __name__ == "__main__":
    record()
