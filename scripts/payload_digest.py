#!/usr/bin/env python3
"""Print one sha256 digest per CLI payload, or compare them with another revision.

Runs a fixed list of CLI invocations, each in a fresh temporary directory:
the figure script, `calibrate`, `metrics` at N = 100, at N = 10**6 and at
extreme inputs, `pmf`, `scan` and `sample` as CSV with a sidecar manifest and
as JSON, and inputs that must exit 2.  A payload is the exit code, stdout,
stderr and every file the invocation wrote, with each manifest `timestamp`
masked, so two runs of the same code give the same digests.  Each line reads

    <name> <exit code> <sha256>

With `--compare REV` the same list also runs from a detached `git worktree` of
REV in a temporary directory, which is removed afterwards; the payloads whose
digests differ are printed, and the exit status is 1 if any do.  Without it,
the exit status is 1 if any exit code is not the one listed.

The first line reads `fingerprint <fingerprint>`: numpy's version and a short
sha256 of `np.exp` and `np.log` over fixed probes.  numpy's SIMD `exp` and
`log` may differ in the last bit between CPUs, and its random streams between
versions, so digests compare only under one fingerprint.
`tests/payload_digests.json` holds `{name: [exit code, digest]}` under each
fingerprint it was made on, and `tests/test_payload_digest.py` compares the
running digests with the entry for the running fingerprint, if there is one.
A change that moves a payload rewrites every entry it can make, and declares
it; an entry is the script's output under its first line's fingerprint.

    python scripts/payload_digest.py
    python scripts/payload_digest.py --compare HEAD~1
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

CSV = ("--format", "csv", "-o", "out.csv")
JSON = ("--format", "json", "-o", "out.json")
MODEL = ("--p", "0.4", "--rho", "-0.26", "--n", "100")
SAMPLE = ("sample", *MODEL, "--count", "1000", "--seed", "1")

# (name, expected exit code, CLI arguments); None runs the figure script.
# The extreme inputs: a subnormal p, where 1/p overflows, p near 1 with rho
# near its lower bound, in the joined --rho=-x form that an exponent-form
# negative needs, and rho = 0 at p = 1e-12, within 1e-10 of a lower bound of
# -1e-12, and at p = 1e-200, where q = p**2 underflows to 0.0.  The N = 10**6
# points read their risk metrics from the span of the pmf that holds every
# non-zero mass; at rho = 0.2 the log-sum-exp window is a small slice of the
# support, and at rho = 0 it is the whole support, with a temporary of N+1
# floats.  At p = 0.634, rho = 0.690218, N = 99858 the span holds a gap of
# masses below the floor between the two branches.  At p = 0.2,
# rho = 1 - 5e-7, N = 1000 every branch term in the gap-800 window is below
# -1/2, but the one at l = 0 is -0.22, so the window is not narrowed.
PAYLOADS = [
    ("figures", 0, None),
    ("calibrate", 0, ("calibrate", *MODEL)),
    ("metrics_n100", 0, ("metrics", *MODEL)),
    ("metrics_n1e6_rho0.2", 0, ("metrics", "--p", "0.3", "--rho", "0.2", "--n", "1000000")),
    ("metrics_n1e6_rho0", 0, ("metrics", "--p", "0.4", "--rho", "0", "--n", "1000000")),
    ("metrics_gap", 0, ("metrics", "--p", "0.634", "--rho", "0.690218", "--n", "99858")),
    ("metrics_p1e-310", 0, ("metrics", "--p", "1e-310", "--rho", "0.5", "--n", "10")),
    ("metrics_p_near_1", 0, ("metrics", "--p", "0.999999999", "--rho=-7.99e-10", "--n", "100")),
    ("metrics_p1e-12", 0, ("metrics", "--p", "1e-12", "--rho", "0", "--n", "10")),
    ("metrics_p1e-200", 0, ("metrics", "--p", "1e-200", "--rho", "0", "--n", "10")),
    ("pmf_csv", 0, ("pmf", *MODEL, *CSV)),
    ("pmf_json", 0, ("pmf", *MODEL, *JSON)),
    ("pmf_near_upper_csv", 0, ("pmf", "--p", "0.2", "--rho", "0.9999995", "--n", "1000", *CSV)),
    ("scan_csv", 0, ("scan", "--p", "0.4", "--n", "100", *CSV)),
    ("scan_json", 0, ("scan", "--p", "0.4", "--n", "100", *JSON)),
    ("sample_csv", 0, (*SAMPLE, *CSV)),
    ("sample_json", 0, (*SAMPLE, *JSON)),
    ("exit2_rho_below_lower", 2, ("metrics", "--p", "0.4", "--rho=-0.7", "--n", "10")),
    ("exit2_rho_at_upper", 2, ("metrics", "--p", "0.4", "--rho", "1.0", "--n", "10")),
    ("exit2_rho_nan", 2, ("metrics", "--p", "0.4", "--rho", "nan", "--n", "10")),
]

TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def fingerprint() -> str:
    """numpy's version and a short sha256 of `np.exp` and `np.log` over fixed probes.

    The exp probe is 65537 even points of [-708, 0], the range of the masses'
    `exp`; the log probe is 65536 doubles spread by their bits over
    (0, 1e300], subnormals included.  Both are built by exact or correctly
    rounded arithmetic, so only the functions' own bits can move the hash:
    on one x86 machine the AVX-512 and AVX2 dispatch paths of numpy's `exp`
    give two fingerprints.
    """
    top = np.array(1e300).view(np.int64)
    probes = (np.exp(np.linspace(-708.0, 0.0, 65537)),
              np.log((np.arange(1, 65537) * (top // 65536)).view(np.float64)))
    digest = hashlib.sha256(b"".join(probe.tobytes() for probe in probes))
    return f"numpy-{np.__version__}-{digest.hexdigest()[:16]}"


def run_payload(root: Path, argv) -> tuple[int, str]:
    """Run one invocation against the package under `root`; (exit code, digest)."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    if argv is None:
        cmd = [sys.executable, str(root / "scripts" / "reproduce_figures.py"),
               "--outdir", "figs"]
    else:
        cmd = [sys.executable, "-m", "dandelion_risk", *argv]
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=600)
        digest = hashlib.sha256()
        parts = [b"exit %d" % proc.returncode, proc.stdout, proc.stderr]
        for path in sorted(Path(work).rglob("*")):
            if path.is_file():
                parts += [str(path.relative_to(work)).encode(), path.read_bytes()]
        for part in parts:
            masked = TIMESTAMP.sub(b'"timestamp": ""', part)
            digest.update(b"%d:" % len(masked) + masked)
    return proc.returncode, digest.hexdigest()


def digests(root: Path) -> dict:
    """{name: (exit code, digest)} for every payload, each line printed as it runs."""
    found = subprocess.run(
        [sys.executable, "-c", "import dandelion_risk; print(dandelion_risk.__file__)"],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True,
        text=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"dandelion_risk imports from {found}, not from {root}/src")
    out = {}
    for name, _, argv in PAYLOADS:
        out[name] = run_payload(root, argv)
        print(name, *out[name], flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="REV",
                        help="Also run the payloads from a git worktree of REV "
                             "and list those whose digests differ.")
    args = parser.parse_args()
    print("fingerprint", fingerprint(), flush=True)
    here = digests(ROOT)
    if args.compare is None:
        wrong = [name for name, code, _ in PAYLOADS if here[name][0] != code]
        for name in wrong:
            print(f"unexpected exit code: {name}", file=sys.stderr)
        return 1 if wrong else 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.compare], check=True)
        try:
            print(f"--- {args.compare}")
            there = digests(tree)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tree)], check=True)
    differ = [name for name, _, _ in PAYLOADS if here[name] != there[name]]
    print("differ:", " ".join(differ) if differ else "none")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
