"""Byte ledger of the CLI: one line per call of a fixed list.

    python tests/report_ledger.py ROOT [VAR=VALUE ...]

runs each call as `python -m ruelle_rand.cli` with PYTHONPATH=ROOT/src in
a fresh temporary directory, RUELLE_RAND_WORKERS removed from the
environment unless it is given, and prints the exit code and digests of
stdout, stderr and every file the call wrote. The temporary path is
replaced in both streams and the manifest's timestamp and wall_time are
masked in stdout, so two checkouts that produce the same bytes print the
same lines:

    diff <(python tests/report_ledger.py A) <(python tests/report_ledger.py B)

It imports nothing from the package, so it runs against any checkout.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile

# {tmp} stands for the temporary directory; the plot calls read the CSVs
# that earlier calls wrote
CALLS = [
    "spectrum --level 12 --seed 7 --emit-eigenfunction {tmp}/h.csv",
    "spectrum --level 12 --seed 0 --beta 10",
    "spectrum --level 8 --zero-noise",
    "spectrum --level 8 --zero-noise --beta 2",
    "spectrum --level 9 --seed 2 --beta 1000",
    "spectrum --level 8 --beta 700 --seed 14232521865600346940",
    "spectrum --level 10 --seed 1 --beta 700",
    "spectrum --level 10 --seed 0 --beta 700",
    "spectrum --level 4 --alphabet 5 --beta 3 --seed 4",
    "pressure --level 10 --replicas 256 --seed 3 --emit-birkhoff {tmp}/birkhoff.csv",
    "pressure --level 8 --replicas 8 --beta 10",
    "pressure --level 5 --replicas 16 --alphabet 3 --beta 0.5 --workers 2",
    "pressure --level 6 --replicas 16 --beta 400 --seed 1",
    "montecarlo --level 12 --replicas 1024 --workers 2 --seed 5 --csv {tmp}/mc.csv",
    "montecarlo --level 8 --replicas 64 --beta 2 --workers 2",
    "montecarlo --level 8 --replicas 16 --beta 700 --seed 1",
    "montecarlo --level 6 --replicas 4 --beta 200 --seed 0",
    "montecarlo --level 10 --replicas 4 --seed 8",
    "refine-study --levels 5,6,7 --replicas 16",
    "refine-study --levels 4,6,8 --replicas 16 --beta 0 --workers 2",
    "refine-study --levels 6,8,10 --replicas 32 --seed 3 --workers 2",
    "isometry-check --level 6 --trials 20",
    "sample-path --level 10 --seed 7 --csv {tmp}/path.csv",
    "plot --kind path --input {tmp}/path.csv --out {tmp}/path.svg",
    "plot --kind histogram --input {tmp}/mc.csv --out {tmp}/mc.svg",
    "plot --kind birkhoff --input {tmp}/birkhoff.csv --out {tmp}/birkhoff.svg",
]

MASKS = [(re.compile(rb'"timestamp":"[^"]*"'), b'"timestamp":"*"'),
         (re.compile(rb'"wall_time":[^,}]*'), b'"wall_time":*')]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def files(tmp: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(tmp)):
        with open(os.path.join(tmp, name), "rb") as fh:
            out[name] = digest(fh.read())
    return out


def main(argv: list[str]) -> int:
    if not argv or any("=" not in a for a in argv[1:]):
        sys.stderr.write(__doc__)
        return 1
    env = {k: v for k, v in os.environ.items() if k != "RUELLE_RAND_WORKERS"}
    env.update(a.split("=", 1) for a in argv[1:])
    env["PYTHONPATH"] = os.path.join(os.path.abspath(argv[0]), "src")
    with tempfile.TemporaryDirectory() as tmp:
        for call in CALLS:
            before = files(tmp)
            done = subprocess.run(
                [sys.executable, "-m", "ruelle_rand.cli",
                 *call.format(tmp=tmp).split()],
                capture_output=True, env=env, cwd=tmp, timeout=600)
            stdout, stderr = (s.replace(tmp.encode(), b"{tmp}")
                              for s in (done.stdout, done.stderr))
            for pattern, mask in MASKS:
                stdout = pattern.sub(mask, stdout)
            wrote = [f"{name}:{d}" for name, d in files(tmp).items()
                     if before.get(name) != d]
            print(f"{done.returncode} out:{digest(stdout)} "
                  f"err:{digest(stderr)} {' '.join(wrote) or '-'}  {call}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
