"""The library names the benchmark harness binds to.

bench/spans.py rebinds rankmra functions from outside, and bench/child.py
calls the library directly, so a rename or deletion under src/ would only
show in a traced benchmark run (`bench/run.py --trace 1`).  This test makes
it fail the test suite instead, and checks that the library session's
round trip neither builds the dense basis matrix nor parses a key.  It
runs in a subprocess because `Recorder.install()` rebinds module
attributes for the whole process.
"""

import json
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import os
import sys
from itertools import permutations

import rankmra.cli
import rankmra.mra
import rankmra.wavelets
import spans
from rankmra.words import Chain, Word

recorder = spans.Recorder()
recorder.install()
assert isinstance(rankmra.wavelets._chain_cache, dict)
assert rankmra.cli.main(["basis", "--n", "3", "--output", os.devnull]) == 0
basis = rankmra.mra.build_basis(3)
basis.lu()
rankmra.mra._parse_key.cache_clear()
first = len(recorder.start)
f = Chain({Word(p, 3): float(i + 1) for i, p in enumerate(permutations(range(1, 4)))}, 3)
c = rankmra.mra.decompose(f, basis, allow_large=True)
rankmra.mra.synthesize(c, basis)
rankmra.mra.dezoom(f, 2, basis, allow_large=True)
assert basis._matrix is None  # the bench times the engine, not the dense oracle
# nor does it parse the coefficient keys the basis itself produced
assert recorder.name_id("perms.cycleform_parse") not in recorder.name_idx[first:]
design, data = sys.argv[1:]
argv = ["decompose", "--input", data, "--design", design, "--output", os.devnull]
assert rankmra.cli.main(argv) == 0
print("ok")
"""


def test_bench_tracing_binds_to_the_library(tmp_path):
    # a tiny exactly projective design dataset, so that the traced decompose
    # path (projectivity pairs, coefficient count) runs to the end
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"n": 3, "design": [[1, 2], [1, 2, 3]]}))
    data = tmp_path / "data.csv"
    rows = ["1,2", "2,1"] + [",".join(map(str, p)) for p in permutations(range(1, 4))]
    data.write_text("\n".join(rows) + "\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(design), str(data)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
