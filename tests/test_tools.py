"""The committed tools: the source counter, ``tools/src_lines.py``, the
page-fault counter, ``tools/faults.py``, and the render digests,
``tools/digests.py``."""

import hashlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from zeno_ent import CouplingSpec, ReservoirSpec, survival_amplitude

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools",
                    "src_lines.py")

# 12 lines: a module docstring of two, a comment, a blank line, a function
# whose docstring takes one, and a call over three lines
MODULE = '''"""A module.
Its docstring spans two lines."""
# a comment
import math

def f(x):
    """One line."""
    return math.hypot(
        x,
        1.0,
    )
y = "not a docstring"
'''


def test_counts_lines_holding_a_token_outside_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, def, the four lines of the call and the assignment
    assert tool.count(MODULE) == (12, 7)
    path = tmp_path / "mod.py"
    path.write_text(MODULE, encoding="utf-8")
    proc = subprocess.run([sys.executable, TOOL, str(path)], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.splitlines()[1:] == ["     12       7  mod.py",
                                            "     12       7  total"]


def test_rev_counts_head_beside_the_working_tree():
    root = pathlib.Path(TOOL).resolve().parent.parent

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, timeout=60)

    try:
        if git("rev-parse", "--verify", "--quiet", "HEAD^{commit}").returncode:
            pytest.skip("not a git checkout")
    except FileNotFoundError:
        pytest.skip("no git")
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    proc = subprocess.run([sys.executable, TOOL, "--rev", "HEAD"], capture_output=True,
                          text=True, timeout=60, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["HEAD", "tree"]
    assert lines[1].split() == ["wc", "-l", "code", "wc", "-l", "code", "module"]
    rows = {line.split()[-1]: line.split()[:-1] for line in lines[2:]}
    total = rows.pop("total")
    # the package's modules on either side, "-" where a side lacks one
    package = root / "src" / "zeno_ent"
    listed = git("ls-tree", "--name-only", "HEAD", "src/zeno_ent/").stdout.decode().split()
    names = {p.name for p in package.glob("*.py")} | {n.split("/")[-1] for n in listed
                                                       if n.endswith(".py")}
    assert set(rows) == names

    def cells(text):
        return ["-", "-"] if text is None else [str(n) for n in tool.count(text)]

    for name in names:
        shown = git("show", f"HEAD:src/zeno_ent/{name}")
        head = shown.stdout.decode() if shown.returncode == 0 else None
        tree = (package / name).read_text(encoding="utf-8") if (package / name).exists() else None
        assert rows[name] == cells(head) + cells(tree), name
    assert total == [str(sum(int(r[i]) for r in rows.values() if r[i] != "-"))
                     for i in range(4)]
    bad = subprocess.run([sys.executable, TOOL, "--rev", "no-such-revision"],
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "unknown revision 'no-such-revision'" in bad.stderr


FAULTS = os.path.join(os.path.dirname(TOOL), "faults.py")


def test_faults_times_a_command_repeated_in_one_process():
    # Unix only: the counts come from resource.getrusage
    pytest.importorskip("resource")
    proc = subprocess.run([sys.executable, FAULTS, "-n", "3", "--", "stationary-surface",
                           "--r1", "0.5", "--s", "0"], capture_output=True, text=True,
                          timeout=120, check=True)
    match = re.fullmatch(r"runs 3  exit 0  median wall (\S+) ms  minor faults per run (\S+)\n",
                         proc.stdout)
    assert match and float(match[1]) > 0.0 and float(match[2]) >= 0.0
    # a command that exits 2 is timed like any other, and its code printed
    proc = subprocess.run([sys.executable, FAULTS, "-n", "1", "--", "stationary-surface",
                           "--r1", "2"], capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.startswith("runs 1  exit 2  ")


DIGESTS = os.path.join(os.path.dirname(TOOL), "digests.py")


def test_digests_match_the_goldens_and_refuse_an_unknown_revision():
    proc = subprocess.run([sys.executable, DIGESTS], capture_output=True, text=True,
                          timeout=300, check=True)
    rows = dict(line.split()[::-1] for line in proc.stdout.splitlines())
    golden = os.path.join(os.path.dirname(TOOL), os.pardir, "perfbench", "goldens.json")
    with open(golden, encoding="utf-8") as fh:
        assert rows["surface/csv"] == json.load(fh)["surface/csv"]
    bad = subprocess.run([sys.executable, DIGESTS, "--rev", "no-such-revision"],
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "unknown revision 'no-such-revision'" in bad.stderr


def test_digests_print_a_row_per_api_probe():
    proc = subprocess.run([sys.executable, DIGESTS], capture_output=True, text=True,
                          timeout=300, check=True)
    rows = dict(line.split()[::-1] for line in proc.stdout.splitlines())
    spec = importlib.util.spec_from_file_location("digests", DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert [name for name in rows if name.startswith("api/")] == [f"api/{name}"
                                                                   for name in tool.PROBES]
    # E underdamped at lam = 4, on the array of times, then at each as a float
    res, coup = ReservoirSpec(w=1.0, lam=4.0), CouplingSpec(10.0, 0.0)
    digest = hashlib.sha256(survival_amplitude(res, coup, tool.TIMES).tobytes())
    for t in tool.TIMES.tolist():
        digest.update(np.float64(survival_amplitude(res, coup, t)).tobytes())
    assert rows["api/survival-underdamped"] == digest.hexdigest()
