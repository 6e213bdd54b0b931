"""The answers of ``tools/same_answers.py`` stay those pinned by
``tools/same_answers.sha256``: one SHA-256 per block of the tool's output
under ``PYTHONHASHSEED=0``.  A change that moves an answer on purpose
replaces the digest lines this test prints for the blocks that moved."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import owpdb

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_answers.py"
DIGESTS = ROOT / "tools" / "same_answers.sha256"


def block_digests(text: str) -> dict[str, str]:
    """SHA-256 of each block: an unindented line, named by its first word,
    and the indented lines under it; blocks of one name are hashed together."""
    blocks: dict[str, list[str]] = {}
    name = None
    for line in text.splitlines():
        if not line.startswith(" "):
            name = line.split(" ", 1)[0]
        blocks.setdefault(name, []).append(line + "\n")
    return {name: hashlib.sha256("".join(lines).encode()).hexdigest() for name, lines in blocks.items()}


def test_answers_match_their_digests():
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(Path(owpdb.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(TOOL)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    got = block_digests(done.stdout)
    want = dict(reversed(line.split()) for line in DIGESTS.read_text().splitlines())
    moved = [name for name in {**want, **got} if got.get(name) != want.get(name)]
    assert not moved, f"answers moved in {', '.join(moved)}; new digest lines:\n" + "".join(
        f"{got[name]}  {name}\n" for name in got
    )
