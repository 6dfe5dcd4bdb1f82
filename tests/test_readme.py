"""The README's "Library quick start" code block runs as written.

Also a script: ``python tests/test_readme.py`` runs the same block against
the installed package, without pytest.
"""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    """The first python code block after the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```",
                      text, re.M | re.S)
    assert match, "README has no python block under 'Library quick start'"
    return match.group(1)


def test_library_quick_start_runs():
    namespace = {"__name__": "__readme__"}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert math.isfinite(namespace["result"].loglik)
    assert abs(namespace["summary"].avg_class_weights.sum() - 1.0) < 1e-9


if __name__ == "__main__":
    test_library_quick_start_runs()
