"""The README's quick start runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_commented_values():
    source = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    # each print line's comment gives its output, up to any comma
    want = [line.split("#", 1)[1].split(",")[0].strip()
            for line in source.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert want == ["ZIZIII", "11 1 3", "I"]
    assert out.getvalue().splitlines() == want
