"""The README's Python API example runs, so the README and the code keep agreeing."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs_and_meets_the_spreading_law(capsys):
    text = README.read_text()
    section = text[text.index("\n## Python API\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Python API)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9  # one per snapshot of np.linspace(0.0, 4.0, 9)
    for line in lines:
        measured, exact = re.fullmatch(r"t=.*  sigma=(\S+)  exact=(\S+)", line).groups()
        assert measured == exact, line
