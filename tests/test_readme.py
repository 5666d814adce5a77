import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(capsys):
    # README promises this block as library API: a removed or renamed name fails here
    namespace = {}
    exec(compile(_library_sketch(), str(README), "exec"), namespace)
    rom, bound = namespace["rom"], namespace["bound"]
    assert 1 <= rom.r < namespace["sys_"].n
    assert bound.epsilon > 0
    assert capsys.readouterr().out.split()[0] == str(rom.r)
