"""README's CLI walkthrough, run command by command as it is written."""

import re
import shlex
from pathlib import Path

from vista import cli, synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough() -> str:
    "The text of README's CLI-walkthrough section."
    return README.read_text().split("\n## CLI walkthrough\n", 1)[1].split("\n## ", 1)[0]


def commands(section: str) -> list:
    "Each command of the section's ``sh`` blocks as its words, continuation lines joined."
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [words for words in (shlex.split(line, comments=True) for line in lines) if words]


def test_readme_walkthrough_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    section = walkthrough()
    ran = commands(section)
    for words in ran:
        if words[:3] == ["python", "-m", "vista.synthetic"]:
            synthetic.main(words[3:])
        else:
            assert words[0] == "vista", words
            assert cli.main(words[1:]) == 0, words
    assert [words[1] for words in ran if words[0] == "vista"] == [
        "simulate", "impute", "impute", "evaluate",
        "simulate", "impute", "evaluate", "gridsearch"]
    for words in ran:
        if "--output-dir" in words:
            assert (tmp_path / words[words.index("--output-dir") + 1] / "manifest.txt").is_file()
    named = set(re.findall(r"`([\w.-]+/[\w./-]+\.(?:csv|vmc|txt))`", section))
    assert {"scores/summary.csv", "split_scores/summary.csv"} <= named
    assert [path for path in sorted(named) if not (tmp_path / path).is_file()] == []
