"""The README's library layout table and `ucalab.__all__` name only what
exists, and its pipeline config section lists exactly the accepted keys."""

import importlib
import re
from pathlib import Path

import ucalab

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_rows():
    """(module, backticked names) for each row of the "Library layout" table."""
    section = README.read_text().split("## Library layout", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`ucalab."):
            rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


def test_readme_layout_names_exist_in_their_modules():
    rows = layout_rows()
    assert len(rows) == 8
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module_name} lacks {missing}"


def test_every_exported_name_imports():
    namespace = {}
    exec("from ucalab import *", namespace)
    assert set(ucalab.__all__) <= set(namespace)


def test_readme_pipeline_keys_are_the_accepted_keys():
    from ucalab.cli import PIPELINE_KEYS

    section = README.read_text().split("### Pipeline config", 1)[1].split("\n#", 1)[0]
    required = re.findall(r"^(\w+)=", section, flags=re.MULTILINE)
    optional_paragraph = section.split("Optional:", 1)[1].split("\n\n", 1)[0]
    optional = re.findall(r"`(\w+)`", optional_paragraph)
    assert required == list(PIPELINE_KEYS[: len(required)])
    assert set(required) | set(optional) == set(PIPELINE_KEYS)
