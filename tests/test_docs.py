"""The README's library layout table and `ucalab.__all__` name only what
exists, its pipeline and bench config sections list exactly the accepted
keys, and its file formats section gives each format's header struct."""

import importlib
import re
from pathlib import Path

import ucalab

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    """The README text from `title` to the next heading."""
    return README.read_text().split(title, 1)[1].split("\n#", 1)[0]


def layout_rows():
    """(module, backticked names) for each row of the "Library layout" table."""
    rows = []
    for line in section("## Library layout").splitlines():
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

    text = section("### Pipeline config")
    required = re.findall(r"^(\w+)=", text, flags=re.MULTILINE)
    optional_paragraph = text.split("Optional:", 1)[1].split("\n\n", 1)[0]
    optional = re.findall(r"`(\w+)`", optional_paragraph)
    assert required == list(PIPELINE_KEYS[: len(required)])
    assert set(required) | set(optional) == set(PIPELINE_KEYS)


def test_readme_bench_keys_are_the_accepted_keys():
    from ucalab.cli import BENCH_KEYS

    documented = {}
    for line in section("### Bench config").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            required, optional = (re.findall(r"`(\w+)`", cell) for cell in cells[1:])
            documented[cells[0].strip("`")] = (*required, *optional)
    assert documented == BENCH_KEYS


def test_readme_format_headers_match_the_header_structs():
    from ucalab import core

    codes = {"u32": "I", "u64": "Q", "f64": "d"}
    formats = {f.magic.decode(): f for f in vars(core).values() if isinstance(f, core.BinaryFormat)}
    text = " ".join(section("### File formats").split())
    documented = dict(re.findall(r"magic `(\w{4})`; header ([^;]*);", text))
    assert set(documented) == set(formats)
    for magic, fields in documented.items():
        struct_codes = "".join(codes[field.split()[0]] for field in fields.split(", "))
        assert formats[magic].header.format == "<4sB" + struct_codes, magic
