"""The package's top-level names, defaults and version are declared once."""

import os
import re

import wpdenoise

ROOT = os.path.dirname(os.path.dirname(__file__))
README = os.path.join(ROOT, "README.md")


def test_all_matches_readme_library_use():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    exposed = re.search(r"`import wpdenoise` exposes (.*?)\.\n", text, re.S).group(1)
    assert sorted(wpdenoise.__all__) == sorted(re.findall(r"`(\w+)`", exposed))
    assert all(hasattr(wpdenoise, name) for name in wpdenoise.__all__)


def _readme_default(text):
    """A README default cell as the Python value it documents."""
    words = {"on": True, "off": False, "none": None, "ln(B)/2": None}
    if text in words:
        return words[text]
    if text.startswith("`"):
        return text.strip("`")
    return float(text)


def test_readme_defaults_match_config_and_cli():
    from wpdenoise.cli import build_parser
    from wpdenoise.pipeline import EnhanceConfig

    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("## Configuration defaults", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `--([\w-]+)`[^|]*\| ([^|]+?) \|", table, re.M)
    assert len(rows) == 14
    config = EnhanceConfig()
    cli = build_parser().parse_args(["denoise", "--in", "x.wav", "--out", "y.wav"])
    for flag, cell in rows:
        name = "vuv_enabled" if flag == "vuv" else flag.replace("-", "_")
        want = _readme_default(cell)
        assert getattr(config, name) == getattr(cli, name) == want, flag


def test_version_is_declared_only_in_the_package():
    # read with a regex, not tomllib, which Python 3.10 lacks
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.S | re.M).group(1)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^dynamic = \[.*"version".*\]$', project, re.M)
    assert re.search(
        r'^\[tool\.setuptools\.dynamic\]\nversion = \{attr = "wpdenoise\._version\.__version__"\}$',
        text, re.M,
    )
