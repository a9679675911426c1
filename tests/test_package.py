"""The package's top-level names are the ones the README documents."""

import os
import re

import wpdenoise

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_all_matches_readme_library_use():
    text = open(README, encoding="utf-8").read()
    exposed = re.search(r"`import wpdenoise` exposes (.*?)\.\n", text, re.S).group(1)
    assert sorted(wpdenoise.__all__) == sorted(re.findall(r"`(\w+)`", exposed))
    assert all(hasattr(wpdenoise, name) for name in wpdenoise.__all__)
