import re
from pathlib import Path

import distid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_in_the_readme():
    # the module table lists the public API by its exact identifiers
    backticked = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", README.read_text()))
    assert sorted(set(distid.__all__) - backticked) == []
