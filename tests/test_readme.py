import re
from pathlib import Path

import distid
from distid import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_in_the_readme():
    # the module table lists the public API by its exact identifiers
    backticked = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", README.read_text()))
    assert sorted(set(distid.__all__) - backticked) == []


def test_every_readme_config_validates():
    # the usage block names each example config's subcommand:
    # "distid <command> --config <name>.cfg"
    text = README.read_text()
    command_of = dict((name, command) for command, name in
                      re.findall(r"^distid (\w+) +--config (\w+\.cfg)", text, re.M))
    blocks = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == len(command_of) == 5
    for block in blocks:
        name = re.match(r"# (\w+\.cfg)", block).group(1)
        cfg = cli.build_config(command_of[name], cli.parse_config(block))
        assert cfg.command == command_of[name]
