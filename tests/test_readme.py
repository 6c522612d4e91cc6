import ast
import hashlib
import re
from pathlib import Path

import pytest

import distid
from distid import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "distid"

# sha256 of each README example's output, recorded with numpy 2.4.6 on
# Python 3.11.7.  sim.cfg and exp.cfg draw through numpy's Philox generator
# and its samplers, so another numpy release may change their digests.
GOLDEN = {
    ("bounds.cfg", "csv"): "4fa4c61c1c7f33b475e387e603f5b3317c8690721fc7bbaa22ef9d5738fbda84",
    ("bounds.cfg", "json"): "191d2ba65a8ebfad93fae4a484ecbdf3a5e844eff6655fcb7c5195d694a1ab47",
    ("sim.cfg", "csv"): "5473f112d2e0c3ea936728ed43b892291caa256259d509d0d5937936e6453d8c",
    ("sim.cfg", "json"): "3d0d26ea687216e6d05ae79fdc2fa1649bfaa47976901efd0fbc2202cdc2d7b0",
    ("lemma.cfg", "csv"): "a66fdd2809de45dd6295274e28976a11add8555ae810b8e0d77e72fcb97a3992",
    ("lemma.cfg", "json"): "32b458f602cdb20ff5abe599e3a1897d49bf9b4e5b2364e4bf9fb50e43a0f4b9",
    ("exp.cfg", "csv"): "25e541d7f7db7f40340f6ae009098899ebb4ad847f83bab9032837aff31af8c5",
    ("exp.cfg", "json"): "ac4cd3f9e1046c6f019f941dd48c58d18641d2bfcde792bde9a0f8757208fa21",
    ("sweep.cfg", "csv"): "0533a12fa0139ecb449e0212619a590547e3bac4d20f17385e0bfaabdea9b4b8",
    ("sweep.cfg", "json"): "1fc56400721e655988a3a8ac428f6059870b958c7b5b6e85d3514e716c815002",
}


def readme_configs() -> dict:
    """{config name: (subcommand, config text)} of the README examples; the
    usage block names each one's subcommand:
    "distid <command> --config <name>.cfg"."""
    text = README.read_text()
    command_of = dict((name, command) for command, name in
                      re.findall(r"^distid (\w+) +--config (\w+\.cfg)", text, re.M))
    configs = {}
    for block in re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S):
        name = re.match(r"# (\w+\.cfg)", block).group(1)
        configs[name] = (command_of[name], block)
    assert len(configs) == len(command_of) == 5
    return configs


def test_every_public_name_is_in_the_readme():
    # the module table lists the public API by its exact identifiers
    backticked = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", README.read_text()))
    assert sorted(set(distid.__all__) - backticked) == []


def _assigned(tree: ast.Module, target: str) -> ast.expr:
    """The expression assigned to a module-level name."""
    return next(stmt.value for stmt in tree.body
                if isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == [target])


def _loads(node: ast.AST) -> set[str]:
    """The names and attributes that node's code reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_public_name_has_a_caller():
    # A public name must be read somewhere in src/distid outside its own
    # definition, by the acceptance suite, or by a traced benchmark layer.
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    exports = ast.literal_eval(_assigned(trees.pop("__init__"), "_EXPORTS"))
    public = {name for names in exports.values() for name in names}
    used = set()
    for tree in trees.values():
        public.update(ast.literal_eval(_assigned(tree, "__all__")))
        for stmt in tree.body:
            used |= _loads(stmt) - {getattr(stmt, "name", None)}
    used |= _loads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    layers = ast.parse((ROOT / "bench" / "layers.py").read_text())
    used |= {part for layer in _assigned(layers, "LAYERS").elts
             for part in layer.args[1].value.split(".")}
    unused = sorted(public - used)
    assert not unused, f"public names with no caller: {unused}"


def test_every_readme_config_validates():
    for command, block in readme_configs().values():
        cfg = cli.build_config(command, cli.parse_config(block))
        assert cfg.command == command


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_readme_example_bytes(tmp_path, name, fmt):
    command, text = readme_configs()[name]
    cfg_path, out = tmp_path / name, tmp_path / f"out.{fmt}"
    cfg_path.write_text(text)
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out),
                     "--format", fmt]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name, fmt]
