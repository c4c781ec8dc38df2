"""README's examples must run against the current API and configuration keys."""

import re
import shlex
from pathlib import Path

from onebitlink.cli import _build_parser, _cli_overrides
from onebitlink.harness import ExperimentConfig, build_config, parse_config_file

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang=""):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _block_starting(prefix):
    found = [b for b in _blocks() if b.startswith(prefix)]
    assert len(found) == 1, prefix
    return found[0]


def test_readme_python_block_runs():
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})


def test_readme_config_file_example_is_valid(tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(_block_starting("# example.cfg\n"), encoding="utf-8")
    assert isinstance(build_config(parse_config_file(path)), ExperimentConfig)


def test_readme_cli_example_is_valid():
    argv = shlex.split(_block_starting("onebitlink ").replace("\\\n", " "))
    assert argv[0] == "onebitlink"
    args = _build_parser().parse_args(argv[1:])
    assert isinstance(build_config(_cli_overrides(args)), ExperimentConfig)
