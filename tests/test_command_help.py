"""Every command's ``--help`` renders: argparse formats help only when asked, so a help string
it cannot format fails here instead of in a user's terminal."""

from __future__ import annotations

import pytest

from tubekernels import cli


@pytest.mark.parametrize("command", list(cli._SCHEMA))
def test_each_command_help_renders_and_names_every_key(capsys, command):
    with pytest.raises(SystemExit) as stopped:
        cli.main([command, "--help"])
    assert stopped.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: tubekernels {command} ")
    text = " ".join(captured.out.split())  # argparse wraps long help lines
    for name, key in cli._SCHEMA[command].items():
        shown = "required" if key.default is cli._REQUIRED else f"default: {key.default}"
        assert f"--{name.replace('_', '-')} {name.upper()} {key.help} ({shown})" in text \
            or f"--{name.replace('_', '-')} {key.help} ({shown})" in text, name
