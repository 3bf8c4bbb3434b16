"""The root ``--help`` speaks to users: it describes the tool and names no private identifier."""

from __future__ import annotations

import re

import pytest

from tubekernels import cli


def test_the_root_help_names_no_private_identifier(capsys):
    with pytest.raises(SystemExit) as stopped:
        cli.main(["--help"])
    assert stopped.value.code == 0
    text = capsys.readouterr().out
    assert "evaluate series and run the verification experiments" in text
    assert not re.findall(r"(?<![\w-])_\w+", text)
