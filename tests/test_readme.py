"""The README's library tour runs against the installed package."""

from helpers import README, library_tour


def test_library_tour_runs(capsys):
    exec(compile(library_tour(), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "True"
