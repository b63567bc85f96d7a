"""README.md as written: its Python API block runs, its command transcripts
show what the commands print, its table of subcommands is the command
line's, and its list of public names is the package's."""

import ast
import io
import re
import shlex
import tokenize
from itertools import groupby
from pathlib import Path

import schubdeform
from schubdeform import cli

from common import CACHE_ENV_VAR

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_readme_python_block_runs_and_shows_its_values():
    """Each statement runs in order; an expression statement with a trailing
    comment must evaluate to a value whose repr starts that comment."""
    [source] = _python_blocks()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        comment = comments.get(stmt.end_lineno)
        if isinstance(stmt, ast.Expr) and comment is not None:
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            assert comment.startswith(repr(value)), (ast.unparse(stmt), repr(value), comment)
            shown.append(repr(value))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    assert len(shown) == 7, shown


def test_readme_transcripts_show_the_commands_output(tmp_path, capsys, monkeypatch):
    """Each `$ schubdeform ...` block shows lines the command prints, in order;
    a `...` line stands for lines left out, and an end of the block without one
    is that end of the output."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    blocks = re.findall(r"^```text\n\$ schubdeform (.*?)\n(.*?)^```$", README.read_text(),
                        re.S | re.M)
    assert len(blocks) == 2
    for command, shown in blocks:
        assert cli.main(shlex.split(command)) == 0, command
        pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                          for line in shown.splitlines())
        assert re.fullmatch(pattern, capsys.readouterr().out), command


def test_readme_subcommand_table_names_every_command_in_help_order():
    """The table's first column starts with the command, one or more rows
    each; together they name exactly the commands of `-h`, in its order."""
    section = README.read_text().split("\nSubcommands:\n\n", 1)[1]
    rows = section.split("\n\n", 1)[0].splitlines()[2:]
    names = [row.split("`")[1].split()[0] for row in rows]
    assert [name for name, _ in groupby(names)] == list(cli._COMMANDS)


def test_readme_public_names_are_the_namespace_in_layer_order():
    """The list after "public names, by home module" gives each home module
    and its names in the order of `_LAYERS`; together they are `__all__`
    without `__version__`."""
    section = README.read_text().split("public names, by home module:\n\n", 1)[1]
    items = re.findall(r"^- `(\w+)`: (.*(?:\n  .*)*)", section.split("\n\n", 1)[0], re.M)
    assert [home for home, _ in items] == list(schubdeform._LAYERS)
    names = [name for _, listed in items for name in re.findall(r"`(\w+)`", listed)]
    assert names == [name for name in schubdeform.__all__ if name != "__version__"]
