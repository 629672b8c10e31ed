"""The error contract, checked on the source: typed raises and one handler in main."""

import ast
import inspect
from pathlib import Path

import mrpgen
from mrpgen import cli, errors

SOURCES = sorted(Path(mrpgen.__file__).parent.glob("*.py"))
TYPED = {name for name, obj in vars(errors).items()
         if isinstance(obj, type) and issubclass(obj, errors.MrpgenError)}


def _raised_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_library_raises_only_typed_errors():
    untyped = [f"{path.name}:{line} raises {name}"
               for path in SOURCES
               for line, name in _raised_names(ast.parse(path.read_text()))
               if name not in TYPED]
    assert not untyped


def test_exit_codes_live_on_the_classes():
    assert errors.MrpgenError.exit_code == 2
    assert errors.DomainFailure.exit_code == 1
    assert errors.GenerationFailure(97, 3).code == "generation-failure"
    assert errors.RetryExhausted(5).code == "retry-exhausted"
    for name in TYPED - {"MrpgenError"}:
        cls = getattr(errors, name)
        assert cls.exit_code == (1 if issubclass(cls, errors.DomainFailure) else 2), name


def test_main_has_one_handler_per_exit_class():
    tree = ast.parse(inspect.getsource(cli.main))
    handlers = [ast.unparse(h.type) for node in ast.walk(tree) if isinstance(node, ast.Try)
                for h in node.handlers]
    assert handlers == ["MrpgenError", "OSError", "Exception"]


def test_only_main_prints_error_lines():
    source = Path(cli.__file__).read_text()
    assert "value-error" not in source
    tree = ast.parse(source)
    printers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and "error code=" in ast.unparse(node)}
    assert printers == {"main"}


def test_handlers_restate_neither_command_name_nor_exit_code():
    # argparse stores the command name and main returns 0 once a handler returns
    tree = ast.parse(Path(cli.__file__).read_text())
    returning = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("cmd_")
                 and any(isinstance(ret, ast.Return) and ret.value is not None
                         for ret in ast.walk(node))}
    literal_names = [ast.unparse(node) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and ast.unparse(node.func) == "_emit"
                     and any(isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                             for arg in node.args)]
    assert not returning and not literal_names
