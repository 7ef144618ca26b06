"""Repository hygiene: the benchmark tracer's hooks (fvbench/spans.py) against
this package, where every class and module it names exists and the names it
cannot find are known; no module imports a name it never reads; every
function and class the package defines is named somewhere in it; and only
the runner names the epoch batch seed."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "fvbench" / "spans.py"
#: the trees the unused-import and epoch-seed scans cover; fvbench/ is the
#: benchmark's own
SCANNED = ("src", "tests", "benchmarks")
#: definitions in src/ that no code in src/ names: fvbench and
#: benchmarks/bench_audit.py build their audit policy with it
UNNAMED_ALLOWED = {"AuditPolicy.from_federation"}

# targets the tracer looks for and this package no longer defines: the
# zero_grad methods (backward passes overwrite the gradient stores),
# nn.adam_update (each Adam steps one flat store),
# evaluation._train_one_attacker (the probes train in lockstep) and
# evaluation.privacy_inference_attack (an attack trains every ensemble in one
# train_attacker_ensembles call), and the platforms' handle methods (the
# federation's round calls each platform's step methods in turn)
KNOWN_MISSING = {
    "Adam.zero_grad", "Aggregator.zero_grad", "ContrastiveDiscriminator.zero_grad",
    "LocalEncoder.zero_grad", "ParamBlock.zero_grad", "TaskHead.zero_grad",
    "TwoLayerMlp.zero_grad", "fairvfl.nn.adam_update",
    "fairvfl.evaluation._train_one_attacker", "fairvfl.evaluation.privacy_inference_attack",
    "InsensitivePlatform.handle", "SensitivePlatform.handle", "ServerPlatform.handle",
    "TaskPlatform.handle",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("fvbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_with_known_missing_names():
    spans = _load_spans()
    # a class renamed in the package raises AttributeError here, as it would
    # in every traced benchmark run
    assert spans._targets()
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    # a renamed function shows up here instead of reading 0 in the benchmark
    assert tracer.missing == KNOWN_MISSING


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, leaving out ``__future__``
    imports and the names its ``__all__`` lists."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if getattr(target, "id", None) == "__all__"
             for elt in node.value.elts}
    return [name for name in imported if name not in read]


def test_unused_import_scan_finds_what_it_should():
    source = ("from __future__ import annotations\nimport os.path\nimport json as js\n"
              "from a import b, c\n__all__ = ['c']\nprint(os.sep)\n")
    assert unused_imports(source) == ["js", "b"]


@pytest.mark.parametrize("tree", SCANNED)
def test_no_unused_imports(tree):
    found = {str(path.relative_to(ROOT)): names for path in sorted((ROOT / tree).rglob("*.py"))
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def unnamed_definitions(sources: list[str]) -> list[str]:
    """The functions and classes defined in ``sources`` (qualified by the
    definitions they sit in, e.g. ``Class.method``) whose name no other node
    of them spells: no name, attribute or string constant (an ``__all__``
    entry). Dunder methods are left out."""
    trees = [ast.parse(source) for source in sources]
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((child.name, prefix + child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    named = set()
    for tree in trees:
        visit(tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return [qualified for name, qualified in found
            if name not in named and not (name.startswith("__") and name.endswith("__"))]


def test_unnamed_definition_scan_finds_what_it_should():
    sources = ["class A:\n    def __init__(self): pass\n    def used(self): pass\n"
               "    def lonely(self):\n        def inner(): pass\n"
               "def listed(): pass\ndef called(): pass\n",
               "from a import A, called\n__all__ = ['listed']\nA().used()\ncalled()\n"]
    assert unnamed_definitions(sources) == ["A.lonely", "A.lonely.inner"]


def test_every_src_definition_is_named_in_src():
    sources = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))]
    assert set(unnamed_definitions(sources)) == UNNAMED_ALLOWED


def code_names(source: str) -> set[str]:
    """Every name ``source``'s code spells: names, attributes, imported names
    and their aliases, and the functions and classes it defines. Comments and
    string constants do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found |= {node.name, node.asname} - {None}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_code_name_scan_finds_what_it_should():
    sources = ["from fairvfl.runner import seed_of as s\n",
               "import fairvfl.runner as r\nr.seed_of(1, 0)\n",
               "def seed_of():\n    pass\n",
               "x = 'seed_of'  # seed_of\n"]
    assert [i for i, source in enumerate(sources) if "seed_of" in code_names(source)] == [0, 1, 2]


def test_only_the_runner_names_the_epoch_batch_seed():
    """Every epoch's batch order comes from ``runner.train_epoch``; fvbench/,
    outside the scan, imports ``_epoch_batch_seed`` for loops of its own."""
    found = [str(path.relative_to(ROOT)) for tree in SCANNED
             for path in sorted((ROOT / tree).rglob("*.py"))
             if "_epoch_batch_seed" in code_names(path.read_text(encoding="utf-8"))]
    assert found == ["src/fairvfl/runner.py"]
