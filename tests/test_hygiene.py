"""Source checks that no runtime test would catch."""

import ast
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qslate").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def bound_names(node: ast.stmt) -> list[str]:
    """The names that a def, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)]
    return []


def unused_private_names(source: str) -> list[str]:
    """Private names that a module-level def, class or assignment binds and
    the module never reads."""
    tree = ast.parse(source)
    bound = {name: node.lineno for node in tree.body for name in bound_names(node)}
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}" for name, line in bound.items()
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]


def uses(node: ast.AST) -> Counter:
    """How often each name is used under ``node``: ``("name", id)`` for a
    loaded name, ``("attr", attr)`` for a loaded attribute and
    ``("keyword", arg)`` for a keyword argument."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found["attr", sub.attr] += 1
        elif isinstance(sub, ast.keyword) and sub.arg:
            found["keyword", sub.arg] += 1
    return found


def public_definitions(tree: ast.Module):
    """Each public module-level def, class or assignment, and each public
    method, property or field of a public class, with the kinds of use
    that read it: (qualified name, statement, kinds)."""
    for node in tree.body:
        for name in bound_names(node):
            if not name.startswith("_"):
                yield name, node, ("name", "attr")
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                is_def = isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                for name in bound_names(member):
                    if not name.startswith("_"):
                        yield f"{node.name}.{name}", member, ("attr",) if is_def else (
                            "attr", "keyword")


def unread_public_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The public names that ``modules`` (file name -> source) define and
    that neither ``modules`` outside the name's own definition nor
    ``readers`` read, as ``"file line N: name"``.

    Names are matched, not resolved: a module-level name is read by name or
    as an attribute, a method or property as an attribute, and a field also
    where a call sets it by keyword, since a field that the program fills
    is a result it hands out.
    """
    trees = {file: ast.parse(source) for file, source in modules.items()}
    total = sum((uses(tree) for tree in [*trees.values(), *map(ast.parse, readers)]), Counter())
    unread = []
    for file, tree in trees.items():
        for qualified, node, kinds in public_definitions(tree):
            name, inside = qualified.rsplit(".", 1)[-1], uses(node)
            if not any(total[kind, name] > inside[kind, name] for kind in kinds):
                unread.append(f"{file} line {node.lineno}: {qualified}")
    return unread


def defaulted_parameters(tree: ast.Module):
    """Each def with defaulted parameters, methods and nested defs too:
    (dotted name, def, the name its callers call, the parameters a call
    fills by position, the defaulted parameters).  A method's callers skip
    its first parameter, and an ``__init__`` is called by its class name."""
    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, scope + [child.name], True)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope, in_class)
                continue
            args = child.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            callee = scope[-1] if in_class and child.name == "__init__" else child.name
            if defaulted:
                yield (".".join(scope + [child.name]), child, callee,
                       positional[in_class and not static:], defaulted)
            yield from visit(child, scope + [child.name], False)

    yield from visit(tree, [], False)


def set_parameters(node: ast.AST, callee: str, positional: list[str]) -> Counter:
    """How often calls of ``callee`` under ``node`` set each parameter: by
    keyword, or by position into ``positional``.  A call that unpacks
    ``*args`` or ``**kwargs`` counts as setting every parameter."""
    found = Counter()
    for call in ast.walk(node):
        if not isinstance(call, ast.Call) or called_name(call) != callee:
            continue
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                keyword.arg is None for keyword in call.keywords):
            found["*"] += 1
        found.update(keyword.arg for keyword in call.keywords if keyword.arg)
        found.update(positional[:len(call.args)])
    return found


def unset_defaulted_parameters(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The defaulted parameters of the defs in ``modules`` (file name ->
    source) that no call in ``modules`` outside the def's own body or in
    ``readers`` sets, as ``"file line N: def.parameter"``.  Calls are
    matched by the name they call, not resolved, as in
    :func:`unread_public_names`."""
    trees = {file: ast.parse(source) for file, source in modules.items()}
    everything = [*trees.values(), *map(ast.parse, readers)]
    unset = []
    for file, tree in trees.items():
        for qualified, node, callee, positional, defaulted in defaulted_parameters(tree):
            total = sum((set_parameters(t, callee, positional) for t in everything), Counter())
            inside = set_parameters(node, callee, positional)
            for name in defaulted:
                if total[name] + total["*"] <= inside[name] + inside["*"]:
                    unset.append(f"{file} line {node.lineno}: {qualified}.{name}")
    return unset


RECORDS = ("SessionRecord", "ItemRecord")
# The field that holds the name that each kind of node reads or binds.
NAMED_NODES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.ClassDef: "name"}


def record_uses(source: str) -> list[str]:
    """Calls of a ``from_records`` method, and every name, attribute, import
    or class definition of a record class in ``RECORDS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_records"
        ):
            found.append((node.lineno, "from_records"))
        elif type(node) in NAMED_NODES and getattr(node, NAMED_NODES[type(node)]) in RECORDS:
            found.append((node.lineno, getattr(node, NAMED_NODES[type(node)])))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def calls_by_scope(source: str, wanted) -> list[str]:
    """The enclosing class and function names, dotted, of each call that
    ``wanted`` accepts, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and wanted(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


# numpy calls that look ids up in an array.
ID_SEARCHES = {"searchsorted", "isin", "in1d", "intersect1d", "setdiff1d", "union1d"}


def searches_catalog_ids(call: ast.Call) -> bool:
    """A search of an ``.ids`` array, the sorted ids of an ``ItemCatalog``."""
    return called_name(call) in ID_SEARCHES and any(
        isinstance(arg, ast.Attribute) and arg.attr == "ids" for arg in call.args
    )


def is_lexsort(call: ast.Call) -> bool:
    return called_name(call) == "lexsort"


# Calls that cast a JSON value leniently: ``int(3.9)``, ``float("1e3")`` and
# ``bool("no")`` all succeed, as do the numpy array constructors on them.
LENIENT_CASTS = {"int", "float", "bool", "asarray", "array"}


def is_payload_field(node: ast.AST) -> bool:
    """A ``payload[...]`` subscript: a field of a model file's JSON object."""
    return isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "payload"


def lenient_field_reads(source: str) -> list[str]:
    """Each call in ``LENIENT_CASTS`` that reads a ``payload[...]`` field,
    directly or as the element of a comprehension over one."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            elements = {name.id for gen in node.generators if is_payload_field(gen.iter)
                        for name in ast.walk(gen.target) if isinstance(name, ast.Name)}
            casts = [call for call in ast.walk(node.elt) if isinstance(call, ast.Call)
                     and any(getattr(arg, "id", None) in elements for arg in call.args)]
        elif isinstance(node, ast.Call) and any(map(is_payload_field, node.args)):
            casts = [node]
        else:
            continue
        found.update((call.lineno, called_name(call)) for call in casts
                     if called_name(call) in LENIENT_CASTS)
    return [f"line {line}: {name}" for line, name in sorted(found)]


MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_records_only_in_ingest(path):
    """Sessions reach every module but ``ingest`` as tables: only ``ingest``
    makes tables of records or records of tables (and ``__init__`` exports
    ``SessionRecord``).  Items are columns everywhere: no module names
    ``ItemRecord``."""
    found = record_uses(path.read_text())
    if path.name in ("ingest.py", "__init__.py"):
        found = [use for use in found if use.endswith("ItemRecord")]
    assert found == []


# Public names that only tests read: the reader of the ground-truth sidecar
# format, and the purchase model that the test oracles take as reference.
UNREAD_BY_DESIGN = ["GroundTruth.purchase_probability", "GroundTruth.parse"]


def test_every_public_name_is_read():
    """Each job has one way in: a public name that neither the library nor
    the benchmark reads is a second entry point that only tests use."""
    unread = unread_public_names(
        {path.name: path.read_text() for path in SOURCES},
        [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))],
    )
    assert [entry.split(": ")[1] for entry in unread] == UNREAD_BY_DESIGN


# Options that only tests set: ``zscore_mask`` is set by the feature tests
# and acceptance criterion 3, while every fit z-scores the portrait columns.
UNSET_BY_DESIGN = ["fit_sparse_pca.zscore_mask"]


def test_every_option_is_set_by_the_program():
    """A defaulted parameter that neither the library nor the benchmark sets
    is an option that only tests use."""
    unset = unset_defaulted_parameters(
        {path.name: path.read_text() for path in SOURCES},
        [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))],
    )
    assert [entry.split(": ")[1] for entry in unset] == UNSET_BY_DESIGN


def test_catalog_ids_are_searched_only_by_index():
    """Array code finds items through ``ItemCatalog.index``, whose position
    table or search is the one lookup path."""
    found = [(path.name, scope) for path in MODULES
             for scope in calls_by_scope(path.read_text(), searches_catalog_ids)]
    assert found == [("ingest.py", "ItemCatalog.index")]


def test_distances_are_measured_only_in_blocks():
    """Every distance goes through ``clustering._blocks``, so no pass holds
    more than a block of distances."""
    found = [(path.name, scope) for path in MODULES
             for scope in calls_by_scope(path.read_text(),
                                         lambda call: called_name(call) == "_sq_dists")]
    assert found == [("clustering.py", "_blocks")]


def test_model_fields_are_read_only_through_json_column():
    """A model file's numbers go through ``errors.json_column``, which
    refuses a value of another JSON kind that a cast would accept."""
    assert [(path.name, read) for path in MODULES
            for read in lenient_field_reads(path.read_text())] == []


def test_qlearning_lexsorts_only_in_order_and_greedy():
    """Integer keys sort through ``_order``; only ``_greedy``'s key holds the
    float q, which ``_order`` cannot pack."""
    source = (ROOT / "src" / "qslate" / "qlearning.py").read_text()
    assert sorted(set(calls_by_scope(source, is_lexsort))) == ["_greedy", "_order"]


def test_check_sees_calls_by_scope():
    source = (
        "import numpy as np\nnp.lexsort([1])\n\n"
        "class Catalog:\n    def index(self, x):\n        return np.searchsorted(self.ids, x)\n\n"
        "def find(catalog, x):\n    def inner():\n        return np.isin(x, catalog.ids)\n"
        "    return inner(), np.searchsorted(catalog.prices, x), lexsort(x)\n"
    )
    assert calls_by_scope(source, searches_catalog_ids) == ["Catalog.index", "find.inner"]
    assert calls_by_scope(source, is_lexsort) == ["", "find"]


def test_check_sees_lenient_field_reads():
    source = (
        "import numpy as np\n\n"
        "def build(payload, other):\n"
        "    k, x = int(payload['k']), np.asarray(payload['x'], dtype=float)\n"
        "    flags = tuple(bool(b) for b in payload['flags'])\n"
        "    ids = [int(v) + 1 for _, v in payload['pairs']]\n"
        "    y = json_column(payload['y'], np.float64, 'y')\n"
        "    n = len(payload['z']) + int(other['k']) + int(y[0])\n"
        "    return [float(v) for v in range(n)], k, x, flags, ids\n"
    )
    assert lenient_field_reads(source) == [
        "line 4: asarray", "line 4: int", "line 5: bool", "line 6: int",
    ]


def test_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os\n\nos.sep\n"
    assert unused_imports(source) == ["line 2: json"]


def test_check_sees_an_unused_private_name():
    source = (
        "__all__ = ['run']\n_Item = tuple[int, str]\n_LIMIT, _SPARE = 3, 4\n\n"
        "def _helper(x: int) -> int:\n    return x\n\n"
        "class _Dead:\n    pass\n\n"
        "def run(items: list[_Item]) -> int:\n    return _helper(_LIMIT)\n"
    )
    assert unused_private_names(source) == ["line 3: _SPARE", "line 8: _Dead"]


def test_check_sees_unread_public_names():
    module = (
        "LIMIT, SPARE = 3, 4\n\n"
        "def used(x):\n    return helper(x) + LIMIT\n\n"
        "def helper(x):\n    return x\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Model:\n    weight: float = 1.0\n    labels: list = None\n    unset: int = 0\n\n"
        "    def predict(self):\n        return self.weight\n\n"
        "    def wrapper(self):\n        return self.predict()\n\n"
        "    def _private(self):\n        return 1\n"
    )
    reader = "import mod\nmodel = mod.Model(labels=[1])\nmod.used(model.wrapper())\n"
    assert unread_public_names({"mod.py": module}, [reader]) == [
        "mod.py line 1: SPARE", "mod.py line 9: recursive", "mod.py line 15: Model.unset",
    ]


def test_check_sees_unset_defaulted_parameters():
    module = (
        "def fit(x, scale=1.0, *, mask=None, seed=0):\n    return fit(x, 2.0, mask=1)\n\n"
        "def run(x, fast=False):\n    def inner(y, depth=1):\n        return y\n"
        "    return inner(fit(x, seed=3))\n\n"
        "class Bank:\n    def __init__(self, n, size=4):\n        self.n = n\n\n"
        "    def save(self, path, stamp=None, *, indent=2):\n        return path\n\n"
        "    @staticmethod\n    def make(n, size=4):\n        return Bank(n)\n\n"
        "def wrap(*args, **kwargs):\n    return run(*args, **kwargs)\n"
    )
    reader = "import mod\nmod.Bank(1, 8).save('p', 'zz')\nmod.Bank.make(1, 2)\n"
    assert unset_defaulted_parameters({"mod.py": module}, [reader]) == [
        "mod.py line 1: fit.scale", "mod.py line 1: fit.mask", "mod.py line 5: run.inner.depth",
        "mod.py line 13: Bank.save.indent",
    ]


def test_check_sees_record_uses():
    source = (
        "from .ingest import SessionRecord, SessionTable\nfrom . import ingest\n\n"
        "def f(rows: list[ingest.SessionRecord]):\n"
        "    return SessionTable.from_records(rows)\n\n"
        "def g(table: SessionTable):\n    return table.from_records\n\n"
        "class ItemRecord:\n    pass\n\n"
        "def h(item: ItemRecord, catalog):\n"
        "    return catalog.ItemRecord(item), ingest.Record\n"
    )
    assert record_uses(source) == [
        "line 1: SessionRecord", "line 4: SessionRecord", "line 5: from_records",
        "line 10: ItemRecord", "line 13: ItemRecord", "line 14: ItemRecord",
    ]


# Arguments that ``perfbench/spans.py`` reads from a traced call by name or,
# when passed positionally, by position: (module, function, name, position).
BENCH_READ_ARGUMENTS = [
    ("qlearning", "train", "transitions", 1),
    ("qlearning", "train", "cfg", 3),
    ("clustering", "merge_small_clusters", "counts", 1),
    ("clustering", "fit_dbscan", "Z", 0),
    ("pipeline", "save_models", "model_dir", 1),
]


@pytest.mark.parametrize(
    "module, function, name, position", BENCH_READ_ARGUMENTS,
    ids=[f"{m}.{f}.{n}" for m, f, n, _ in BENCH_READ_ARGUMENTS],
)
def test_bench_read_argument_keeps_name_and_position(module, function, name, position):
    fn = getattr(importlib.import_module(f"qslate.{module}"), function)
    params = list(inspect.signature(fn).parameters.values())
    assert len(params) > position
    assert params[position].name == name
    assert params[position].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_bench_read_arguments_list_every_read_in_spans():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    reads = {
        (node.args[3].value, node.args[2].value) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg"
    }
    assert reads == {(name, position) for _, _, name, position in BENCH_READ_ARGUMENTS}


def bench_methods() -> tuple:
    """``METHODS`` of ``perfbench/spans.py``: the (layer, class, method)
    triples that the traced run wraps on their classes."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "METHODS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no METHODS")


@pytest.mark.parametrize("layer, cls, method", bench_methods(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_bench_method_is_defined_on_its_class(layer, cls, method):
    """The traced run looks each method up in ``vars(cls)``, which an
    inherited or renamed method would fail, and only untraced runs are tested."""
    assert method in vars(getattr(importlib.import_module(f"qslate.{layer}"), cls))


# What ``perfbench/workloads.py`` and ``perfbench/spans.py`` read of a trained
# ``QTableBank``: the ``tables`` view that two banks compare by, and the cells.
BENCH_READ_BANK = ("tables", "cells", "n_cells")


def test_bench_reads_of_the_bank_are_listed():
    text = "".join((ROOT / "perfbench" / name).read_text() for name in ("workloads.py", "spans.py"))
    assert {name for name in BENCH_READ_BANK if f".{name}" in text} == set(BENCH_READ_BANK)


def test_bank_offers_what_the_bench_reads():
    from qslate.qlearning import QTableBank

    for name in BENCH_READ_BANK:
        assert name in vars(QTableBank), name
    a, b = QTableBank(2), QTableBank(2)
    assert a.tables == b.tables and len(a.tables) == 6
    assert list(a.cells()) == [] and a.n_cells() == 0


@pytest.mark.parametrize("cluster", [{"method": "kmeans", "k": 4},
                                     {"method": "dbscan", "eps": 3.0, "min_pts": 3}],
                         ids=["kmeans", "dbscan"])
def test_model_files_hold_only_their_version_3_keys(tmp_path, cluster):
    """Each fact is stored once: nothing that another field of the file or
    the manifest determines (a component count, zero-row flags, the l1
    penalty, a cluster count, DBSCAN's eps and min_pts)."""
    from qslate.ingest import SyntheticConfig, generate_synthetic
    from qslate.pipeline import PipelineParams, fit_pipeline, save_models

    corpus = generate_synthetic(SyntheticConfig(num_items=12, num_users=60, num_sessions=400,
                                                seed=3, preference_scale=3.0))
    params = PipelineParams(k_features=4, cluster=cluster, min_cluster_support=1, epochs=2)
    model, stats = fit_pipeline(corpus.sessions, corpus.catalog, params)
    save_models(model, tmp_path, "stamp", stats.bank)
    header = {"format", "version", "stamp"}
    model_keys = {"kmeans": {"centroids", "merge_map"},
                  "dbscan": {"core_points", "core_labels", "n_noise"}}[cluster["method"]]
    expected = {
        "components.json": header | {"column_means", "column_scales", "loadings",
                                     "explained_variance", "n_iter", "converged"},
        "clusters.json": header | {"method", "policies", "min_visits"} | model_keys,
    }
    for name, keys in expected.items():
        payload = json.loads((tmp_path / name).read_text())
        assert (set(payload), payload["version"]) == (keys, 3), name
