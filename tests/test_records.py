"""The package's record types keep one contract, and a CLI start loads only
what it needs."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from wheelembed.bounds import BoundReport
from wheelembed.embedding import EmbeddingMap, EmbeddingMetrics, RouteForest
from wheelembed.graphs import Graph
from wheelembed.hamiltonian import HamiltonicityReport
from wheelembed.oracle import OracleResult

SRC = Path(__file__).resolve().parents[1] / "src"

_PATH = Graph(3, frozenset({(1, 2), (2, 3)}), "path-3")
_ROUTES = {(1, 2): (1, 2), (2, 3): (2, 3)}
_EMB = EmbeddingMap(_PATH, _PATH, {1: 1, 2: 2, 3: 3}, _ROUTES)

# type -> (a value for every field, in signature order; the defaults of the
# fields that have one; how == and hash behave; the fields == ignores; repr).
# "value" records compare their other fields, in order, when both sides are
# of one type, and hash them as one tuple
RECORDS = {
    Graph: (
        {"order": 3, "edges": frozenset({(1, 2), (2, 3)}), "name": "path-3"},
        {"name": ""}, "value", ("name",), "<Graph 'path-3' order=3 edges=2>"),
    HamiltonicityReport: (
        {"verdict": False, "witness": (1, 2, 3), "failing_fault": ((2,), ((1, 3),)),
         "failing_pair": (1, 3)},
        {"witness": None, "failing_fault": None, "failing_pair": None}, "value", (),
        "HamiltonicityReport(verdict=False, witness=(1, 2, 3), failing_fault=((2,), "
        "((1, 3),)), failing_pair=(1, 3))"),
    RouteForest: (
        {"parent": [-1, 0, -1], "vertex": [1, 2, 3], "ends": {(1, 2): 1, (1, 3): 2}},
        {}, "mapping", (), "{(1, 2): (1, 2), (1, 3): (3,)}"),
    EmbeddingMap: (
        {"guest": _PATH, "host": _PATH, "vmap": {1: 1, 2: 2, 3: 3}, "routes": _ROUTES},
        {}, "identity", (),
        "EmbeddingMap(guest=<Graph 'path-3' order=3 edges=2>, host=<Graph 'path-3' "
        "order=3 edges=2>, vmap={1: 1, 2: 2, 3: 3}, routes={(1, 2): (1, 2), (2, 3): (2, 3)})"),
    EmbeddingMetrics: (
        {"dil_per_edge": {(1, 2): 1}, "cong_per_edge": {(1, 2): 1}, "max_dilation": 1,
         "max_congestion": 1, "wirelength": 1},
        {}, "identity", (),
        "EmbeddingMetrics(dil_per_edge={(1, 2): 1}, cong_per_edge={(1, 2): 1}, "
        "max_dilation=1, max_congestion=1, wirelength=1)"),
    OracleResult: (
        {"metric": "wl", "optimum": 7, "witness_vmap": (1, 3, 2), "search_space": 4,
         "exact": True, "notes": "restricted"},
        {"notes": ""}, "value", (),
        "OracleResult(metric='wl', optimum=7, witness_vmap=(1, 3, 2), search_space=4, "
        "exact=True, notes='restricted')"),
    BoundReport: (
        {"metric": "dilation", "bound": 2, "achieved": 2, "sharp": True, "witness": _EMB,
         "notes": "sharp", "host": "path-3"},
        {"achieved": None, "sharp": None, "witness": None, "notes": "", "host": ""},
        "value", ("witness",),
        "BoundReport(metric='dilation', bound=2, achieved=2, sharp=True, notes='sharp', "
        "host='path-3')"),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields, defaults, kind, ignored, text = RECORDS[cls]
    required = {name: value for name, value in fields.items() if name not in defaults}

    # by position and by keyword, every field or only those without a default;
    # the instance __dict__ holds the fields (an EmbeddingMap also its walk's
    # depths and loads) and the cached properties read later
    for record, want in ((cls(*fields.values()), fields), (cls(**fields), fields),
                         (cls(*required.values()), {**required, **defaults}),
                         (cls(**required), {**required, **defaults})):
        assert {name: vars(record)[name] for name in fields} == want
        extra = {"_depth", "_loads"} if cls is EmbeddingMap else set()
        assert set(vars(record)) == set(fields) | extra

    record, twin = cls(**fields), cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: vars(record)[name] for name in fields} == fields

    if kind == "value":
        compared = tuple(value for name, value in fields.items() if name not in ignored)
        assert record == twin and hash(record) == hash(twin) == hash(compared)
        assert record.__eq__(compared) is NotImplemented
        for name in fields:
            other = cls(**{**fields, name: object()})
            if name in ignored:
                assert other == record and hash(other) == hash(record)
            else:
                assert other != record
    elif kind == "identity":
        assert record == record and record != twin
        assert hash(record) == object.__hash__(record)
    else:  # a read-only mapping: equal to any mapping of the same routes
        assert record == twin == dict(record)
        with pytest.raises(TypeError):
            hash(record)

    assert repr(record) == text

    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and set(vars(again)) == set(vars(record))
    assert repr(again) == repr(record)
    if kind != "identity":
        assert again == record
    with pytest.raises(AttributeError):
        setattr(again, next(iter(fields)), None)


def test_cli_import_loads_no_dataclasses_inspect_or_process_pool():
    # every CLI process pays for the modules `import wheelembed.cli` loads:
    # dataclasses pulls in inspect, ast, dis and tokenize, and the oracle's
    # pool is imported only by a run with --jobs above 1
    code = ("import sys, wheelembed.cli; print(*(m for m in ('dataclasses', 'inspect', "
            "'concurrent.futures', 'multiprocessing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
