import pytest

from owpdb import engine
from owpdb.database import Database, Schema
from owpdb.query import Constant, parse_ucq


@pytest.fixture(scope="session")
def coauthor_schema():
    return Schema(
        {"S": 1, "CoA": 2},
        tuple(Constant(n) for n in ["Einstein", "Erdos", "VonNeumann", "Shakespeare"]),
    )


@pytest.fixture(scope="session")
def coauthor_db(coauthor_schema):
    return Database(
        coauthor_schema,
        {
            "S": {
                ("Einstein",): 0.8,
                ("Erdos",): 0.8,
                ("VonNeumann",): 0.9,
                ("Shakespeare",): 0.2,
            },
            "CoA": {
                ("Einstein", "Erdos"): 0.8,
                ("Erdos", "VonNeumann"): 0.9,
                ("VonNeumann", "Einstein"): 0.5,
            },
        },
    )


@pytest.fixture(scope="session")
def scientist_coauthor_query(coauthor_schema):
    return parse_ucq("S(x), CoA(x,y)", coauthor_schema)


@pytest.fixture
def cold_plans(monkeypatch):
    """Empty process-wide plan tables, now and at each call of the returned
    function, so the calls that follow derive every rule afresh."""
    def empty():
        monkeypatch.setattr(engine, "_TABLES", {})

    empty()
    return empty
