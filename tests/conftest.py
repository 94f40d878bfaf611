import pytest

from helixmi.corpus import Corpus, Publication
from helixmi.mesh import MeshDescriptor, TreeNumber, Vocabulary

from oracles import csr_of


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """A cache directory of the test's own, so that no test reads or writes
    the user's parsed-input cache; subprocesses inherit it."""
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def make_vocab(specs):
    """specs: mapping id -> list of tree-number strings."""
    descriptors = [
        MeshDescriptor(
            id=uid,
            name=f"Term {uid}",
            tree_numbers=tuple(TreeNumber(raw) for raw in raws),
        )
        for uid, raws in specs.items()
    ]
    return Vocabulary.from_descriptors(descriptors)


def make_corpus(vocab, rows, label="test"):
    """rows: list of (pub_id, year, [descriptor ids])."""
    pubs = [
        Publication(id=pid, year=year, mesh_ids=tuple(sorted(set(ids))))
        for pid, year, ids in rows
    ]
    return Corpus.from_arrays(label, vocab, *csr_of(pubs, vocab))


@pytest.fixture
def tiny_vocab():
    return make_vocab(
        {
            "C1": ["C04.100"],
            "C2": ["C08.200"],
            "D1": ["D02.300"],
            "D2": ["D03.400"],
            "E1": ["E05.500"],
            "E2": ["E07.600"],
            "CE1": ["C04.700", "E05.800"],
            "Z1": ["Z01.900"],
        }
    )
