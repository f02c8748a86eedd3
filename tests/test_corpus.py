"""Every command line of the committed corpus gives the results committed for it.

The corpus (``tests/corpus/corpus.py``) is replayed in process through
``cli.main``.  After a deliberate change of results,
``PYTHONPATH=src python tests/corpus/corpus.py`` rewrites the expectations
and prints every entry that moved.
"""

import importlib.util
import shlex
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "emdenlab_corpus", Path(__file__).with_name("corpus") / "corpus.py"
)
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

EXPECTED = corpus.load()


def test_the_expectations_are_the_generators_cases():
    assert len(EXPECTED) >= 300
    assert [(e["argv"], e["config"]) for e in EXPECTED] == [
        (c["argv"], c["config"]) for c in corpus.cases()
    ]


@pytest.mark.parametrize(
    "want", EXPECTED, ids=[f"{i:03d} {shlex.join(e['argv'])}" for i, e in enumerate(EXPECTED)]
)
def test_corpus_entry_gives_its_results(want, tmp_path):
    case = {"argv": want["argv"], "config": want["config"]}
    assert corpus.mismatches(want, corpus.record(case, tmp_path)) == []
