"""The reports of scripts/report_digests.py, pinned byte for byte.

Every report is deterministic, so a change that keeps these digests
keeps every report of the list byte-identical.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"

PINNED = [
    ("4386a2125a75f13ef44a45db841ea7c361d0d430c68d2803d0461faa65efd497", 0),
    ("ef9a29e32a6d7ac0546de2ab7a05af393c226cb168b2d094914a67a9b5df9b69", 0),
    ("3f96b196df88c34f22ef340bf4bd500475008afb302b461b5675debd347e92fc", 0),
    ("a81dfbde39bb4b32ffaa3965be2dab4dbf57945cf6e866cd96b122644744b5bd", 0),
    ("2b8da1b4983205a8b7d1668311c80711579e9de63878741d218c6f1fa060616a", 0),
    ("3fe35fdd5e791671179ed27dbb48318d1757b41482b70452e338e1eb4a96406c", 0),
    ("c328cc98a61b13ab02bceb079aeacd822d1e25ea816a4de4492b9c962dda55ce", 0),
    ("cf166f72491b2574ecea7979e70e2504213b54e8c7e5c610adc5e8a850bf6c14", 0),
    ("6d67070313751cad4b1a7ffb608d1cba1a5167cfc45d5a9f8ded0c08b67d0137", 0),
    ("6a2b0c172be1d4eeb33cb1f8bd7bd3951689cd686044e98862ffd12d5028701a", 0),
    ("4b8e8975b916cf353012263232ad1245988cb6cf1e1c8e9fbb5fae41dd95f229", 0),
    ("34cff6c43f3ee1bcd96e46b37c1ec9c31a0ec9aa9c7ec87472696459fd76a6e4", 0),
    ("82758c02e47dfb6584538461251cd977f350fbe65e116dd46228d1c419c4b74f", 0),
    ("0112727cc67398add59104556d7bb100c7e6780d29b4c29e049ab09f4e8d9e57", 0),
    ("e1c723327884d64c45acaec269cfc111747d14328773954f3cca7295ada4b348", 0),
    ("fc3b4f7be32d878ec0c5b287fe4f71e37a8983a05a6e3de499352254255236f1", 0),
    ("3ab935d5855913a0c0fe706e7f4fed3fa5016e3cbe313d8b09aa7d1a24ec4f62", 0),
    ("33289c45719bfc01f82b247e1c0479d226c9eaac0042c3f2ccfe797596d2ff5a", 0),
    ("a4885a21a97873220035235c724241b6dd32dd41b4ea5b218b0cb5283d93b824", 0),
]


def test_report_digests_are_pinned():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    got = module.digests()
    assert len(got) == len(PINNED)
    for (digest, code, call), want in zip(got, PINNED):
        assert (digest, code) == want, " ".join(call)
