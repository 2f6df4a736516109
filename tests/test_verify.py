"""The field-determinism suite: one chunk at a time against the batched hash."""

import threading

from polymerlab.verify import suite_env_determinism

SEED = 102


def test_clean_environment_hashes_alike():
    res = suite_env_determinism(SEED)
    assert res["pass"] and res["hash_first"] == res["hash_second"]


def test_injected_fault_fails_and_leaves_the_first_hash():
    clean = suite_env_determinism(SEED)
    fault = suite_env_determinism(SEED, inject_fault=True)
    assert not fault["pass"]
    assert fault["hash_first"] == clean["hash_first"]
    assert fault["hash_second"] != clean["hash_second"]


def test_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("the suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert suite_env_determinism(SEED)["pass"]
