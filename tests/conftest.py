import threading

import pytest

from semb.encoder import Vocab


@pytest.fixture
def encode_calls(monkeypatch):
    """The texts passed to `Vocab.encode` while the test runs, in call order."""
    calls = []
    original = Vocab.encode

    def counting(self, text, max_len):
        calls.append(text)
        return original(self, text, max_len)

    monkeypatch.setattr(Vocab, "encode", counting)
    return calls


@pytest.fixture(autouse=True)
def no_helper_thread_outlives_its_test():
    """Fail a test that leaves a `semb-embed` helper thread running."""
    yield
    left = [t for t in threading.enumerate() if t.name == "semb-embed"]
    assert left == [], f"{len(left)} semb-embed helper thread(s) still alive"
