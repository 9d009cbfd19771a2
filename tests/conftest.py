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
