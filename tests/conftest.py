"""Shared fixtures: small deterministic corpora for fast tests."""

import random

import pytest

from repro.datasets import (
    google_urls,
    hn_urls,
    structured_keys,
    uuid_keys,
    wiki_titles,
    wikipedia_text,
)


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xE1)


@pytest.fixture(scope="session")
def uuid_corpus():
    return uuid_keys(600, seed=1)


@pytest.fixture(scope="session")
def url_corpus():
    return hn_urls(600, seed=2)


@pytest.fixture(scope="session")
def google_corpus():
    return google_urls(600, seed=3)


@pytest.fixture(scope="session")
def text_corpus():
    return wikipedia_text(300, seed=4)


@pytest.fixture(scope="session")
def title_corpus():
    return wiki_titles(600, seed=5)


@pytest.fixture(scope="session")
def structured_corpus():
    return structured_keys(500, seed=6)


@pytest.fixture(scope="session")
def random_bytes_keys():
    r = random.Random(7)
    return [bytes(r.randrange(256) for _ in range(24)) for _ in range(400)]


@pytest.fixture(scope="session")
def layered_corpus():
    """Keys of twelve 8-byte words, each word one of four values (2 bits):
    a model trained on them adds a word at nearly every table doubling,
    so entropy-aware growth really swaps the hasher."""
    r = random.Random(5)
    words = [bytes([65 + i]) * 8 for i in range(4)]
    keys = (b"".join(r.choice(words) for _ in range(12)) for _ in range(700))
    return list(dict.fromkeys(keys))
