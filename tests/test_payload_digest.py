"""The CLI payloads of `scripts/payload_digest.py` against their pinned digests."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("payload_digest",
                                              ROOT / "scripts" / "payload_digest.py")
payload_digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(payload_digest)


def test_payloads_match_the_digests_pinned_for_this_fingerprint():
    # Every payload exits as the script lists it on any machine.  The bytes
    # are compared only under a fingerprint the file holds: numpy's `exp`
    # and `log` may differ in the last bit between CPUs, and its random
    # streams between versions.
    got = payload_digest.digests(ROOT)
    assert {name: got[name][0] for name, _, _ in payload_digest.PAYLOADS} == {
        name: code for name, code, _ in payload_digest.PAYLOADS}
    pinned = json.loads((ROOT / "tests" / "payload_digests.json").read_text())
    fingerprint = payload_digest.fingerprint()
    if fingerprint not in pinned:
        pytest.skip(f"no digests pinned for fingerprint {fingerprint}")
    assert {name: list(pair) for name, pair in got.items()} == pinned[fingerprint]
