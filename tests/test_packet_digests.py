"""The packet digests of packet_digest.py against their pins.

The digests hash the floating-point bytes of exact and adaptive packets,
which depend on numpy, the BLAS and the machine: packet_digests.json pins
them per host key (packet_digest.host_key). On a pinned host each digest
must equal its pin; on another host the test skips and names the key, so
that a new host's digests are recorded (packet_digest.py --record) rather
than passed unseen.
"""

import pytest

import packet_digest


@pytest.mark.parametrize("name", list(packet_digest.DIGESTS))
def test_digest_matches_its_pin(name):
    pins = packet_digest.pinned()
    if pins is None:
        pytest.skip(f"no packet digests pinned for host key "
                    f"'{packet_digest.host_key()}'")
    assert packet_digest.DIGESTS[name]() == pins[name]
