"""Stream-level tests for the secure session (long-haul consistency)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.session import CertificateAuthority, establish_session


def make_pair(seed=b"stream-seed"):
    authority = CertificateAuthority()
    return establish_session(0, seed, b"cpu-" + seed, authority)


class TestSessionStreams:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=128), min_size=1,
                    max_size=30))
    def test_upstream_stream_roundtrips(self, messages):
        cpu, buffer = make_pair()
        for index, message in enumerate(messages):
            ciphertext, tag = cpu.encrypt_upstream(message)
            assert buffer.decrypt_upstream(ciphertext, tag, index) == message

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=128), min_size=1,
                    max_size=30))
    def test_bidirectional_interleaving(self, messages):
        cpu, buffer = make_pair()
        for index, message in enumerate(messages):
            up_ct, up_tag = cpu.encrypt_upstream(message)
            assert buffer.decrypt_upstream(up_ct, up_tag, index) == message
            down_ct, down_tag = buffer.encrypt_downstream(message[::-1])
            assert cpu.decrypt_downstream(down_ct, down_tag,
                                          index) == message[::-1]

    def test_counters_track_message_count(self):
        cpu, buffer = make_pair()
        for _ in range(17):
            cpu.encrypt_upstream(b"x")
        assert cpu.upstream_counter == 17
        assert buffer.downstream_counter == 0

    # Ten n-byte pads collide with probability about 45 / 256**n (the
    # birthday bound), so short messages repeat ciphertext legitimately:
    # at one byte that is ~16%.  From 16 bytes on it is ~2**-122.
    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=16, max_size=64))
    def test_identical_messages_never_repeat_ciphertext(self, message):
        cpu, _ = make_pair()
        seen = set()
        for _ in range(10):
            ciphertext, _ = cpu.encrypt_upstream(message)
            assert ciphertext not in seen
            seen.add(ciphertext)

    def test_successive_upstream_pads_are_distinct(self):
        """Encrypting zeros exposes the pad; no counter reuses one."""
        cpu, _ = make_pair()
        pads = [cpu.encrypt_upstream(bytes(32))[0] for _ in range(256)]
        assert len(set(pads)) == 256

