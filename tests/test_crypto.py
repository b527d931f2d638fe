"""Tests for the PRF, counter-mode cipher, MACs, and session handshake."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import MacEngine, MacError, PmmacAuthenticator
from repro.crypto.prf import Prf
from repro.crypto.session import (AuthenticationError, BufferIdentity,
                                  CertificateAuthority, establish_session)

KEY_A = b"0123456789abcdef"
KEY_B = b"fedcba9876543210"


class TestPrf:
    def test_deterministic(self):
        prf = Prf(KEY_A)
        assert prf.evaluate(b"msg", 32) == prf.evaluate(b"msg", 32)

    def test_key_separation(self):
        assert Prf(KEY_A).evaluate(b"msg") != Prf(KEY_B).evaluate(b"msg")

    def test_message_separation(self):
        prf = Prf(KEY_A)
        assert prf.evaluate(b"a") != prf.evaluate(b"b")

    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            Prf(b"short")

    @given(st.integers(min_value=0, max_value=200))
    def test_output_length(self, length):
        assert len(Prf(KEY_A).evaluate(b"x", length)) == length

    def test_long_output_extends_prefix(self):
        # CounterModeCipher.pad serves short requests from a cached long pad.
        prf = Prf(KEY_A)
        for short in (8, 32, 64, 65, 256):
            assert prf.evaluate(b"x", 300)[:short] == \
                prf.evaluate(b"x", short)

    def test_key_length_separates_key_from_message(self):
        """Moving a byte from the key to the message changes the output."""
        assert Prf(KEY_A + b"\x01").evaluate(b"msg") != \
            Prf(KEY_A).evaluate(b"\x01msg")

    def test_derive_key_distinct_labels(self):
        prf = Prf(KEY_A)
        assert prf.derive_key("up") != prf.derive_key("down")

    def test_evaluate_int_respects_width(self):
        prf = Prf(KEY_A)
        for bits in (1, 8, 31, 64):
            assert prf.evaluate_int(b"x", bits) < (1 << bits)


class TestKnownAnswers:
    """Pinned outputs: any change to the construction shows up here."""

    PRF_MSG_256 = (
        "e9717a2539ba4468ba37903d748a7d29eedd4f4bc7899efa3580cdff312cc56b"
        "dde06931690eb0c8cf4ca968b68418ba997396fa0dc9ccf6ff24ebe4e6878e4b"
        "5b0d41158613698c22039f350cd1a6eb78e1a060c1b0c4571784a19158548d30"
        "aca154953b94a1d027c97218a8fd024f82698322af798226b2a2740c3d4cf211"
        "36ea8ec1b05674ad9251bb21dc0523eb2261de95670a1e4c3906a165745fd2e0"
        "4f35d10b2a0ae8ff782de4ed4183c59c78591540f8ef5eec3e98ff80e08f6bcc"
        "13d1f5c668a9816d82dad9a78a81c69ed106b1e84bca79429104747d91641292"
        "f3709834b897969881d72549a1c2512cc335a2c916c5541f8ea227330e156088")

    @pytest.mark.parametrize("length", [8, 32, 256])
    def test_prf(self, length):
        assert Prf(KEY_A).evaluate(b"msg", length).hex() == \
            self.PRF_MSG_256[:2 * length]

    def test_mac_tag(self):
        assert MacEngine(KEY_A).tag(b"payload").hex() == "64676dffa7a51355"

    def test_pmmac_tag(self):
        assert PmmacAuthenticator(KEY_A).tag(42, 7, b"bucket bytes").hex() \
            == "84521355a9409e10"

    def test_counter_mode_pad(self):
        assert CounterModeCipher(KEY_A).pad(3, 9, 64).hex() == (
            "78e40e6c5f6fe37b7259af707b79a3d5129e21526df29b418d244d43919f3084"
            "640d6e9e354661a3225e7b2cf6342adc91f49733bcb1695b5da74a2a45a7d801")


class TestCounterMode:
    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=0, max_value=2**32))
    def test_roundtrip(self, plaintext, nonce, counter):
        cipher = CounterModeCipher(KEY_A)
        ciphertext = cipher.encrypt(plaintext, nonce, counter)
        assert cipher.decrypt(ciphertext, nonce, counter) == plaintext

    def test_counter_changes_ciphertext(self):
        cipher = CounterModeCipher(KEY_A)
        block = b"secret block" * 4
        assert cipher.encrypt(block, 0, 1) != cipher.encrypt(block, 0, 2)

    def test_nonce_changes_ciphertext(self):
        cipher = CounterModeCipher(KEY_A)
        block = b"secret block" * 4
        assert cipher.encrypt(block, 1, 0) != cipher.encrypt(block, 2, 0)

    def test_wrong_counter_garbles(self):
        cipher = CounterModeCipher(KEY_A)
        ciphertext = cipher.encrypt(b"secret block", 0, 5)
        assert cipher.decrypt(ciphertext, 0, 6) != b"secret block"

    @given(st.binary(max_size=96), st.integers(min_value=0, max_value=200))
    def test_offset_uses_that_slice_of_the_pad(self, plaintext, offset):
        cipher = CounterModeCipher(KEY_A)
        ciphertext = cipher.encrypt(plaintext, 3, 9, offset)
        pad = cipher.pad(3, 9, offset + len(plaintext))[offset:]
        assert ciphertext == bytes(p ^ k for p, k in zip(plaintext, pad))
        assert cipher.decrypt(ciphertext, 3, 9, offset) == plaintext

    def test_pad_precomputable(self):
        cipher = CounterModeCipher(KEY_A)
        pad = cipher.pad(3, 9, 12)
        manual = bytes(p ^ k for p, k in zip(b"hello world!", pad))
        assert cipher.encrypt(b"hello world!", 3, 9) == manual


class TestPadMemo:
    """The cipher keeps one pad per nonce: the one for its last counter.

    A bucket is re-encrypted under a bumped counter on every write-back
    and read back under that counter, so an older pad never hits again.
    """

    @staticmethod
    def counted(cipher):
        calls = []
        evaluate = cipher._prf.evaluate

        def counting(message, length):
            calls.append(length)
            return evaluate(message, length)

        cipher._prf.evaluate = counting
        return calls

    def test_one_entry_per_nonce(self):
        cipher = CounterModeCipher(KEY_A)
        for counter in range(1, 501):
            cipher.encrypt(b"bucket bytes", 7, counter)
        assert len(cipher._pads) == 1

    def test_decrypt_at_current_counter_derives_no_pad(self):
        cipher = CounterModeCipher(KEY_A)
        ciphertext = cipher.encrypt(b"bucket bytes", 7, 4)
        calls = self.counted(cipher)
        assert cipher.decrypt(ciphertext, 7, 4) == b"bucket bytes"
        assert calls == []

    def test_older_counter_still_decrypts(self):
        cipher = CounterModeCipher(KEY_A)
        old = cipher.encrypt(b"old bucket", 7, 1)
        new = cipher.encrypt(b"new bucket", 7, 2)
        calls = self.counted(cipher)
        assert cipher.decrypt(old, 7, 1) == b"old bucket"
        assert calls == [len(old)]
        assert cipher.decrypt(new, 7, 2) == b"new bucket"

    def test_short_request_served_from_longer_pad(self):
        cipher = CounterModeCipher(KEY_A)
        long_pad = cipher.pad(3, 9, 64)
        calls = self.counted(cipher)
        assert cipher.pad(3, 9, 12) == long_pad[:12]
        assert calls == []


class TestMacEngine:
    def test_verify_accepts_valid(self):
        mac = MacEngine(KEY_A)
        tag = mac.tag(b"payload")
        mac.verify(b"payload", tag)

    def test_verify_rejects_tamper(self):
        mac = MacEngine(KEY_A)
        tag = mac.tag(b"payload")
        with pytest.raises(MacError):
            mac.verify(b"payloae", tag)

    def test_verify_rejects_wrong_key(self):
        tag = MacEngine(KEY_A).tag(b"payload")
        with pytest.raises(MacError):
            MacEngine(KEY_B).verify(b"payload", tag)


class TestPmmac:
    def test_roundtrip(self):
        auth = PmmacAuthenticator(KEY_A)
        tag = auth.tag(42, 7, b"bucket bytes")
        auth.verify(42, 7, b"bucket bytes", tag)

    def test_replay_detected(self):
        """A stale bucket (old counter) fails against the current counter."""
        auth = PmmacAuthenticator(KEY_A)
        stale_tag = auth.tag(42, 7, b"bucket bytes")
        with pytest.raises(MacError):
            auth.verify(42, 8, b"bucket bytes", stale_tag)

    def test_relocation_detected(self):
        """A bucket copied to another tree position fails."""
        auth = PmmacAuthenticator(KEY_A)
        tag = auth.tag(42, 7, b"bucket bytes")
        with pytest.raises(MacError):
            auth.verify(43, 7, b"bucket bytes", tag)


class TestSession:
    def test_handshake_agrees(self):
        authority = CertificateAuthority()
        cpu_side, buffer_side = establish_session(
            0, b"buffer-seed", b"cpu-seed", authority)
        ciphertext, tag = cpu_side.encrypt_upstream(b"ACCESS leaf=5")
        assert buffer_side.decrypt_upstream(ciphertext, tag, 0) == \
            b"ACCESS leaf=5"

    def test_downstream_direction(self):
        authority = CertificateAuthority()
        cpu_side, buffer_side = establish_session(
            1, b"buffer-seed", b"cpu-seed", authority)
        ciphertext, tag = buffer_side.encrypt_downstream(b"block data")
        assert cpu_side.decrypt_downstream(ciphertext, tag, 0) == b"block data"

    def test_counters_advance(self):
        authority = CertificateAuthority()
        cpu_side, buffer_side = establish_session(
            2, b"buffer-seed", b"cpu-seed", authority)
        first, _ = cpu_side.encrypt_upstream(b"same message")
        second, _ = cpu_side.encrypt_upstream(b"same message")
        assert first != second
        assert cpu_side.upstream_counter == 2

    def test_tampered_message_rejected(self):
        authority = CertificateAuthority()
        cpu_side, buffer_side = establish_session(
            3, b"buffer-seed", b"cpu-seed", authority)
        ciphertext, tag = cpu_side.encrypt_upstream(b"ACCESS leaf=5")
        corrupted = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
        with pytest.raises(MacError):
            buffer_side.decrypt_upstream(corrupted, tag, 0)

    def test_unknown_buffer_rejected(self):
        authority = CertificateAuthority()
        with pytest.raises(AuthenticationError):
            authority.lookup(99)

    def test_identity_is_frozen(self):
        identity = BufferIdentity(0, 123)
        with pytest.raises(Exception):
            identity.public_key = 456
