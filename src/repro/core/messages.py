"""Wire formats for the CPU <-> secure-buffer link, end to end.

This module closes the loop between three pieces that the protocol classes
otherwise use abstractly: the session crypto (:mod:`repro.crypto.session`),
the Table I command encoding (:mod:`repro.core.commands`), and the
Independent-protocol buffer logic.  A :class:`CpuPort` serializes a
message, encrypts it under the upstream session key, and wraps it in the
DDR frame its command dictates; an :class:`SdimmPort` does the reverse and
drives an :class:`~repro.core.independent.IndependentBuffer`.

Every message kind serializes to a *fixed* length — ACCESS and APPEND
always carry a full block whether or not they are dummies — because the
frame sizes are part of what the bus adversary sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.commands import CommandEncoder, DdrFrame, SdimmCommand
from repro.core.independent import (AccessOutcome, IndependentBuffer,
                                    PartitionedProtocol)
from repro.crypto.session import SecureSession
from repro.obs.tracer import NULL_TRACER
from repro.oram.bucket import Block
from repro.oram.path_oram import Op
from repro.utils.rng import DeterministicRng

_OP_READ = 0
_OP_WRITE = 1


class ReplayError(Exception):
    """A link message with a stale counter was replayed on the bus."""


@dataclass(frozen=True)
class AccessMessage:
    """The accessORAM request: address, leaf, operation, one block."""

    address: int
    leaf: int
    op: Op
    payload: bytes  # a dummy block for reads (same size, same look)

    def serialize(self) -> bytes:
        op_byte = _OP_WRITE if self.op is Op.WRITE else _OP_READ
        return (self.address.to_bytes(8, "little") +
                self.leaf.to_bytes(8, "little") +
                bytes([op_byte]) + self.payload)

    @classmethod
    def parse(cls, raw: bytes, block_bytes: int) -> "AccessMessage":
        if len(raw) != 17 + block_bytes:
            raise ValueError(f"ACCESS message must be {17 + block_bytes} "
                             f"bytes, got {len(raw)}")
        op = Op.WRITE if raw[16] == _OP_WRITE else Op.READ
        return cls(int.from_bytes(raw[:8], "little"),
                   int.from_bytes(raw[8:16], "little"), op, raw[17:])


@dataclass(frozen=True)
class ResultMessage:
    """FETCH_RESULT response: the block (or a dummy) plus its new leaf."""

    payload: bytes
    new_leaf: int
    is_dummy: bool

    def serialize(self) -> bytes:
        return (self.new_leaf.to_bytes(8, "little") +
                bytes([1 if self.is_dummy else 0]) + self.payload)

    @classmethod
    def parse(cls, raw: bytes, block_bytes: int) -> "ResultMessage":
        if len(raw) != 9 + block_bytes:
            raise ValueError("RESULT message has the wrong size")
        return cls(raw[9:], int.from_bytes(raw[:8], "little"),
                   raw[8] == 1)


@dataclass(frozen=True)
class AppendMessage:
    """APPEND: a (possibly dummy) block headed for a transfer queue."""

    is_dummy: bool
    address: int
    leaf: int
    payload: bytes

    def serialize(self) -> bytes:
        return (bytes([1 if self.is_dummy else 0]) +
                self.address.to_bytes(8, "little") +
                self.leaf.to_bytes(8, "little") + self.payload)

    @classmethod
    def parse(cls, raw: bytes, block_bytes: int) -> "AppendMessage":
        if len(raw) != 17 + block_bytes:
            raise ValueError("APPEND message has the wrong size")
        return cls(raw[0] == 1, int.from_bytes(raw[1:9], "little"),
                   int.from_bytes(raw[9:17], "little"), raw[17:])

    @classmethod
    def dummy(cls, block_bytes: int) -> "AppendMessage":
        return cls(True, 0, 0, bytes(block_bytes))


class CpuPort:
    """CPU-side endpoint: message -> ciphertext -> DDR frame."""

    def __init__(self, session: SecureSession, block_bytes: int):
        self._session = session
        self._encoder = CommandEncoder()
        self.block_bytes = block_bytes
        self.frames_sent = 0

    def send(self, command: SdimmCommand, message) -> DdrFrame:
        ciphertext, tag = self._session.encrypt_upstream(message.serialize())
        self.frames_sent += 1
        counter = (self._session.upstream_counter - 1).to_bytes(8, "little")
        return self._encoder.encode(command, counter + tag + ciphertext)

    def send_probe(self) -> DdrFrame:
        self.frames_sent += 1
        return self._encoder.encode(SdimmCommand.PROBE)

    def send_fetch_result(self) -> DdrFrame:
        self.frames_sent += 1
        return self._encoder.encode(SdimmCommand.FETCH_RESULT)

    def receive_result(self, ciphertext_frame: bytes) -> ResultMessage:
        counter = int.from_bytes(ciphertext_frame[:8], "little")
        tag = ciphertext_frame[8:16]
        plaintext = self._session.decrypt_downstream(
            ciphertext_frame[16:], tag, counter)
        return ResultMessage.parse(plaintext, self.block_bytes)


class SdimmPort:
    """Buffer-side endpoint: DDR frame -> plaintext -> buffer operation.

    Wraps one :class:`IndependentBuffer`; the pending result is buffered
    until the CPU's PROBE/FETCH_RESULT pair collects it, exactly as a DDR
    slave that cannot initiate transfers must behave.
    """

    def __init__(self, buffer: IndependentBuffer, session: SecureSession):
        self.buffer = buffer
        self._session = session
        self._encoder = CommandEncoder()
        self._pending_result: Optional[bytes] = None
        self._highest_counter = -1
        self.frames_handled = 0

    def handle(self, frame: DdrFrame) -> Optional[bytes]:
        """Process one frame; returns response bytes for short reads."""
        self.frames_handled += 1
        command, payload, _ = self._encoder.decode(frame)
        if command is SdimmCommand.PROBE:
            return b"\x01" if self._pending_result is not None else b"\x00"
        if command is SdimmCommand.FETCH_RESULT:
            if self._pending_result is None:
                raise LookupError("FETCH_RESULT with no pending response")
            result, self._pending_result = self._pending_result, None
            return result
        plaintext = self._decrypt(payload)
        if command is SdimmCommand.ACCESS:
            self._handle_access(plaintext)
            return None
        if command is SdimmCommand.APPEND:
            self._handle_append(plaintext)
            return None
        raise ValueError(f"unsupported command {command}")

    def _decrypt(self, payload: bytes) -> bytes:
        counter = int.from_bytes(payload[:8], "little")
        if counter <= self._highest_counter:
            raise ReplayError(f"message counter {counter} already seen "
                              f"(highest: {self._highest_counter})")
        tag = payload[8:16]
        plaintext = self._session.decrypt_upstream(payload[16:], tag,
                                                   counter)
        self._highest_counter = counter
        return plaintext

    def _handle_access(self, plaintext: bytes) -> None:
        message = AccessMessage.parse(plaintext, self.buffer.oram.block_bytes)
        data = message.payload if message.op is Op.WRITE else None
        outcome = self.buffer.access(message.address, message.leaf,
                                     message.op, data)
        stays_local = outcome.moved_block is None
        dummy = message.op is Op.WRITE and stays_local
        result = ResultMessage(
            payload=bytes(len(message.payload)) if dummy else outcome.data,
            new_leaf=outcome.new_global_leaf,
            is_dummy=dummy)
        ciphertext, tag = self._session.encrypt_downstream(
            result.serialize())
        counter = (self._session.downstream_counter - 1).to_bytes(8,
                                                                  "little")
        self._pending_result = counter + tag + ciphertext

    def _handle_append(self, plaintext: bytes) -> None:
        message = AppendMessage.parse(plaintext,
                                      self.buffer.oram.block_bytes)
        if message.is_dummy:
            self.buffer.append(None)
        else:
            self.buffer.append(Block(message.address, message.leaf,
                                     message.payload))


class WiredSite:
    """One SDIMM behind its port pair, as a partitioned-protocol site.

    Steps 1 and 5 travel as frames: ``access`` sends ACCESS, PROBEs until
    the result is ready and collects it with FETCH_RESULT; ``append``
    sends one APPEND frame, real or dummy.
    """

    def __init__(self, cpu: CpuPort, port: SdimmPort):
        self.cpu = cpu
        self.port = port
        buffer = port.buffer
        self.site_id = buffer.site_id
        self.owner_of = buffer.owner_of
        self.global_leaf_count = buffer.global_leaf_count
        self.queue = buffer.queue

    def access(self, address: int, old_leaf: int, op: Op,
               data: Optional[bytes]) -> AccessOutcome:
        cpu, port = self.cpu, self.port
        payload = data if op is Op.WRITE else bytes(cpu.block_bytes)
        port.handle(cpu.send(SdimmCommand.ACCESS,
                             AccessMessage(address, old_leaf, op, payload)))
        # PROBE until ready (immediate here; the timing tier models delay)
        while port.handle(cpu.send_probe()) != b"\x01":
            pass
        result = cpu.receive_result(port.handle(cpu.send_fetch_result()))
        moved = None
        if self.owner_of(result.new_leaf) != self.site_id:  # reprolint: disable=SEC003 -- the new owner derives from the fresh remap leaf; every SDIMM receives an identically shaped APPEND frame and real-vs-dummy sits under the link encryption, so the branch is invisible on the bus
            moved = Block(address, result.new_leaf,
                          result.payload if op is Op.READ else payload)
        return AccessOutcome(result.payload, result.new_leaf, moved)

    def wrap_store(self, wrapper) -> None:
        """The store sits behind the port, in the buffer: wrap it there."""
        self.port.buffer.wrap_store(wrapper)

    def append(self, block: Optional[Block]) -> None:
        message = (AppendMessage.dummy(self.cpu.block_bytes)
                   if block is None
                   else AppendMessage(False, block.address, block.leaf,
                                      block.data))
        self.port.handle(self.cpu.send(SdimmCommand.APPEND, message))


class WiredIndependentProtocol(PartitionedProtocol):
    """The Independent protocol with every byte travelling as DDR frames.

    Functionally equivalent to
    :class:`~repro.core.independent.IndependentProtocol`, but the CPU and
    the buffers communicate exclusively through encrypted, Table I-framed
    messages — the executable proof that the protocol fits the legacy DDR
    interface with no new pins.  Each site is a :class:`WiredSite`.
    """

    label = "wired-independent"

    def __init__(self, global_levels: int, sdimm_count: int,
                 block_bytes: int = 64, stash_capacity: int = 200,
                 seed: int = 2018):
        from repro.crypto.session import (CertificateAuthority,
                                          establish_session)

        rng = DeterministicRng(seed, self.label)
        authority = CertificateAuthority()
        self.cpu_ports = []
        self.sdimm_ports = []
        for index in range(sdimm_count):
            cpu_session, buffer_session = establish_session(
                index, rng.random_bytes(16), rng.random_bytes(16),
                authority)
            buffer = IndependentBuffer(
                site_id=index, sites=sdimm_count,
                global_levels=global_levels,
                blocks_per_bucket=4, block_bytes=block_bytes,
                stash_capacity=stash_capacity,
                transfer_queue_capacity=128, drain_probability=0.05,
                rng=rng)
            self.cpu_ports.append(CpuPort(cpu_session, block_bytes))
            self.sdimm_ports.append(SdimmPort(buffer, buffer_session))
        super().__init__([WiredSite(cpu, port) for cpu, port
                          in zip(self.cpu_ports, self.sdimm_ports)],
                         rng, seed, block_bytes, tracer=NULL_TRACER)

    def _result_phase(self, owner: int) -> None:
        """Step 5 already ran as frames inside the owner's site."""
