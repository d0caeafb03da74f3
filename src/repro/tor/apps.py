"""Enclave programs for SGX-enabled Tor (paper Section 3.2).

* :class:`OnionRouterEnclaveProgram` — a full onion router inside an
  enclave: circuit keys, onion crypto and exit plaintext never leave
  the measurement boundary.  It registers with directory authorities
  over mutually attested channels, so admission is automatic ("this
  may serve as an incentive to deploy SGX-enabled ORs because
  currently addition of new ORs requires manual approval").
* :class:`DirectoryAuthorityProgram` — a directory authority inside an
  enclave: its signing key is generated in-enclave (and sealable);
  vote verification and consensus computation happen inside; a host
  attacker "cannot alter the directory behavior", only kill it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.core.app import SecureApplicationProgram
from repro.errors import TorError
from repro.sgx.keys import SealPolicy
from repro.tor.directory import (
    ConsensusDocument,
    ConsensusEntry,
    DirectoryAuthorityCore,
    RouterDescriptor,
    RouterFlag,
    Vote,
    build_consensus,
)
from repro.tor.handshake import OnionKeyPair
from repro.tor.relay import RelayCore
from repro.wire import Reader, Writer

__all__ = [
    "OnionRouterEnclaveProgram",
    "DirectoryAuthorityProgram",
    "TAG_OR_REGISTER",
    "TAG_REGISTER_RESULT",
    "TAG_CONSENSUS_REQ",
    "TAG_CONSENSUS_RESP",
    "encode_consensus_response",
    "decode_consensus_response",
]

TAG_OR_REGISTER = 1
TAG_REGISTER_RESULT = 2
TAG_CONSENSUS_REQ = 3
TAG_CONSENSUS_RESP = 4

_FLAG_CODES = {flag: i for i, flag in enumerate(RouterFlag)}
_FLAG_FROM_CODE = {i: flag for flag, i in _FLAG_CODES.items()}


def encode_consensus_response(
    document: ConsensusDocument, authority: str, signature
) -> bytes:
    writer = Writer().u8(TAG_CONSENSUS_RESP)
    writer.u64(int(document.valid_after * 1000))
    writer.u64(int(document.lifetime * 1000))
    writer.u32(len(document.entries))
    for entry in sorted(document.entries, key=lambda e: e.nickname):
        writer.varbytes(entry.descriptor.encode())
        writer.u32(len(entry.flags))
        for flag in sorted(entry.flags, key=lambda f: f.value):
            writer.u8(_FLAG_CODES[flag])
    writer.string(authority)
    writer.varbytes(signature.encode())
    return writer.getvalue()


def decode_consensus_response(data: bytes):
    """Returns (ConsensusDocument-with-one-signature, authority name)."""
    from repro.crypto.schnorr import SchnorrSignature

    reader = Reader(data)
    tag = reader.u8()
    if tag != TAG_CONSENSUS_RESP:
        raise TorError(f"expected consensus response, got tag {tag}")
    valid_after = reader.u64() / 1000.0
    lifetime = reader.u64() / 1000.0
    entries = []
    for _ in range(reader.u32()):
        descriptor = RouterDescriptor.decode(reader.varbytes())
        flags = frozenset(_FLAG_FROM_CODE[reader.u8()] for _ in range(reader.u32()))
        entries.append(ConsensusEntry(descriptor=descriptor, flags=flags))
    authority = reader.string()
    signature = SchnorrSignature.decode(reader.varbytes())
    document = ConsensusDocument(
        valid_after=valid_after, entries=entries, lifetime=lifetime
    )
    document.add_signature(authority, signature)
    return document, authority


class OnionRouterEnclaveProgram(SecureApplicationProgram):
    """An onion router whose engine runs inside the enclave."""

    RELAY_CORE_CLASS = RelayCore

    def on_load(self, ctx) -> None:
        super().on_load(ctx)
        self._core: Optional[RelayCore] = None
        self._descriptor: Optional[RouterDescriptor] = None
        self._registration_results: Dict[str, bool] = {}

    # -- setup ------------------------------------------------------------------

    def configure_relay(
        self,
        nickname: str,
        exit_ports: FrozenSet[int] = frozenset(),
        bandwidth: int = 100,
    ) -> bytes:
        """Create the relay engine in-enclave; returns the descriptor."""
        onion_key = OnionKeyPair.generate(self.ctx.rng.fork("onion-key"))
        self._core = self.RELAY_CORE_CLASS(
            nickname, onion_key, self.ctx.rng.fork("relay")
        )
        self._descriptor = RouterDescriptor(
            nickname=nickname,
            or_port=9001,
            onion_public=onion_key.public,
            exit_ports=frozenset(exit_ports),
            bandwidth=bandwidth,
        )
        return self._descriptor.encode()

    def seal_onion_key(self) -> bytes:
        """Persist the long-term key: sealed to this exact build."""
        if self._core is None:
            raise TorError("relay not configured")
        private = self._core.onion_key.keypair.private
        return self.ctx.seal(private.to_bytes(128, "big"), SealPolicy.MRENCLAVE)

    # -- data plane (ecalls from the untrusted host pump) ----------------------------

    def handle_cell(self, link_id: int, cell_bytes: bytes):
        return self._engine().handle_cell(link_id, cell_bytes)

    def handle_cells(self, cells):
        """Batched cell processing: one ecall for a burst of cells."""
        return self._engine().handle_cells(cells)

    def link_opened(self, ref: int, link_id: int):
        return self._engine().link_opened(ref, link_id)

    def stream_opened(self, stream_ref):
        return self._engine().stream_opened(stream_ref)

    def stream_data(self, stream_ref, data: bytes):
        return self._engine().stream_data(stream_ref, data)

    def cells_processed(self) -> int:
        return self._engine().cells_processed

    def _engine(self) -> RelayCore:
        if self._core is None:
            raise TorError("relay not configured")
        return self._core

    # -- registration over the attested control channel -------------------------------

    def _on_session_established(self, session_id: str) -> None:
        if self._descriptor is None:
            raise TorError("relay not configured before registration")
        payload = (
            Writer().u8(TAG_OR_REGISTER).varbytes(self._descriptor.encode()).getvalue()
        )
        self._send_secure(session_id, payload)

    def _on_secure_message(self, session_id: str, payload: bytes) -> Optional[bytes]:
        reader = Reader(payload)
        tag = reader.u8()
        if tag == TAG_REGISTER_RESULT:
            authority = reader.string()
            admitted = bool(reader.u8())
            self._registration_results[authority] = admitted
        return None

    def registration_results(self) -> Dict[str, bool]:
        return dict(self._registration_results)


class DirectoryAuthorityProgram(SecureApplicationProgram):
    """A directory authority inside an enclave."""

    def on_load(self, ctx) -> None:
        super().on_load(ctx)
        self._core: Optional[DirectoryAuthorityCore] = None
        self._peer_keys: Dict[str, int] = {}
        self._n_authorities = 1
        self._consensus: Optional[ConsensusDocument] = None

    # -- setup -------------------------------------------------------------------

    def configure_authority(
        self,
        name: str,
        require_attestation: bool = False,
        accepted_mrenclaves: Optional[FrozenSet[bytes]] = None,
    ) -> int:
        """Create the authority core in-enclave; returns its public key."""
        self._core = DirectoryAuthorityCore(
            name,
            self.ctx.rng.fork("authority"),
            require_attestation=require_attestation,
            accepted_mrenclaves=accepted_mrenclaves,
        )
        return self._core.public_key

    def install_peer_keys(self, keys: Dict[str, int], n_authorities: int) -> None:
        """The other authorities' vote-signing keys (audited config)."""
        self._peer_keys = dict(keys)
        self._n_authorities = n_authorities

    def public_key(self) -> int:
        return self._authority().public_key

    # -- persistence across restarts (sealed to this exact build) --------------------

    def seal_state(self) -> bytes:
        """Seal the authority's long-lived state (signing key + the
        registered-relay table) so a restart — e.g. after the host
        killed the enclave, the one attack it can always mount — can
        resume with the *same* identity.  MRENCLAVE sealing policy:
        only this exact build can recover the key."""
        core = self._authority()
        writer = Writer().string(core.name)
        writer.varint(core.signing_key.x)
        registered = core.registered()
        writer.u32(len(registered))
        for nickname in registered:
            writer.varbytes(core._registered[nickname].encode())
        return self.ctx.seal(writer.getvalue())

    def restore_state(self, blob: bytes) -> str:
        """Recover sealed state in a freshly launched instance."""
        from repro.crypto.dh import MODP_1024
        from repro.crypto.numtheory import modexp
        from repro.crypto.schnorr import SchnorrKeyPair

        reader = Reader(self.ctx.unseal(blob))
        name = reader.string()
        x = reader.varint()
        core = DirectoryAuthorityCore(name, self.ctx.rng.fork("restore"))
        core.signing_key = SchnorrKeyPair(
            group=MODP_1024, x=x, y=modexp(MODP_1024.g, x, MODP_1024.p)
        )
        for _ in range(reader.u32()):
            descriptor = RouterDescriptor.decode(reader.varbytes())
            core._registered[descriptor.nickname] = descriptor
        self._core = core
        return name

    # -- voting round (driven by the untrusted host; all checks inside) ---------------

    def produce_vote(self) -> Vote:
        return self._authority().vote()

    def compute_consensus(self, votes: List[Vote], valid_after: float) -> None:
        """Verify peer votes and build + sign the consensus in-enclave.

        Vote signatures are verified against the configured peer keys,
        so a malicious host relaying votes between authorities cannot
        forge or alter them.
        """
        core = self._authority()
        keys = dict(self._peer_keys)
        keys[core.name] = core.public_key
        document = build_consensus(
            votes, self._n_authorities, valid_after, authority_keys=keys
        )
        document.add_signature(core.name, core.sign_consensus(document))
        self._consensus = document

    def consensus_entry_count(self) -> int:
        return len(self._consensus.entries) if self._consensus else 0

    def mark_down(self, nickname: str) -> None:
        self._authority().mark_down(nickname)

    # -- secure messages: OR registration and client fetch ------------------------------

    def _on_secure_message(self, session_id: str, payload: bytes) -> Optional[bytes]:
        reader = Reader(payload)
        tag = reader.u8()
        core = self._authority()

        if tag == TAG_OR_REGISTER:
            descriptor = RouterDescriptor.decode(reader.varbytes())
            peer = self.session_peer(session_id)
            attested = peer.mrenclave if peer is not None else None
            admitted = core.register(
                descriptor,
                attested_mrenclave=attested,
                manual_approved=not core.require_attestation,
            )
            return (
                Writer()
                .u8(TAG_REGISTER_RESULT)
                .string(core.name)
                .u8(1 if admitted else 0)
                .getvalue()
            )

        if tag == TAG_CONSENSUS_REQ:
            if self._consensus is None:
                raise TorError(f"authority {core.name} has no consensus yet")
            return encode_consensus_response(
                self._consensus,
                core.name,
                core.sign_consensus(self._consensus),
            )

        return None

    def _authority(self) -> DirectoryAuthorityCore:
        if self._core is None:
            raise TorError("authority not configured")
        return self._core
