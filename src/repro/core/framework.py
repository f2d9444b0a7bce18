"""The assembled framework: Figure 1 of the paper as one object.

:class:`Framework` stands up the whole system — the HLF-like channel with
all five chaincodes installed, the IPFS cluster, the trust engine, and the
validator pool — in the paper's testbed shape by default (two orgs / two
peers, one orderer, two IPFS nodes, BFT validation). :class:`FrameworkConfig`
exposes every knob the benchmarks sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaincodes import (
    AdminEnrollmentChaincode,
    DataRetrievalChaincode,
    DataUploadChaincode,
    ProvenanceChaincode,
    TrustScoreChaincode,
    UserRegistrationChaincode,
)
from repro.chaincodes.access import AccessControlChaincode
from repro.errors import (
    AccessDeniedError,
    ChaincodeError,
    ChaincodeNotFoundError,
    CircuitOpenError,
    FabricError,
    IdentityError,
    MVCCConflictError,
    TrustError,
)
from repro.fabric import Channel, FabricNetwork, Identity, Role
from repro.fabric.tx import ValidationCode
from repro.ipfs import FixedSizeChunker, IpfsCluster
from repro.ipfs.chunker import Chunker
from repro.resilience import ResilienceHub, RetryPolicy, retry
from repro.trust import SourceTier, TrustEngine, ValidatorPool


@dataclass(frozen=True)
class FrameworkConfig:
    """Deployment knobs; defaults mirror the paper's experimental setup
    (§IV a: one channel, two peer nodes, one orderer, two IPFS nodes)."""

    orgs: tuple[str, ...] = ("org1", "org2")
    peers_per_org: int = 1
    consensus: str = "bft"            # "solo" | "bft"
    n_validators: int = 4
    max_batch_size: int = 1
    n_ipfs_nodes: int = 2
    chunk_size: int = 64 * 1024
    channel_name: str = "traffic"
    trusted_threshold: float = 0.75
    min_trust_threshold: float = 0.25
    # Paper §III: "If discrepancies are detected, the data may require
    # further validation from multiple trusted sources before it is
    # recorded." With strict admission, a low-trust source's submission is
    # rejected up-front when trusted neighbours contradict its observation.
    strict_admission: bool = False
    corroboration_floor: float = 0.5
    # Resilience layer (retry/breaker semantics shared by every hot path).
    retry_max_attempts: int = 4
    breaker_failure_threshold: int = 8
    breaker_cooldown_s: float = 0.25
    resilience_seed: int = 0
    # Runtime sanitizer modes (repro.analysis): "" disables, "all" enables
    # everything, or a comma list of
    # divergence/ledger/consensus/recovery/index. Combined with the
    # REPRO_SANITIZE environment variable at build time.
    sanitize: str = ""
    # Durable node state (repro.storage): when enabled, every peer and the
    # orderer journal to a simulated DurableStore (WAL + checkpoints), and
    # crash faults become real amnesia with WAL/checkpoint recovery.
    durability: bool = False
    checkpoint_interval: int = 8   # blocks between checkpoints (0 disables)
    wal_sync_every: int = 1        # fsync the WAL every N blocks
    # Block-incremental authenticated secondary index (repro.index): every
    # peer maintains per-block posting filters plus a cumulative index the
    # query planner routes equality/range/time predicates through.
    index_enabled: bool = True


class Framework:
    """Everything the paper's client talks to, wired together."""

    def __init__(self, config: FrameworkConfig | None = None, chunker: Chunker | None = None) -> None:
        self.config = config or FrameworkConfig()
        cfg = self.config
        self.fabric = FabricNetwork()
        # Sanitizers must attach before any invoke (the admin enrollment
        # below is already a checked endorsement+commit when enabled).
        from repro.analysis.runtime import install_sanitizers

        self.channel: Channel = self.fabric.create_channel(
            cfg.channel_name,
            orgs=list(cfg.orgs),
            peers_per_org=cfg.peers_per_org,
            consensus=cfg.consensus,
            max_batch_size=cfg.max_batch_size,
            n_validators=cfg.n_validators,
            consensus_checkpoint_interval=(
                cfg.checkpoint_interval if cfg.durability else 0
            ),
        )
        self.sanitizer = install_sanitizers(self.channel, spec=cfg.sanitize)
        # Durable storage attaches before the first invoke so even the
        # genesis/admin commits are journaled.
        self.durability = None
        if cfg.durability:
            from repro.storage import DurabilityManager

            self.durability = DurabilityManager(
                self.channel,
                checkpoint_interval=cfg.checkpoint_interval,
                wal_sync_every=cfg.wal_sync_every,
            )
        # The secondary index attaches before the first invoke so epoch 0
        # covers the admin-enrollment block; the durability journal above
        # records each epoch digest into the WAL.
        self.indexing = None
        if cfg.index_enabled:
            from repro.index import IndexManager

            self.indexing = IndexManager(
                self.channel,
                trusted_threshold=cfg.trusted_threshold,
                min_threshold=cfg.min_trust_threshold,
            )
        for chaincode in (
            AdminEnrollmentChaincode(),
            UserRegistrationChaincode(),
            DataUploadChaincode(),
            DataRetrievalChaincode(),
            ProvenanceChaincode(),
            TrustScoreChaincode(),
            AccessControlChaincode(),
        ):
            self.channel.install_chaincode(chaincode)
        self.ipfs = IpfsCluster(
            n_nodes=cfg.n_ipfs_nodes,
            chunker=chunker or FixedSizeChunker(cfg.chunk_size),
        )
        self.trust = TrustEngine(
            trusted_threshold=cfg.trusted_threshold,
            min_threshold=cfg.min_trust_threshold,
        )
        self.resilience = ResilienceHub(
            retry_policy=RetryPolicy(max_attempts=cfg.retry_max_attempts),
            failure_threshold=cfg.breaker_failure_threshold,
            cooldown_s=cfg.breaker_cooldown_s,
            seed=cfg.resilience_seed,
        )
        self.validator_pool = ValidatorPool()
        if cfg.consensus == "bft":
            for name in self.channel.orderer.cluster.replica_names:  # type: ignore[attr-defined]
                self.validator_pool.add_validator(name)
        # The operator identity used for registration bookkeeping.
        self.admin = self.fabric.register_identity("framework-admin", cfg.orgs[0], Role.ADMIN)
        self.channel.invoke(self.admin, "admin_enrollment", "enroll_admin", ["framework-admin"])

    # -- resilient write path ---------------------------------------------------

    # Deterministic request-level failures: every retry would fail the same
    # way, so the resilience layer lets them propagate immediately.
    _NO_RETRY = (
        ChaincodeError,
        ChaincodeNotFoundError,
        AccessDeniedError,
        IdentityError,
        CircuitOpenError,
    )

    def resilient_invoke(
        self,
        identity: Identity,
        chaincode: str,
        fn: str,
        args: list[str],
        op: str | None = None,
        endorsing_orgs: list[str] | None = None,
        transient: dict[str, bytes] | None = None,
    ):
        """``channel.invoke`` hardened for a faulty deployment.

        Each attempt passes through the ``"fabric"`` circuit breaker, and
        transient failures — endorsement failures after peer failover,
        ordering hiccups, MVCC read conflicts — are retried with exponential
        backoff and deterministic jitter. Every retry builds a *fresh*
        proposal (new nonce, new tx id), so a transaction stalled inside a
        slow consensus instance can still commit later: the write path is
        at-least-once, and idempotence lives in the chaincodes.
        """
        op = op or f"{chaincode}.{fn}"
        breaker = self.resilience.breaker("fabric")

        def attempt():
            if not breaker.allow():
                raise CircuitOpenError("fabric", breaker.retry_after_s())
            try:
                result = self.channel.invoke(
                    identity, chaincode, fn, args, endorsing_orgs, transient
                )
            except self._NO_RETRY:
                raise
            except FabricError:
                breaker.record_failure()
                raise
            if result.code is ValidationCode.MVCC_READ_CONFLICT:
                # A conflict is contention, not dependency sickness — retry
                # with a fresh read set but don't count it against fabric.
                raise MVCCConflictError(
                    f"transaction {result.tx_id!r} hit an MVCC read conflict"
                )
            breaker.record_success()
            return result

        return retry(
            attempt,
            policy=self.resilience.retry_policy,
            retryable=(FabricError,),
            should_retry=lambda exc: not isinstance(exc, self._NO_RETRY),
            op=op,
            seed=self.resilience.seed,
        )

    # -- source management (paper Figure 1: users register before submitting) --

    def register_source(
        self, source_id: str, org: str | None = None, tier: SourceTier = SourceTier.UNTRUSTED
    ) -> Identity:
        """Register a data source end to end: MSP identity, on-chain user
        record, and trust-engine tier."""
        org = org or self.config.orgs[0]
        identity = self.fabric.register_identity(source_id, org, Role.CLIENT)
        tier_str = "trusted" if tier is SourceTier.TRUSTED else "untrusted"
        self.resilient_invoke(
            self.admin,
            "user_registration",
            "register_user",
            [source_id, org, tier_str, identity.keypair.public.hex()],
        )
        self.trust.register_source(source_id, tier)
        return identity

    def consensus_votes(self, tx_id: str) -> dict[str, bool]:
        """Per-validator validity votes for a transaction (BFT mode only)."""
        orderer = self.channel.orderer
        decisions = getattr(orderer, "decisions", None)
        if not decisions or tx_id not in decisions:
            return {}
        return dict(decisions[tx_id].votes)

    def observe_validators(self, tx_id: str, accepted: bool) -> list[str]:
        """Feed one consensus outcome into the validator pool; records any
        newly flagged/removed validators on-chain (paper §III-A)."""
        votes = self.consensus_votes(tx_id)
        if not votes:
            return []
        removed = self.validator_pool.observe_decision(accepted, votes)
        for name in removed:
            self.resilient_invoke(
                self.admin,
                "trust_score",
                "remove_validator",
                [name, "repeatedly acted against consensus"],
            )
        return removed

    def record_trust_on_chain(self, source_id: str) -> None:
        import json

        record = self.trust.chain_record(source_id)
        self.resilient_invoke(
            self.admin, "trust_score", "put_score", [source_id, json.dumps(record)]
        )

    def require_registered(self, source_id: str) -> None:
        if not self.trust.is_registered(source_id):
            raise TrustError(f"source {source_id!r} is not registered")
