"""Weighted Orlicz sequence spaces at desk scale.

Numerics for spaces of complex sequences whose weighted modular
sum_m w_m (1 + phi(|m|))**k phi(|p_m|/rho) is finite: Luxemburg norms by
certified bracketing, membership classification under geometric envelopes,
continuous-embedding certificates from function domination, and constructive
compactness data (uniform tail indices and finite-dimensional coverings) for
closed balls.
"""

from .errors import (CertificateError, CertificateRefutedError,
                     CompositionError, ComputationOverflowError, DomainError,
                     OrliczSeqError, PreconditionError)
from .functions import (Delta2Report, ExpCompose, ExpLinear, ExpSquare,
                        GeometricProbe, OrliczFunction, Power,
                        TabulatedConvex, ThetaBound, ValidationReport,
                        default_probe_grid, delta2_at_zero, parse_orlicz,
                        theta_bound, validate_orlicz)
from .spaces import (GeometricEnvelope, MembershipReport, SeqVector,
                     SpaceParams, TailCertificate, WeightSequence, classify,
                     measures, modular, modular_tail_bound, mu, parse_weights,
                     weight_poly_bound)
from .luxemburg import (AxiomReport, NormResult, luxemburg_norm,
                        luxemburg_norms, schauder_curve, schauder_truncate,
                        verify_norm_axioms)
from .embeddings import (BallTailCertificate, ChainLink, ChainReport,
                         CoveringReport, DominationWitness,
                         EmbeddingCertificate, EmbeddingCheck,
                         chain_embeddings, check_domination, covering_check,
                         embedding_constant, sample_ball, uniform_tail_index,
                         verify_embedding)

__version__ = "0.1.0"

__all__ = [
    "OrliczSeqError", "DomainError", "PreconditionError", "CompositionError",
    "CertificateError", "ComputationOverflowError", "CertificateRefutedError",
    "OrliczFunction", "Power", "ExpSquare", "ExpLinear", "ExpCompose",
    "TabulatedConvex", "parse_orlicz", "validate_orlicz", "ValidationReport",
    "default_probe_grid", "GeometricProbe", "Delta2Report", "delta2_at_zero",
    "ThetaBound", "theta_bound",
    "WeightSequence", "parse_weights", "SpaceParams", "SeqVector", "measures",
    "mu", "modular", "GeometricEnvelope", "weight_poly_bound", "modular_tail_bound",
    "TailCertificate", "MembershipReport", "classify",
    "NormResult", "luxemburg_norm", "luxemburg_norms", "AxiomReport",
    "verify_norm_axioms",
    "schauder_truncate", "schauder_curve",
    "DominationWitness", "check_domination", "EmbeddingCertificate",
    "embedding_constant", "EmbeddingCheck", "verify_embedding",
    "BallTailCertificate", "uniform_tail_index", "sample_ball",
    "CoveringReport", "covering_check", "ChainLink", "ChainReport",
    "chain_embeddings",
    "__version__",
]
