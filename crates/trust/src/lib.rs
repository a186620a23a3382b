//! # legaliot-trust
//!
//! Simulated trust infrastructure: PKI, attribute certificates and hardware-style
//! attestation (§4 "Common security approaches" and §9.3 Challenge 5 of Singh et al.,
//! Middleware 2016).
//!
//! The paper relies on these as building blocks: "One can envisage a PKI where 'things'
//! have private keys and public key certificates, signed by a certificate authority
//! linking them to their owners"; SBUS represents "privileges, credentials and context
//! … as X.509 certificates"; and hardware roots of trust (TPM/SGX/TrustZone) provide
//! integrity guarantees and remote attestation, including certifying physical properties
//! such as geographic location.
//!
//! Everything here is a *simulation*: key pairs are random identifiers, signatures are
//! keyed hashes, and attestation quotes are structured claims signed by a simulated
//! hardware root. What matters for the reproduction is that the *protocol shape* —
//! issue, present, verify, revoke, attest-before-interacting — is exercised by the
//! middleware and scenarios, not that the cryptography is real.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod pki;

pub use attestation::{AttestationQuote, AttestationVerdict, HardwareRoot, PlatformClaim};
pub use pki::{
    AttributeCertificate, Certificate, CertificateAuthority, KeyPair, RevocationList, TrustError,
    VerificationOutcome, WebOfTrust,
};
