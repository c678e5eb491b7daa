// Ciphertext-Policy Attribute-Based Encryption, the Bethencourt–Sahai–Waters
// (S&P 2007) construction the paper cites as [8,15]. Publishers encrypt
// (GUID, payload) under a policy; the ARA issues attribute keys; only
// subscribers whose attributes satisfy the policy can decrypt.
//
//   Setup:   α,β ← Zr.  PK = (g, h=g^β, f=g^{1/β}, e(g,g)^α).  MK = (β, g^α).
//   KeyGen:  r ← Zr. D = g^{(α+r)/β}; per attribute j: r_j ← Zr,
//            D_j = g^r·H(j)^{r_j}, D'_j = g^{r_j}.
//   Encrypt: share s down the policy tree; C̃ = M·e(g,g)^{αs}, C = h^s,
//            per leaf y: C_y = g^{q_y(0)}, C'_y = H(att(y))^{q_y(0)}.
//   Decrypt: recursive pairing + Lagrange, then M = C̃·A / e(C,D) with
//            A = e(g,g)^{rs}.
//
// The policy travels IN THE CLEAR with the ciphertext (inherent to CP-ABE
// and called out in the paper's privacy analysis).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

#include "abe/policy.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "pairing/pairing.hpp"

namespace p3s::abe {

using pairing::Fq2;
using pairing::PairingPtr;
using pairing::Point;

struct CpabePublicKey {
  PairingPtr pairing;
  Point g;           // group generator
  Point h;           // g^β
  Point f;           // g^{1/β} (delegation; kept for construction fidelity)
  Fq2 e_gg_alpha;    // e(g,g)^α

  Bytes serialize() const;
  static CpabePublicKey deserialize(PairingPtr pairing, BytesView data);
};

struct CpabeMasterKey {
  math::BigInt beta_inv;  // 1/β mod r, the only form of β KeyGen needs
  Point g_alpha;          // g^α
};

/// Per-attribute key pair (D_j, D'_j).
struct CpabeKeyComponent {
  Point d;        // g^r · H(j)^{r_j}
  Point d_prime;  // g^{r_j}
};

struct CpabeSecretKey {
  Point d;  // g^{(α+r)/β}
  std::map<std::string, CpabeKeyComponent> components;

  std::set<std::string> attributes() const;
  Bytes serialize(const pairing::Pairing& pairing) const;
  static CpabeSecretKey deserialize(const pairing::Pairing& pairing,
                                    BytesView data);
};

struct CpabeCiphertext {
  PolicyNode policy;
  Fq2 c_tilde;  // M · e(g,g)^{αs}
  Point c;      // h^s
  struct Leaf {
    std::string attribute;
    Point cy;       // g^{q_y(0)}
    Point cy_prime; // H(att)^{q_y(0)}
  };
  std::vector<Leaf> leaves;  // DFS order over the policy tree

  Bytes serialize(const pairing::Pairing& pairing) const;
  static CpabeCiphertext deserialize(const pairing::Pairing& pairing,
                                     BytesView data);
};

struct CpabeKeys {
  CpabePublicKey pk;
  CpabeMasterKey mk;
};

/// System setup (run by the ARA).
CpabeKeys cpabe_setup(PairingPtr pairing, Rng& rng);

/// Issue a secret key for an attribute set (run by the ARA at registration).
CpabeSecretKey cpabe_keygen(const CpabeKeys& keys,
                            const std::set<std::string>& attributes, Rng& rng);

/// Encrypt a GT element under a policy.
CpabeCiphertext cpabe_encrypt(const CpabePublicKey& pk, const Fq2& message,
                              const PolicyNode& policy, Rng& rng);

/// Decrypt; nullopt when sk's attributes do not satisfy the policy. The
/// policy-tree evaluation and the final e(C,D) division are folded into a
/// single multi-pairing product (one Miller loop pass, one final
/// exponentiation) via e(P,Q)^λ = e(λP,Q) and e(X,Y)^{-1} = e(-X,Y).
std::optional<Fq2> cpabe_decrypt(const CpabePublicKey& pk,
                                 const CpabeSecretKey& sk,
                                 const CpabeCiphertext& ct);

// --- Hybrid layer (KEM-DEM): what P3S actually sends --------------------------

/// Encrypt an arbitrary byte payload: CP-ABE wraps a random GT element,
/// HKDF derives an AEAD key from it, the AEAD carries the payload.
Bytes cpabe_encrypt_bytes(const CpabePublicKey& pk, BytesView payload,
                          const PolicyNode& policy, Rng& rng);

/// Decrypt the hybrid form; nullopt if attributes don't satisfy the policy
/// or the ciphertext was tampered with.
std::optional<Bytes> cpabe_decrypt_bytes(const CpabePublicKey& pk,
                                         const CpabeSecretKey& sk,
                                         BytesView ciphertext);

/// The policy is visible in the clear on the hybrid wire format (paper §3.2);
/// extracting it must not require any key material.
PolicyNode cpabe_peek_policy(const pairing::Pairing& pairing,
                             BytesView ciphertext);

}  // namespace p3s::abe
