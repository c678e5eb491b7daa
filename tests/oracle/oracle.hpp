// Test-only oracles: independent, plainly written algorithms for what the
// library computes on its fast paths. The F_q², G1 and pairing oracles use
// BigInt arithmetic only (math::Montgomery's BigInt API, no fixed-limb
// code) on their own plain Point and Fq2 types; the HVE and CP-ABE oracles
// evaluate the schemes pairing by pairing instead of as one multi-pairing
// product. Production values enter only through plain(), which reads their
// serialized bytes, so no oracle calls the fixed-limb code it checks. The
// fast-vs-oracle equivalence tests and the *_Reference cases in
// bench_crypto_micro therefore compare two algorithms, not one algorithm
// with itself. Nothing under src/ links this library.
#pragma once

#include <optional>
#include <ostream>

#include "abe/cpabe.hpp"
#include "math/bigint.hpp"
#include "pairing/pairing.hpp"
#include "pbe/hve.hpp"

namespace p3s::oracle {

using math::BigInt;

/// Affine point with plain coordinates; (infinity=true) is the identity.
struct Point {
  BigInt x;
  BigInt y;
  bool infinity = true;

  static Point at_infinity() { return Point{}; }
  bool operator==(const Point&) const = default;
};

/// Element a + b·i of F_q² with plain coordinates.
struct Fq2 {
  BigInt a;
  BigInt b;

  bool operator==(const Fq2&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  if (p.infinity) return os << "O";
  return os << "(" << p.x.to_hex() << ", " << p.y.to_hex() << ")";
}
inline std::ostream& operator<<(std::ostream& os, const Fq2& v) {
  return os << v.a.to_hex() << " + " << v.b.to_hex() << "·i";
}

/// A production G1 point / GT value as plain coordinates, decoded from
/// serialize_g1 / serialize_gt.
Point plain(const pairing::Pairing& pairing, const pairing::Point& p);
Fq2 plain(const pairing::Pairing& pairing, const pairing::Fq2& v);

// --- F_q² = F_q[i]/(i² + 1) ------------------------------------------------
Fq2 fq2_one();
Fq2 fq2_mul(const Fq2& x, const Fq2& y, const BigInt& q);
Fq2 fq2_sqr(const Fq2& x, const BigInt& q);
/// Conjugate a − b·i, the q-power Frobenius for q ≡ 3 (mod 4).
Fq2 fq2_conj(const Fq2& x, const BigInt& q);
/// (a − bi)/(a² + b²) by extended-gcd inversion; throws on zero.
Fq2 fq2_inv(const Fq2& x, const BigInt& q);
/// x^e in F_q² for e >= 0 by plain square-and-multiply.
Fq2 fq2_pow(const Fq2& x, const BigInt& e, const BigInt& q);

// --- E: y² = x³ + x, affine chord-and-tangent ------------------------------
Point point_double(const Point& p, const BigInt& q);
Point point_add(const Point& p1, const Point& p2, const BigInt& q);
/// k·p with k >= 0: double-and-add over BigInt Jacobian coordinates with
/// division-based reduction.
Point point_mul(const Point& p, const BigInt& k, const BigInt& q);

/// e(p, q) by a single BigInt Miller loop on math::Montgomery's BigInt
/// products, with its own final exponentiation. Reads only q, r, h and the
/// BigInt Montgomery context from `pairing`.
Fq2 pair_reference(const pairing::Pairing& pairing, const Point& p,
                   const Point& q);

/// HVE query as 2|S| independent pair_reference calls multiplied in GT.
Fq2 hve_query_reference(const pairing::Pairing& pairing,
                        const pbe::HveToken& token,
                        const pbe::HveCiphertext& ct);

/// CP-ABE decryption by BSW §4.2's recursive DecryptNode: two pairings per
/// used leaf, Lagrange interpolation in GT, then the division by e(C, D).
std::optional<Fq2> cpabe_decrypt_reference(const abe::CpabePublicKey& pk,
                                           const abe::CpabeSecretKey& sk,
                                           const abe::CpabeCiphertext& ct);

}  // namespace p3s::oracle
