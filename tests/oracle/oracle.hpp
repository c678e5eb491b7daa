// Test-only oracles: independent, plainly written algorithms for what the
// library computes on its fast paths. The F_q², G1 and pairing oracles use
// BigInt arithmetic only (math::Montgomery's BigInt API, no fixed-limb
// code); the HVE and CP-ABE oracles evaluate the schemes pairing by pairing
// instead of as one multi-pairing product. The fast-vs-oracle equivalence
// tests and the *_Reference cases in bench_crypto_micro therefore compare
// two algorithms, not one algorithm with itself. Nothing under src/ links
// this library.
#pragma once

#include <optional>

#include "abe/cpabe.hpp"
#include "math/bigint.hpp"
#include "pairing/curve.hpp"
#include "pairing/fq2.hpp"
#include "pairing/pairing.hpp"
#include "pbe/hve.hpp"

namespace p3s::oracle {

/// x^e in F_q² for e >= 0 by plain square-and-multiply.
pairing::Fq2 fq2_pow(const pairing::Fq2& x, const math::BigInt& e,
                     const math::BigInt& q);

/// k·p with k >= 0: double-and-add over BigInt Jacobian coordinates with
/// division-based reduction.
pairing::Point point_mul(const pairing::Point& p, const math::BigInt& k,
                         const math::BigInt& q);

/// e(p, q) by a single BigInt Miller loop on math::Montgomery's BigInt
/// products, with its own final exponentiation.
pairing::Fq2 pair_reference(const pairing::Pairing& pairing,
                            const pairing::Point& p, const pairing::Point& q);

/// HVE query as 2|S| independent pair_reference calls multiplied in GT.
pairing::Fq2 hve_query_reference(const pairing::Pairing& pairing,
                                 const pbe::HveToken& token,
                                 const pbe::HveCiphertext& ct);

/// CP-ABE decryption by BSW §4.2's recursive DecryptNode: two pairings per
/// used leaf, Lagrange interpolation in GT, then the division by e(C, D).
std::optional<pairing::Fq2> cpabe_decrypt_reference(
    const abe::CpabePublicKey& pk, const abe::CpabeSecretKey& sk,
    const abe::CpabeCiphertext& ct);

}  // namespace p3s::oracle
