#include "abe/cpabe.hpp"

#include <stdexcept>

#include "abe/shamir.hpp"
#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "crypto/hmac.hpp"
#include "math/modular.hpp"

namespace p3s::abe {

using math::BigInt;
using math::mod;
using math::mod_inv;
using math::mod_mul;

namespace {
Point hash_attribute(const pairing::Pairing& p, const std::string& attr) {
  return p.hash_to_g1(concat(str_to_bytes("cpabe-attr:"), str_to_bytes(attr)));
}
}  // namespace

// --- Serialization -------------------------------------------------------------

Bytes CpabePublicKey::serialize() const {
  Writer w;
  w.bytes(pairing->serialize_g1(g));
  w.bytes(pairing->serialize_g1(h));
  w.bytes(pairing->serialize_g1(f));
  w.bytes(pairing->serialize_gt(e_gg_alpha));
  return w.take();
}

CpabePublicKey CpabePublicKey::deserialize(PairingPtr pairing, BytesView data) {
  Reader r(data);
  CpabePublicKey pk;
  pk.g = pairing->deserialize_g1(r.bytes());
  pk.h = pairing->deserialize_g1(r.bytes());
  pk.f = pairing->deserialize_g1(r.bytes());
  pk.e_gg_alpha = pairing->deserialize_gt(r.bytes());
  r.expect_done();
  pk.pairing = std::move(pairing);
  return pk;
}

std::set<std::string> CpabeSecretKey::attributes() const {
  std::set<std::string> out;
  for (const auto& [attr, comp] : components) out.insert(attr);
  return out;
}

Bytes CpabeSecretKey::serialize(const pairing::Pairing& pairing) const {
  Writer w;
  w.bytes(pairing.serialize_g1(d));
  w.u32(static_cast<std::uint32_t>(components.size()));
  for (const auto& [attr, comp] : components) {
    w.str(attr);
    w.bytes(pairing.serialize_g1(comp.d));
    w.bytes(pairing.serialize_g1(comp.d_prime));
  }
  return w.take();
}

CpabeSecretKey CpabeSecretKey::deserialize(const pairing::Pairing& pairing,
                                           BytesView data) {
  Reader r(data);
  CpabeSecretKey sk;
  sk.d = pairing.deserialize_g1(r.bytes());
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string attr = r.str();
    CpabeKeyComponent comp;
    comp.d = pairing.deserialize_g1(r.bytes());
    comp.d_prime = pairing.deserialize_g1(r.bytes());
    sk.components.emplace(attr, std::move(comp));
  }
  r.expect_done();
  return sk;
}

Bytes CpabeCiphertext::serialize(const pairing::Pairing& pairing) const {
  Writer w;
  w.bytes(policy.serialize());
  w.bytes(pairing.serialize_gt(c_tilde));
  w.bytes(pairing.serialize_g1(c));
  w.u32(static_cast<std::uint32_t>(leaves.size()));
  for (const Leaf& leaf : leaves) {
    w.str(leaf.attribute);
    w.bytes(pairing.serialize_g1(leaf.cy));
    w.bytes(pairing.serialize_g1(leaf.cy_prime));
  }
  return w.take();
}

CpabeCiphertext CpabeCiphertext::deserialize(const pairing::Pairing& pairing,
                                             BytesView data) {
  Reader r(data);
  CpabeCiphertext ct{PolicyNode::deserialize(r.bytes()), {}, {}, {}};
  ct.c_tilde = pairing.deserialize_gt(r.bytes());
  ct.c = pairing.deserialize_g1(r.bytes());
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Leaf leaf;
    leaf.attribute = r.str();
    leaf.cy = pairing.deserialize_g1(r.bytes());
    leaf.cy_prime = pairing.deserialize_g1(r.bytes());
    ct.leaves.push_back(std::move(leaf));
  }
  r.expect_done();
  if (ct.leaves.size() != ct.policy.leaf_count()) {
    throw std::invalid_argument("CpabeCiphertext: leaf count mismatch");
  }
  return ct;
}

// --- Core scheme ----------------------------------------------------------------

CpabeKeys cpabe_setup(PairingPtr pairing, Rng& rng) {
  const pairing::Pairing& p = *pairing;
  const BigInt alpha = p.random_nonzero_scalar(rng);
  const BigInt beta = p.random_nonzero_scalar(rng);

  CpabeKeys keys;
  keys.pk.pairing = pairing;
  keys.pk.g = p.generator();
  keys.pk.h = p.mul(p.generator(), beta);
  keys.mk.beta_inv = mod_inv(beta, p.r());
  keys.pk.f = p.mul(p.generator(), keys.mk.beta_inv);
  keys.pk.e_gg_alpha = p.gt_pow(p.gt_generator(), alpha);
  keys.mk.g_alpha = p.mul(p.generator(), alpha);
  return keys;
}

CpabeSecretKey cpabe_keygen(const CpabeKeys& keys,
                            const std::set<std::string>& attributes, Rng& rng) {
  if (attributes.empty()) {
    throw std::invalid_argument("cpabe_keygen: empty attribute set");
  }
  const pairing::Pairing& p = *keys.pk.pairing;
  const BigInt r = p.random_nonzero_scalar(rng);
  const Point g_r = p.mul(p.generator(), r);

  CpabeSecretKey sk;
  // D = (g^α · g^r)^{1/β} = g^{(α+r)/β}
  sk.d = p.mul(p.add(keys.mk.g_alpha, g_r), keys.mk.beta_inv);
  for (const std::string& attr : attributes) {
    const BigInt rj = p.random_nonzero_scalar(rng);
    CpabeKeyComponent comp;
    comp.d = p.add(g_r, p.mul(hash_attribute(p, attr), rj));
    comp.d_prime = p.mul(p.generator(), rj);
    sk.components.emplace(attr, std::move(comp));
  }
  return sk;
}

namespace {
// DFS share distribution: node's own share is `share`; leaves append to out.
void share_tree(const pairing::Pairing& p, const PolicyNode& node,
                const BigInt& share, Rng& rng,
                std::vector<std::pair<std::string, BigInt>>& out) {
  if (node.is_leaf()) {
    out.emplace_back(node.attribute(), share);
    return;
  }
  const SharePolynomial poly(share, node.k() - 1, p.r(), rng);
  for (std::size_t i = 0; i < node.children().size(); ++i) {
    share_tree(p, node.children()[i], poly.eval(i + 1), rng, out);
  }
}

// One (leaf, exponent) term of the flattened decryption: ciphertext leaf
// `index` contributes e(D_j,C_y)^coeff · e(D'_j,C'_y)^{-coeff}, where coeff
// is the product of the Lagrange coefficients on the path to the root.
struct LeafTerm {
  std::size_t index;
  BigInt coeff;
};

// Flattened form of BSW's recursive DecryptNode (kept as the test oracle in
// tests/oracle): instead of evaluating pairings per leaf and combining in
// GT, collect which leaves the recursion would use and with what accumulated
// Lagrange exponent. Child selection (first k satisfied, in order) matches
// DecryptNode exactly, so
// ∏ e(D_j,C_y)^{c_j}·e(D'_j,C'_y)^{-c_j} over the result equals its output.
std::optional<std::vector<LeafTerm>> select_node(const pairing::Pairing& p,
                                                 const CpabeSecretKey& sk,
                                                 const CpabeCiphertext& ct,
                                                 const PolicyNode& node,
                                                 std::size_t& leaf_index) {
  if (node.is_leaf()) {
    const std::size_t idx = leaf_index++;
    const CpabeCiphertext::Leaf& leaf = ct.leaves.at(idx);
    if (sk.components.find(leaf.attribute) == sk.components.end()) {
      return std::nullopt;
    }
    return std::vector<LeafTerm>{{idx, BigInt(1)}};
  }

  std::vector<std::uint64_t> indices;
  std::vector<std::vector<LeafTerm>> selected;
  for (std::size_t i = 0; i < node.children().size(); ++i) {
    auto sub = select_node(p, sk, ct, node.children()[i], leaf_index);
    if (sub.has_value() && indices.size() < node.k()) {
      indices.push_back(i + 1);
      selected.push_back(std::move(*sub));
    }
  }
  if (indices.size() < node.k()) return std::nullopt;
  std::vector<LeafTerm> out;
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const BigInt coeff = lagrange_at_zero(indices, indices[j], p.r());
    for (LeafTerm& term : selected[j]) {
      out.push_back({term.index, mod_mul(term.coeff, coeff, p.r())});
    }
  }
  return out;
}
}  // namespace

CpabeCiphertext cpabe_encrypt(const CpabePublicKey& pk, const Fq2& message,
                              const PolicyNode& policy, Rng& rng) {
  const pairing::Pairing& p = *pk.pairing;
  const BigInt s = p.random_nonzero_scalar(rng);

  CpabeCiphertext ct{policy, {}, {}, {}};
  ct.c_tilde = p.gt_mul(message, p.gt_pow(pk.e_gg_alpha, s));
  ct.c = p.mul(pk.h, s);

  std::vector<std::pair<std::string, BigInt>> shares;
  share_tree(p, policy, s, rng, shares);
  ct.leaves.reserve(shares.size());
  for (const auto& [attr, share] : shares) {
    CpabeCiphertext::Leaf leaf;
    leaf.attribute = attr;
    leaf.cy = p.mul(p.generator(), share);
    leaf.cy_prime = p.mul(hash_attribute(p, attr), share);
    ct.leaves.push_back(std::move(leaf));
  }
  return ct;
}

std::optional<Fq2> cpabe_decrypt(const CpabePublicKey& pk,
                                 const CpabeSecretKey& sk,
                                 const CpabeCiphertext& ct) {
  const pairing::Pairing& p = *pk.pairing;
  if (ct.leaves.size() != ct.policy.leaf_count()) return std::nullopt;
  if (!ct.policy.satisfied_by(sk.attributes())) return std::nullopt;

  std::size_t leaf_index = 0;
  const auto selection = select_node(p, sk, ct, ct.policy, leaf_index);
  if (!selection.has_value()) return std::nullopt;

  // Fold the whole tree evaluation plus the final e(C,D) division into ONE
  // multi-pairing: e(P,Q)^λ = e(λP,Q) pulls the Lagrange exponents into G1
  // (scalar mults are ~7× cheaper than pairings here) and e(X,Y)^{-1} =
  // e(-X,Y) turns divisions into extra product terms.
  std::vector<pairing::PairTerm> terms;
  terms.reserve(2 * selection->size() + 1);
  for (const LeafTerm& term : *selection) {
    const CpabeCiphertext::Leaf& leaf = ct.leaves[term.index];
    const CpabeKeyComponent& comp = sk.components.at(leaf.attribute);
    terms.push_back({p.mul(comp.d, term.coeff), leaf.cy});
    terms.push_back({p.neg(p.mul(comp.d_prime, term.coeff)), leaf.cy_prime});
  }
  terms.push_back({p.neg(ct.c), sk.d});
  // M = C̃ · A / e(C, D);  e(C,D) = e(g,g)^{s(α+r)}, A = e(g,g)^{rs}.
  return p.gt_mul(ct.c_tilde, p.pair_product(terms));
}

// --- Hybrid layer -----------------------------------------------------------------

namespace {
Bytes kem_key(const pairing::Pairing& p, const Fq2& z) {
  return crypto::hkdf(str_to_bytes("p3s-cpabe-kem-v1"), p.serialize_gt(z), {},
                      32);
}
}  // namespace

Bytes cpabe_encrypt_bytes(const CpabePublicKey& pk, BytesView payload,
                          const PolicyNode& policy, Rng& rng) {
  const pairing::Pairing& p = *pk.pairing;
  const Fq2 z = p.random_gt(rng);
  const CpabeCiphertext kem = cpabe_encrypt(pk, z, policy, rng);
  const crypto::AeadCiphertext dem =
      crypto::aead_encrypt(kem_key(p, z), payload, str_to_bytes("cpabe"), rng);
  Writer w;
  w.bytes(kem.serialize(p));
  w.bytes(dem.serialize());
  return w.take();
}

std::optional<Bytes> cpabe_decrypt_bytes(const CpabePublicKey& pk,
                                         const CpabeSecretKey& sk,
                                         BytesView ciphertext) {
  try {
    const pairing::Pairing& p = *pk.pairing;
    Reader r(ciphertext);
    const CpabeCiphertext kem = CpabeCiphertext::deserialize(p, r.bytes());
    const crypto::AeadCiphertext dem =
        crypto::AeadCiphertext::deserialize(r.bytes());
    r.expect_done();
    const auto z = cpabe_decrypt(pk, sk, kem);
    if (!z.has_value()) return std::nullopt;
    return crypto::aead_decrypt(kem_key(p, *z), dem, str_to_bytes("cpabe"));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

PolicyNode cpabe_peek_policy(const pairing::Pairing& pairing,
                             BytesView ciphertext) {
  Reader r(ciphertext);
  const CpabeCiphertext kem = CpabeCiphertext::deserialize(pairing, r.bytes());
  return kem.policy;
}

}  // namespace p3s::abe
