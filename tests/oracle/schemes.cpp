#include <stdexcept>
#include <vector>

#include "abe/shamir.hpp"
#include "oracle/oracle.hpp"

namespace p3s::oracle {

using abe::CpabeCiphertext;
using abe::CpabePublicKey;
using abe::CpabeSecretKey;
using abe::lagrange_at_zero;
using abe::PolicyNode;
using pbe::HveCiphertext;
using pbe::HveToken;

namespace {
// e(a, b) for production points, evaluated by the oracle.
Fq2 pair_plain(const pairing::Pairing& p, const pairing::Point& a,
               const pairing::Point& b) {
  return pair_reference(p, plain(p, a), plain(p, b));
}
}  // namespace

Fq2 hve_query_reference(const pairing::Pairing& pairing, const HveToken& token,
                        const HveCiphertext& ct) {
  const BigInt& q = pairing.q();
  Fq2 acc = fq2_one();
  for (std::size_t j = 0; j < token.positions.size(); ++j) {
    const std::size_t i = token.positions[j];
    if (i >= ct.width()) {
      throw std::invalid_argument("hve_query: token/ciphertext width mismatch");
    }
    acc = fq2_mul(acc, pair_plain(pairing, ct.x[i], token.y[j]), q);
    acc = fq2_mul(acc, pair_plain(pairing, ct.w[i], token.l[j]), q);
  }
  return fq2_mul(plain(pairing, ct.c0), acc, q);
}

namespace {
// DFS decrypt. `leaf_index` walks the ciphertext leaf array in the same
// order encryption emitted it. Returns e(g,g)^{r·q_node(0)} when this node
// is satisfied.
std::optional<Fq2> decrypt_node(const pairing::Pairing& p,
                                const CpabeSecretKey& sk,
                                const CpabeCiphertext& ct,
                                const PolicyNode& node,
                                std::size_t& leaf_index) {
  if (node.is_leaf()) {
    const CpabeCiphertext::Leaf& leaf = ct.leaves.at(leaf_index++);
    const auto it = sk.components.find(leaf.attribute);
    if (it == sk.components.end()) return std::nullopt;
    // e(D_j, C_y) / e(D'_j, C'_y) = e(g,g)^{r·q_y(0)}
    const Fq2 num = pair_plain(p, it->second.d, leaf.cy);
    const Fq2 den = pair_plain(p, it->second.d_prime, leaf.cy_prime);
    return fq2_mul(num, fq2_inv(den, p.q()), p.q());
  }

  // Gather satisfied children (child index is 1-based for Lagrange).
  std::vector<std::uint64_t> indices;
  std::vector<Fq2> values;
  for (std::size_t i = 0; i < node.children().size(); ++i) {
    const auto sub = decrypt_node(p, sk, ct, node.children()[i], leaf_index);
    if (sub.has_value() && indices.size() < node.k()) {
      indices.push_back(i + 1);
      values.push_back(*sub);
    }
  }
  if (indices.size() < node.k()) return std::nullopt;
  Fq2 acc = fq2_one();
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const BigInt coeff = lagrange_at_zero(indices, indices[j], p.r());
    acc = fq2_mul(acc, fq2_pow(values[j], coeff, p.q()), p.q());
  }
  return acc;
}
}  // namespace

std::optional<Fq2> cpabe_decrypt_reference(const CpabePublicKey& pk,
                                           const CpabeSecretKey& sk,
                                           const CpabeCiphertext& ct) {
  const pairing::Pairing& p = *pk.pairing;
  if (ct.leaves.size() != ct.policy.leaf_count()) return std::nullopt;
  if (!ct.policy.satisfied_by(sk.attributes())) return std::nullopt;

  std::size_t leaf_index = 0;
  const auto a = decrypt_node(p, sk, ct, ct.policy, leaf_index);
  if (!a.has_value()) return std::nullopt;
  // M = C̃ · A / e(C, D);  e(C,D) = e(g,g)^{s(α+r)}, A = e(g,g)^{rs}.
  const Fq2 e_cd = pair_plain(p, ct.c, sk.d);
  return fq2_mul(plain(p, ct.c_tilde), fq2_mul(*a, fq2_inv(e_cd, p.q()), p.q()),
                 p.q());
}

}  // namespace p3s::oracle
