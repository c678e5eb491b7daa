// Fixed-width Montgomery-domain elements of F_q and F_q² — the one
// representation of G1 coordinates (pairing::Point) and GT values
// (pairing::Fq2). A value is a flat array of math::Montgomery::kMaxFixedLimbs
// 64-bit limbs (the context's limb_count() low limbs hold it, the upper ones
// are zero), so the Miller loop, wNAF scalar multiplication, GT
// exponentiation and inversion (safegcd, in the Montgomery context) perform
// zero heap allocations. BigInt enters
// only through fe_from/fe_to, which the Pairing calls at its parameter,
// serialization and hash-to-curve boundaries. Only valid when
// Montgomery::fits_fixed() (q ≤ 512 bits): the Pairing constructor and the
// public entry points that take a raw Montgomery context reject wider
// moduli, so there is no other path.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "math/montgomery.hpp"

namespace p3s::pairing {
namespace fqm {

using math::BigInt;
using math::Montgomery;

inline constexpr std::size_t kMaxLimbs = Montgomery::kMaxFixedLimbs;

/// Residue mod q in Montgomery form (or plain form where noted).
struct Fe {
  std::array<std::uint64_t, kMaxLimbs> w{};

  /// Checks every limb; the limbs above limb_count() are zero by invariant.
  bool is_zero() const {
    for (const std::uint64_t v : w) {
      if (v != 0) return false;
    }
    return true;
  }
  bool operator==(const Fe&) const = default;
};

}  // namespace fqm

/// Element a + b·i of F_q² = F_q[i]/(i² + 1), both coordinates in
/// Montgomery form; i² + 1 is irreducible because q ≡ 3 (mod 4). GT values
/// are Fq2s.
struct Fq2 {
  fqm::Fe a, b;

  bool operator==(const Fq2&) const = default;
};

namespace fqm {

/// Pack a BigInt already reduced into [0, q) without domain conversion.
inline Fe fe_pack(const BigInt& v) {
  Fe out;
  const auto& limbs = v.limbs();
  for (std::size_t i = 0; i < limbs.size(); ++i) out.w[i] = limbs[i];
  return out;
}

/// plain BigInt in [0, q) -> Montgomery-form Fe.
inline Fe fe_from(const Montgomery& m, const BigInt& plain) {
  return fe_pack(m.to_mont(plain));
}

/// Montgomery-form Fe -> plain BigInt.
inline BigInt fe_to(const Montgomery& m, const Fe& x) {
  return m.from_mont(BigInt::from_limbs_le(std::vector<std::uint64_t>(
      x.w.begin(), x.w.begin() + m.limb_count())));
}

/// 1 in Montgomery form (the context's cached R mod q; no allocation).
inline Fe fe_one(const Montgomery& m) { return fe_pack(m.one_mont()); }

inline void fe_add(const Montgomery& m, const Fe& x, const Fe& y, Fe& out) {
  m.add_limbs(x.w.data(), y.w.data(), out.w.data());
}

inline void fe_sub(const Montgomery& m, const Fe& x, const Fe& y, Fe& out) {
  m.sub_limbs(x.w.data(), y.w.data(), out.w.data());
}

inline void fe_mul(const Montgomery& m, const Fe& x, const Fe& y, Fe& out) {
  m.mul_limbs(x.w.data(), y.w.data(), out.w.data());
}

inline void fe_sqr(const Montgomery& m, const Fe& x, Fe& out) {
  m.mul_limbs(x.w.data(), x.w.data(), out.w.data());
}

inline void fe_dbl(const Montgomery& m, const Fe& x, Fe& out) {
  m.add_limbs(x.w.data(), x.w.data(), out.w.data());
}

inline Fe fe_neg(const Montgomery& m, const Fe& x) {
  Fe zero, out;
  m.sub_limbs(zero.w.data(), x.w.data(), out.w.data());
  return out;
}

/// x⁻¹ by Bernstein–Yang safegcd (Montgomery::inv_limbs): a fixed number
/// of divstep batches set by q's width, so the operation sequence depends
/// only on the public q, never on x. Throws std::domain_error on zero.
inline Fe fe_inv(const Montgomery& m, const Fe& x) {
  if (x.is_zero()) throw std::domain_error("fe_inv: zero");
  Fe out;
  m.inv_limbs(x.w.data(), out.w.data());
  return out;
}

inline Fq2 fe2_one(const Montgomery& m) { return {fe_one(m), Fe{}}; }

/// Karatsuba-style product: 3 CIOS multiplications. out must not alias x/y.
inline void fe2_mul(const Montgomery& m, const Fq2& x, const Fq2& y,
                    Fq2& out) {
  Fe t0, t1, sx, sy, t2;
  fe_mul(m, x.a, y.a, t0);
  fe_mul(m, x.b, y.b, t1);
  fe_add(m, x.a, x.b, sx);
  fe_add(m, y.a, y.b, sy);
  fe_mul(m, sx, sy, t2);
  fe_sub(m, t0, t1, out.a);
  fe_sub(m, t2, t0, t2);
  fe_sub(m, t2, t1, out.b);
}

/// (a + bi)² = (a+b)(a−b) + 2ab·i: 2 CIOS multiplications. out may alias x.
inline void fe2_sqr(const Montgomery& m, const Fq2& x, Fq2& out) {
  Fe s, d, t0, t1;
  fe_add(m, x.a, x.b, s);
  fe_sub(m, x.a, x.b, d);
  fe_mul(m, s, d, t0);
  fe_mul(m, x.a, x.b, t1);
  out.a = t0;
  fe_dbl(m, t1, out.b);
}

/// Conjugate a − b·i; equals the q-power Frobenius for q ≡ 3 (mod 4).
inline Fq2 fe2_conj(const Montgomery& m, const Fq2& x) {
  return {x.a, fe_neg(m, x.b)};
}

/// (a + bi)⁻¹ = (a − bi)/(a² + b²): one fe_inv. The norm vanishes only at
/// zero (−1 is a non-residue), so zero throws std::domain_error.
inline Fq2 fe2_inv(const Montgomery& m, const Fq2& x) {
  Fe na, nb, norm;
  fe_sqr(m, x.a, na);
  fe_sqr(m, x.b, nb);
  fe_add(m, na, nb, norm);
  const Fe norm_inv = fe_inv(m, norm);
  Fq2 out;
  fe_mul(m, x.a, norm_inv, out.a);
  fe_mul(m, fe_neg(m, x.b), norm_inv, out.b);
  return out;
}

/// x^e by 4-bit fixed-window exponentiation. Throws std::invalid_argument
/// for a negative e.
inline Fq2 fe2_pow(const Montgomery& m, const Fq2& x, const BigInt& e) {
  if (e.is_negative()) {
    throw std::invalid_argument("fe2_pow: negative exponent");
  }
  const Fq2 one = fe2_one(m);
  const std::size_t bits = e.bit_length();
  if (bits == 0) return one;
  std::array<Fq2, 16> table;
  table[0] = one;
  table[1] = x;
  for (int i = 2; i < 16; ++i) fe2_mul(m, table[i - 1], x, table[i]);
  Fq2 acc = one;
  const std::size_t windows = (bits + 3) / 4;
  for (std::size_t w = windows; w-- > 0;) {
    for (int i = 0; i < 4; ++i) fe2_sqr(m, acc, acc);
    unsigned nib = 0;
    for (int i = 3; i >= 0; --i) {
      nib = (nib << 1) |
            (e.bit(w * 4 + static_cast<std::size_t>(i)) ? 1u : 0u);
    }
    if (nib != 0) {
      Fq2 next;
      fe2_mul(m, acc, table[nib], next);
      acc = next;
    }
  }
  return acc;
}

}  // namespace fqm
}  // namespace p3s::pairing
