// Montgomery-form modular arithmetic for a fixed odd modulus (CIOS
// multiplication). Used to accelerate modular exponentiation — the dominant
// cost of Miller–Rabin during pairing-parameter generation and of the
// pairing's final exponentiation path — and, through the fixed-width limb
// API, as the field arithmetic of every G1 and GT value, including its one
// inversion routine (Bernstein–Yang safegcd, inv_limbs).
//
// R = 2^(64·k) where k is the modulus limb count. Values in "Montgomery
// form" are a·R mod n; mul() computes a·b·R⁻¹ mod n.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/bigint.hpp"

namespace p3s::math {

class Montgomery {
 public:
  /// Widest modulus (in 64-bit limbs) the allocation-free fixed-width limb
  /// API below supports: 512 bits covers the paper-scale pairing field.
  static constexpr std::size_t kMaxFixedLimbs = 8;

  /// Throws std::invalid_argument unless modulus is odd and > 1.
  explicit Montgomery(const BigInt& modulus);

  const BigInt& modulus() const { return n_; }
  /// R mod n: the Montgomery form of 1.
  const BigInt& one_mont() const { return one_mont_; }

  /// a·R mod n (a in [0, n)); from_mont inverts it.
  BigInt to_mont(const BigInt& a) const;
  BigInt from_mont(const BigInt& a_mont) const;

  /// Montgomery product a·b·R⁻¹ mod n (both inputs in Montgomery form,
  /// output in Montgomery form).
  BigInt mul(const BigInt& a_mont, const BigInt& b_mont) const;

  /// base^exp mod n with plain-form input and output (4-bit window,
  /// Montgomery internally). exp >= 0.
  BigInt pow(const BigInt& base, const BigInt& exp) const;

  // --- Fixed-width limb API (pairing hot path) -----------------------------
  // Operates on raw little-endian limb buffers of exactly limb_count()
  // words, all values in [0, n) and (for mul) in Montgomery form. No heap
  // allocation; outputs may alias inputs. Only valid when fits_fixed().

  std::size_t limb_count() const { return n_limbs_.size(); }
  bool fits_fixed() const { return n_limbs_.size() <= kMaxFixedLimbs; }

  /// CIOS product a·b·R⁻¹ mod n into out (all limb_count() words).
  void mul_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;
  /// (a + b) mod n into out.
  void add_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;
  /// (a - b) mod n into out.
  void sub_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;
  /// Montgomery-domain inverse: a = x·R in, x⁻¹·R out. Bernstein–Yang
  /// safegcd ("Fast constant-time gcd computation and modular inversion",
  /// TCHES 2019) on signed 62-bit limbs, laid out like libsecp256k1's
  /// modinv64: batches of 59 divsteps on the low word build a 2×2 transition
  /// matrix, which then updates (f, g) and, mod n, (d, e). The batch count
  /// comes from the paper's bound for n's width, so the sequence of
  /// operations depends only on n, never on a. e starts at R² instead of 1,
  /// so the result comes out as R²·a⁻¹ = x⁻¹·R with no closing product.
  /// Requires gcd(a, n) = 1 (for a prime n: a ≠ 0, which the caller checks);
  /// for other a the output is meaningless.
  void inv_limbs(const std::uint64_t* a, std::uint64_t* out) const;
  /// Divstep batches inv_limbs runs for this modulus (59 divsteps each).
  std::size_t inv_batches() const { return inv_batches_; }

 private:
  // 62-bit limbs needed for a 512-bit modulus with a sign bit of headroom.
  static constexpr std::size_t kMaxS62Limbs = 9;

  std::vector<std::uint64_t> mont_mul_limbs(
      const std::vector<std::uint64_t>& a,
      const std::vector<std::uint64_t>& b) const;

  BigInt n_;
  std::vector<std::uint64_t> n_limbs_;
  std::uint64_t n0_inv_;  // -n⁻¹ mod 2^64
  BigInt r2_;             // R² mod n
  BigInt one_mont_;       // R mod n
  // inv_limbs state, set only when fits_fixed().
  std::array<std::int64_t, kMaxS62Limbs> n62_{};    // n, signed 62-bit limbs
  std::array<std::int64_t, kMaxS62Limbs> r2_62_{};  // R² mod n, likewise
  std::size_t n62_count_ = 0;
  std::uint64_t n62_inv_ = 0;  // n⁻¹ mod 2^62
  std::size_t inv_batches_ = 0;
};

}  // namespace p3s::math
