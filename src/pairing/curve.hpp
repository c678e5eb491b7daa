// The supersingular curve E: y² = x³ + x over F_q (q ≡ 3 mod 4), the group
// behind PBC's "Type A" pairing that the paper's jPBC/cpabe stacks use.
// #E(F_q) = q + 1; the pairing group is the order-r subgroup with q + 1 = h·r.
// Points hold Montgomery-form fixed-limb coordinates (fq_mont.hpp); the
// group law runs on Jacobian coordinates with one normalization per result.
#pragma once

#include <cstdint>
#include <vector>

#include "math/bigint.hpp"
#include "math/montgomery.hpp"
#include "pairing/fq_mont.hpp"

namespace p3s::pairing {

using math::BigInt;

/// Affine point with Montgomery-form coordinates; (infinity=true, x = y = 0)
/// is the identity.
struct Point {
  fqm::Fe x;
  fqm::Fe y;
  bool infinity = true;

  static Point at_infinity() { return Point{}; }
  bool operator==(const Point&) const = default;
};

/// True iff p is the identity or satisfies y² = x³ + x. Throws
/// std::invalid_argument unless mq.fits_fixed().
bool on_curve(const math::Montgomery& mq, const Point& p);

/// a + b by one mixed Jacobian addition (or doubling when a == b) and one
/// normalization. Throws std::invalid_argument unless mq.fits_fixed().
Point curve_add(const math::Montgomery& mq, const Point& a, const Point& b);

/// k·p with k >= 0: 4-bit wNAF over Jacobian coordinates with CIOS field
/// multiplication (zero heap traffic per group operation). Throws
/// std::invalid_argument for a negative k or unless mq.fits_fixed().
Point point_mul_mont(const Point& p, const BigInt& k,
                     const math::Montgomery& mq);

/// Signed 4-bit NAF digits of k >= 0, least-significant first. Nonzero
/// digits are odd and in [-15, 15]; at most one in any 4 consecutive
/// positions.
std::vector<std::int8_t> wnaf4(const BigInt& k);

/// Precomputed fixed-base table: all w-bit window multiples
/// d·2^{jw}·B (d in [1, 2^w), j over the scalar windows), stored as affine
/// Montgomery-domain points. A multiplication then costs one mixed
/// Jacobian addition per nonzero window — no doublings — which is ~5–8x
/// fewer field operations than generic double-and-add for the bases the
/// system reuses on every operation (the group generator, HVE/CP-ABE
/// public-key components). Memory: windows·(2^w − 1) points, i.e. ~4.7 KB
/// per 80-bit-scalar base and ~19 KB per 160-bit-scalar base at w = 4
/// (see DESIGN.md).
///
/// The table borrows `mq`; it must outlive the table (the owning Pairing
/// guarantees this for its own tables).
class FixedBaseTable {
 public:
  static constexpr unsigned kWindow = 4;

  /// Build the table for scalars of at most `scalar_bits` bits. Larger
  /// scalars (and bases of tiny order) fall back to point_mul_mont
  /// internally. Throws std::invalid_argument unless mq.fits_fixed().
  FixedBaseTable(const math::Montgomery& mq, const Point& base,
                 std::size_t scalar_bits);

  const Point& base() const { return base_; }
  /// k·base for k >= 0.
  Point mul(const BigInt& k) const;
  /// Table footprint in bytes (0 when no table was built).
  std::size_t memory_bytes() const {
    return (xs_.size() + ys_.size()) * sizeof(fqm::Fe);
  }

 private:
  const math::Montgomery& mq_;
  Point base_;
  std::size_t scalar_bits_ = 0;
  std::size_t windows_ = 0;
  // Entry j·(2^w − 1) + (d − 1) holds d·2^{jw}·B; empty when no table.
  std::vector<fqm::Fe> xs_, ys_;
};

}  // namespace p3s::pairing
