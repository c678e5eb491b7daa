#include "pairing/curve.hpp"

#include <stdexcept>
#include <string>

namespace p3s::pairing {

std::vector<std::int8_t> wnaf4(const BigInt& k) {
  if (k.is_negative()) throw std::invalid_argument("wnaf4: negative scalar");
  std::vector<std::uint64_t> v = k.limbs();
  std::vector<std::int8_t> digits;
  digits.reserve(k.bit_length() + 1);
  const auto is_zero = [&v] {
    for (const std::uint64_t w : v) {
      if (w != 0) return false;
    }
    return true;
  };
  while (!is_zero()) {
    std::int8_t d = 0;
    if (v[0] & 1) {
      const unsigned u = static_cast<unsigned>(v[0] & 31);  // k mod 2^(w+1)
      if (u > 16) {
        d = static_cast<std::int8_t>(static_cast<int>(u) - 32);
        // v += (32 - u)
        std::uint64_t carry = 32 - u;
        for (std::size_t i = 0; carry != 0 && i < v.size(); ++i) {
          const std::uint64_t s = v[i] + carry;
          carry = s < v[i] ? 1 : 0;
          v[i] = s;
        }
        if (carry != 0) v.push_back(carry);
      } else {
        d = static_cast<std::int8_t>(u);
        // v -= u (u <= 15 < v, since v is odd and >= u here)
        std::uint64_t borrow = u;
        for (std::size_t i = 0; borrow != 0 && i < v.size(); ++i) {
          const std::uint64_t r = v[i] - borrow;
          borrow = r > v[i] ? 1 : 0;
          v[i] = r;
        }
      }
    }
    digits.push_back(d);
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      v[i] = (v[i] >> 1) | (v[i + 1] << 63);
    }
    if (!v.empty()) v.back() >>= 1;
  }
  return digits;
}

namespace {
using fqm::Fe;
using math::Montgomery;

void check_width(const Montgomery& mq, const char* what) {
  if (!mq.fits_fixed()) {
    throw std::invalid_argument(std::string(what) +
                                ": modulus wider than 512 bits");
  }
}

// Jacobian coordinates (X, Y, Z): x = X/Z², y = Y/Z³, no inversion per
// group operation. Coordinates are Montgomery-form fixed-width limbs; z == 0
// is the identity. All functions here assume mq.fits_fixed().
struct JacM {
  Fe x, y, z;
};

JacM jacm_from(const Montgomery& m, const Point& a) {
  return {a.x, a.y, fqm::fe_one(m)};
}

bool jacm_is_inf(const JacM& p) { return p.z.is_zero(); }

JacM jacm_infinity() { return JacM{}; }

// General doubling for y² = x³ + a·x with a = 1:
//   M = 3X² + a·Z⁴, S = 4XY², X' = M² − 2S, Y' = M(S − X') − 8Y⁴, Z' = 2YZ.
JacM jacm_double(const Montgomery& m, const JacM& p) {
  if (jacm_is_inf(p) || p.y.is_zero()) {
    return jacm_infinity();
  }
  Fe y2, z2, x2, z4, mm, s, xp, y4, yp, zp, t;
  fqm::fe_sqr(m, p.y, y2);
  fqm::fe_sqr(m, p.z, z2);
  fqm::fe_sqr(m, p.x, x2);
  fqm::fe_sqr(m, z2, z4);
  fqm::fe_add(m, x2, x2, mm);
  fqm::fe_add(m, mm, x2, mm);
  fqm::fe_add(m, mm, z4, mm);  // M = 3X² + Z⁴
  fqm::fe_mul(m, p.x, y2, s);
  fqm::fe_dbl(m, s, s);
  fqm::fe_dbl(m, s, s);  // S = 4XY²
  fqm::fe_sqr(m, mm, xp);
  fqm::fe_add(m, s, s, t);
  fqm::fe_sub(m, xp, t, xp);  // X' = M² − 2S
  fqm::fe_sqr(m, y2, y4);
  fqm::fe_dbl(m, y4, y4);
  fqm::fe_dbl(m, y4, y4);
  fqm::fe_dbl(m, y4, y4);  // 8Y⁴
  fqm::fe_sub(m, s, xp, t);
  fqm::fe_mul(m, mm, t, yp);
  fqm::fe_sub(m, yp, y4, yp);  // Y' = M(S − X') − 8Y⁴
  fqm::fe_mul(m, p.y, p.z, zp);
  fqm::fe_dbl(m, zp, zp);  // Z' = 2YZ
  return {xp, yp, zp};
}

// Mixed addition p + a with a affine (adding the identity is a no-op on
// either side).
JacM jacm_add_affine(const Montgomery& m, const JacM& p, const Point& a) {
  if (a.infinity) return p;
  if (jacm_is_inf(p)) return jacm_from(m, a);
  Fe z2, u2, s2, h, rr, t;
  fqm::fe_sqr(m, p.z, z2);
  fqm::fe_mul(m, a.x, z2, u2);
  fqm::fe_mul(m, z2, p.z, t);
  fqm::fe_mul(m, a.y, t, s2);
  fqm::fe_sub(m, u2, p.x, h);
  fqm::fe_sub(m, s2, p.y, rr);
  if (h.is_zero()) {
    if (rr.is_zero()) return jacm_double(m, p);
    return jacm_infinity();  // a == -p
  }
  Fe h2, h3, uh2, xp, yp, zp;
  fqm::fe_sqr(m, h, h2);
  fqm::fe_mul(m, h2, h, h3);
  fqm::fe_mul(m, p.x, h2, uh2);
  fqm::fe_sqr(m, rr, xp);
  fqm::fe_sub(m, xp, h3, xp);
  fqm::fe_add(m, uh2, uh2, t);
  fqm::fe_sub(m, xp, t, xp);  // X' = r² − H³ − 2·U1·H²
  fqm::fe_sub(m, uh2, xp, t);
  fqm::fe_mul(m, rr, t, yp);
  fqm::fe_mul(m, p.y, h3, t);
  fqm::fe_sub(m, yp, t, yp);  // Y' = r(U1·H² − X') − Y1·H³
  fqm::fe_mul(m, p.z, h, zp);
  return {xp, yp, zp};
}

Point jacm_to_point(const Montgomery& m, const JacM& p) {
  if (jacm_is_inf(p)) return Point::at_infinity();
  // One (safegcd, in-domain) inversion per scalar multiplication.
  Fe zinv, zinv2, zinv3, xa, ya;
  zinv = fqm::fe_inv(m, p.z);
  fqm::fe_sqr(m, zinv, zinv2);
  fqm::fe_mul(m, zinv2, zinv, zinv3);
  fqm::fe_mul(m, p.x, zinv2, xa);
  fqm::fe_mul(m, p.y, zinv3, ya);
  return {xa, ya, false};
}

// Normalize a batch of Jacobian points to affine with a single field
// inversion (Montgomery's trick); identity entries come back as the identity.
std::vector<Point> jacm_batch_normalize(const Montgomery& m,
                                        const std::vector<JacM>& pts) {
  const std::size_t n = pts.size();
  std::vector<Point> out(n);
  // prefix[i] = product of all non-identity z's among pts[0..i-1].
  std::vector<Fe> prefix(n + 1);
  prefix[0] = fqm::fe_one(m);
  for (std::size_t i = 0; i < n; ++i) {
    if (jacm_is_inf(pts[i])) {
      prefix[i + 1] = prefix[i];
    } else {
      fqm::fe_mul(m, prefix[i], pts[i].z, prefix[i + 1]);
    }
  }
  Fe inv = fqm::fe_inv(m, prefix[n]);
  for (std::size_t i = n; i-- > 0;) {
    if (jacm_is_inf(pts[i])) continue;
    Fe zinv, zinv2, zinv3, t;
    fqm::fe_mul(m, inv, prefix[i], zinv);  // 1/z_i
    fqm::fe_mul(m, inv, pts[i].z, t);      // drop z_i from the running inverse
    inv = t;
    fqm::fe_sqr(m, zinv, zinv2);
    fqm::fe_mul(m, zinv2, zinv, zinv3);
    fqm::fe_mul(m, pts[i].x, zinv2, out[i].x);
    fqm::fe_mul(m, pts[i].y, zinv3, out[i].y);
    out[i].infinity = false;
  }
  return out;
}
}  // namespace

bool on_curve(const math::Montgomery& mq, const Point& p) {
  check_width(mq, "on_curve");
  if (p.infinity) return true;
  Fe lhs, rhs;
  fqm::fe_sqr(mq, p.y, lhs);
  fqm::fe_sqr(mq, p.x, rhs);
  fqm::fe_mul(mq, rhs, p.x, rhs);
  fqm::fe_add(mq, rhs, p.x, rhs);
  return lhs == rhs;
}

Point curve_add(const math::Montgomery& mq, const Point& a, const Point& b) {
  check_width(mq, "curve_add");
  if (a.infinity) return b;
  return jacm_to_point(mq, jacm_add_affine(mq, jacm_from(mq, a), b));
}

Point point_mul_mont(const Point& p, const BigInt& k,
                     const math::Montgomery& mq) {
  if (k.is_negative()) throw std::invalid_argument("point_mul: negative scalar");
  check_width(mq, "point_mul_mont");
  if (p.infinity || k.is_zero()) return Point::at_infinity();

  // Odd-multiple table {1, 3, ..., 15}·P: chain mixed additions of an
  // affine 2P, then normalize the chain with one shared inversion.
  std::vector<JacM> chain(8);
  chain[0] = jacm_from(mq, p);
  const JacM p2j = jacm_double(mq, chain[0]);
  if (jacm_is_inf(p2j)) {
    // 2P = identity (P has order <= 2): k·P depends only on k mod 2.
    return k.bit(0) ? p : Point::at_infinity();
  }
  const Point p2 = jacm_batch_normalize(mq, {p2j})[0];
  for (std::size_t i = 1; i < 8; ++i) {
    chain[i] = jacm_add_affine(mq, chain[i - 1], p2);
  }
  const std::vector<Point> table = jacm_batch_normalize(mq, chain);

  const std::vector<std::int8_t> digits = wnaf4(k);
  JacM acc = jacm_infinity();
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = jacm_double(mq, acc);
    const std::int8_t d = digits[i];
    if (d > 0) {
      acc = jacm_add_affine(mq, acc, table[static_cast<std::size_t>(d) / 2]);
    } else if (d < 0) {
      const Point& t = table[static_cast<std::size_t>(-d) / 2];
      acc = jacm_add_affine(mq, acc, {t.x, fqm::fe_neg(mq, t.y), t.infinity});
    }
  }
  return jacm_to_point(mq, acc);
}

FixedBaseTable::FixedBaseTable(const math::Montgomery& mq, const Point& base,
                               std::size_t scalar_bits)
    : mq_(mq), base_(base), scalar_bits_(scalar_bits) {
  check_width(mq, "FixedBaseTable");
  if (base.infinity || scalar_bits == 0) return;
  windows_ = (scalar_bits + kWindow - 1) / kWindow;
  constexpr std::size_t kPerWindow = (1u << kWindow) - 1;  // 15

  xs_.reserve(windows_ * kPerWindow);
  ys_.reserve(windows_ * kPerWindow);
  Point cur = base;
  for (std::size_t w = 0; w < windows_; ++w) {
    // d·cur for d = 1..15, chained mixed additions; then 16·cur = 2·(8·cur)
    // becomes the next window's base.
    std::vector<JacM> window(kPerWindow);
    window[0] = jacm_from(mq, cur);
    for (std::size_t d = 1; d < kPerWindow; ++d) {
      window[d] = jacm_add_affine(mq, window[d - 1], cur);
    }
    const JacM next = jacm_double(mq, window[7]);
    window.push_back(next);
    const std::vector<Point> norm = jacm_batch_normalize(mq, window);
    // An identity entry means the base has tiny order — not a case the
    // system's order-r bases hit; fall back to the generic path.
    const bool next_needed = w + 1 < windows_;
    bool degenerate = next_needed && norm[kPerWindow].infinity;
    for (std::size_t d = 0; d < kPerWindow; ++d) degenerate |= norm[d].infinity;
    if (degenerate) {
      xs_.clear();
      ys_.clear();
      windows_ = 0;
      return;
    }
    for (std::size_t d = 0; d < kPerWindow; ++d) {
      xs_.push_back(norm[d].x);
      ys_.push_back(norm[d].y);
    }
    if (next_needed) cur = norm[kPerWindow];
  }
}

Point FixedBaseTable::mul(const BigInt& k) const {
  if (k.is_negative()) throw std::invalid_argument("point_mul: negative scalar");
  if (k.is_zero() || base_.infinity) return Point::at_infinity();
  if (xs_.empty() || k.bit_length() > windows_ * kWindow) {
    return point_mul_mont(base_, k, mq_);
  }
  constexpr std::size_t kPerWindow = (1u << kWindow) - 1;
  JacM acc = jacm_infinity();
  for (std::size_t w = 0; w < windows_; ++w) {
    unsigned nib = 0;
    for (unsigned i = 0; i < kWindow; ++i) {
      nib |= (k.bit(w * kWindow + i) ? 1u : 0u) << i;
    }
    if (nib == 0) continue;
    const std::size_t idx = w * kPerWindow + (nib - 1);
    acc = jacm_add_affine(mq_, acc, Point{xs_[idx], ys_[idx], false});
  }
  return jacm_to_point(mq_, acc);
}

}  // namespace p3s::pairing
