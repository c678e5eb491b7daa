// BigInt F_q² and affine curve arithmetic, and the decoders that turn
// production values into the oracle's plain types.
#include <stdexcept>

#include "common/serial.hpp"
#include "math/modular.hpp"
#include "oracle/oracle.hpp"

namespace p3s::oracle {

using math::mod_add;
using math::mod_inv;
using math::mod_mul;
using math::mod_sub;

Point plain(const pairing::Pairing& pairing, const pairing::Point& p) {
  const std::size_t n = pairing.gt_bytes() / 2;  // bytes per coordinate
  const Bytes bytes = pairing.serialize_g1(p);
  Reader rd(bytes);
  const bool finite = rd.u8() != 0;
  const BigInt x = BigInt::from_bytes(rd.raw(n));
  const BigInt y = BigInt::from_bytes(rd.raw(n));
  if (!finite) return Point::at_infinity();
  return {x, y, false};
}

Fq2 plain(const pairing::Pairing& pairing, const pairing::Fq2& v) {
  const std::size_t n = pairing.gt_bytes() / 2;
  const Bytes bytes = pairing.serialize_gt(v);
  Reader rd(bytes);
  const BigInt a = BigInt::from_bytes(rd.raw(n));
  return {a, BigInt::from_bytes(rd.raw(n))};
}

Fq2 fq2_one() { return {BigInt{1}, BigInt{}}; }

Fq2 fq2_mul(const Fq2& x, const Fq2& y, const BigInt& q) {
  // (a1 + b1 i)(a2 + b2 i) = (a1a2 - b1b2) + (a1b2 + b1a2) i
  // Karatsuba-style: 3 base multiplications.
  const BigInt t0 = mod_mul(x.a, y.a, q);
  const BigInt t1 = mod_mul(x.b, y.b, q);
  const BigInt t2 =
      mod_mul(mod_add(x.a, x.b, q), mod_add(y.a, y.b, q), q);
  return {mod_sub(t0, t1, q), mod_sub(mod_sub(t2, t0, q), t1, q)};
}

Fq2 fq2_sqr(const Fq2& x, const BigInt& q) {
  // (a + bi)^2 = (a+b)(a-b) + 2ab i
  const BigInt t0 = mod_mul(mod_add(x.a, x.b, q), mod_sub(x.a, x.b, q), q);
  const BigInt t1 = mod_mul(x.a, x.b, q);
  return {t0, mod_add(t1, t1, q)};
}

Fq2 fq2_conj(const Fq2& x, const BigInt& q) {
  return {x.a, mod_sub(BigInt{}, x.b, q)};
}

Fq2 fq2_inv(const Fq2& x, const BigInt& q) {
  if (x.a.is_zero() && x.b.is_zero()) throw std::domain_error("fq2_inv: zero");
  // 1/(a+bi) = (a-bi)/(a^2+b^2)
  const BigInt norm =
      mod_add(mod_mul(x.a, x.a, q), mod_mul(x.b, x.b, q), q);
  const BigInt ninv = mod_inv(norm, q);
  return {mod_mul(x.a, ninv, q), mod_mul(mod_sub(BigInt{}, x.b, q), ninv, q)};
}

Fq2 fq2_pow(const Fq2& x, const BigInt& e, const BigInt& q) {
  if (e.is_negative()) throw std::invalid_argument("fq2_pow: negative exponent");
  Fq2 acc = fq2_one();
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = fq2_sqr(acc, q);
    if (e.bit(i)) acc = fq2_mul(acc, x, q);
  }
  return acc;
}

Point point_double(const Point& p, const BigInt& q) {
  if (p.infinity) return p;
  if (p.y.is_zero()) return Point::at_infinity();
  // lambda = (3x^2 + 1) / (2y)   [curve coefficient a = 1]
  const BigInt x2 = mod_mul(p.x, p.x, q);
  const BigInt num = mod_add(mod_add(mod_add(x2, x2, q), x2, q), BigInt{1}, q);
  const BigInt lambda = mod_mul(num, mod_inv(mod_add(p.y, p.y, q), q), q);
  const BigInt x3 = mod_sub(mod_sub(mod_mul(lambda, lambda, q), p.x, q), p.x, q);
  const BigInt y3 = mod_sub(mod_mul(lambda, mod_sub(p.x, x3, q), q), p.y, q);
  return {x3, y3, false};
}

Point point_add(const Point& p1, const Point& p2, const BigInt& q) {
  if (p1.infinity) return p2;
  if (p2.infinity) return p1;
  if (p1.x == p2.x) {
    if (p1.y == p2.y) return point_double(p1, q);
    return Point::at_infinity();  // p2 == -p1
  }
  const BigInt lambda = mod_mul(mod_sub(p2.y, p1.y, q),
                                mod_inv(mod_sub(p2.x, p1.x, q), q), q);
  const BigInt x3 =
      mod_sub(mod_sub(mod_mul(lambda, lambda, q), p1.x, q), p2.x, q);
  const BigInt y3 = mod_sub(mod_mul(lambda, mod_sub(p1.x, x3, q), q), p1.y, q);
  return {x3, y3, false};
}

}  // namespace p3s::oracle
