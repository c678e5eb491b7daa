#include "oracle/oracle.hpp"

#include <stdexcept>

#include "math/modular.hpp"

namespace p3s::oracle {

using math::mod_add;
using math::mod_inv;
using math::mod_mul;
using math::mod_sub;
using pairing::Pairing;

namespace {
// Jacobian coordinates (X, Y, Z): x = X/Z^2, y = Y/Z^3. Avoids the modular
// inversion per step that affine arithmetic needs, which makes scalar
// multiplication ~20x faster at pairing sizes.
struct Jac {
  BigInt x, y, z;  // z == 0 means infinity
};

Point jac_to_affine(const Jac& j, const BigInt& q) {
  if (j.z.is_zero()) return Point::at_infinity();
  const BigInt zinv = mod_inv(j.z, q);
  const BigInt zinv2 = mod_mul(zinv, zinv, q);
  return {mod_mul(j.x, zinv2, q), mod_mul(j.y, mod_mul(zinv2, zinv, q), q),
          false};
}

Jac jac_double(const Jac& p, const BigInt& q) {
  if (p.z.is_zero() || p.y.is_zero()) return {BigInt{1}, BigInt{1}, BigInt{}};
  // General doubling for y^2 = x^3 + a x with a = 1:
  //   M = 3X^2 + a Z^4, S = 4XY^2,
  //   X' = M^2 - 2S, Y' = M(S - X') - 8Y^4, Z' = 2YZ.
  const BigInt y2 = mod_mul(p.y, p.y, q);
  const BigInt z2 = mod_mul(p.z, p.z, q);
  const BigInt x2 = mod_mul(p.x, p.x, q);
  const BigInt z4 = mod_mul(z2, z2, q);
  const BigInt m = mod_add(mod_add(mod_add(x2, x2, q), x2, q), z4, q);
  BigInt s = mod_mul(p.x, y2, q);
  s = mod_add(s, s, q);
  s = mod_add(s, s, q);
  const BigInt xp = mod_sub(mod_mul(m, m, q), mod_add(s, s, q), q);
  BigInt y4 = mod_mul(y2, y2, q);  // Y^4
  // 8 Y^4
  y4 = mod_add(y4, y4, q);
  y4 = mod_add(y4, y4, q);
  y4 = mod_add(y4, y4, q);
  const BigInt yp = mod_sub(mod_mul(m, mod_sub(s, xp, q), q), y4, q);
  BigInt zp = mod_mul(p.y, p.z, q);
  zp = mod_add(zp, zp, q);
  return {xp, yp, zp};
}

// Mixed addition: p (Jacobian) + a (affine, not infinity).
Jac jac_add_affine(const Jac& p, const Point& a, const BigInt& q) {
  if (p.z.is_zero()) return {a.x, a.y, BigInt{1}};
  const BigInt z2 = mod_mul(p.z, p.z, q);
  const BigInt u2 = mod_mul(a.x, z2, q);
  const BigInt s2 = mod_mul(a.y, mod_mul(z2, p.z, q), q);
  const BigInt h = mod_sub(u2, p.x, q);
  const BigInt rr = mod_sub(s2, p.y, q);
  if (h.is_zero()) {
    if (rr.is_zero()) return jac_double(p, q);
    return {BigInt{1}, BigInt{1}, BigInt{}};  // infinity
  }
  const BigInt h2 = mod_mul(h, h, q);
  const BigInt h3 = mod_mul(h2, h, q);
  const BigInt uh2 = mod_mul(p.x, h2, q);
  const BigInt xp =
      mod_sub(mod_sub(mod_mul(rr, rr, q), h3, q), mod_add(uh2, uh2, q), q);
  const BigInt yp = mod_sub(mod_mul(rr, mod_sub(uh2, xp, q), q),
                            mod_mul(p.y, h3, q), q);
  const BigInt zp = mod_mul(p.z, h, q);
  return {xp, yp, zp};
}
}  // namespace

Point point_mul(const Point& p, const BigInt& k, const BigInt& q) {
  if (k.is_negative()) throw std::invalid_argument("point_mul: negative scalar");
  if (p.infinity || k.is_zero()) return Point::at_infinity();
  Jac acc{BigInt{1}, BigInt{1}, BigInt{}};  // infinity
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = jac_double(acc, q);
    if (k.bit(i)) acc = jac_add_affine(acc, p, q);
  }
  return jac_to_affine(acc, q);
}

namespace {
// Jacobian point used inside the Miller loop (z == 0 means infinity).
// Keeping V projective removes every per-step modular inversion: line
// values are scaled by the λ-denominator, which lies in F_q* and is killed
// by the final exponentiation ((q−1) divides (q²−1)/r), the same
// denominator-elimination argument that lets us drop vertical lines.
struct MillerPoint {
  BigInt x, y, z;
  bool infinity() const { return z.is_zero(); }
};

// F_q² arithmetic with coordinates kept in Montgomery form. Addition and
// subtraction are domain-preserving, so only products change.
Fq2 fq2_mul_m(const Fq2& x, const Fq2& y, const math::Montgomery& mq,
              const BigInt& q) {
  const BigInt t0 = mq.mul(x.a, y.a);
  const BigInt t1 = mq.mul(x.b, y.b);
  const BigInt t2 = mq.mul(mod_add(x.a, x.b, q), mod_add(y.a, y.b, q));
  return {mod_sub(t0, t1, q), mod_sub(mod_sub(t2, t0, q), t1, q)};
}

Fq2 fq2_sqr_m(const Fq2& x, const math::Montgomery& mq, const BigInt& q) {
  const BigInt t0 = mq.mul(mod_add(x.a, x.b, q), mod_sub(x.a, x.b, q));
  const BigInt t1 = mq.mul(x.a, x.b);
  return {t0, mod_add(t1, t1, q)};
}

Fq2 fq2_pow_m(const Fq2& x, const BigInt& e, const Fq2& one_m,
              const math::Montgomery& mq, const BigInt& q) {
  Fq2 acc = one_m;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = fq2_sqr_m(acc, mq, q);
    if (e.bit(i)) acc = fq2_mul_m(acc, x, mq, q);
  }
  return acc;
}
}  // namespace

Fq2 pair_reference(const Pairing& pairing, const Point& p, const Point& qpt) {
  if (p.infinity || qpt.infinity) return fq2_one();
  const BigInt& q = pairing.q();
  const BigInt& r = pairing.r();
  const math::Montgomery& mq = pairing.mont_q();

  // Montgomery-domain inputs; every product below is a CIOS multiply.
  const BigInt one_m = mq.to_mont(BigInt{1});
  const BigInt px = mq.to_mont(p.x);
  const BigInt py = mq.to_mont(p.y);
  const BigInt qx = mq.to_mont(qpt.x);
  const BigInt qy = mq.to_mont(qpt.y);
  const Fq2 fq2_one_m{one_m, BigInt{}};

  // Miller loop computing f_{r,P}(φ(Q)) with φ(x,y) = (−x, i·y).
  Fq2 f = fq2_one_m;
  MillerPoint v{px, py, one_m};

  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    if (!v.infinity()) {
      // --- tangent line at V, scaled by 2YZ³ ---------------------------
      //   real = M·Z²·xQ + M·X − 2Y²,  imag = 2YZ³·yQ
      // with M = 3X² + Z⁴ (curve coefficient a = 1).
      const BigInt x2 = mq.mul(v.x, v.x);
      const BigInt z2 = mq.mul(v.z, v.z);
      const BigInt z4 = mq.mul(z2, z2);
      const BigInt m = mod_add(mod_add(mod_add(x2, x2, q), x2, q), z4, q);
      const BigInt y2 = mq.mul(v.y, v.y);
      const BigInt two_y2 = mod_add(y2, y2, q);
      const BigInt yz = mq.mul(v.y, v.z);
      const BigInt two_yz3 = mq.mul(mod_add(yz, yz, q), z2);  // 2YZ³
      Fq2 line;
      line.a = mod_sub(
          mod_add(mq.mul(mq.mul(m, z2), qx), mq.mul(m, v.x), q), two_y2, q);
      line.b = mq.mul(two_yz3, qy);
      f = fq2_mul_m(fq2_sqr_m(f, mq, q), line, mq, q);

      // --- double V (Jacobian, a = 1) -----------------------------------
      BigInt s = mq.mul(v.x, y2);
      s = mod_add(s, s, q);
      s = mod_add(s, s, q);  // 4XY²
      const BigInt xp = mod_sub(mq.mul(m, m), mod_add(s, s, q), q);
      BigInt y4 = mq.mul(y2, y2);
      y4 = mod_add(y4, y4, q);
      y4 = mod_add(y4, y4, q);
      y4 = mod_add(y4, y4, q);  // 8Y⁴
      const BigInt yp = mod_sub(mq.mul(m, mod_sub(s, xp, q)), y4, q);
      v = MillerPoint{xp, yp, mod_add(yz, yz, q)};
    } else {
      f = fq2_sqr_m(f, mq, q);
    }

    if (r.bit(i)) {
      if (v.infinity()) {
        v = MillerPoint{px, py, one_m};
        continue;
      }
      // --- addition V + P (P affine) ------------------------------------
      const BigInt z2 = mq.mul(v.z, v.z);
      const BigInt u2 = mq.mul(px, z2);              // xP·Z²
      const BigInt s2 = mq.mul(py, mq.mul(z2, v.z));  // yP·Z³
      const BigInt hh = mod_sub(u2, v.x, q);
      const BigInt rr = mod_sub(s2, v.y, q);
      if (hh.is_zero()) {
        if (rr.is_zero()) {
          // V == P: tangent at the affine point, scaled by its denominator.
          const BigInt x2p = mq.mul(px, px);
          const BigInt num =
              mod_add(mod_add(mod_add(x2p, x2p, q), x2p, q), one_m, q);
          const BigInt den = mod_add(py, py, q);
          Fq2 line;
          line.a = mod_sub(mq.mul(num, mod_add(qx, px, q)), mq.mul(den, py), q);
          line.b = mq.mul(den, qy);
          f = fq2_mul_m(f, line, mq, q);
          const Point dbl = point_double(p, q);
          v = dbl.infinity
                  ? MillerPoint{one_m, one_m, BigInt{}}
                  : MillerPoint{mq.to_mont(dbl.x), mq.to_mont(dbl.y), one_m};
        } else {
          // V == −P: vertical line (eliminated); V + P = O.
          v = MillerPoint{one_m, one_m, BigInt{}};
        }
        continue;
      }
      // Line through V and P scaled by Z·H:
      //   real = R·(xQ + xP) − yP·Z·H,  imag = Z·H·yQ.
      const BigInt zh = mq.mul(v.z, hh);
      Fq2 line;
      line.a = mod_sub(mq.mul(rr, mod_add(qx, px, q)), mq.mul(py, zh), q);
      line.b = mq.mul(zh, qy);
      f = fq2_mul_m(f, line, mq, q);

      // V ← V + P (mixed Jacobian addition).
      const BigInt h2 = mq.mul(hh, hh);
      const BigInt h3 = mq.mul(h2, hh);
      const BigInt uh2 = mq.mul(v.x, h2);
      const BigInt xp =
          mod_sub(mod_sub(mq.mul(rr, rr), h3, q), mod_add(uh2, uh2, q), q);
      const BigInt yp =
          mod_sub(mq.mul(rr, mod_sub(uh2, xp, q)), mq.mul(v.y, h3), q);
      v = MillerPoint{xp, yp, zh};
    }
  }

  // Final exponentiation: f^((q²−1)/r) = (conj(f)·f⁻¹)^h since
  // (q²−1)/r = (q−1)·h and f^q = conj(f) in F_q². Inversion drops out of
  // Montgomery form for the extended-Euclid step, then re-enters.
  const Fq2 f_conj = fq2_conj(f, q);
  const BigInt norm = mod_add(mq.mul(f.a, f.a), mq.mul(f.b, f.b), q);
  const BigInt norm_inv = mq.to_mont(mod_inv(mq.from_mont(norm), q));
  const Fq2 f_inv{mq.mul(f.a, norm_inv),
                  mq.mul(mod_sub(BigInt{}, f.b, q), norm_inv)};
  const Fq2 f_q_minus_1 = fq2_mul_m(f_conj, f_inv, mq, q);
  const Fq2 result_m =
      fq2_pow_m(f_q_minus_1, pairing.params().h, Fq2{one_m, BigInt{}}, mq, q);
  return Fq2{mq.from_mont(result_m.a), mq.from_mont(result_m.b)};
}

}  // namespace p3s::oracle
