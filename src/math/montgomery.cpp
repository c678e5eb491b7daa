#include "math/montgomery.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "math/modular.hpp"

namespace p3s::math {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;
using i64 = std::int64_t;
using i128 = __int128;

// x⁻¹ mod 2^64 for odd x (Newton–Hensel lifting: 6 iterations double the
// precision each time: 2, 4, 8, 16, 32, 64 bits).
u64 inv64(u64 x) {
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - x * inv;
  return inv;
}

constexpr u64 kM62 = ~u64{0} >> 2;

// Little-endian 64-bit limbs (k of them) -> n unsigned 62-bit limbs.
void to_s62(const u64* a, std::size_t k, i64* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t word = 62 * i / 64;
    const std::size_t off = 62 * i % 64;
    u64 v = word < k ? a[word] >> off : 0;
    if (off > 2 && word + 1 < k) v |= a[word + 1] << (64 - off);
    out[i] = static_cast<i64>(v & kM62);
  }
}

// n normalized 62-bit limbs (each in [0, 2^62)) -> k 64-bit limbs.
void from_s62(const i64* a, std::size_t n, u64* out, std::size_t k) {
  for (std::size_t j = 0; j < k; ++j) out[j] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 v = static_cast<u64>(a[i]);
    const std::size_t word = 62 * i / 64;
    const std::size_t off = 62 * i % 64;
    if (word < k) out[word] |= v << off;
    if (off > 2 && word + 1 < k) out[word + 1] |= v >> (64 - off);
  }
}

// Transition matrix of a divstep batch, scaled by 2^62.
struct Trans2x2 {
  i64 u, v, q, r;
};

// 59 divsteps of Bernstein–Yang (original form, δ tracked as η = −δ) on the
// low words of f and g: each step is
//   δ > 0 and g odd:  (δ, f, g) <- (1 − δ, g, (g − f)/2)
//   otherwise:        (δ, f, g) <- (1 + δ, f, (g + (g mod 2)·f)/2)
// in branch-free mask arithmetic. The matrix starts at 8·I so it comes out
// scaled by 2^62; |u| + |v| ≤ 2^62 and |q| + |r| ≤ 2^62. Returns the new η.
i64 divsteps_59(i64 eta, u64 f0, u64 g0, Trans2x2& t) {
  u64 u = 8, v = 0, q = 0, r = 8;
  u64 f = f0, g = g0;
  // volatile keeps the compiler from turning the masks back into branches.
  volatile u64 c1, c2;
  for (int i = 3; i < 62; ++i) {
    c1 = static_cast<u64>(eta >> 63);  // all ones iff δ > 0
    u64 mask1 = c1;
    c2 = g & 1;
    const u64 mask2 = -c2;             // all ones iff g odd
    // x, y, z: f, u, v negated when δ > 0; added to g, q, r when g is odd.
    const u64 x = (f ^ mask1) - mask1;
    const u64 y = (u ^ mask1) - mask1;
    const u64 z = (v ^ mask1) - mask1;
    g += x & mask2;
    q += y & mask2;
    r += z & mask2;
    mask1 &= mask2;  // the swap case: δ > 0 and g odd
    eta = (eta ^ static_cast<i64>(mask1)) - (static_cast<i64>(mask1) + 1);
    f += g & mask1;  // f <- old g
    u += q & mask1;
    v += r & mask1;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = {static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q),
       static_cast<i64>(r)};
  return eta;
}

// (f, g) <- t·(f, g) / 2^62, exact: the low 62 bits of both products are
// zero by construction of t. All but the top limb stay in [0, 2^62).
void update_fg(i64* f, i64* g, std::size_t n, const Trans2x2& t) {
  i128 cf = static_cast<i128>(t.u) * f[0] + static_cast<i128>(t.v) * g[0];
  i128 cg = static_cast<i128>(t.q) * f[0] + static_cast<i128>(t.r) * g[0];
  cf >>= 62;
  cg >>= 62;
  for (std::size_t i = 1; i < n; ++i) {
    cf += static_cast<i128>(t.u) * f[i] + static_cast<i128>(t.v) * g[i];
    cg += static_cast<i128>(t.q) * f[i] + static_cast<i128>(t.r) * g[i];
    f[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kM62);
    g[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f[n - 1] = static_cast<i64>(cf);
  g[n - 1] = static_cast<i64>(cg);
}

// (d, e) <- t·(d, e) / 2^62 mod m: add the multiples md·m and me·m that
// clear the low 62 bits, then shift (Montgomery-style exact division). Keeps
// d and e in (−2m, m) given they start there.
void update_de(i64* d, i64* e, std::size_t n, const Trans2x2& t,
               const i64* m, u64 m_inv62) {
  const i64 sd = d[n - 1] >> 63;
  const i64 se = e[n - 1] >> 63;
  // Start from u (resp. q) when d < 0 and v (resp. r) when e < 0, which
  // keeps the result above −2m; then fix the low 62 bits.
  i64 md = (t.u & sd) + (t.v & se);
  i64 me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d[0] + static_cast<i128>(t.v) * e[0];
  i128 ce = static_cast<i128>(t.q) * d[0] + static_cast<i128>(t.r) * e[0];
  md -= static_cast<i64>((m_inv62 * static_cast<u64>(cd) +
                          static_cast<u64>(md)) & kM62);
  me -= static_cast<i64>((m_inv62 * static_cast<u64>(ce) +
                          static_cast<u64>(me)) & kM62);
  cd += static_cast<i128>(m[0]) * md;
  ce += static_cast<i128>(m[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (std::size_t i = 1; i < n; ++i) {
    cd += static_cast<i128>(t.u) * d[i] + static_cast<i128>(t.v) * e[i] +
          static_cast<i128>(m[i]) * md;
    ce += static_cast<i128>(t.q) * d[i] + static_cast<i128>(t.r) * e[i] +
          static_cast<i128>(m[i]) * me;
    d[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kM62);
    e[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d[n - 1] = static_cast<i64>(cd);
  e[n - 1] = static_cast<i64>(ce);
}

// Carry-propagate so every limb but the top one is in [0, 2^62).
void carry_s62(i64* r, std::size_t n) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    r[i + 1] += r[i] >> 62;
    r[i] &= static_cast<i64>(kM62);
  }
}

// Bring r from (−2m, m) into [0, m), negating it first when sign < 0.
void normalize_s62(i64* r, std::size_t n, i64 sign, const i64* m) {
  i64 cond_add = r[n - 1] >> 63;
  for (std::size_t i = 0; i < n; ++i) r[i] += m[i] & cond_add;
  const i64 cond_negate = sign >> 63;
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = (r[i] ^ cond_negate) - cond_negate;
  }
  carry_s62(r, n);
  cond_add = r[n - 1] >> 63;
  for (std::size_t i = 0; i < n; ++i) r[i] += m[i] & cond_add;
  carry_s62(r, n);
}
}  // namespace

Montgomery::Montgomery(const BigInt& modulus) : n_(modulus) {
  if (n_ <= BigInt{1} || n_.is_even()) {
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  }
  n_limbs_ = n_.limbs();
  n0_inv_ = ~inv64(n_limbs_[0]) + 1;  // -n⁻¹ mod 2^64
  // R² mod n by repeated modular doubling of R mod n.
  const std::size_t k = n_limbs_.size();
  BigInt r = mod(BigInt{1} << (64 * k), n_);
  one_mont_ = r;
  BigInt r2 = r;
  for (std::size_t i = 0; i < 64 * k; ++i) {
    r2 = mod_add(r2, r2, n_);
  }
  r2_ = r2;
  if (!fits_fixed()) return;
  // inv_limbs: n and R² mod n in 62-bit limbs with room for a sign bit,
  // n⁻¹ mod 2^62, and the divstep count. Bernstein–Yang, Theorem 11.2: for
  // f² + 4g² ≤ 5·2^{2d} (here f = n and 0 ≤ g < n, so d = n's bit length),
  // ⌊(49d + 80)/17⌋ divsteps bring g to 0 (⌊(49d + 57)/17⌋ suffices for
  // d ≥ 46; the larger count covers both cases). d = 512: 1480 divsteps,
  // 26 batches.
  const std::size_t bits = n_.bit_length();
  n62_count_ = bits / 62 + 1;
  to_s62(n_limbs_.data(), k, n62_.data(), n62_count_);
  n62_inv_ = inv64(n_limbs_[0]) & kM62;
  inv_batches_ = ((49 * bits + 80) / 17 + 58) / 59;
  u64 r2_limbs[kMaxFixedLimbs] = {0};  // r2_ may have fewer than k limbs
  std::copy(r2_.limbs().begin(), r2_.limbs().end(), r2_limbs);
  to_s62(r2_limbs, k, r2_62_.data(), n62_count_);
}

std::vector<u64> Montgomery::mont_mul_limbs(const std::vector<u64>& a,
                                            const std::vector<u64>& b) const {
  // CIOS (coarsely integrated operand scanning), Koç et al.
  const std::size_t k = n_limbs_.size();
  std::vector<u64> t(k + 2, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const u128 ai = i < a.size() ? a[i] : 0;
    // t += a[i] * b
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 bj = j < b.size() ? b[j] : 0;
      const u128 cur = static_cast<u128>(t[j]) + ai * bj + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(cur);
    t[k + 1] = static_cast<u64>(cur >> 64);

    // Reduce: add m·n and shift one word.
    const u64 m = t[0] * n0_inv_;
    u128 acc = static_cast<u128>(t[0]) + static_cast<u128>(m) * n_limbs_[0];
    carry = static_cast<u64>(acc >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      acc = static_cast<u128>(t[j]) + static_cast<u128>(m) * n_limbs_[j] + carry;
      t[j - 1] = static_cast<u64>(acc);
      carry = static_cast<u64>(acc >> 64);
    }
    acc = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(acc);
    t[k] = t[k + 1] + static_cast<u64>(acc >> 64);
    t[k + 1] = 0;
  }
  t.resize(k + 1);
  return t;
}

namespace {
// True iff a >= b over k limbs (little-endian).
bool ge_limbs(const u64* a, const u64* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

// out = a - b over k limbs; returns the final borrow.
u64 sub_borrow(const u64* a, const u64* b, u64* out, std::size_t k) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u64 bi = b[i] + borrow;
    const u64 wrapped = (borrow != 0 && bi == 0) ? 1 : 0;  // b[i]+borrow overflowed
    const u64 r = a[i] - bi;
    borrow = wrapped | (r > a[i] ? 1 : 0);
    out[i] = r;
  }
  return borrow;
}
}  // namespace

void Montgomery::mul_limbs(const u64* a, const u64* b, u64* out) const {
  // CIOS as in mont_mul_limbs, but on fixed stack buffers: zero heap
  // traffic, which dominates at pairing sizes (3–8 limbs).
  const std::size_t k = n_limbs_.size();
  u64 t[kMaxFixedLimbs + 2] = {0};
  for (std::size_t i = 0; i < k; ++i) {
    const u128 ai = a[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur = static_cast<u128>(t[j]) + ai * b[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(cur);
    t[k + 1] = static_cast<u64>(cur >> 64);

    const u64 m = t[0] * n0_inv_;
    u128 acc = static_cast<u128>(t[0]) + static_cast<u128>(m) * n_limbs_[0];
    carry = static_cast<u64>(acc >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      acc = static_cast<u128>(t[j]) + static_cast<u128>(m) * n_limbs_[j] + carry;
      t[j - 1] = static_cast<u64>(acc);
      carry = static_cast<u64>(acc >> 64);
    }
    acc = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(acc);
    t[k] = t[k + 1] + static_cast<u64>(acc >> 64);
    t[k + 1] = 0;
  }
  // Result < 2n with a possible carry limb in t[k]; one conditional
  // subtraction normalizes into [0, n).
  if (t[k] != 0 || ge_limbs(t, n_limbs_.data(), k)) {
    sub_borrow(t, n_limbs_.data(), t, k);
  }
  for (std::size_t i = 0; i < k; ++i) out[i] = t[i];
}

void Montgomery::add_limbs(const u64* a, const u64* b, u64* out) const {
  const std::size_t k = n_limbs_.size();
  u64 t[kMaxFixedLimbs];
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u64 s1 = a[i] + b[i];
    const u64 c1 = s1 < a[i] ? 1 : 0;
    const u64 s2 = s1 + carry;
    carry = c1 | (s2 < s1 ? 1 : 0);
    t[i] = s2;
  }
  if (carry != 0 || ge_limbs(t, n_limbs_.data(), k)) {
    sub_borrow(t, n_limbs_.data(), t, k);
  }
  for (std::size_t i = 0; i < k; ++i) out[i] = t[i];
}

void Montgomery::sub_limbs(const u64* a, const u64* b, u64* out) const {
  const std::size_t k = n_limbs_.size();
  u64 t[kMaxFixedLimbs];
  if (sub_borrow(a, b, t, k) != 0) {
    u64 carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u64 s1 = t[i] + n_limbs_[i];
      const u64 c1 = s1 < t[i] ? 1 : 0;
      const u64 s2 = s1 + carry;
      carry = c1 | (s2 < s1 ? 1 : 0);
      t[i] = s2;
    }
  }
  for (std::size_t i = 0; i < k; ++i) out[i] = t[i];
}

void Montgomery::inv_limbs(const u64* a, u64* out) const {
  // Invariants (mod n): f·R² ≡ d·a and g·R² ≡ e·a, starting from f = n,
  // g = a, d = 0, e = R². When g reaches 0, f = ±gcd(n, a) = ±1, so
  // ±d = R²·a⁻¹, which for a = x·R is x⁻¹·R: the result is already in the
  // Montgomery domain, with no closing product.
  const std::size_t n = n62_count_;
  std::array<i64, kMaxS62Limbs> d{}, e = r2_62_, f = n62_, g{};
  to_s62(a, limb_count(), g.data(), n);
  i64 eta = -1;  // η = −δ, δ = 1
  for (std::size_t i = 0; i < inv_batches_; ++i) {
    Trans2x2 t;
    eta = divsteps_59(eta, static_cast<u64>(f[0]), static_cast<u64>(g[0]), t);
    update_de(d.data(), e.data(), n, t, n62_.data(), n62_inv_);
    update_fg(f.data(), g.data(), n, t);
  }
  normalize_s62(d.data(), n, f[n - 1], n62_.data());
  from_s62(d.data(), n, out, limb_count());
}

BigInt Montgomery::mul(const BigInt& a_mont, const BigInt& b_mont) const {
  BigInt result =
      BigInt::from_limbs_le(mont_mul_limbs(a_mont.limbs(), b_mont.limbs()));
  // CIOS leaves the result < 2n; one conditional subtraction normalizes.
  if (result >= n_) result -= n_;
  return result;
}

BigInt Montgomery::to_mont(const BigInt& a) const { return mul(a, r2_); }

BigInt Montgomery::from_mont(const BigInt& a_mont) const {
  return mul(a_mont, BigInt{1});
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  if (exp.is_negative()) {
    throw std::invalid_argument("Montgomery::pow: negative exponent");
  }
  const BigInt b = to_mont(mod(base, n_));
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return mod(BigInt{1}, n_);

  std::array<BigInt, 16> table;
  table[0] = one_mont_;
  table[1] = b;
  for (int i = 2; i < 16; ++i) table[i] = mul(table[i - 1], b);

  const std::size_t windows = (bits + 3) / 4;
  BigInt acc = one_mont_;
  for (std::size_t w = windows; w-- > 0;) {
    for (int i = 0; i < 4; ++i) acc = mul(acc, acc);
    unsigned nib = 0;
    for (int i = 3; i >= 0; --i) {
      nib = (nib << 1) |
            (exp.bit(w * 4 + static_cast<std::size_t>(i)) ? 1u : 0u);
    }
    if (nib != 0) acc = mul(acc, table[nib]);
  }
  return from_mont(acc);
}

}  // namespace p3s::math
