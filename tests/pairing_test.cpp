#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/rng.hpp"
#include "math/modular.hpp"
#include "oracle/oracle.hpp"
#include "pairing/curve.hpp"
#include "pairing/ecies.hpp"
#include "pairing/fq_mont.hpp"
#include "pairing/pairing.hpp"

namespace p3s::pairing {
namespace {

using math::BigInt;
using math::mod;
using oracle::pair_reference;
using oracle::plain;

class PairingTest : public ::testing::Test {
 protected:
  Fq2 random_fq2(Rng& rng) const {
    const math::Montgomery& m = pp_->mont_q();
    return {fqm::fe_from(m, BigInt::random_below(rng, pp_->q())),
            fqm::fe_from(m, BigInt::random_below(rng, pp_->q()))};
  }
  Fq2 mul(const Fq2& x, const Fq2& y) const {
    Fq2 out;
    fqm::fe2_mul(pp_->mont_q(), x, y, out);
    return out;
  }

  PairingPtr pp_ = Pairing::test_pairing();
  TestRng rng_{0xfeed};
};

// --- Fq2 ---------------------------------------------------------------------

TEST_F(PairingTest, Fq2FieldAxioms) {
  const math::Montgomery& m = pp_->mont_q();
  const auto add = [&m](const Fq2& x, const Fq2& y) {
    Fq2 out;
    fqm::fe_add(m, x.a, y.a, out.a);
    fqm::fe_add(m, x.b, y.b, out.b);
    return out;
  };
  TestRng rng(1);
  for (int i = 0; i < 20; ++i) {
    const Fq2 a = random_fq2(rng);
    const Fq2 b = random_fq2(rng);
    const Fq2 c = random_fq2(rng);
    // Commutativity and associativity of multiplication.
    EXPECT_EQ(mul(a, b), mul(b, a));
    EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
    // Distributivity.
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    // Square matches mul.
    Fq2 sq;
    fqm::fe2_sqr(m, a, sq);
    EXPECT_EQ(sq, mul(a, a));
    // Additive inverse.
    EXPECT_EQ(add(a, Fq2{fqm::fe_neg(m, a.a), fqm::fe_neg(m, a.b)}), Fq2{});
    // Multiplicative inverse.
    if (a != Fq2{}) {
      EXPECT_EQ(mul(a, fqm::fe2_inv(m, a)), pp_->gt_one());
      EXPECT_EQ(plain(*pp_, fqm::fe2_inv(m, a)),
                oracle::fq2_inv(plain(*pp_, a), pp_->q()));
    }
    EXPECT_EQ(plain(*pp_, mul(a, b)),
              oracle::fq2_mul(plain(*pp_, a), plain(*pp_, b), pp_->q()));
  }
}

TEST_F(PairingTest, Fq2IsquaredIsMinusOne) {
  const Fq2 i{fqm::Fe{}, fqm::fe_one(pp_->mont_q())};
  const Fq2 i2 = mul(i, i);
  EXPECT_EQ(plain(*pp_, i2).a, pp_->q() - BigInt{1});
  EXPECT_TRUE(i2.b.is_zero());
}

TEST_F(PairingTest, Fq2PowMatchesRepeatedMul) {
  const math::Montgomery& m = pp_->mont_q();
  const Fq2 x{fqm::fe_from(m, BigInt{3}), fqm::fe_from(m, BigInt{5})};
  Fq2 acc = pp_->gt_one();
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(fqm::fe2_pow(m, x, BigInt{e}), acc) << e;
    EXPECT_EQ(oracle::fq2_pow(plain(*pp_, x), BigInt{e}, pp_->q()),
              plain(*pp_, acc))
        << e;
    acc = mul(acc, x);
  }
}

TEST_F(PairingTest, Fq2ConjIsFrobenius) {
  // For q ≡ 3 mod 4, x^q == conj(x).
  const BigInt& q = pp_->q();
  TestRng rng(2);
  const Fq2 x = random_fq2(rng);
  EXPECT_EQ(fqm::fe2_pow(pp_->mont_q(), x, q), fqm::fe2_conj(pp_->mont_q(), x));
  const oracle::Fq2 xp = plain(*pp_, x);
  EXPECT_EQ(oracle::fq2_pow(xp, q, q), oracle::fq2_conj(xp, q));
}

TEST_F(PairingTest, Fq2InvZeroThrows) {
  EXPECT_THROW(fqm::fe2_inv(pp_->mont_q(), Fq2{}), std::domain_error);
  EXPECT_THROW(pp_->gt_inv(Fq2{}), std::domain_error);
}

// fe_inv (safegcd) against two independent checks, math::mod_inv (BigInt
// extended Euclid) and x·x⁻¹ = 1, on edge values and 1,000 random inputs
// per group. The edges cover the extremes of the 62-bit limb split and of
// the final sign/normalization step: tiny and near-q values, every power of
// two through 2^(64·limbs), and all-ones limb patterns.
TEST(PairingFe, FeInvAtBothScales) {
  for (const PairingPtr& pp :
       {Pairing::test_pairing(), Pairing::paper_pairing()}) {
    const math::Montgomery& m = pp->mont_q();
    const BigInt& q = pp->q();
    TestRng rng(0xfe1);
    std::vector<BigInt> xs{BigInt{1}, BigInt{2}, BigInt{3}, q - BigInt{1},
                           q - BigInt{2}};
    for (std::size_t k = 1; k <= 64 * m.limb_count(); ++k) {
      xs.push_back(math::mod(BigInt{1} << k, q));
    }
    // Every limb below the top one all-ones; every bit below q's top bit set.
    xs.push_back((BigInt{1} << (64 * (m.limb_count() - 1))) - BigInt{1});
    xs.push_back((BigInt{1} << (q.bit_length() - 1)) - BigInt{1});
    for (int i = 0; i < 1000; ++i) {
      xs.push_back(BigInt{1} + BigInt::random_below(rng, q - BigInt{1}));
    }
    for (const BigInt& x : xs) {
      const fqm::Fe xm = fqm::fe_from(m, x);
      const fqm::Fe inv = fqm::fe_inv(m, xm);
      fqm::Fe prod;
      fqm::fe_mul(m, xm, inv, prod);
      ASSERT_EQ(prod, fqm::fe_one(m)) << x.to_dec();
      ASSERT_EQ(fqm::fe_to(m, inv), math::mod_inv(x, q)) << x.to_dec();
    }
    EXPECT_THROW(fqm::fe_inv(m, fqm::Fe{}), std::domain_error);
  }
}

// --- Curve -------------------------------------------------------------------

TEST_F(PairingTest, GeneratorOnCurveWithOrderR) {
  const auto& prm = pp_->params();
  const Point& g = pp_->generator();
  EXPECT_TRUE(on_curve(pp_->mont_q(), g));
  EXPECT_FALSE(g.infinity);
  const oracle::Point gp = plain(*pp_, g);
  EXPECT_EQ(gp, (oracle::Point{prm.gx, prm.gy, false}));
  EXPECT_TRUE(oracle::point_mul(gp, prm.r, prm.q).infinity);
  EXPECT_FALSE(oracle::point_mul(gp, prm.r - BigInt{1}, prm.q).infinity);
}

TEST_F(PairingTest, GroupLaws) {
  const BigInt& q = pp_->q();
  const Point p = pp_->random_g1(rng_);
  const Point q2 = pp_->random_g1(rng_);
  const Point r2 = pp_->random_g1(rng_);
  // Commutativity / associativity.
  EXPECT_EQ(pp_->add(p, q2), pp_->add(q2, p));
  EXPECT_EQ(pp_->add(pp_->add(p, q2), r2), pp_->add(p, pp_->add(q2, r2)));
  // Identity and inverse.
  EXPECT_EQ(pp_->add(p, Point::at_infinity()), p);
  EXPECT_EQ(pp_->add(Point::at_infinity(), p), p);
  EXPECT_TRUE(pp_->add(p, pp_->neg(p)).infinity);
  EXPECT_EQ(pp_->neg(Point::at_infinity()), Point::at_infinity());
  // Double == add self.
  EXPECT_EQ(pp_->add(p, p), pp_->mul(p, BigInt{2}));
  // The same results as the oracle's affine chord-and-tangent law.
  const oracle::Point pp = plain(*pp_, p);
  EXPECT_EQ(plain(*pp_, pp_->add(p, q2)),
            oracle::point_add(pp, plain(*pp_, q2), q));
  EXPECT_EQ(plain(*pp_, pp_->add(p, p)), oracle::point_double(pp, q));
  EXPECT_EQ(plain(*pp_, pp_->neg(p)), (oracle::Point{pp.x, q - pp.y, false}));
}

TEST_F(PairingTest, ScalarMulMatchesRepeatedAdd) {
  const auto& prm = pp_->params();
  const Point p = pp_->random_g1(rng_);
  const oracle::Point pp = plain(*pp_, p);
  Point acc = Point::at_infinity();
  for (std::uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(point_mul_mont(p, BigInt{k}, pp_->mont_q()), acc) << k;
    EXPECT_EQ(oracle::point_mul(pp, BigInt{k}, prm.q), plain(*pp_, acc)) << k;
    acc = pp_->add(acc, p);
  }
}

TEST_F(PairingTest, ScalarMulDistributes) {
  const auto& prm = pp_->params();
  const Point p = pp_->random_g1(rng_);
  const BigInt a = pp_->random_scalar(rng_);
  const BigInt b = pp_->random_scalar(rng_);
  const Point lhs = pp_->mul(p, mod(a + b, prm.r));
  const Point rhs = pp_->add(pp_->mul(p, a), pp_->mul(p, b));
  EXPECT_EQ(lhs, rhs);
}

TEST_F(PairingTest, ResultsStayOnCurve) {
  const math::Montgomery& mq = pp_->mont_q();
  TestRng rng(4);
  for (int i = 0; i < 10; ++i) {
    const Point p = pp_->random_g1(rng);
    const Point s = point_mul_mont(p, pp_->random_scalar(rng), mq);
    EXPECT_TRUE(on_curve(mq, s));
    EXPECT_TRUE(on_curve(mq, pp_->add(p, s)));
  }
}

// Points outside the order-r subgroup. With S of odd order n (11 divides the
// test cofactor, 29 the paper one) the Miller chain V = m·S meets V == S and
// V == −S at addition steps, corners no order-r input reaches; orders 2 and 4
// take V through a point with y = 0 and then through O.
Point small_order_point(const Pairing& pp, std::uint64_t n, Rng& rng) {
  const BigInt& q = pp.q();
  const math::Montgomery& mq = pp.mont_q();
  const BigInt cofactor = (q + BigInt{1}) / BigInt{n};
  for (;;) {
    const BigInt x = BigInt::random_below(rng, q);
    const BigInt t =
        math::mod_add(math::mod_mul(math::mod_mul(x, x, q), x, q), x, q);
    if (!math::is_quadratic_residue(t, q)) continue;
    const Point r{fqm::fe_from(mq, x),
                  fqm::fe_from(mq, math::mod_sqrt_3mod4(t, q)), false};
    const Point s = point_mul_mont(r, cofactor, mq);
    if (s.infinity) continue;
    if (n == 4 && point_mul_mont(s, BigInt{2}, mq).infinity) continue;
    return s;
  }
}

TEST(PairingSmallOrder, MillerCornersMatchReference) {
  for (const auto& [pp, odd] :
       {std::pair{Pairing::test_pairing(), std::uint64_t{11}},
        std::pair{Pairing::paper_pairing(), std::uint64_t{29}}}) {
    ASSERT_TRUE((pp->params().h % BigInt{odd}).is_zero());
    TestRng rng(0x5a11 + odd);
    for (const std::uint64_t n : {std::uint64_t{2}, std::uint64_t{4}, odd}) {
      const Point s = small_order_point(*pp, n, rng);
      ASSERT_TRUE(point_mul_mont(s, BigInt{n}, pp->mont_q()).infinity);
      const Point q = pp->random_g1(rng);
      const oracle::Fq2 sq = pair_reference(*pp, plain(*pp, s), plain(*pp, q));
      const oracle::Fq2 qs = pair_reference(*pp, plain(*pp, q), plain(*pp, s));
      EXPECT_EQ(plain(*pp, pp->pair(s, q)), sq) << n;
      EXPECT_EQ(plain(*pp, pp->pair(q, s)), qs) << n;
      const std::vector<PairTerm> terms{{s, q}, {q, s}};
      EXPECT_EQ(plain(*pp, pp->pair_product(terms)),
                oracle::fq2_mul(sq, qs, pp->q()))
          << n;
      const MillerPrecomp pre = pp->miller_precompute(s);
      const std::vector<PrecompPairTerm> pre_terms{{&pre, q}};
      EXPECT_EQ(plain(*pp, pp->pair_product_precomp(pre_terms)), sq) << n;
    }
  }
}

// --- Pairing -----------------------------------------------------------------

TEST_F(PairingTest, NonDegenerate) {
  const Fq2 e = pp_->pair(pp_->generator(), pp_->generator());
  EXPECT_NE(e, pp_->gt_one());
  EXPECT_NE(e, Fq2{});
}

TEST_F(PairingTest, GtElementHasOrderR) {
  const Fq2 e = pp_->gt_generator();
  EXPECT_EQ(fqm::fe2_pow(pp_->mont_q(), e, pp_->r()), pp_->gt_one());
  EXPECT_EQ(oracle::fq2_pow(plain(*pp_, e), pp_->r(), pp_->q()),
            oracle::fq2_one());
}

TEST_F(PairingTest, Bilinearity) {
  for (int trial = 0; trial < 3; ++trial) {
    const BigInt a = pp_->random_nonzero_scalar(rng_);
    const BigInt b = pp_->random_nonzero_scalar(rng_);
    const Point ga = pp_->mul(pp_->generator(), a);
    const Point gb = pp_->mul(pp_->generator(), b);
    const Fq2 lhs = pp_->pair(ga, gb);
    const Fq2 rhs = pp_->gt_pow(pp_->gt_generator(), mod(a * b, pp_->r()));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST_F(PairingTest, BilinearInEachArgument) {
  const Point p = pp_->random_g1(rng_);
  const Point q2 = pp_->random_g1(rng_);
  const BigInt k = pp_->random_nonzero_scalar(rng_);
  EXPECT_EQ(pp_->pair(pp_->mul(p, k), q2), pp_->pair(p, pp_->mul(q2, k)));
  EXPECT_EQ(pp_->pair(pp_->mul(p, k), q2), pp_->gt_pow(pp_->pair(p, q2), k));
}

TEST_F(PairingTest, PairingWithIdentityIsOne) {
  EXPECT_EQ(pp_->pair(Point::at_infinity(), pp_->generator()), pp_->gt_one());
  EXPECT_EQ(pp_->pair(pp_->generator(), Point::at_infinity()), pp_->gt_one());
}

TEST_F(PairingTest, PairingSymmetricUpToDistortion) {
  // For the Type-A distortion pairing, e(P,Q) == e(Q,P).
  const Point p = pp_->random_g1(rng_);
  const Point q2 = pp_->random_g1(rng_);
  EXPECT_EQ(pp_->pair(p, q2), pp_->pair(q2, p));
}

TEST_F(PairingTest, MultiplicativeHomomorphism) {
  const Point p = pp_->random_g1(rng_);
  const Point a = pp_->random_g1(rng_);
  const Point b = pp_->random_g1(rng_);
  EXPECT_EQ(pp_->pair(p, pp_->add(a, b)),
            pp_->gt_mul(pp_->pair(p, a), pp_->pair(p, b)));
}

// --- Hash to group / serialization --------------------------------------------

TEST_F(PairingTest, HashToG1Deterministic) {
  const Point a = pp_->hash_to_g1(str_to_bytes("attribute:finance"));
  const Point b = pp_->hash_to_g1(str_to_bytes("attribute:finance"));
  const Point c = pp_->hash_to_g1(str_to_bytes("attribute:legal"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(on_curve(pp_->mont_q(), a));
  // In the order-r subgroup:
  EXPECT_TRUE(pp_->mul(a, pp_->r()).infinity);
}

TEST_F(PairingTest, G1SerializationRoundTrip) {
  const Point p = pp_->random_g1(rng_);
  const Bytes ser = pp_->serialize_g1(p);
  EXPECT_EQ(ser.size(), pp_->g1_bytes());
  EXPECT_EQ(pp_->deserialize_g1(ser), p);
  // Infinity round-trips too.
  EXPECT_TRUE(pp_->deserialize_g1(pp_->serialize_g1(Point::at_infinity())).infinity);
}

TEST_F(PairingTest, G1DeserializationValidatesCurve) {
  Bytes ser = pp_->serialize_g1(pp_->generator());
  ser[5] ^= 1;  // corrupt x
  EXPECT_THROW(pp_->deserialize_g1(ser), std::invalid_argument);
}

TEST_F(PairingTest, GtSerializationRoundTrip) {
  const Fq2 e = pp_->random_gt(rng_);
  const Bytes ser = pp_->serialize_gt(e);
  EXPECT_EQ(ser.size(), pp_->gt_bytes());
  EXPECT_EQ(pp_->deserialize_gt(ser), e);
}

TEST_F(PairingTest, ParamsSerializationRoundTrip) {
  const Bytes ser = pp_->params().serialize();
  const Params p2 = Params::deserialize(ser);
  EXPECT_EQ(p2.q, pp_->params().q);
  EXPECT_EQ(p2.r, pp_->params().r);
  EXPECT_EQ(p2.h, pp_->params().h);
  EXPECT_EQ(p2.gx, pp_->params().gx);
  EXPECT_EQ(p2.gy, pp_->params().gy);
}

TEST_F(PairingTest, ParamsValidation) {
  Params bad = pp_->params();
  bad.gx += BigInt{1};
  EXPECT_THROW(Pairing{bad}, std::invalid_argument);
  Params bad2 = pp_->params();
  bad2.h += BigInt{4};
  EXPECT_THROW(Pairing{bad2}, std::invalid_argument);
}

TEST(PairingGen, FreshParamsSatisfyInvariants) {
  TestRng rng(99);
  const Params p = generate_params(rng, 40, 96);
  EXPECT_EQ(p.r.bit_length(), 40u);
  EXPECT_EQ(p.q.bit_length(), 96u);
  EXPECT_EQ(p.q % BigInt{4}, BigInt{3});
  EXPECT_EQ(p.q, p.h * p.r - BigInt{1});
  const Pairing pairing(p);
  // Bilinearity sanity on the fresh group.
  TestRng r2(100);
  const BigInt a = pairing.random_nonzero_scalar(r2);
  const Point& g = pairing.generator();
  EXPECT_EQ(plain(pairing, g), (oracle::Point{p.gx, p.gy, false}));
  EXPECT_EQ(pairing.pair(pairing.mul(g, a), g),
            pairing.gt_pow(pairing.gt_generator(), a));
}

// --- ECIES ---------------------------------------------------------------------

TEST_F(PairingTest, EciesRoundTrip) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  const Bytes msg = str_to_bytes("token request: predicate=(a=1 AND b=*)");
  const Bytes ct = ecies_encrypt(*pp_, kp.public_key, msg, rng_);
  const auto out = ecies_decrypt(*pp_, kp.secret, ct);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
}

TEST_F(PairingTest, EciesWrongKeyFails) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  const EciesKeyPair other = ecies_keygen(*pp_, rng_);
  const Bytes ct = ecies_encrypt(*pp_, kp.public_key, str_to_bytes("m"), rng_);
  EXPECT_FALSE(ecies_decrypt(*pp_, other.secret, ct).has_value());
}

TEST_F(PairingTest, EciesTamperDetected) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  Bytes ct = ecies_encrypt(*pp_, kp.public_key, str_to_bytes("m"), rng_);
  ct[ct.size() / 2] ^= 1;
  EXPECT_FALSE(ecies_decrypt(*pp_, kp.secret, ct).has_value());
}

TEST_F(PairingTest, EciesMalformedInputIsRejectedGracefully) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  EXPECT_FALSE(ecies_decrypt(*pp_, kp.secret, Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(ecies_decrypt(*pp_, kp.secret, {}).has_value());
}

TEST_F(PairingTest, EciesCiphertextsAreRandomized) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  const Bytes a = ecies_encrypt(*pp_, kp.public_key, str_to_bytes("m"), rng_);
  const Bytes b = ecies_encrypt(*pp_, kp.public_key, str_to_bytes("m"), rng_);
  EXPECT_NE(a, b);
}

// --- Fast path vs reference pins ---------------------------------------------

TEST_F(PairingTest, FastPairMatchesReference) {
  for (int i = 0; i < 5; ++i) {
    const Point a = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
    const Point b = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
    EXPECT_EQ(plain(*pp_, pp_->pair(a, b)),
              pair_reference(*pp_, plain(*pp_, a), plain(*pp_, b)));
  }
}

TEST_F(PairingTest, PairProductMatchesProductOfPairs) {
  for (const std::size_t n : {1u, 2u, 3u, 7u}) {
    std::vector<PairTerm> terms;
    oracle::Fq2 expect = oracle::fq2_one();
    for (std::size_t i = 0; i < n; ++i) {
      const Point a =
          pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
      const Point b =
          pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
      terms.push_back({a, b});
      expect = oracle::fq2_mul(
          expect, pair_reference(*pp_, plain(*pp_, a), plain(*pp_, b)),
          pp_->q());
    }
    EXPECT_EQ(plain(*pp_, pp_->pair_product(terms)), expect) << n;
  }
}

TEST_F(PairingTest, PairProductEmptyAndInfinityTerms) {
  EXPECT_EQ(pp_->pair_product({}), pp_->gt_one());
  const Point a = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  const Point b = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  // Identity terms contribute 1 and must not disturb the shared accumulator.
  const std::vector<PairTerm> terms{
      {Point::at_infinity(), b}, {a, b}, {a, Point::at_infinity()}};
  EXPECT_EQ(pp_->pair_product(terms), pp_->pair(a, b));
}

TEST_F(PairingTest, PairProductNegationCancels) {
  // e(A,B)·e(−A,B) = 1: the identity the HVE/CP-ABE rewrites rely on to
  // turn GT divisions into extra product terms.
  const Point a = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  const Point b = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  const std::vector<PairTerm> terms{{a, b}, {pp_->neg(a), b}};
  EXPECT_EQ(pp_->pair_product(terms), pp_->gt_one());
}

TEST_F(PairingTest, MontScalarMulMatchesReferenceOnEdgeScalars) {
  const BigInt& r = pp_->r();
  const math::Montgomery& mq = pp_->mont_q();
  std::vector<BigInt> scalars{BigInt{},        BigInt{1}, BigInt{2},
                              r - BigInt{1},   r,         r + BigInt{1},
                              r * r + BigInt{7}};
  for (int i = 0; i < 4; ++i) scalars.push_back(BigInt::random_below(rng_, r));
  const Point base =
      pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  const FixedBaseTable table(mq, base, r.bit_length());
  for (const BigInt& k : scalars) {
    const oracle::Point ref =
        oracle::point_mul(plain(*pp_, base), k, pp_->q());
    EXPECT_EQ(plain(*pp_, point_mul_mont(base, k, mq)), ref) << k.to_dec();
    EXPECT_EQ(plain(*pp_, table.mul(k)), ref) << k.to_dec();
  }
  EXPECT_THROW(point_mul_mont(base, BigInt{-1}, mq), std::invalid_argument);
  EXPECT_THROW(table.mul(BigInt{-1}), std::invalid_argument);
  EXPECT_TRUE(point_mul_mont(Point::at_infinity(), BigInt{5}, mq).infinity);
}

TEST_F(PairingTest, Wnaf4DigitsReconstructScalar) {
  for (int i = 0; i < 12; ++i) {
    const BigInt k = BigInt::random_bits(rng_, 8 + 17 * i);
    const auto digits = wnaf4(k);
    BigInt acc{};
    BigInt pow{1};
    for (const std::int8_t d : digits) {
      if (d != 0) {
        EXPECT_NE(d % 2, 0);
        EXPECT_LE(d, 15);
        EXPECT_GE(d, -15);
        acc = acc + pow * BigInt{d};
      }
      pow = pow + pow;
    }
    EXPECT_EQ(acc, k);
  }
}

TEST_F(PairingTest, GtFixedBaseMatchesGenericPow) {
  const Fq2 base = pp_->random_gt(rng_);
  const GtFixedBase table(pp_->mont_q(), base, pp_->r().bit_length());
  // The last exponent is wider than the table, so pow() takes the generic
  // windowed path.
  std::vector<BigInt> exps{BigInt{}, BigInt{1}, pp_->r() - BigInt{1}};
  for (int i = 0; i < 4; ++i) {
    exps.push_back(BigInt::random_below(rng_, pp_->r()));
  }
  exps.push_back(pp_->r() * pp_->r() + BigInt{7});
  for (const BigInt& e : exps) {
    const oracle::Fq2 expect =
        oracle::fq2_pow(plain(*pp_, base), e, pp_->q());
    EXPECT_EQ(plain(*pp_, table.pow(e)), expect) << e.to_dec();
    EXPECT_EQ(plain(*pp_, fqm::fe2_pow(pp_->mont_q(), base, e)), expect)
        << e.to_dec();
  }
  EXPECT_THROW(table.pow(BigInt{-1}), std::invalid_argument);
  // The Pairing-owned e(g,g) table serves gt_pow on the GT generator.
  const BigInt e = pp_->random_nonzero_scalar(rng_);
  EXPECT_EQ(plain(*pp_, pp_->gt_pow(pp_->gt_generator(), e)),
            oracle::fq2_pow(plain(*pp_, pp_->gt_generator()), e, pp_->q()));
}

TEST_F(PairingTest, MontgomeryFq2PowMatchesPlain) {
  for (int i = 0; i < 5; ++i) {
    const Fq2 x = random_fq2(rng_);
    const BigInt e = BigInt::random_bits(rng_, 150);
    EXPECT_EQ(plain(*pp_, fqm::fe2_pow(pp_->mont_q(), x, e)),
              oracle::fq2_pow(plain(*pp_, x), e, pp_->q()));
  }
}

TEST_F(PairingTest, HashToG1PinnedAcrossProcesses) {
  // The exact output for a fixed input on the baked test parameters. A
  // changed value means hash_to_g1 is no longer deterministic across
  // processes/builds, which would break every serialized attribute hash.
  const Point p =
      pp_->hash_to_g1(str_to_bytes("p3s hash_to_g1 determinism pin v1"));
  EXPECT_EQ(to_hex(pp_->serialize_g1(p)),
            "01187676234303dcc246ef3c4b5095faf5558dabe500adb012b1f2aa803f0aa5"
            "cedeca9184630e1972");
}

TEST(PairingBaked, BakedParamsSatisfyCurveInvariants) {
  // test_pairing() and paper_pairing() now load serialized constants; the
  // structural invariants the old generator guaranteed must still hold.
  for (const PairingPtr& pp :
       {Pairing::test_pairing(), Pairing::paper_pairing()}) {
    const BigInt& q = pp->q();
    const BigInt& r = pp->r();
    EXPECT_EQ(q % BigInt{4}, BigInt{3});
    EXPECT_TRUE((q + BigInt{1}) % r == BigInt{});  // q + 1 = h·r
    EXPECT_TRUE(on_curve(pp->mont_q(), pp->generator()));
    EXPECT_TRUE(pp->mul(pp->generator(), r).infinity);
    EXPECT_NE(pp->gt_generator(), pp->gt_one());
  }
}

TEST(PairingBaked, BakedParamsRederiveFromDocumentedSeeds) {
  // The baked constants are exactly generate_params' output for the seeds
  // documented beside them, so an edited constant fails here even if it
  // still forms a valid group.
  TestRng test_rng(0x703570357035ull);
  const Params test = generate_params(test_rng, 80, 160);
  TestRng paper_rng(0x504243204121ull);
  const BigInt solinas_r =
      (BigInt{1} << 159) + (BigInt{1} << 107) + BigInt{1};  // PBC a.param r
  const Params paper = generate_params(paper_rng, solinas_r, 512);
  for (const auto& [fresh, pp] :
       {std::pair{test, Pairing::test_pairing()},
        std::pair{paper, Pairing::paper_pairing()}}) {
    EXPECT_EQ(fresh.q, pp->params().q);
    EXPECT_EQ(fresh.r, pp->params().r);
    EXPECT_EQ(fresh.h, pp->params().h);
    EXPECT_EQ(fresh.gx, pp->params().gx);
    EXPECT_EQ(fresh.gy, pp->params().gy);
  }
  EXPECT_EQ(paper.q.bit_length(), 512u);
  EXPECT_EQ(paper.r.to_dec(), "730750818665451621361119245571504901405976559617");
}

TEST(PairingGen, FixedOrderOverloadRejectsCompositeOrWideR) {
  TestRng rng(7);
  const BigInt composite = BigInt{1000003} * BigInt{1000033};
  EXPECT_THROW(generate_params(rng, composite, 96), std::invalid_argument);
  EXPECT_THROW(generate_params(rng, Pairing::paper_pairing()->r(), 164),
               std::invalid_argument);
}

TEST(PairingWidth, RejectsModulusWiderThan512Bits) {
  // q = h·r − 1 of 576 bits, q ≡ 3 (mod 4): the fixed-limb field holds at
  // most 512 bits, and there is no other arithmetic to fall back to.
  Params wide = Pairing::test_pairing()->params();
  wide.h = BigInt{1} << (576 - wide.r.bit_length());
  wide.q = wide.h * wide.r - BigInt{1};
  ASSERT_EQ(wide.q.bit_length(), 576u);
  try {
    const Pairing pairing(wide);
    ADD_FAILURE() << "576-bit q accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("512"), std::string::npos) << e.what();
  }
  // Every entry point that takes a raw Montgomery context checks it too.
  const math::Montgomery mq(wide.q);
  ASSERT_FALSE(mq.fits_fixed());
  const Point& g = Pairing::test_pairing()->generator();
  EXPECT_THROW(point_mul_mont(g, BigInt{5}, mq), std::invalid_argument);
  EXPECT_THROW(on_curve(mq, g), std::invalid_argument);
  EXPECT_THROW(curve_add(mq, g, g), std::invalid_argument);
  EXPECT_THROW(FixedBaseTable(mq, g, 80), std::invalid_argument);
  EXPECT_THROW(GtFixedBase(mq, Fq2{}, 80), std::invalid_argument);
}

TEST(PairingWidth, GenerateParamsRejectsWideQBeforeSearching) {
  TestRng rng(8);
  EXPECT_THROW(generate_params(rng, 80, 520), std::invalid_argument);
  const BigInt solinas_r = Pairing::paper_pairing()->r();
  EXPECT_THROW(generate_params(rng, solinas_r, 520), std::invalid_argument);
  // 512 bits is still accepted (the paper group is exactly that wide).
  EXPECT_EQ(Pairing::paper_pairing()->q().bit_length(), 512u);
}

// Slots in a MillerPrecomp: one per doubling (every bit below the top) plus
// one per addition (every set bit below the top).
std::size_t miller_slots(const BigInt& r) {
  std::size_t slots = r.bit_length() - 1;
  for (std::size_t i = 0; i + 1 < r.bit_length(); ++i) slots += r.bit(i);
  return slots;
}

TEST(PairingPaper, MillerScheduleHasTwoAdditionSlots) {
  // r = 2^159 + 2^107 + 1: 159 doublings and 2 additions, against ~80
  // additions for a random 160-bit order.
  const PairingPtr paper = Pairing::paper_pairing();
  ASSERT_EQ(miller_slots(paper->r()), 161u);
  // The slot size is fixed per build; read it off the test group.
  const PairingPtr test = Pairing::test_pairing();
  const std::size_t test_bytes =
      test->miller_precompute(test->generator()).memory_bytes();
  ASSERT_EQ(test_bytes % miller_slots(test->r()), 0u);
  const std::size_t slot_bytes = test_bytes / miller_slots(test->r());
  EXPECT_EQ(paper->miller_precompute(paper->generator()).memory_bytes(),
            161 * slot_bytes);
}

TEST(PairingPaper, PairProductMatchesProductOfReferencePairs) {
  const PairingPtr pp = Pairing::paper_pairing();
  TestRng rng(0x9a9e4);
  std::vector<PairTerm> terms;
  std::vector<oracle::Fq2> refs;
  oracle::Fq2 expect = oracle::fq2_one();
  for (int i = 0; i < 3; ++i) {
    const Point a = pp->random_g1(rng);
    const Point b = pp->random_g1(rng);
    terms.push_back({a, b});
    refs.push_back(pair_reference(*pp, plain(*pp, a), plain(*pp, b)));
    expect = oracle::fq2_mul(expect, refs.back(), pp->q());
  }
  EXPECT_EQ(plain(*pp, pp->pair_product(terms)), expect);
  const MillerPrecomp pre = pp->miller_precompute(terms[0].p);
  const std::vector<PrecompPairTerm> pre_terms{{&pre, terms[0].q}};
  EXPECT_EQ(plain(*pp, pp->pair_product_precomp(pre_terms)), refs[0]);
}

}  // namespace
}  // namespace p3s::pairing
