#include <gtest/gtest.h>

#include "abe/cpabe.hpp"
#include "common/rng.hpp"
#include "oracle/oracle.hpp"

namespace p3s::abe {
namespace {

class CpabeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new TestRng(0xabe);
    keys_ = new CpabeKeys(cpabe_setup(pairing::Pairing::test_pairing(), *rng_));
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
    keys_ = nullptr;
    rng_ = nullptr;
  }

  static std::set<std::string> attrs(std::initializer_list<const char*> list) {
    std::set<std::string> out;
    for (const char* a : list) out.insert(a);
    return out;
  }

  static TestRng* rng_;
  static CpabeKeys* keys_;
};

TestRng* CpabeTest::rng_ = nullptr;
CpabeKeys* CpabeTest::keys_ = nullptr;

TEST_F(CpabeTest, DecryptsWhenPolicySatisfied) {
  const auto sk = cpabe_keygen(*keys_, attrs({"analyst", "org:us"}), *rng_);
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct =
      cpabe_encrypt(keys_->pk, m, parse_policy("analyst and org:us"), *rng_);
  const auto out = cpabe_decrypt(keys_->pk, sk, ct);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST_F(CpabeTest, FailsWhenPolicyUnsatisfied) {
  const auto sk = cpabe_keygen(*keys_, attrs({"analyst"}), *rng_);
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct =
      cpabe_encrypt(keys_->pk, m, parse_policy("analyst and org:us"), *rng_);
  EXPECT_FALSE(cpabe_decrypt(keys_->pk, sk, ct).has_value());
}

TEST_F(CpabeTest, OrPolicyEitherBranch) {
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct =
      cpabe_encrypt(keys_->pk, m, parse_policy("org:us or org:uk"), *rng_);
  for (const char* a : {"org:us", "org:uk"}) {
    const auto sk = cpabe_keygen(*keys_, attrs({a}), *rng_);
    const auto out = cpabe_decrypt(keys_->pk, sk, ct);
    ASSERT_TRUE(out.has_value()) << a;
    EXPECT_EQ(*out, m) << a;
  }
  const auto sk_fr = cpabe_keygen(*keys_, attrs({"org:fr"}), *rng_);
  EXPECT_FALSE(cpabe_decrypt(keys_->pk, sk_fr, ct).has_value());
}

TEST_F(CpabeTest, ThresholdPolicy) {
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy("2 of (a, b, c)"), *rng_);
  const auto sk_ab = cpabe_keygen(*keys_, attrs({"a", "b"}), *rng_);
  const auto sk_bc = cpabe_keygen(*keys_, attrs({"b", "c"}), *rng_);
  const auto sk_abc = cpabe_keygen(*keys_, attrs({"a", "b", "c"}), *rng_);
  const auto sk_a = cpabe_keygen(*keys_, attrs({"a"}), *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk_ab, ct), m);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk_bc, ct), m);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk_abc, ct), m);
  EXPECT_FALSE(cpabe_decrypt(keys_->pk, sk_a, ct).has_value());
}

TEST_F(CpabeTest, DeepNestedPolicy) {
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto policy =
      parse_policy("(lead or 2 of (senior, cleared, local)) and org:us");
  const auto ct = cpabe_encrypt(keys_->pk, m, policy, *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk,
                          cpabe_keygen(*keys_, attrs({"lead", "org:us"}), *rng_),
                          ct),
            m);
  EXPECT_EQ(cpabe_decrypt(
                keys_->pk,
                cpabe_keygen(*keys_, attrs({"senior", "local", "org:us"}), *rng_),
                ct),
            m);
  EXPECT_FALSE(cpabe_decrypt(keys_->pk,
                             cpabe_keygen(*keys_, attrs({"lead"}), *rng_), ct)
                   .has_value());
  EXPECT_FALSE(
      cpabe_decrypt(keys_->pk,
                    cpabe_keygen(*keys_, attrs({"senior", "org:us"}), *rng_), ct)
          .has_value());
}

TEST_F(CpabeTest, DecryptMatchesReferenceAcrossPolicyShapes) {
  // The flattened single-multi-pairing decrypt must agree with the original
  // recursive evaluation — including which leaves get selected when a
  // policy is only partially satisfied (first k satisfied children win).
  const char* policies[] = {
      "analyst",
      "analyst and org:us",
      "analyst or clearance:ts",
      "2 of (analyst, org:us, clearance:ts)",
      "(analyst and org:us) or (auditor and clearance:ts)",
      "2 of (analyst, auditor, (org:us or org:eu))",
  };
  const auto key_sets = {attrs({"analyst", "org:us"}),
                         attrs({"auditor", "clearance:ts"}),
                         attrs({"analyst", "org:eu", "auditor"}),
                         attrs({"org:us"})};
  for (const char* policy : policies) {
    const auto m = keys_->pk.pairing->random_gt(*rng_);
    const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy(policy), *rng_);
    for (const auto& attr_set : key_sets) {
      const auto sk = cpabe_keygen(*keys_, attr_set, *rng_);
      const auto fast = cpabe_decrypt(keys_->pk, sk, ct);
      const auto ref = oracle::cpabe_decrypt_reference(keys_->pk, sk, ct);
      ASSERT_EQ(fast.has_value(), ref.has_value()) << policy;
      if (fast.has_value()) {
        EXPECT_EQ(oracle::plain(*keys_->pk.pairing, *fast), *ref) << policy;
        EXPECT_EQ(*fast, m) << policy;
      }
    }
  }
}

TEST_F(CpabeTest, RepeatedAttributeInPolicy) {
  // The same attribute may appear under several leaves.
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct =
      cpabe_encrypt(keys_->pk, m, parse_policy("(a and b) or (a and c)"), *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, cpabe_keygen(*keys_, attrs({"a", "c"}), *rng_), ct),
            m);
}

TEST_F(CpabeTest, CollusionResistance) {
  // Alice has "a", Bob has "b"; policy needs both. Merging their key
  // components must NOT decrypt (keys are blinded with distinct r).
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy("a and b"), *rng_);
  const auto alice = cpabe_keygen(*keys_, attrs({"a"}), *rng_);
  const auto bob = cpabe_keygen(*keys_, attrs({"b"}), *rng_);

  CpabeSecretKey frankenstein = alice;  // Alice's D (blinded with r_alice)
  frankenstein.components.insert(bob.components.begin(), bob.components.end());
  const auto out = cpabe_decrypt(keys_->pk, frankenstein, ct);
  // Either decryption aborts or yields a wrong value — never the message.
  if (out.has_value()) {
    EXPECT_NE(*out, m);
  }
}

TEST_F(CpabeTest, KeygenRejectsEmptyAttributeSet) {
  EXPECT_THROW(cpabe_keygen(*keys_, {}, *rng_), std::invalid_argument);
}

TEST_F(CpabeTest, CiphertextSerializationRoundTrip) {
  const auto& p = *keys_->pk.pairing;
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy("a and (b or c)"), *rng_);
  const auto ct2 = CpabeCiphertext::deserialize(p, ct.serialize(p));
  const auto sk = cpabe_keygen(*keys_, attrs({"a", "c"}), *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk, ct2), m);
}

TEST_F(CpabeTest, KeySerializationRoundTrip) {
  const auto& p = *keys_->pk.pairing;
  const auto sk = cpabe_keygen(*keys_, attrs({"a", "b"}), *rng_);
  const auto sk2 = CpabeSecretKey::deserialize(p, sk.serialize(p));
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy("a and b"), *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk2, ct), m);

  const auto pk2 = CpabePublicKey::deserialize(keys_->pk.pairing,
                                               keys_->pk.serialize());
  EXPECT_EQ(pk2.g, keys_->pk.g);
  EXPECT_EQ(pk2.e_gg_alpha, keys_->pk.e_gg_alpha);
}

TEST_F(CpabeTest, HybridBytesRoundTrip) {
  const Bytes payload = str_to_bytes("quarterly M&A brief: Lehman Brothers");
  const auto ct = cpabe_encrypt_bytes(keys_->pk, payload,
                                      parse_policy("analyst and org:us"), *rng_);
  const auto sk = cpabe_keygen(*keys_, attrs({"analyst", "org:us"}), *rng_);
  const auto out = cpabe_decrypt_bytes(keys_->pk, sk, ct);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST_F(CpabeTest, HybridFailsClosedOnWrongAttributes) {
  const auto ct = cpabe_encrypt_bytes(keys_->pk, str_to_bytes("secret"),
                                      parse_policy("a and b"), *rng_);
  const auto sk = cpabe_keygen(*keys_, attrs({"a"}), *rng_);
  EXPECT_FALSE(cpabe_decrypt_bytes(keys_->pk, sk, ct).has_value());
}

TEST_F(CpabeTest, HybridRejectsTamperedCiphertext) {
  const auto ct = cpabe_encrypt_bytes(keys_->pk, str_to_bytes("secret"),
                                      parse_policy("a"), *rng_);
  const auto sk = cpabe_keygen(*keys_, attrs({"a"}), *rng_);
  Bytes bad = ct;
  bad[bad.size() - 3] ^= 1;  // flip a DEM bit
  EXPECT_FALSE(cpabe_decrypt_bytes(keys_->pk, sk, bad).has_value());
  EXPECT_FALSE(cpabe_decrypt_bytes(keys_->pk, sk, Bytes{9, 9}).has_value());
}

TEST_F(CpabeTest, PolicyIsVisibleInTheClear) {
  // Paper §3.2: CP-ABE transmits the policy with the ciphertext; anyone
  // (e.g. the RS) can read it without keys.
  const auto policy = parse_policy("analyst and (org:us or org:uk)");
  const auto ct =
      cpabe_encrypt_bytes(keys_->pk, str_to_bytes("x"), policy, *rng_);
  EXPECT_EQ(cpabe_peek_policy(*keys_->pk.pairing, ct), policy);
}

TEST_F(CpabeTest, CiphertextsAreRandomized) {
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto policy = parse_policy("a");
  const auto ct1 = cpabe_encrypt(keys_->pk, m, policy, *rng_);
  const auto ct2 = cpabe_encrypt(keys_->pk, m, policy, *rng_);
  EXPECT_NE(ct1.c_tilde, ct2.c_tilde);
}

TEST_F(CpabeTest, SizeGrowsLinearlyInPolicyLeaves) {
  // The paper models |CT_A| = 2vk + |payload|: two group elements per leaf.
  const auto& p = *keys_->pk.pairing;
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct2 = cpabe_encrypt(keys_->pk, m, parse_policy("a and b"), *rng_);
  const auto ct3 =
      cpabe_encrypt(keys_->pk, m, parse_policy("a and b and c"), *rng_);
  const auto ct5 = cpabe_encrypt(
      keys_->pk, m, parse_policy("a and b and c and d and e"), *rng_);
  const std::size_t s2 = ct2.serialize(p).size();
  const std::size_t s3 = ct3.serialize(p).size();
  const std::size_t s5 = ct5.serialize(p).size();
  // Each extra leaf costs a fixed amount (two G1 points + framing).
  EXPECT_GE(s3 - s2, 2 * p.g1_bytes());
  EXPECT_EQ(s5 - s3, 2 * (s3 - s2));
}

}  // namespace
}  // namespace p3s::abe
