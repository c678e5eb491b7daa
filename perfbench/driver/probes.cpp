#include "probes.hpp"

#include <algorithm>
#include <functional>

#include "abe/cpabe.hpp"
#include "crypto/aead.hpp"
#include "pairing/ecies.hpp"
#include "pbe/hve.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

std::vector<std::pair<std::string, double>> run_probes(const Workload& workload,
                                                       std::uint64_t seed) {
  namespace abe = p3s::abe;
  namespace pbe = p3s::pbe;
  using p3s::pairing::Point;
  const auto pairing = p3s::pairing::Pairing::paper_pairing();
  const p3s::pairing::Pairing& p = *pairing;
  p3s::TestRng rng(seed);
  std::vector<std::pair<std::string, double>> out;
  volatile std::size_t sink = 0;  // every result feeds it

  // Median wall time of `reps` calls of `fn`, divided by `per`.
  const auto probe = [&](const char* name, std::size_t reps, double per,
                         const std::function<void()>& fn) {
    std::vector<double> t;
    for (std::size_t i = 0; i < reps; ++i) {
      const double t0 = now_s();
      fn();
      t.push_back(now_s() - t0);
    }
    out.emplace_back(name, quantile(t, 0.5) / per);
  };

  std::vector<Point> points;
  for (int i = 0; i < 64; ++i) points.push_back(p.random_g1(rng));
  std::vector<p3s::pairing::PairTerm> terms;
  for (int i = 0; i < 8; ++i) terms.push_back({points[i], points[8 + i]});
  probe("pairing.pair_product8_s", 7, 1, [&] {
    sink = sink + p.pair_product(terms).a.is_zero();
  });
  probe("pairing.g1_mul_s", 15, 1, [&] {
    sink = sink + p.mul(points[sink % 64], p.random_scalar(rng)).infinity;
  });
  probe("pairing.hash_to_g1_s", 15, 1, [&] {
    sink = sink + p.hash_to_g1(rng.bytes(32)).infinity;
  });
  std::vector<p3s::Bytes> encoded;
  for (const Point& pt : points) encoded.push_back(p.serialize_g1(pt));
  probe("pairing.deserialize_g1_s", 7, static_cast<double>(encoded.size()),
        [&] {
          for (const auto& e : encoded) {
            sink = sink + p.deserialize_g1(e).infinity;
          }
        });
  const auto ecies = p3s::pairing::ecies_keygen(p, rng);
  const p3s::Bytes sealed =
      p3s::pairing::ecies_encrypt(p, ecies.public_key, rng.bytes(256), rng);
  probe("pairing.ecies_decrypt_s", 15, 1, [&] {
    sink = sink + p3s::pairing::ecies_decrypt(p, ecies.secret, sealed)->size();
  });

  // PBE on the workload's schema and its first subscriber's interest; the
  // match probe uses metadata that misses that interest.
  const pbe::MetadataSchema& schema = workload.schema();
  const pbe::Interest& interest = workload.initial().front().interests.front();
  Metadata hit, miss;
  for (const auto& spec : schema.attributes()) {
    hit[spec.name] = miss[spec.name] = spec.values.front();
  }
  for (const auto& [attr, value] : interest) {
    hit[attr] = value;
    miss[attr] = value == "v0" ? "v1" : "v0";
  }
  const pbe::HveKeys hve = pbe::hve_setup(pairing, schema.width(), rng);
  const pbe::BitVector x = schema.encode_metadata(hit);
  probe("pbe.encrypt_s", 5, 1, [&] {
    sink = sink + pbe::hve_encrypt(hve.pk, x, p.random_gt(rng), rng).width();
  });
  const pbe::Pattern pattern = schema.encode_interest(interest);
  probe("pbe.gen_token_s", 9, 1, [&] {
    sink = sink + pbe::hve_gen_token(hve, pattern, rng).positions.size();
  });
  const pbe::HveToken token = pbe::hve_gen_token(hve, pattern, rng);
  const p3s::Bytes broadcast = pbe::hve_encrypt_bytes(
      hve.pk, schema.encode_metadata(miss), rng.bytes(16), rng);
  const pbe::HveToken* tokens[] = {&token};
  probe("pbe.match_miss_s", 7, 1, [&] {
    const pbe::HveMatchCt ct =
        pbe::hve_match_prepare(p, broadcast, &token.positions);
    sink = sink + pbe::hve_match_any(p, tokens, ct).matched();
  });

  const abe::CpabeKeys keys = abe::cpabe_setup(pairing, rng);
  const std::set<std::string> attributes = workload.policy().attribute_set();
  probe("abe.keygen_s", 5, 1, [&] {
    sink = sink + abe::cpabe_keygen(keys, attributes, rng).components.size();
  });
  probe("abe.encrypt_s", 5, 1, [&] {
    const abe::CpabeCiphertext c =
        abe::cpabe_encrypt(keys.pk, p.random_gt(rng), workload.policy(), rng);
    sink = sink + c.leaves.size();
  });
  const abe::CpabeSecretKey sk = abe::cpabe_keygen(keys, attributes, rng);
  const abe::CpabeCiphertext ct =
      abe::cpabe_encrypt(keys.pk, p.random_gt(rng), workload.policy(), rng);
  probe("abe.decrypt_s", 5, 1, [&] {
    sink = sink + abe::cpabe_decrypt(keys.pk, sk, ct).has_value();
  });

  // Payload AEAD at the workload's payload size, at least 1 MB per call.
  const std::size_t size = workload.shape().payload_bytes;
  const std::size_t per_rep = std::max<std::size_t>(1, (1u << 20) / size);
  const p3s::Bytes key = rng.bytes(32), payload = rng.bytes(size);
  const p3s::Bytes aad = rng.bytes(16);
  probe("crypto.aead_seal_s_per_mb", 7,
        static_cast<double>(per_rep * size) / 1e6, [&] {
          for (std::size_t i = 0; i < per_rep; ++i) {
            const auto sealed_payload =
                p3s::crypto::aead_encrypt(key, payload, aad, rng);
            sink = sink + sealed_payload.body.size();
          }
        });
  return out;
}

}  // namespace perfbench
