// Convenience wiring: deploys a full P3S instance (ARA + DS + RS + PBE-TS +
// optional anonymizer) on a Network and hands out registered clients.
// This is the entry point the examples and integration tests use.
#pragma once

#include <memory>
#include <string>

#include "p3s/anonymizer.hpp"
#include "p3s/ara.hpp"
#include "p3s/dissemination.hpp"
#include "p3s/publisher.hpp"
#include "p3s/repository.hpp"
#include "p3s/subscriber.hpp"
#include "p3s/token_server.hpp"

namespace p3s::core {

struct P3sConfig {
  pairing::PairingPtr pairing;
  pbe::MetadataSchema schema = pbe::MetadataSchema::uniform(2, 2);
  double rs_grace_seconds = 5.0;  // T_G
  bool with_anonymizer = true;
  /// Token-revocation epochs (§6.1 mitigation); nullopt = timeless tokens.
  std::optional<pbe::EpochPolicy> epoch;
  /// §8 alternative configuration: embed the PBE-TS in every subscriber.
  bool embedded_token_server = false;
  /// Client retry policy for every client this system hands out
  /// (DESIGN.md §10). Off by default: the publish flow on the wire is the
  /// same, but clients neither retry nor sync (the paper's §6.1 behaviour).
  ReliabilityConfig reliability;
  /// Traffic-shaping defenses (DESIGN.md §11) — all off by default so the
  /// base wire protocol is byte-identical to the unhardened system.
  AnonHardening anon_hardening;
  DsHardening ds_hardening;
  std::size_t rs_response_pad_bucket = 0;
  std::string ds_name = "ds";
  std::string rs_name = "rs";
  std::string ts_name = "pbe-ts";
  std::string anon_name = "anon";
};

class P3sSystem {
 public:
  P3sSystem(net::Network& network, P3sConfig config, Rng& rng);

  Ara& ara() { return ara_; }
  DisseminationServer& ds() { return *ds_; }
  RepositoryServer& rs() { return *rs_; }
  PbeTokenServer& token_server() { return *ts_; }
  /// nullptr when the system runs without anonymization.
  Anonymizer* anonymizer() { return anon_.get(); }
  const ServiceDirectory& directory() const { return directory_; }
  net::Network& network() { return network_; }

  /// Register + connect a subscriber in one step.
  std::unique_ptr<Subscriber> make_subscriber(
      const std::string& endpoint_name, const std::string& pseudonym,
      const std::set<std::string>& attributes, Rng& rng);

  /// Register + connect a publisher in one step.
  std::unique_ptr<Publisher> make_publisher(const std::string& endpoint_name,
                                            const std::string& pseudonym,
                                            Rng& rng);

 private:
  net::Network& network_;
  P3sConfig config_;
  Ara ara_;
  std::unique_ptr<RepositoryServer> rs_;
  std::unique_ptr<PbeTokenServer> ts_;
  std::unique_ptr<DisseminationServer> ds_;
  std::unique_ptr<Anonymizer> anon_;
  ServiceDirectory directory_;
};

}  // namespace p3s::core
