// M&A deal room (paper §1): "parties pursuing a merger and acquisition deal
// may be interested in receiving updates on various topics, but the
// knowledge that party X is interested in topic Y may tip the hand of X."
//
// Three investment banks watch different targets through the same P3S
// deployment. A market-data provider publishes updates. We then inspect
// every third party's curious log to show that nobody — not the
// dissemination server, not the repository, not even the token server —
// can tell WHICH bank watches WHICH target.
#include <cstdio>

#include "abe/policy.hpp"
#include "crypto/drbg.hpp"
#include "net/network.hpp"
#include "p3s/system.hpp"

using namespace p3s;  // NOLINT

int main() {
  crypto::Drbg rng(str_to_bytes("ma-dealroom"));

  pbe::MetadataSchema schema({
      {"target", {"lehman", "bear-stearns", "wamu", "merrill",
                  "wachovia", "countrywide", "ambac", "mbia"}},
      {"event", {"rumor", "downgrade", "filing", "default"}},
      {"confidence", {"low", "medium", "high"}},
  });

  net::DirectNetwork network;
  core::P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = schema;
  core::P3sSystem p3s(network, config, rng);

  // The deal teams. Their CP-ABE attribute is simply "subscriber of the
  // data service, premium tier" — access control is about the service
  // relationship, not the watched target.
  auto goldman = p3s.make_subscriber("gs-endpoint", "deal-team-1",
                                     {"premium"}, rng);
  auto morgan = p3s.make_subscriber("ms-endpoint", "deal-team-2",
                                    {"premium"}, rng);
  auto barclays = p3s.make_subscriber("bc-endpoint", "deal-team-3",
                                      {"basic"}, rng);
  auto feed = p3s.make_publisher("feed-endpoint", "market-feed", rng);

  // Each bank registers its secret watch list.
  goldman->subscribe({{"target", "lehman"}});
  goldman->subscribe({{"target", "merrill"}, {"event", "default"}});
  morgan->subscribe({{"target", "bear-stearns"}});
  barclays->subscribe({{"target", "lehman"}, {"confidence", "high"}});

  std::printf("watch lists registered (via anonymizer):\n");
  std::printf("  deal-team-1: lehman | merrill+default\n");
  std::printf("  deal-team-2: bear-stearns\n");
  std::printf("  deal-team-3: lehman+high-confidence\n\n");

  // The feed publishes a day of events. Premium policy on most items.
  struct Item {
    const char* target;
    const char* event;
    const char* confidence;
    const char* text;
    const char* policy;
  };
  const Item day[] = {
      {"lehman", "rumor", "medium", "repo desk counterparties pulling lines",
       "premium"},
      {"bear-stearns", "downgrade", "high", "moodys cuts to A2", "premium"},
      {"wamu", "filing", "low", "10-Q delayed", "premium"},
      {"lehman", "default", "high", "chapter 11 imminent", "premium or basic"},
  };
  for (const Item& item : day) {
    feed->publish({{"target", item.target},
                   {"event", item.event},
                   {"confidence", item.confidence}},
                  str_to_bytes(item.text), abe::parse_policy(item.policy));
  }

  std::printf("after 4 publications:\n");
  std::printf("  deal-team-1 (gs): %zu deliveries\n", goldman->deliveries().size());
  for (const auto& d : goldman->deliveries()) {
    std::printf("      \"%s\"\n", bytes_to_str(d.payload).c_str());
  }
  std::printf("  deal-team-2 (ms): %zu deliveries\n", morgan->deliveries().size());
  std::printf("  deal-team-3 (bc): %zu deliveries (basic tier: only the open item)\n\n",
              barclays->deliveries().size());

  // The privacy ledger: what each third party could write down.
  std::printf("third-party visibility (the paper's §6.1 claims, live):\n");
  std::printf("  PBE-TS: saw %zu plaintext predicates — every one from '%s';\n"
              "          it knows SOMEONE watches lehman, not WHO.\n",
              p3s.token_server().seen_predicates().size(),
              p3s.token_server().seen_predicates()[0].network_from.c_str());
  std::printf("  DS:     relayed %zu encrypted frames; all targets/events opaque.\n",
              p3s.ds().observations().size());
  std::printf("  RS:     stored 4 ciphertexts; request counts per GUID: ");
  for (const auto& [guid, n] : p3s.rs().request_counts()) {
    std::printf("%zu ", n);
  }
  std::printf("\n          (it can count fetches — allowed leakage — but cannot\n"
              "          link them to banks: all requests arrive from 'anon').\n");
  std::printf("  feed:   received one store ack per publication, the same whether\n"
              "          or not anyone matched; it cannot tell whether anyone\n"
              "          matched its lehman bombshell.\n");
  return 0;
}
