// Dissemination Server (paper §4.1): terminates the secure channels
// ("TLS tunnels") to publishers and subscribers, fans PBE-encrypted metadata
// out to every registered subscriber, and forwards CP-ABE-encrypted payloads
// to the RS. Sees only ciphertext and sizes (curious log asserts this).
//
// One publish flow (PROTOCOL.md, DESIGN.md §10): a kPublishRequest is stored
// on the RS first (kStoreRequest/kStoreAck) and only then fanned out and
// acked back to the publisher, keyed by the publisher's request id so
// retries are idempotent. Every broadcast carries a per-incarnation sequence
// index and is kept in a bounded replay ring, so subscribers suppress
// replays and can repair gaps with kMetaSyncRequest.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "crypto/drbg.hpp"
#include "net/network.hpp"
#include "net/secure.hpp"
#include "p3s/hardening.hpp"
#include "pairing/ecies.hpp"

namespace p3s::core {

class DisseminationServer {
 public:
  /// `identity` lets a restarted DS keep its long-term channel key (from
  /// "disk"); omit it for a fresh deployment.
  DisseminationServer(net::Network& network, std::string name,
                      pairing::PairingPtr pairing, std::string rs_name,
                      Rng& rng,
                      std::optional<pairing::EciesKeyPair> identity = {});
  ~DisseminationServer();

  const std::string& name() const { return name_; }
  const pairing::Point& public_key() const { return keys_.public_key; }
  const pairing::EciesKeyPair& identity() const { return keys_; }

  std::size_t subscriber_count() const { return subscribers_.size(); }
  std::size_t publisher_count() const { return publishers_.size(); }
  /// Publish requests stored on the RS but not yet acknowledged.
  std::size_t pending_store_count() const { return pending_stores_.size(); }

  /// Broadcast shaping (DESIGN.md §11): batched fanout with a DRBG-jittered
  /// flush, bucketed broadcast padding, and garbage cover broadcasts. All
  /// off by default; enabling creates the dedicated hardening DRBG.
  void set_hardening(DsHardening hardening);
  const DsHardening& hardening() const { return hard_; }
  /// Hardening driver: flush a due broadcast batch and inject due cover.
  /// Call whenever network time may have advanced; no-op unhardened.
  void poll();
  /// Broadcasts queued for the next batched flush.
  std::size_t queued_broadcast_count() const { return pending_fanout_.size(); }

  /// Curious log: per-source frame sizes. The privacy tests check that no
  /// plaintext metadata/payload/interest ever reaches the DS.
  struct Observation {
    std::string from;
    std::size_t inner_size;
    std::uint8_t inner_type;
  };
  const std::vector<Observation>& observations() const { return observations_; }

  /// Simulate a crash: drop all sessions, registrations, the metadata replay
  /// ring, and in-flight publish state (long-term key survives, as it would
  /// on disk). Clients must re-register (paper §6.1: "A restarted DS needs
  /// to wait for subscribers and publishers to (re)register"); the bumped
  /// incarnation tells subscribers their sequence space reset.
  void crash_and_restart();

  /// Malicious-DS model (DESIGN.md §11, the attack suite's replay-griefing
  /// scenario): re-seal and re-send every retained broadcast to every
  /// connected subscriber. The DS owns the channel keys, so each replay
  /// carries a fresh channel sequence number and the transport-level replay
  /// protection cannot reject it; every subscriber suppresses it by its
  /// unchanged broadcast index. Returns the number of frames sent.
  std::size_t replay_broadcasts();

 private:
  struct PendingStore {
    std::string publisher;
    Bytes hve_ciphertext;
    Bytes store_frame;  // re-forwarded verbatim on publisher retry
  };

  void on_frame(const std::string& from, BytesView frame);
  void handle_inner(const std::string& from, BytesView inner);
  void send_sealed(const std::string& to, BytesView inner);
  /// The kMetadataDeliverySeq inner frame for ring entry `index`.
  Bytes sequenced_delivery(std::uint64_t index) const;
  /// Assign the next broadcast index, append to the replay ring, seal in
  /// parallel and send to every registered subscriber.
  void fan_out_metadata(const Bytes& hve_ciphertext);
  /// Batching indirection: queue the broadcast for a jittered flush when
  /// hardening batches, otherwise fan out immediately (base behavior).
  void schedule_fanout(const Bytes& hve_ciphertext);
  void flush_broadcasts();
  double jittered(double base);
  void handle_store_ack(const std::string& from, Reader& r);
  void mark_done(const Bytes& request_id);

  net::Network& network_;
  std::string name_;
  pairing::PairingPtr pairing_;
  std::string rs_name_;
  pairing::EciesKeyPair keys_;
  Rng& rng_;
  std::map<std::string, net::SecureSession> sessions_;
  std::map<std::string, std::uint64_t> subscribers_;  // name → joined index
  std::set<std::string> publishers_;
  std::vector<Observation> observations_;

  // --- publish and broadcast-sequence state --------------------------------
  // Incarnation is a restart counter, not a secret: it only has to differ
  // across crash_and_restart() calls on this instance so subscribers can
  // detect the sequence-space reset. (A production DS would
  // persist or randomize it; drawing from rng_ here would shift the shared
  // test RNG stream and break wire-level determinism pins.)
  std::uint64_t incarnation_ = 1;
  std::uint64_t next_meta_index_ = 0;
  std::uint64_t meta_base_ = 0;
  std::deque<Bytes> meta_ring_;  // hve ciphertexts [meta_base_, next index)
  std::map<Bytes, PendingStore> pending_stores_;
  std::set<Bytes> done_requests_;
  std::deque<Bytes> done_order_;  // FIFO eviction for done_requests_

  // --- broadcast shaping (DESIGN.md §11) -----------------------------------
  // Hardening randomness comes from a dedicated DRBG, not rng_: enabling
  // shaping must not shift the shared test RNG stream (the fanout seals'
  // wire-determinism pin depends on it). Cover broadcasts DO consume rng_
  // seal nonces like any real fanout — that is inherent to being real
  // broadcasts.
  DsHardening hard_;
  std::optional<crypto::Drbg> hard_drbg_;
  std::vector<Bytes> pending_fanout_;  // queued hve cts awaiting flush
  std::optional<double> fanout_deadline_;
  std::optional<double> next_cover_;
  std::size_t last_hve_size_ = 256;  // cover broadcasts mimic real ct size
};

}  // namespace p3s::core
