// Paper-scale benchmark of the real P3S protocol stack.
//
//   p3s_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <file>] [--commit <id>] [--source-sha256 <hex>]
//                 [--sabotage]
//
// Drives core::P3sSystem on net::DirectNetwork with the paper's pairing
// (160-bit r, 512-bit q), the 13 x 8 metadata schema (39-bit HVE vectors)
// and v = 10 CP-ABE policies. Load is a closed loop from this one thread:
// the next operation starts when the previous call returns. DirectNetwork
// delivers inline, so a publish call returns only after the DS fan-out,
// every subscriber match and every fetch/decrypt.
//
// --trace 0 measures the end-to-end metrics. The system is set up three
// times from the same seed (set-up time is their median, and the three
// set-up traffic logs must be identical); the first set-up is measured:
// one publication warms it up, then the measured phase runs for --seconds,
// with the second and third set-ups advancing between its operations.
//
// --trace 1 measures the per-layer metrics. Two systems are set up from
// the same seed, one behind the tracing decorator; every operation of the
// measured phase runs on both, alternating which goes first. The traced
// system's wire traffic and delivery set must equal the untraced one's;
// the difference in their summed wall time is the tracing overhead. The
// layer probes run afterwards.
//
// --sabotage unregisters one subscriber's endpoint after set-up; the run
// must then report failures (the oracle's self-check).
//
// Human-readable results and a provenance line go first; the last line of
// stdout is the JSON result {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "deployment.hpp"
#include "exec/pool.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMaxPoolThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans, commit = "unknown", source_sha256 = "unknown";
  bool sabotage = false;
};

bool parse(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--sabotage") {
      a.sabotage = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    kv[key.substr(2)] = argv[++i];
  }
  try {
    a.workload = kv.at("workload");
    a.seed = std::stoull(kv.at("seed"));
    a.seconds = std::stod(kv.at("seconds"));
    a.trace = std::stoi(kv.at("trace"));
  } catch (const std::exception&) {
    return false;
  }
  if (kv.count("spans")) a.spans = kv["spans"];
  if (kv.count("commit")) a.commit = kv["commit"];
  if (kv.count("source-sha256")) a.source_sha256 = kv["source-sha256"];
  return (a.trace == 0 || a.trace == 1) && a.seconds > 0.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name, unit;
  double value;
};

/// Deltas of the program's own counters and histogram counts/sums over the
/// measured phase. Histogram quantiles are never read.
struct ProgramCounters {
  double exec_tasks = 0, exec_steals = 0;
  double pair_products = 0, pairs = 0, g1_muls = 0, hash_to_g1 = 0;
  double metadata = 0, match_hits = 0, match_attempts = 0, width_skips = 0;
  double deliveries = 0, undecryptable = 0, fetch_failures = 0;
  double rs_fetch_ok = 0, rs_fetch_notfound = 0;

  static ProgramCounters read() {
    namespace n = p3s::obs::names;
    auto& r = p3s::obs::Registry::global();
    const auto c = [&](const char* name, const p3s::obs::Labels& l = {}) {
      return static_cast<double>(r.counter(name, l).value());
    };
    const auto h = [&](const char* name) -> p3s::obs::Histogram& {
      return r.histogram(name);
    };
    ProgramCounters p;
    p.exec_tasks = c(n::kExecTasksTotal);
    p.exec_steals = c(n::kExecStealsTotal);
    p.pair_products =
        static_cast<double>(h(n::kCryptoPairProductSeconds).count());
    p.pairs = h(n::kCryptoPairProductPairs).sum();
    p.g1_muls = static_cast<double>(h(n::kCryptoG1MulSeconds).count());
    p.hash_to_g1 = static_cast<double>(h(n::kCryptoHashToG1Seconds).count());
    p.metadata = c(n::kSubMetadataReceivedTotal);
    p.match_hits = c(n::kSubMatchHitsTotal);
    p.match_attempts = c(n::kSubMatchAttemptsTotal);
    p.width_skips = c(n::kSubMatchSkippedWidth);
    p.deliveries = c(n::kSubDeliveriesTotal);
    p.undecryptable = c(n::kSubUndecryptableTotal);
    p.fetch_failures = c(n::kSubFetchFailuresTotal);
    p.rs_fetch_ok =
        c(n::kRsFetchTotal, {{"status", p3s::obs::labels::kStatusOk}});
    p.rs_fetch_notfound =
        c(n::kRsFetchTotal, {{"status", p3s::obs::labels::kStatusNotFound}});
    return p;
  }

  ProgramCounters operator-(const ProgramCounters& o) const {
    ProgramCounters d = *this;
    d.exec_tasks -= o.exec_tasks;
    d.exec_steals -= o.exec_steals;
    d.pair_products -= o.pair_products;
    d.pairs -= o.pairs;
    d.g1_muls -= o.g1_muls;
    d.hash_to_g1 -= o.hash_to_g1;
    d.metadata -= o.metadata;
    d.match_hits -= o.match_hits;
    d.match_attempts -= o.match_attempts;
    d.width_skips -= o.width_skips;
    d.deliveries -= o.deliveries;
    d.undecryptable -= o.undecryptable;
    d.fetch_failures -= o.fetch_failures;
    d.rs_fetch_ok -= o.rs_fetch_ok;
    d.rs_fetch_notfound -= o.rs_fetch_notfound;
    return d;
  }
};

/// Bookkeeping of the measured phase shared by both modes.
struct Phase {
  std::size_t ops = 0, pubs = 0;
  double match_share_sum = 0.0;  // Σ matches / N_s over publications
  double start = 0.0, end = 0.0;
  double paused = 0.0, paused_cpu = 0.0;  // other work done mid-phase
  double elapsed() const { return now_s() - start - paused; }
  double seconds() const { return end - start - paused; }
  double realised_f() const { return ratio(match_share_sum, pubs); }
};

/// Run `fn` off the measured phase's wall and CPU clocks.
template <typename F>
void off_clock(Phase& phase, F&& fn) {
  const double t0 = now_s(), cpu0 = process_cpu_s();
  fn();
  phase.paused += now_s() - t0;
  phase.paused_cpu += process_cpu_s() - cpu0;
}

/// Draw the next measured operation, run it on every deployment (in the
/// given order) and advance the oracle. Returns each deployment's wall time.
std::vector<double> step(Workload& workload, Oracle& oracle, Phase& phase,
                         const std::vector<Deployment*>& order) {
  // Drawing the operation is the benchmark's work, not the system's.
  Op op;
  Oracle::Expectation expected;
  off_clock(phase, [&] {
    op = workload.next(oracle);
    if (op.kind != OpKind::kPublish) return;
    expected = oracle.expect(op.publication.metadata, workload.policy());
    ++phase.pubs;
    phase.match_share_sum += ratio(expected.matches, oracle.size());
  });
  std::vector<double> walls;
  for (Deployment* d : order) walls.push_back(d->run(op, &expected));
  if (op.kind == OpKind::kInterestChange) {
    oracle.change_interest(op.subscriber, op.drop, op.add);
  } else if (op.kind == OpKind::kJoin) {
    oracle.add(op.joiner);
  }
  ++phase.ops;
  return walls;
}

std::uint64_t bytes_since(const p3s::net::Network& wire, std::size_t from,
                          const std::string* sender = nullptr) {
  std::uint64_t total = 0;
  const auto& log = wire.traffic();
  for (std::size_t i = from; i < log.size(); ++i) {
    if (sender == nullptr || log[i].from == *sender) total += log[i].size;
  }
  return total;
}

std::size_t frames_since(const p3s::net::Network& wire, std::size_t from,
                         const std::string& sender) {
  std::size_t n = 0;
  const auto& log = wire.traffic();
  for (std::size_t i = from; i < log.size(); ++i) n += log[i].from == sender;
  return n;
}

struct Result {
  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;   // the JSON metrics of this mode
  std::vector<Metric> report;    // printed only (tails, ratios, memory)
  std::map<std::string, double> provenance;
  std::map<std::string, std::size_t> samples;
  std::vector<std::string> notes;  // failed checks, first errors

  void fold(Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    for (const auto& e : t.errors) notes.push_back(e);
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    notes.push_back("check failed: " + what);
  }
};

std::uint64_t system_seed(std::uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ull + 0x5bd1e995ull;
}

Result run_untraced(const Args& args, Workload& workload) {
  Result res;
  Oracle oracle;
  for (const auto& spec : workload.initial()) oracle.add(spec);

  // The measured deployment is set up first. The two other set-ups (for
  // the set-up median and the check that every set-up puts the same bytes
  // on the wire) advance step by step between the measured operations,
  // keeping pace with the phase clock, so the samples of every metric span
  // the whole run rather than one stretch of it: on a shared VM the speed
  // of the pairing code drifts over tens of seconds.
  std::vector<double> setup_walls, joins, subscribes;
  const auto append = [](std::vector<double>& to,
                          const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  Deployment d(workload, system_seed(args.seed), false);
  setup_walls.push_back(d.set_up(workload.initial()));
  const WireDigest first = d.digest(0);
  constexpr std::size_t kOtherSetUps = 2;
  const std::size_t steps_per_set_up = workload.initial().size() + 2;
  std::unique_ptr<Deployment> other;  // the set-up in progress
  std::size_t others_done = 0, steps_done = 0;
  // Advance the other set-ups to `share` of their combined steps.
  const auto set_up_others = [&](double share) {
    const auto target = static_cast<std::size_t>(
        share * static_cast<double>(kOtherSetUps * steps_per_set_up));
    while (others_done < kOtherSetUps && steps_done < target) {
      if (!other) {
        other = std::make_unique<Deployment>(workload, system_seed(args.seed),
                                             false);
      }
      ++steps_done;
      if (other->set_up_step(workload.initial())) continue;
      setup_walls.push_back(other->set_up_seconds());
      res.check(other->digest(0) == first,
                "set-up traffic differs between set-ups");
      append(joins, other->samples().join);
      append(subscribes, other->samples().subscribe);
      res.fold(other->tally());
      other.reset();
      ++others_done;
    }
  };

  Op warm;
  warm.publication = workload.publication(oracle);
  const auto expected =
      oracle.expect(warm.publication.metadata, workload.policy());
  if (args.sabotage) {
    // Drop a subscriber the warm-up publication must reach.
    for (std::size_t i = 0; i < expected.deliver.size(); ++i) {
      if (expected.deliver[i] != 0) {
        d.sabotage(i);
        break;
      }
    }
  }
  d.run(warm, &expected);

  d.record_publications(true);
  const auto& wire = d.wire();
  const std::size_t frames0 = wire.traffic().size();
  const std::uint64_t ds0 = wire.bytes_sent_by(d.ds_name());
  const double heap0 = heap_in_use_bytes();
  const double cpu0 = process_cpu_s();
  Phase phase;
  phase.start = now_s();
  while (phase.elapsed() < args.seconds || phase.pubs == 0) {
    step(workload, oracle, phase, {&d});
    off_clock(phase, [&] {
      set_up_others(std::min(1.0, phase.elapsed() / args.seconds));
    });
  }
  off_clock(phase, [&] { set_up_others(1.0); });
  phase.end = now_s();
  const double cpu = process_cpu_s() - cpu0 - phase.paused_cpu;
  // The other set-ups are done and have freed everything they allocated.
  const double heap = heap_in_use_bytes() - heap0;
  const std::uint64_t ds_bytes = wire.bytes_sent_by(d.ds_name()) - ds0;
  const std::uint64_t wire_bytes = bytes_since(wire, frames0);
  res.fold(d.tally());

  const Samples& s = d.samples();
  append(joins, s.join);
  append(subscribes, s.subscribe);
  const double pubs = static_cast<double>(phase.pubs);
  res.metrics = {
      {"setup_s", "s", quantile(setup_walls, 0.5)},
      {"publish_p50_s", "s", quantile(s.publish, 0.5)},
      {"delivery_p50_s", "s", quantile(s.delivery, 0.5)},
      {"publications_per_s", "1/s", pubs / phase.seconds()},
      {"delivered_mb_per_s", "MB/s",
       static_cast<double>(s.delivered_bytes) / 1e6 / phase.seconds()},
      {"cpu_s_per_pub", "s", cpu / pubs},
      {"ds_egress_bytes_per_pub", "B", static_cast<double>(ds_bytes) / pubs},
      {"wire_bytes_per_pub", "B", static_cast<double>(wire_bytes) / pubs},
      {"retained_mb_per_pub", "MB", heap / 1e6 / pubs},
      // Means, not medians: on a shared 4-vCPU VM the pairing code's speed
      // switches between levels ~1.5x apart for seconds at a time, and the
      // median of these short operations jumped between the levels from
      // run to run.
      {"subscribe_mean_s", "s", mean(subscribes)},
      {"join_mean_s", "s", mean(joins)},
  };
  const auto tail = [](const std::vector<double>& v) {
    return tail_supported(v.size(), 0.9) ? quantile(v, 0.9) : NAN;
  };
  res.report = {
      {"delivery_p90_s", "s", tail(s.delivery)},
      {"subscribe_p50_s", "s", quantile(subscribes, 0.5)},
      {"subscribe_p90_s", "s", tail(subscribes)},
      {"join_p50_s", "s", quantile(joins, 0.5)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"failed_ratio", "1", ratio(res.failed, res.attempted)},
  };
  res.samples = {{"setup", setup_walls.size()},
                 {"publish", s.publish.size()},
                 {"delivery", s.delivery.size()},
                 {"subscribe", subscribes.size()},
                 {"join", joins.size()}};
  res.provenance = {{"measured_seconds", phase.seconds()},
                    {"measured_ops", static_cast<double>(phase.ops)},
                    {"measured_publications", pubs},
                    {"realised_f", phase.realised_f()},
                    {"final_subscribers",
                     static_cast<double>(d.subscribers())}};
  return res;
}

/// Median of `self` over spans selected by `pick`; 0 when none.
template <typename Pick>
double median_self(const std::vector<Span>& spans,
                   const std::vector<double>& self, Pick pick) {
  std::vector<double> v;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (pick(i, spans[i])) v.push_back(self[i]);
  }
  return quantile(v, 0.5);
}

Result run_traced(const Args& args, Workload& workload) {
  Result res;
  Oracle oracle;
  for (const auto& spec : workload.initial()) oracle.add(spec);
  Deployment traced(workload, system_seed(args.seed), true);
  Deployment plain(workload, system_seed(args.seed), false);
  traced.set_up(workload.initial());
  plain.set_up(workload.initial());
  Op warm;
  warm.publication = workload.publication(oracle);
  const auto expected =
      oracle.expect(warm.publication.metadata, workload.policy());
  traced.run(warm, &expected);
  plain.run(warm, &expected);

  traced.record_publications(true);
  plain.record_publications(true);
  TracingNetwork& tracer = *traced.tracer();
  const auto& wire = traced.wire();
  const std::size_t frames0 = wire.traffic().size();
  const std::size_t span0 = tracer.spans().size();
  const ProgramCounters pc0 = ProgramCounters::read();
  Phase phase;
  double wall_traced = 0.0, wall_plain = 0.0;
  phase.start = now_s();
  while (phase.elapsed() < args.seconds || phase.pubs == 0) {
    const bool traced_first = phase.ops % 2 == 0;
    const auto walls =
        step(workload, oracle, phase,
             traced_first ? std::vector<Deployment*>{&traced, &plain}
                          : std::vector<Deployment*>{&plain, &traced});
    wall_traced += walls[traced_first ? 0 : 1];
    wall_plain += walls[traced_first ? 1 : 0];
  }
  phase.end = now_s();
  const ProgramCounters pc = ProgramCounters::read() - pc0;
  res.fold(traced.tally());
  res.fold(plain.tally());

  // The decorator must change nothing on the wire or in what is delivered.
  const WireDigest dt = traced.digest(0), dp = plain.digest(0);
  res.check(dt == dp, "traced and untraced wire traffic differ");
  res.check(traced.delivered() == plain.delivered(),
            "traced and untraced delivery sets differ");
  res.check(tracer.nesting_ok(), "trace spans do not nest");

  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = self_times(spans);
  std::vector<OpType> op_type;
  for (const Span& s : spans) {
    if (s.root) {
      op_type.resize(std::max<std::size_t>(op_type.size(), s.op + 1));
      op_type[s.op] = s.op_type;
    }
  }
  const auto in_op = [&](const Span& s, OpType t) {
    return s.op != UINT32_MAX && op_type[s.op] == t;
  };
  const auto handler = [](const Span& s, Role receiver) {
    return !s.root && s.receiver == receiver;
  };
  const auto root = [](const Span& s, OpType t) {
    return s.root && s.op_type == t;
  };
  // Measured-phase publication spans only.
  const auto measured_pub = [&](std::size_t i, const Span& s) {
    return i >= span0 && in_op(s, OpType::kPublish);
  };
  double ds_self = 0.0, roots = 0.0;
  std::size_t anon_spans = 0;
  for (std::size_t i = span0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (handler(s, Role::kDissemination) && in_op(s, OpType::kPublish)) {
      ds_self += self[i];
    }
    if (handler(s, Role::kAnonymizer)) ++anon_spans;
    if (s.root) roots += s.end - s.start;
  }

  const double ops = static_cast<double>(phase.ops);
  const std::string& ds = traced.ds_name();
  double log_bytes = 0.0;
  for (const auto& rec : wire.traffic()) {
    log_bytes += static_cast<double>(rec.size);
  }

  res.metrics = {
      {"publisher.encode_s", "s",
       median_self(spans, self, [&](std::size_t i, const Span& s) {
         return i >= span0 && root(s, OpType::kPublish);
       })},
      {"dissemination.self_s_per_pub", "s", ds_self / phase.pubs},
      {"dissemination.frames_out_per_pub", "count",
       static_cast<double>(frames_since(wire, frames0, ds)) / phase.pubs},
      {"dissemination.bytes_out_per_pub", "B",
       static_cast<double>(bytes_since(wire, frames0, &ds)) / phase.pubs},
      {"repository.store_s", "s",
       median_self(spans, self, [&](std::size_t i, const Span& s) {
         return measured_pub(i, s) && handler(s, Role::kRepository) &&
                s.sender == Role::kDissemination;
       })},
      {"repository.fetch_s", "s",
       median_self(spans, self, [&](std::size_t i, const Span& s) {
         return measured_pub(i, s) && handler(s, Role::kRepository) &&
                s.sender != Role::kDissemination;
       })},
      {"repository.fetch_ok_ratio", "1",
       ratio(pc.rs_fetch_ok, pc.rs_fetch_ok + pc.rs_fetch_notfound)},
      {"anonymizer.forward_s", "s",
       median_self(spans, self, [&](std::size_t, const Span& s) {
         return handler(s, Role::kAnonymizer);
       })},
      {"anonymizer.forwards_per_op", "count", ratio(anon_spans, ops)},
      {"token_server.token_s", "s",
       median_self(spans, self, [&](std::size_t, const Span& s) {
         return handler(s, Role::kTokenServer);
       })},
      {"ara.join_self_s", "s",
       median_self(spans, self, [&](std::size_t, const Span& s) {
         return root(s, OpType::kJoin);
       })},
      {"subscriber.match_s", "s",
       median_self(spans, self, [&](std::size_t i, const Span& s) {
         return measured_pub(i, s) && handler(s, Role::kSubscriber) &&
                s.sender == Role::kDissemination;
       })},
      {"subscriber.match_hit_ratio", "1", ratio(pc.match_hits, pc.metadata)},
      {"subscriber.width_skip_ratio", "1",
       ratio(pc.width_skips, pc.width_skips + pc.match_attempts)},
      {"subscriber.fetch_decrypt_s", "s",
       median_self(spans, self, [&](std::size_t i, const Span& s) {
         return measured_pub(i, s) && handler(s, Role::kSubscriber) &&
                s.sender != Role::kDissemination;
       })},
      {"subscriber.useful_fetch_ratio", "1",
       ratio(pc.deliveries,
             pc.deliveries + pc.undecryptable + pc.fetch_failures)},
      {"subscriber.subscribe_self_s", "s",
       median_self(spans, self, [&](std::size_t, const Span& s) {
         return root(s, OpType::kSubscribe);
       })},
      {"net.frames_per_pub", "count",
       static_cast<double>(wire.traffic().size() - frames0) / phase.pubs},
      {"net.wire_bytes_per_pub", "B",
       static_cast<double>(bytes_since(wire, frames0)) / phase.pubs},
      {"net.traffic_log_mb", "MB", log_bytes / 1e6},
      // Both systems ran every measured operation: halve the counter deltas.
      {"exec.tasks_per_op", "count", ratio(pc.exec_tasks, 2 * ops)},
      {"exec.steals_per_op", "count", ratio(pc.exec_steals, 2 * ops)},
      {"pairing.pair_products_per_pub", "count",
       ratio(pc.pair_products, 2.0 * phase.pubs)},
      {"pairing.pairs_per_pub", "count", ratio(pc.pairs, 2.0 * phase.pubs)},
      {"pairing.g1_muls_per_pub", "count", ratio(pc.g1_muls, 2.0 * phase.pubs)},
      {"pairing.hash_to_g1_per_op", "count", ratio(pc.hash_to_g1, 2 * ops)},
  };
  for (const auto& [name, seconds] : run_probes(workload, args.seed)) {
    res.metrics.push_back({name, name.find("_per_mb") != std::string::npos
                                     ? "s/MB"
                                     : "s",
                           seconds});
  }
  res.metrics.push_back({"trace.unattributed_share", "1",
                         ratio(wall_traced - roots, wall_traced)});
  res.metrics.push_back({"trace.overhead_share", "1",
                         ratio(wall_traced - wall_plain, wall_plain)});

  res.samples = {{"spans", spans.size()},
                 {"publish", traced.samples().publish.size()},
                 {"delivery", traced.samples().delivery.size()}};
  res.provenance = {{"measured_seconds", phase.seconds()},
                    {"measured_ops", ops},
                    {"measured_publications", static_cast<double>(phase.pubs)},
                    {"realised_f", phase.realised_f()},
                    {"final_subscribers",
                     static_cast<double>(traced.subscribers())}};
  if (!args.spans.empty()) write_spans(args.spans, spans);
  return res;
}

void print(const Args& args, const Workload& workload, Result& res) {
  const auto pairing = p3s::pairing::Pairing::paper_pairing();
  res.provenance["seed"] = static_cast<double>(args.seed);
  res.provenance["pairing_r_bits"] =
      static_cast<double>(pairing->r().bit_length());
  res.provenance["pairing_q_bits"] =
      static_cast<double>(pairing->q().bit_length());
  res.provenance["schema_width_bits"] =
      static_cast<double>(workload.schema().width());
  res.provenance["policy_attributes"] =
      static_cast<double>(workload.policy().leaf_count());
  res.provenance["initial_subscribers"] =
      static_cast<double>(workload.shape().initial_subscribers);
  res.provenance["target_f"] = workload.shape().match_fraction;
  res.provenance["payload_bytes"] =
      static_cast<double>(workload.shape().payload_bytes);
  res.provenance["exec_pool_threads"] =
      static_cast<double>(p3s::exec::Pool::global().thread_count());
  res.provenance["nproc"] =
      static_cast<double>(std::thread::hardware_concurrency());

  std::printf("workload %s (seed %llu, %s run): %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced", workload.shape().why.c_str());
  for (const auto* list : {&res.metrics, &res.report}) {
    for (const Metric& m : *list) {
      std::printf("  %-34s %-14s %s\n", m.name.c_str(), num(m.value).c_str(),
                  m.unit.c_str());
    }
  }
  for (const auto& note : res.notes) std::printf("  ! %s\n", note.c_str());

  std::ostringstream p;
  p << "{\"provenance\":{\"workload\":" << json_string(args.workload)
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
    << ",\"commit\":" << json_string(args.commit)
    << ",\"source_sha256\":" << json_string(args.source_sha256)
    << ",\"trace\":" << args.trace;
  for (const auto& [k, v] : res.provenance) p << ",\"" << k << "\":" << num(v);
  p << "},\"samples\":{";
  const char* sep = "";
  for (const auto& [k, v] : res.samples) {
    p << sep << "\"" << k << "\":" << v;
    sep = ",";
  }
  p << "},\"report\":{";
  sep = "";
  for (const Metric& m : res.report) {
    p << sep << json_string(m.name) << ":" << num(m.value);
    sep = ",";
  }
  p << "},\"notes\":[";
  sep = "";
  for (const auto& n : res.notes) {
    p << sep << json_string(n);
    sep = ",";
  }
  p << "]}";
  std::printf("%s\n", p.str().c_str());

  std::ostringstream out;
  out << "{\"correct\":" << (res.correct && res.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << res.attempted << ",\"failed\":" << res.failed
      << ",\"metrics\":{";
  sep = "";
  for (const Metric& m : res.metrics) {
    out << sep << json_string(m.name) << ":{\"value\":"
        << (std::isfinite(m.value) ? num(m.value) : "0")
        << ",\"unit\":" << json_string(m.unit) << "}";
    sep = ",";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>] [--commit <id>] "
                 "[--source-sha256 <hex>] [--sabotage]\n",
                 argv[0]);
    return 2;
  }
  try {
    Workload workload(args.workload, args.seed);
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    p3s::exec::Pool::set_global_threads(std::min(hw, kMaxPoolThreads));
    Result res = args.trace ? run_traced(args, workload)
                            : run_untraced(args, workload);
    print(args, workload, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
