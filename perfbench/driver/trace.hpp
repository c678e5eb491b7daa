// Benchmark-owned span tracing. TracingNetwork decorates a DirectNetwork:
// every handler registered through it is wrapped so that each dispatch
// records a span named "<receiver role><-<sender role>", with its start,
// end, parent span and the id of the benchmark operation (publish,
// subscribe, unsubscribe, join) it belongs to. The benchmark opens one root
// span per operation around its own call into the library (OpScope).
//
// Frames pass through unchanged: the decorator adds nothing to the wire, so
// the inner DirectNetwork's traffic log is byte-identical to an untraced run
// of the same seed (OBSERVABILITY.md §6.1; checked by the benchmark). Spans
// stay in memory and are analysed and written out when the run ends.
//
// DirectNetwork delivers inline on the sending thread and library code never
// sends from pool workers, so every span of a run is opened and closed on
// the benchmark's single driver thread and strictly nests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace perfbench {

enum class Role : std::uint8_t {
  kPublisher,
  kSubscriber,
  kDissemination,
  kRepository,
  kTokenServer,
  kAnonymizer,
  kCount
};
const char* role_name(Role role);

/// Root-span kinds: the benchmark's own calls into the library.
enum class OpType : std::uint8_t { kPublish, kSubscribe, kUnsubscribe, kJoin };
const char* op_name(OpType type);

struct Span {
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  bool root = false;
  OpType op_type = OpType::kPublish;  // root spans
  Role receiver = Role::kPublisher;   // handler spans
  Role sender = Role::kPublisher;
  std::uint32_t parent = kNoParent;
  std::uint32_t op = 0;  // operation id shared by all spans of one operation
  double start = 0.0, end = 0.0;

  std::string name() const;
};

double now_s();

class TracingNetwork final : public p3s::net::Network {
 public:
  using RoleOf = std::function<Role(const std::string& endpoint)>;

  explicit TracingNetwork(RoleOf role_of) : role_of_(std::move(role_of)) {}

  void register_endpoint(const std::string& name, Handler handler) override;
  void unregister_endpoint(const std::string& name) override {
    inner_.unregister_endpoint(name);
  }
  void send(const std::string& from, const std::string& to,
            p3s::Bytes frame) override {
    inner_.send(from, to, std::move(frame));
  }
  double now() const override { return inner_.now(); }

  /// The wrapped network; its traffic log is the wire.
  p3s::net::DirectNetwork& inner() { return inner_; }

  /// Root span of one benchmark operation; returns its span index.
  std::uint32_t begin_op(OpType type);
  void end_op(std::uint32_t span);

  const std::vector<Span>& spans() const { return spans_; }
  /// False when some span closed out of order (the tree is not usable).
  bool nesting_ok() const { return nesting_ok_; }

 private:
  std::uint32_t open(Span span);
  void close(std::uint32_t span);

  p3s::net::DirectNetwork inner_;
  RoleOf role_of_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;  // open spans, innermost last
  std::uint32_t next_op_ = 0;
  bool nesting_ok_ = true;
};

/// RAII root span; no-op without a tracer.
class OpScope {
 public:
  OpScope(TracingNetwork* tracer, OpType type)
      : tracer_(tracer), span_(tracer ? tracer->begin_op(type) : 0) {}
  ~OpScope() {
    if (tracer_ != nullptr) tracer_->end_op(span_);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  TracingNetwork* tracer_;
  std::uint32_t span_;
};

/// Self time of every span: its duration minus the time covered by its
/// direct children (nested dispatches).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Write the spans as JSON lines (name, op, parent, start, end, self).
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
