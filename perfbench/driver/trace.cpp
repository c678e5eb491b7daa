#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* role_name(Role role) {
  switch (role) {
    case Role::kPublisher: return "publisher";
    case Role::kSubscriber: return "subscriber";
    case Role::kDissemination: return "dissemination";
    case Role::kRepository: return "repository";
    case Role::kTokenServer: return "token_server";
    case Role::kAnonymizer: return "anonymizer";
    case Role::kCount: break;
  }
  return "unknown";
}

const char* op_name(OpType type) {
  switch (type) {
    case OpType::kPublish: return "bench.publish";
    case OpType::kSubscribe: return "bench.subscribe";
    case OpType::kUnsubscribe: return "bench.unsubscribe";
    case OpType::kJoin: return "bench.join";
  }
  return "bench.unknown";
}

std::string Span::name() const {
  if (root) return op_name(op_type);
  return std::string(role_name(receiver)) + "<-" + role_name(sender);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TracingNetwork::register_endpoint(const std::string& name,
                                       Handler handler) {
  const Role receiver = role_of_(name);
  inner_.register_endpoint(
      name, [this, receiver, handler = std::move(handler)](
                const std::string& from, p3s::BytesView frame) {
        Span span;
        span.receiver = receiver;
        span.sender = role_of_(from);
        const std::uint32_t id = open(span);
        struct Closer {
          TracingNetwork* net;
          std::uint32_t id;
          ~Closer() { net->close(id); }
        } closer{this, id};
        handler(from, frame);
      });
}

std::uint32_t TracingNetwork::begin_op(OpType type) {
  if (!stack_.empty()) throw std::logic_error("trace: nested operation");
  Span span;
  span.root = true;
  span.op_type = type;
  span.op = next_op_++;
  return open(span);
}

void TracingNetwork::end_op(std::uint32_t span) { close(span); }

std::uint32_t TracingNetwork::open(Span span) {
  if (!stack_.empty()) {
    span.parent = stack_.back();
    span.op = spans_[stack_.back()].op;
  } else if (!span.root) {
    span.op = UINT32_MAX;  // dispatch outside any benchmark operation
  }
  const auto id = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(id);
  span.start = now_s();
  spans_.push_back(span);
  return id;
}

void TracingNetwork::close(std::uint32_t span) {
  spans_[span].end = now_s();
  // Runs from destructors: record a broken tree instead of throwing.
  if (stack_.empty() || stack_.back() != span) {
    nesting_ok_ = false;
    return;
  }
  stack_.pop_back();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent) self[s.parent] -= s.end - s.start;
  }
  return self;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return;  // the trace file is a by-product; metrics do not need it
  const std::vector<double> self = self_times(spans);
  out.precision(9);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name() << "\",\"op\":"
        << (s.op == UINT32_MAX ? -1 : static_cast<long long>(s.op))
        << ",\"parent\":"
        << (s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent))
        << ",\"start\":" << s.start << ",\"end\":" << s.end
        << ",\"self\":" << self[i] << "}\n";
  }
}

}  // namespace perfbench
