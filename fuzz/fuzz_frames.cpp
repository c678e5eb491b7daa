// Fuzz harness for the DS/RS wire-frame decoders: frame-type dispatch,
// tagged request/response bodies, the publish and store requests (and the
// content body nested in both), the secure-channel record
// layout, AEAD ciphertext envelopes, and the metadata-schema string map.
// These are the parsers that face attacker-controlled bytes off the wire
// (paper §4: everything a client sends crosses the DS boundary). The
// decoders' contract is throw-or-parse: std::exception rejections are fine,
// crashes and sanitizer findings are not.
#include <cstdint>
#include <exception>

#include "crypto/aead.hpp"
#include "p3s/messages.hpp"
#include "pbe/epoch.hpp"
#include "pbe/schema.hpp"

namespace {

using p3s::BytesView;

// The outer frame path: type byte, then the body decoder that type selects.
void drive_frame(BytesView input) {
  using p3s::core::FrameType;
  p3s::Reader r(input);
  const FrameType type = p3s::core::read_frame_type(r);
  switch (type) {
    case FrameType::kChannelRecord: {
      // SecureSession::open's record layout: u64 seq, AEAD envelope.
      (void)r.u64();
      const p3s::Bytes body = r.bytes();
      r.expect_done();
      (void)p3s::crypto::AeadCiphertext::deserialize(body);
      break;
    }
    case FrameType::kPublishRequest:
      (void)p3s::core::read_publish_request(r);
      break;
    case FrameType::kStoreRequest:
      (void)p3s::core::read_store_request(r);
      break;
    case FrameType::kAnonForward:
    case FrameType::kContentRequest:
    case FrameType::kContentResponse:
    case FrameType::kTokenRequest:
    case FrameType::kTokenResponse:
    case FrameType::kAraRegisterSubscriber:
    case FrameType::kAraRegisterPublisher:
    case FrameType::kAraResponse:
      (void)p3s::core::read_tagged(r);
      break;
    default:
      // Remaining types carry module-specific bodies; consume as a
      // length-prefixed blob the way the channel demux does.
      if (!r.done()) (void)r.bytes();
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const BytesView input(data, size);
  try {
    drive_frame(input);
  } catch (const std::exception&) {
  }
  try {
    (void)p3s::crypto::AeadCiphertext::deserialize(input);
  } catch (const std::exception&) {
  }
  try {
    (void)p3s::pbe::deserialize_string_map(input);
  } catch (const std::exception&) {
  }
  try {
    (void)p3s::pbe::EpochPolicy::deserialize(input);
  } catch (const std::exception&) {
  }
  return 0;
}
