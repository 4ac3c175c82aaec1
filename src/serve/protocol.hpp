// Wire protocol of the extraction service (DESIGN.md §13).
//
// ecms_serve speaks a CRC-framed, length-prefixed binary protocol over a
// Unix-domain stream socket, reusing the framing discipline of the campaign
// journal (campaign/store.cpp): every frame is a 16-byte header
// {magic, type, payload_len, crc32} followed by its payload, the CRC covers
// the payload only, and a length prefix above kMaxPayload is treated as
// corruption instead of a wild allocation. A stream that fails any of these
// checks is poisoned — the Decoder reports kBad once and refuses further
// frames, the server answers with one best-effort kError frame and closes
// that connection while every other session keeps serving (the serve-side
// analogue of the store's torn-tail / quarantine taxonomy).
//
// Sessions open with a handshake: the client's kHello carries the protocol
// version and a config hash of the wire format; a mismatch is refused with
// kReject before any request is admitted — mirroring the campaign store's
// meta-mismatch refusal, so a stale client can never feed requests to a
// server that would misread them.
//
// Payload structs are fixed-width and trivially copyable (the UnitRecord
// rule): a frame is a memcpy plus a CRC, never a parse. Variable-length
// content (reject reasons, error messages, metrics/trace JSON, result code
// arrays) rides as a byte tail after the fixed struct, with the fixed part
// carrying the tail length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ecms::serve {

// v2: ExtractSpec grew the `batch` field (lockstep batch width). The
// handshake hash covers struct sizes, so a v1 peer is refused at kHello
// rather than silently misreading the wider spec.
// v3: the `solver` field is gone (one linear solver); its slot is padding,
// so only the version tells v2 and v3 apart.
inline constexpr std::uint32_t kProtocolVersion = 3;
inline constexpr std::uint32_t kFrameMagic = 0x45565253;  // "SRVE"
/// A metrics/trace export or a result frame larger than this is
/// structurally impossible at supported array sizes; treat it as corruption
/// instead of allocating wild (same guard as the campaign journal).
inline constexpr std::uint32_t kMaxPayload = 16u << 20;

enum class FrameType : std::uint32_t {
  kHello = 1,           ///< client -> server: Hello
  kHelloOk = 2,         ///< server -> client: Hello (the server's identity)
  kReject = 3,          ///< server -> client: TextInfo + reason bytes
  kExtract = 4,         ///< client -> server: ExtractSpec
  kAccepted = 5,        ///< server -> client: Ack
  kProgress = 6,        ///< server -> client: Progress (streamed per tile)
  kResult = 7,          ///< server -> client: ResultInfo + codes + status
  kMetrics = 8,         ///< client -> server: empty
  kMetricsReply = 9,    ///< server -> client: metrics JSON bytes
  kTrace = 10,          ///< client -> server: empty
  kTraceReply = 11,     ///< server -> client: Chrome trace JSON bytes
  kCalibrate = 12,      ///< client -> server: CalibrateSpec
  kCalibrateReply = 13, ///< server -> client: CalibrateInfo
  kError = 14,          ///< server -> client: TextInfo + message bytes
};

/// 16-byte frame header; `crc` covers the payload only.
struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t type = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t crc = 0;
};
static_assert(sizeof(FrameHeader) == 16);

/// Handshake payload, both directions. The config hash pins the wire
/// format (version + payload struct layouts): client and server must agree
/// byte for byte before any request is admitted.
struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t pad = 0;
  std::uint64_t config_hash = 0;
};

/// Fixed part of kReject and kError; `text_len` bytes of reason/message
/// follow. `retry_after_ms` is meaningful for admission rejections only
/// (0 = do not retry, the request is refused outright).
struct TextInfo {
  std::uint64_t request_id = 0;
  std::uint32_t retry_after_ms = 0;
  std::uint32_t text_len = 0;
};

/// One extraction request: the synthetic-array identity (exactly the CLI's
/// bitmap/array parameterization, so served results can be compared
/// bit-for-bit against one-shot runs) plus the measurement shape.
struct ExtractSpec {
  std::uint64_t request_id = 0;
  // Array identity (result-determining; serve::ArraySpec mirror).
  std::uint32_t rows = 8, cols = 8;
  std::uint64_t seed = 1;
  double gradient = 0.0, drift = 0.0;
  double shorts = 0.002, opens = 0.002, partials = 0.005;
  // Measurement shape.
  std::uint32_t engine = 0;  ///< 0 = fast model, 1 = circuit
  std::uint32_t tile_rows = 4, tile_cols = 4;
  std::uint32_t adaptive = 1;       ///< circuit engine: adaptive scheduling
  std::uint32_t retries = 2;        ///< per-cell attempt budget
  std::uint32_t share_programs = 1; ///< adopt the process-wide ProgramCache
  std::uint32_t batch = 0;          ///< lockstep width: 0 = auto, 1 = off, n = lanes
  std::uint32_t want_progress = 0;  ///< stream per-tile Progress frames
  std::uint32_t deadline_ms = 0;    ///< queue deadline from admission; 0 = none
  std::uint32_t pad = 0;
};

/// Admission acknowledgement for an accepted request.
struct Ack {
  std::uint64_t request_id = 0;
  std::uint32_t queue_depth = 0;  ///< depth at admission, this request included
  std::uint32_t pad = 0;
};

/// Per-tile progress, streamed while the request runs.
struct Progress {
  std::uint64_t request_id = 0;
  std::uint32_t tiles_done = 0;
  std::uint32_t tiles_total = 0;
};

/// Fixed part of kResult; followed by rows*cols int32 codes (row-major)
/// and rows*cols uint8 cell statuses. `code_hash` is the FNV-1a digest of
/// the code bytes — the bit-identity witness EXT-A12 compares against
/// one-shot runs.
struct ResultInfo {
  std::uint64_t request_id = 0;
  std::uint32_t rows = 0, cols = 0;
  std::uint32_t ok = 0, recovered = 0, unmeasurable = 0;
  std::uint32_t pad = 0;
  std::uint64_t code_hash = 0;
  std::uint64_t transient_steps = 0;
  std::uint64_t conversion_steps = 0;
};

/// Abacus-calibration request (the keyed warm cache): which uniform
/// macro-cell geometry and sweep to calibrate.
struct CalibrateSpec {
  std::uint64_t request_id = 0;
  std::uint32_t rows = 4, cols = 4;
  std::uint32_t ramp_steps = 20;
  std::uint32_t points = 741;
  double cm_lo = 1e-15, cm_hi = 75e-15;
};

struct CalibrateInfo {
  std::uint64_t request_id = 0;
  std::uint32_t cache_hit = 0;   ///< 1 when served from the warm cache
  std::uint32_t codes_used = 0;
  double range_lo = 0.0, range_hi = 0.0;
  double mean_accuracy = 0.0;
};

static_assert(std::is_trivially_copyable_v<Hello> &&
              std::is_trivially_copyable_v<TextInfo> &&
              std::is_trivially_copyable_v<ExtractSpec> &&
              std::is_trivially_copyable_v<Ack> &&
              std::is_trivially_copyable_v<Progress> &&
              std::is_trivially_copyable_v<ResultInfo> &&
              std::is_trivially_copyable_v<CalibrateSpec> &&
              std::is_trivially_copyable_v<CalibrateInfo>,
              "payloads are framed raw");

/// The handshake config hash: FNV-1a over the protocol version and every
/// payload struct's size. Two builds agree exactly when their wire formats
/// are byte-compatible; anything else is refused at kHello.
std::uint64_t wire_format_hash();

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<char> payload;
};

/// Frames `payload` into header + bytes, ready to write to the socket.
std::string encode_frame(FrameType type, const void* payload, std::size_t n);
inline std::string encode_frame(FrameType type, std::string_view payload) {
  return encode_frame(type, payload.data(), payload.size());
}
template <typename T>
std::string encode_struct(FrameType type, const T& t) {
  static_assert(std::is_trivially_copyable_v<T>);
  return encode_frame(type, &t, sizeof t);
}
/// kReject / kError: TextInfo + the reason/message tail in one frame.
std::string encode_text_frame(FrameType type, std::uint64_t request_id,
                              std::uint32_t retry_after_ms,
                              std::string_view text);

/// Copies the frame's fixed payload prefix into `out`; false when the
/// payload is shorter than the struct.
template <typename T>
bool read_struct(const Frame& f, T& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (f.payload.size() < sizeof out) return false;
  std::memcpy(&out, f.payload.data(), sizeof out);
  return true;
}
/// Decodes a kReject/kError frame; false on a malformed payload.
bool read_text_frame(const Frame& f, TextInfo& info, std::string& text);

/// Incremental frame decoder: feed() raw socket bytes, pull frames with
/// next(). A framing violation (bad magic, unknown type, oversize length
/// prefix, payload CRC mismatch) poisons the stream: next() returns kBad
/// with error() set, now and forever — the caller must drop the connection,
/// exactly as the journal replay stops at its first garbled frame.
class Decoder {
 public:
  enum class Status { kFrame, kNeedMore, kBad };

  void feed(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  Status next(Frame& out);
  const std::string& error() const { return error_; }
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  std::string error_;
  bool bad_ = false;
};

}  // namespace ecms::serve
