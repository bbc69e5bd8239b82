/// \file protocol.cpp
/// \brief Implementation of the frame codec (see protocol.hpp for layout).

#include "server/protocol.hpp"

#include <cstring>

namespace ccc::server {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// Little-endian stores into already-sized storage; compilers fold each
/// into one store.
void store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void store_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    static_cast<std::uint16_t>(p[1]) << 8);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void put_prefix(std::string& out, std::uint32_t body_bytes, std::uint8_t code) {
  put_u32(out, static_cast<std::uint32_t>(kFramePrefixBytes) + body_bytes);
  put_u32(out, kMagic);
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(code));
  put_u16(out, 0);  // reserved
}

}  // namespace

FrameDecoder::FrameDecoder(std::size_t max_body_bytes)
    : max_body_bytes_(max_body_bytes) {}

DecodeError FrameDecoder::feed(std::span<const std::uint8_t> bytes,
                               const Sink& sink) {
  if (error_ != DecodeError::kNone) return error_;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());

  while (true) {
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < 4) break;
    const std::uint8_t* base = buffer_.data() + consumed_;
    const std::uint32_t length = get_u32(base);
    // The length field is validated before waiting for the frame: a
    // poisoned length must not make the decoder buffer (or wait for)
    // gigabytes that will never be accepted.
    if (length < kFramePrefixBytes) {
      error_ = DecodeError::kBadLength;
      return error_;
    }
    if (length - kFramePrefixBytes > max_body_bytes_) {
      error_ = DecodeError::kOversized;
      return error_;
    }
    if (avail < 4 + static_cast<std::size_t>(length)) break;
    if (get_u32(base + 4) != kMagic) {
      error_ = DecodeError::kBadMagic;
      return error_;
    }
    if (base[8] != kVersion) {
      error_ = DecodeError::kBadVersion;
      return error_;
    }
    if (get_u16(base + 10) != 0) {
      error_ = DecodeError::kBadReserved;
      return error_;
    }
    FrameView frame;
    frame.code = base[9];
    frame.body = std::span<const std::uint8_t>(
        base + 4 + kFramePrefixBytes, length - kFramePrefixBytes);
    sink(frame);
    consumed_ += 4 + static_cast<std::size_t>(length);
  }

  // Compact once the emitted prefix dominates the buffer, so a long-lived
  // pipelined connection costs amortized O(bytes), not O(bytes²).
  if (consumed_ > 0 && (consumed_ >= buffer_.size() || consumed_ > 64 * 1024)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return DecodeError::kNone;
}

DecodeError FrameDecoder::feed(std::string_view bytes, const Sink& sink) {
  return feed(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(bytes.data()),
                  bytes.size()),
              sink);
}

void append_request(std::string& out, Opcode opcode, TenantId tenant,
                    PageId page) {
  put_prefix(out, static_cast<std::uint32_t>(kRequestBodyBytes),
             static_cast<std::uint8_t>(opcode));
  put_u32(out, tenant);
  put_u64(out, page);
}

void append_response(std::string& out, Status status, std::uint64_t value,
                     std::span<const std::uint8_t> tail) {
  // The fixed part (length, prefix, value) is one resize and five stores,
  // not a push_back per byte: every GET/SET answer is exactly this part.
  constexpr std::size_t kFixed = 4 + kFramePrefixBytes + kResponseBodyBytes;
  const std::size_t at = out.size();
  out.resize(at + kFixed);
  char* p = out.data() + at;
  store_u32(p, static_cast<std::uint32_t>(kFramePrefixBytes +
                                          kResponseBodyBytes + tail.size()));
  store_u32(p + 4, kMagic);
  p[8] = static_cast<char>(kVersion);
  p[9] = static_cast<char>(status);
  p[10] = 0;  // reserved (u16)
  p[11] = 0;
  store_u64(p + 12, value);
  out.append(reinterpret_cast<const char*>(tail.data()), tail.size());
}

void append_stats_body(std::string& out, const StatsPayload& stats) {
  put_u32(out, stats.num_tenants);
  put_u32(out, stats.num_shards);
  put_u64(out, stats.capacity);
  put_u64(out, stats.lockfree_hits);
  for (std::uint32_t t = 0; t < stats.num_tenants; ++t) {
    put_u64(out, stats.hits[t]);
    put_u64(out, stats.misses[t]);
    put_u64(out, stats.evictions[t]);
  }
}

std::optional<RequestMsg> parse_request(const FrameView& frame) {
  if (frame.body.size() != kRequestBodyBytes) return std::nullopt;
  RequestMsg msg;
  msg.opcode = frame.code;
  msg.tenant = get_u32(frame.body.data());
  msg.page = get_u64(frame.body.data() + 4);
  return msg;
}

std::optional<ResponseMsg> parse_response(const FrameView& frame) {
  if (frame.body.size() < kResponseBodyBytes) return std::nullopt;
  ResponseMsg msg;
  msg.status = frame.code;
  msg.value = get_u64(frame.body.data());
  msg.tail = frame.body.subspan(kResponseBodyBytes);
  return msg;
}

std::optional<StatsPayload> parse_stats_body(
    std::span<const std::uint8_t> tail) {
  constexpr std::size_t kHeader = 4 + 4 + 8 + 8;
  if (tail.size() < kHeader) return std::nullopt;
  StatsPayload stats;
  stats.num_tenants = get_u32(tail.data());
  stats.num_shards = get_u32(tail.data() + 4);
  stats.capacity = get_u64(tail.data() + 8);
  stats.lockfree_hits = get_u64(tail.data() + 16);
  const std::size_t expected =
      kHeader + std::size_t{24} * stats.num_tenants;
  if (tail.size() != expected) return std::nullopt;
  stats.hits.resize(stats.num_tenants);
  stats.misses.resize(stats.num_tenants);
  stats.evictions.resize(stats.num_tenants);
  const std::uint8_t* p = tail.data() + kHeader;
  for (std::uint32_t t = 0; t < stats.num_tenants; ++t) {
    stats.hits[t] = get_u64(p);
    stats.misses[t] = get_u64(p + 8);
    stats.evictions[t] = get_u64(p + 16);
    p += 24;
  }
  return stats;
}

}  // namespace ccc::server
