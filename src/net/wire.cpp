#include "net/wire.hpp"

#include <utility>

#include "store/crc32c.hpp"
#include "store/format.hpp"
#include "util/checked_cast.hpp"

namespace moloc::net {

namespace {

using store::detail::Cursor;
using store::detail::putF64;
using store::detail::putI32;
using store::detail::putU32;
using store::detail::putU64;
using store::detail::putU8;

/// Re-types a Cursor overrun (store::CorruptionError) and any domain
/// validation rejecting decoded values (std::invalid_argument — e.g. a
/// non-positive IMU sample rate on the wire) into the net layer's
/// fault taxonomy, so callers only ever catch ProtocolError.
template <typename Fn>
auto guarded(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const store::CorruptionError& e) {
    throw ProtocolError(WireFault::kMalformedPayload, e.what());
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(WireFault::kMalformedPayload, e.what());
  }
}

/// Rejects a count field that promises more elements than the payload
/// could possibly hold, before any allocation sized by it.
void checkCount(const Cursor& cursor, std::uint32_t count,
                std::size_t minBytesPerElement) {
  if (static_cast<std::uint64_t>(count) * minBytesPerElement >
      cursor.remaining())
    throw ProtocolError(WireFault::kMalformedPayload,
                        "count field " + std::to_string(count) +
                            " exceeds payload capacity");
}

/// An empty payload with room for exactly `bytes`: each encoder sums
/// its message's encoded size first, so the put* calls never regrow it.
std::string payloadOf(std::size_t bytes) {
  std::string payload;
  payload.reserve(bytes);
  return payload;
}

void putString(std::string& out, std::string_view s) {
  putU32(out, util::checkedU32(s.size(), "string length"));
  out.append(s.data(), s.size());
}

std::string readString(Cursor& cursor) {
  const std::uint32_t n = cursor.readU32();
  checkCount(cursor, n, 1);
  std::string s(n, '\0');
  if (n > 0) cursor.readBytes(s.data(), n);
  return s;
}

std::size_t scanBytes(const WireScan& s) {
  return 8 + 4 + 8 * s.scan.values().size() + 8 + 4 + 32 * s.imu.size();
}

void putScan(std::string& out, const WireScan& s) {
  putU64(out, s.sessionId);
  const auto values = s.scan.values();
  putU32(out, util::checkedU32(values.size(), "scan RSS count"));
  for (const double v : values) putF64(out, v);
  putF64(out, s.imu.sampleRateHz());
  const auto samples = s.imu.samples();
  putU32(out, util::checkedU32(samples.size(), "IMU sample count"));
  for (const auto& sample : samples) {
    putF64(out, sample.t);
    putF64(out, sample.accelMagnitude);
    putF64(out, sample.compassDeg);
    putF64(out, sample.gyroRateDegPerSec);
  }
}

WireScan readScan(Cursor& cursor) {
  WireScan s;
  s.sessionId = cursor.readU64();
  const std::uint32_t apCount = cursor.readU32();
  checkCount(cursor, apCount, 8);
  std::vector<double> rss;
  rss.reserve(apCount);
  for (std::uint32_t i = 0; i < apCount; ++i) rss.push_back(cursor.readF64());
  s.scan = radio::Fingerprint(std::move(rss));
  const double rateHz = cursor.readF64();
  s.imu = sensors::ImuTrace(rateHz);
  const std::uint32_t sampleCount = cursor.readU32();
  checkCount(cursor, sampleCount, 32);
  s.imu.reserve(sampleCount);
  for (std::uint32_t i = 0; i < sampleCount; ++i) {
    sensors::ImuSample sample;
    sample.t = cursor.readF64();
    sample.accelMagnitude = cursor.readF64();
    sample.compassDeg = cursor.readF64();
    sample.gyroRateDegPerSec = cursor.readF64();
    s.imu.append(sample);
  }
  return s;
}

std::size_t estimateBytes(const core::LocationEstimate& e) {
  return 4 + 8 + 4 + 12 * e.candidates.size();
}

void putEstimate(std::string& out, const core::LocationEstimate& e) {
  putI32(out, e.location);
  putF64(out, e.probability);
  putU32(out, util::checkedU32(e.candidates.size(), "candidate count"));
  for (const auto& c : e.candidates) {
    putI32(out, c.location);
    putF64(out, c.probability);
  }
}

core::LocationEstimate readEstimate(Cursor& cursor) {
  core::LocationEstimate e;
  e.location = cursor.readI32();
  e.probability = cursor.readF64();
  const std::uint32_t k = cursor.readU32();
  checkCount(cursor, k, 12);
  e.candidates.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    core::WeightedCandidate c;
    c.location = cursor.readI32();
    c.probability = cursor.readF64();
    e.candidates.push_back(c);
  }
  return e;
}

Status readStatus(Cursor& cursor) {
  const std::uint8_t raw = cursor.readU8();
  if (raw > static_cast<std::uint8_t>(Status::kInternalError))
    throw ProtocolError(WireFault::kMalformedPayload,
                        "unknown status byte " + std::to_string(raw));
  return static_cast<Status>(raw);
}

/// A response's encoded size: the head, then the kOk body (`okBody`
/// bytes) or the error message.
std::size_t responseBytes(Status status, std::string_view message,
                          std::size_t okBody) {
  return 8 + 1 + (status == Status::kOk ? okBody : 4 + message.size());
}

/// Shared response prologue: echoed tag + status, then the error
/// message when the status is not kOk.  Returns whether a kOk body
/// follows.
bool putResponseHead(std::string& out, std::uint64_t tag, Status status,
                     std::string_view message) {
  putU64(out, tag);
  putU8(out, static_cast<std::uint8_t>(status));
  if (status == Status::kOk) return true;
  putString(out, message);
  return false;
}

/// The payload was fully consumed; trailing garbage is damage.
void expectEnd(const Cursor& cursor) {
  if (cursor.remaining() != 0)
    throw ProtocolError(WireFault::kMalformedPayload,
                        std::to_string(cursor.remaining()) +
                            " trailing bytes after message body");
}

}  // namespace

bool isKnownMsgType(std::uint8_t raw) {
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kLocalize:
    case MsgType::kLocalizeBatch:
    case MsgType::kReportObservation:
    case MsgType::kFlush:
    case MsgType::kStats:
    case MsgType::kLocalizeResponse:
    case MsgType::kLocalizeBatchResponse:
    case MsgType::kReportObservationResponse:
    case MsgType::kFlushResponse:
    case MsgType::kStatsResponse:
      return true;
  }
  return false;
}

std::string encodeFrame(MsgType type, std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes)
    throw ProtocolError(WireFault::kOversizedPayload,
                        "payload of " + std::to_string(payload.size()) +
                            " bytes exceeds the frame bound");
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size() + kTrailerBytes);
  putU32(frame, kMagic);
  putU8(frame, kWireVersion);
  putU8(frame, static_cast<std::uint8_t>(type));
  putU8(frame, 0);
  putU8(frame, 0);
  putU32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload.data(), payload.size());
  // The CRC covers version..payload: the magic is the resync anchor,
  // everything after it is integrity-checked (same split as the WAL's
  // length-outside / body-inside framing).
  const std::uint32_t crc =
      store::crc32c(frame.data() + 4, frame.size() - 4);
  putU32(frame, crc);
  return frame;
}

void FrameAssembler::feed(const char* data, std::size_t size) {
  // Reclaim consumed prefix before growing, so a long-lived connection
  // never accumulates dead bytes.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ >= 4096) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

bool FrameAssembler::next(Frame& out) {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kHeaderBytes) return false;
  Cursor header(buffer_.data() + consumed_, kHeaderBytes);
  const std::uint32_t magic = header.readU32();
  if (magic != kMagic)
    throw ProtocolError(WireFault::kBadMagic, "bad frame magic");
  const std::uint8_t version = header.readU8();
  if (version != kWireVersion)
    throw ProtocolError(WireFault::kBadVersion,
                        "unsupported wire version " +
                            std::to_string(version));
  const std::uint8_t rawType = header.readU8();
  if (!isKnownMsgType(rawType))
    throw ProtocolError(WireFault::kBadType, "unknown message type " +
                                                 std::to_string(rawType));
  // The spec reserves these two bytes as zero; enforcing that here
  // keeps any future use of them unambiguous (a v1 sender can never
  // have put meaning into them).
  if (header.readU8() != 0 || header.readU8() != 0)
    throw ProtocolError(WireFault::kMalformedPayload,
                        "nonzero reserved header bytes");
  const std::uint32_t payloadLen = header.readU32();
  if (payloadLen > kMaxPayloadBytes)
    throw ProtocolError(WireFault::kOversizedPayload,
                        "frame payload length " +
                            std::to_string(payloadLen) +
                            " exceeds the frame bound");
  const std::size_t frameBytes =
      kHeaderBytes + static_cast<std::size_t>(payloadLen) + kTrailerBytes;
  if (available < frameBytes) return false;
  const char* frame = buffer_.data() + consumed_;
  const std::uint32_t expected =
      store::crc32c(frame + 4, kHeaderBytes - 4 + payloadLen);
  Cursor trailer(frame + kHeaderBytes + payloadLen, kTrailerBytes);
  if (trailer.readU32() != expected)
    throw ProtocolError(WireFault::kBadCrc, "frame CRC mismatch");
  out.type = static_cast<MsgType>(rawType);
  out.payload.assign(frame + kHeaderBytes, payloadLen);
  consumed_ += frameBytes;
  return true;
}

// ---- Requests ---------------------------------------------------------

std::string encodeLocalizeRequest(const LocalizeRequest& msg) {
  std::string payload = payloadOf(8 + scanBytes(msg.scan));
  putU64(payload, msg.tag);
  putScan(payload, msg.scan);
  return encodeFrame(MsgType::kLocalize, payload);
}

LocalizeRequest decodeLocalizeRequest(std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    LocalizeRequest msg;
    msg.tag = cursor.readU64();
    msg.scan = readScan(cursor);
    expectEnd(cursor);
    return msg;
  });
}

std::string encodeLocalizeBatchRequest(const LocalizeBatchRequest& msg) {
  std::size_t bytes = 8 + 4;
  for (const auto& scan : msg.scans) bytes += scanBytes(scan);
  std::string payload = payloadOf(bytes);
  putU64(payload, msg.tag);
  putU32(payload, util::checkedU32(msg.scans.size(), "batch scan count"));
  for (const auto& scan : msg.scans) putScan(payload, scan);
  return encodeFrame(MsgType::kLocalizeBatch, payload);
}

LocalizeBatchRequest decodeLocalizeBatchRequest(std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    LocalizeBatchRequest msg;
    msg.tag = cursor.readU64();
    const std::uint32_t count = cursor.readU32();
    checkCount(cursor, count, 24);
    msg.scans.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
      msg.scans.push_back(readScan(cursor));
    expectEnd(cursor);
    return msg;
  });
}

std::string encodeReportObservationRequest(
    const ReportObservationRequest& msg) {
  std::string payload = payloadOf(8 + 4 + 4 + 8 + 8);
  putU64(payload, msg.tag);
  putI32(payload, msg.start);
  putI32(payload, msg.end);
  putF64(payload, msg.directionDeg);
  putF64(payload, msg.offsetMeters);
  return encodeFrame(MsgType::kReportObservation, payload);
}

ReportObservationRequest decodeReportObservationRequest(
    std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    ReportObservationRequest msg;
    msg.tag = cursor.readU64();
    msg.start = cursor.readI32();
    msg.end = cursor.readI32();
    msg.directionDeg = cursor.readF64();
    msg.offsetMeters = cursor.readF64();
    expectEnd(cursor);
    return msg;
  });
}

std::string encodeFlushRequest(const FlushRequest& msg) {
  std::string payload = payloadOf(8);
  putU64(payload, msg.tag);
  return encodeFrame(MsgType::kFlush, payload);
}

FlushRequest decodeFlushRequest(std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    FlushRequest msg;
    msg.tag = cursor.readU64();
    expectEnd(cursor);
    return msg;
  });
}

std::string encodeStatsRequest(const StatsRequest& msg) {
  std::string payload = payloadOf(8);
  putU64(payload, msg.tag);
  return encodeFrame(MsgType::kStats, payload);
}

StatsRequest decodeStatsRequest(std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    StatsRequest msg;
    msg.tag = cursor.readU64();
    expectEnd(cursor);
    return msg;
  });
}

// ---- Responses --------------------------------------------------------

std::string encodeLocalizeResponse(const LocalizeResponse& msg) {
  std::string payload = payloadOf(
      responseBytes(msg.status, msg.message, estimateBytes(msg.estimate)));
  if (putResponseHead(payload, msg.tag, msg.status, msg.message))
    putEstimate(payload, msg.estimate);
  return encodeFrame(MsgType::kLocalizeResponse, payload);
}

LocalizeResponse decodeLocalizeResponse(std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    LocalizeResponse msg;
    msg.tag = cursor.readU64();
    msg.status = readStatus(cursor);
    if (msg.status == Status::kOk)
      msg.estimate = readEstimate(cursor);
    else
      msg.message = readString(cursor);
    expectEnd(cursor);
    return msg;
  });
}

std::string encodeLocalizeBatchResponse(const LocalizeBatchResponse& msg) {
  std::size_t body = 4;
  for (const auto& e : msg.estimates) body += estimateBytes(e);
  std::string payload =
      payloadOf(responseBytes(msg.status, msg.message, body));
  if (putResponseHead(payload, msg.tag, msg.status, msg.message)) {
    putU32(payload,
           util::checkedU32(msg.estimates.size(), "batch estimate count"));
    for (const auto& e : msg.estimates) putEstimate(payload, e);
  }
  return encodeFrame(MsgType::kLocalizeBatchResponse, payload);
}

LocalizeBatchResponse decodeLocalizeBatchResponse(std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    LocalizeBatchResponse msg;
    msg.tag = cursor.readU64();
    msg.status = readStatus(cursor);
    if (msg.status == Status::kOk) {
      const std::uint32_t count = cursor.readU32();
      checkCount(cursor, count, 16);
      msg.estimates.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i)
        msg.estimates.push_back(readEstimate(cursor));
    } else {
      msg.message = readString(cursor);
    }
    expectEnd(cursor);
    return msg;
  });
}

std::string encodeReportObservationResponse(
    const ReportObservationResponse& msg) {
  std::string payload = payloadOf(responseBytes(msg.status, msg.message, 1));
  if (putResponseHead(payload, msg.tag, msg.status, msg.message))
    putU8(payload, msg.accepted ? 1 : 0);
  return encodeFrame(MsgType::kReportObservationResponse, payload);
}

ReportObservationResponse decodeReportObservationResponse(
    std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    ReportObservationResponse msg;
    msg.tag = cursor.readU64();
    msg.status = readStatus(cursor);
    if (msg.status == Status::kOk)
      msg.accepted = cursor.readU8() != 0;
    else
      msg.message = readString(cursor);
    expectEnd(cursor);
    return msg;
  });
}

std::string encodeFlushResponse(const FlushResponse& msg) {
  std::string payload = payloadOf(responseBytes(msg.status, msg.message, 0));
  putResponseHead(payload, msg.tag, msg.status, msg.message);
  return encodeFrame(MsgType::kFlushResponse, payload);
}

FlushResponse decodeFlushResponse(std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    FlushResponse msg;
    msg.tag = cursor.readU64();
    msg.status = readStatus(cursor);
    if (msg.status != Status::kOk) msg.message = readString(cursor);
    expectEnd(cursor);
    return msg;
  });
}

std::string encodeStatsResponse(const StatsResponse& msg) {
  std::string payload =
      payloadOf(responseBytes(msg.status, msg.message, 8 * 8));
  if (putResponseHead(payload, msg.tag, msg.status, msg.message)) {
    putU64(payload, msg.stats.sessions);
    putU64(payload, msg.stats.worldGeneration);
    putU64(payload, msg.stats.intakeApplied);
    putU64(payload, msg.stats.requestsServed);
    putU64(payload, msg.stats.connectionsAccepted);
    putU64(payload, msg.stats.cleanDisconnects);
    putU64(payload, msg.stats.overloadRejections);
    putU64(payload, msg.stats.protocolErrors);
  }
  return encodeFrame(MsgType::kStatsResponse, payload);
}

StatsResponse decodeStatsResponse(std::string_view payload) {
  return guarded([&] {
    Cursor cursor(payload.data(), payload.size());
    StatsResponse msg;
    msg.tag = cursor.readU64();
    msg.status = readStatus(cursor);
    if (msg.status == Status::kOk) {
      msg.stats.sessions = cursor.readU64();
      msg.stats.worldGeneration = cursor.readU64();
      msg.stats.intakeApplied = cursor.readU64();
      msg.stats.requestsServed = cursor.readU64();
      msg.stats.connectionsAccepted = cursor.readU64();
      msg.stats.cleanDisconnects = cursor.readU64();
      msg.stats.overloadRejections = cursor.readU64();
      msg.stats.protocolErrors = cursor.readU64();
    } else {
      msg.message = readString(cursor);
    }
    expectEnd(cursor);
    return msg;
  });
}

}  // namespace moloc::net
