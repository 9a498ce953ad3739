#include "net/fragment.h"

#include <algorithm>

namespace tcpdemux::net {

std::vector<std::vector<std::uint8_t>> fragment_packet(
    std::span<const std::uint8_t> wire, std::size_t mtu) {
  const auto header = Ipv4Header::parse(wire);
  if (!header) return {};
  if (header->total_length <= mtu) {
    return {std::vector<std::uint8_t>(wire.begin(),
                                      wire.begin() + header->total_length)};
  }
  if (header->dont_fragment) return {};
  // Every non-final fragment's payload must be a multiple of 8 bytes.
  if (mtu < Ipv4Header::kSize + 8) return {};
  const std::size_t chunk = ((mtu - Ipv4Header::kSize) / 8) * 8;

  const std::span<const std::uint8_t> payload =
      wire.subspan(Ipv4Header::kSize, header->total_length - Ipv4Header::kSize);

  std::vector<std::vector<std::uint8_t>> fragments;
  for (std::size_t start = 0; start < payload.size(); start += chunk) {
    const std::size_t len = std::min(chunk, payload.size() - start);
    const bool last = start + len == payload.size();

    Ipv4Header h = *header;
    h.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + len);
    h.fragment_offset =
        static_cast<std::uint16_t>(header->fragment_offset + start / 8);
    // All but the last new fragment have MF; the last inherits the
    // original's MF (we may be re-fragmenting a middle fragment).
    h.more_fragments = last ? header->more_fragments : true;

    std::vector<std::uint8_t> out(h.total_length);
    h.serialize(out);
    std::copy_n(payload.begin() + static_cast<std::ptrdiff_t>(start), len,
                out.begin() + Ipv4Header::kSize);
    fragments.push_back(std::move(out));
  }
  return fragments;
}

std::optional<std::span<const std::uint8_t>> Reassembler::offer(
    std::span<const std::uint8_t> wire, double now) {
  const auto header = Ipv4Header::parse(wire);
  if (!header) {
    ++rejected_;
    return std::nullopt;
  }
  if (!header->more_fragments && header->fragment_offset == 0) {
    // Whole datagram; nothing to do.
    return wire.subspan(0, header->total_length);
  }

  const DatagramKey key{header->src.value(), header->dst.value(),
                        header->identification, header->protocol};
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    if (pending_.size() >= options_.max_datagrams) {
      ++rejected_;
      return std::nullopt;
    }
    it = pending_.emplace(key, Partial{}).first;
    it->second.first_seen = now;
  }
  Partial& partial = it->second;

  const std::size_t offset = static_cast<std::size_t>(header->fragment_offset) * 8;
  const std::size_t len = header->total_length - Ipv4Header::kSize;
  const std::size_t end = offset + len;
  if (end > options_.max_bytes) {
    ++rejected_;
    pending_.erase(it);  // datagram is hostile or broken: drop it all
    return std::nullopt;
  }

  if (end > partial.present.size()) {
    partial.data.resize(Ipv4Header::kSize + end);
    partial.present.resize(end, false);
  }
  std::copy_n(wire.begin() + Ipv4Header::kSize, len,
              partial.data.begin() +
                  static_cast<std::ptrdiff_t>(Ipv4Header::kSize + offset));
  std::fill_n(partial.present.begin() + static_cast<std::ptrdiff_t>(offset),
              len, true);

  if (header->fragment_offset == 0) partial.header = *header;
  if (!header->more_fragments) partial.total_length = end;

  return try_complete(it);
}

std::optional<std::span<const std::uint8_t>> Reassembler::try_complete(
    std::map<DatagramKey, Partial>::iterator it) {
  Partial& partial = it->second;
  if (partial.total_length == 0 || !partial.header.has_value()) {
    return std::nullopt;
  }
  if (partial.present.size() < partial.total_length) return std::nullopt;
  for (std::size_t i = 0; i < partial.total_length; ++i) {
    if (!partial.present[i]) return std::nullopt;
  }

  Ipv4Header h = *partial.header;
  h.more_fragments = false;
  h.fragment_offset = 0;
  h.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kSize + partial.total_length);

  // The payload is already in place behind the header slot: fill the slot
  // and hand the buffer over instead of copying it.
  assembled_ = std::move(partial.data);
  pending_.erase(it);
  assembled_.resize(h.total_length);
  h.serialize(assembled_);
  return std::span<const std::uint8_t>(assembled_);
}

std::size_t Reassembler::expire(double now) {
  std::size_t dropped = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.first_seen > options_.timeout) {
      it = pending_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace tcpdemux::net
