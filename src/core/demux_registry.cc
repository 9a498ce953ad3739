#include "core/demux_registry.h"

#include <charconv>
#include <vector>

#include "core/bsd_list.h"
#include "core/connection_id.h"
#include "core/hashed_mtf.h"
#include "core/move_to_front.h"
#include "core/rcu_demuxer.h"
#include "core/send_receive_cache.h"
#include "core/sequent_hash.h"
#include "core/sharded_demuxer.h"

namespace tcpdemux::core {
namespace {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

std::optional<std::uint32_t> parse_u32(std::string_view s) {
  std::uint32_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

std::unique_ptr<Demuxer> make_demuxer(const DemuxConfig& config) {
  switch (config.algorithm) {
    case Algorithm::kBsd:
      return std::make_unique<BsdListDemuxer>();
    case Algorithm::kMtf:
      return std::make_unique<MoveToFrontDemuxer>();
    case Algorithm::kSrCache:
      return std::make_unique<SendReceiveCacheDemuxer>();
    case Algorithm::kSequent:
    case Algorithm::kDynamic:  // the Sequent table with growth switched on
      return std::make_unique<SequentDemuxer>(SequentDemuxer::Options{
          config.chains, config.hasher, config.per_chain_cache,
          config.rehash_on_overload, config.max_pcbs,
          /*grow=*/config.algorithm == Algorithm::kDynamic});
    case Algorithm::kHashedMtf:
      return std::make_unique<HashedMtfDemuxer>(
          HashedMtfDemuxer::Options{config.chains, config.hasher.kind});
    case Algorithm::kConnectionId:
      return std::make_unique<ConnectionIdDemuxer>(config.id_capacity);
    case Algorithm::kRcu:
      return std::make_unique<RcuDemuxerAdapter>(RcuSequentDemuxer::Options{
          config.chains, config.hasher, config.per_chain_cache});
    case Algorithm::kSharded: {
      const auto inner = parse_demux_spec(config.inner_spec);
      if (!inner) return nullptr;  // parse_demux_spec validated it already
      return std::make_unique<ShardedDemuxer>(
          ShardedDemuxer::Options{config.shards, *inner});
    }
  }
  return nullptr;
}

std::optional<net::HasherKind> parse_hasher_name(std::string_view name) {
  for (const net::HasherKind kind : net::kAllHashers) {
    if (net::hasher_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::optional<net::HashSpec> parse_hash_spec_token(std::string_view token) {
  const std::size_t at = token.find('@');
  const auto kind = parse_hasher_name(token.substr(0, at));
  if (!kind) return std::nullopt;
  std::uint32_t seed = 0;
  if (at != std::string_view::npos) {
    const std::string_view hex = token.substr(at + 1);
    if (hex.empty() || hex.size() > 8) return std::nullopt;
    const auto [ptr, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), seed, 16);
    if (ec != std::errc{} || ptr != hex.data() + hex.size()) {
      return std::nullopt;
    }
  }
  return net::HashSpec{*kind, seed};
}

std::string_view algorithm_name(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kBsd: return "bsd";
    case Algorithm::kMtf: return "mtf";
    case Algorithm::kSrCache: return "srcache";
    case Algorithm::kSequent: return "sequent";
    case Algorithm::kHashedMtf: return "hashed_mtf";
    case Algorithm::kConnectionId: return "connection_id";
    case Algorithm::kDynamic: return "dynamic";
    case Algorithm::kRcu: return "rcu";
    case Algorithm::kSharded: return "sharded";
  }
  return "?";
}

namespace {

// Error-channel helper: writes the reason (when the caller wants one) and
// yields the parse failure in one expression.
std::optional<DemuxConfig> fail(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
  return std::nullopt;
}

std::string quoted(std::string_view tok) {
  std::string out = "'";
  out += tok;
  out += "'";
  return out;
}

}  // namespace

std::optional<DemuxConfig> parse_demux_spec(std::string_view spec) {
  return parse_demux_spec(spec, nullptr);
}

std::optional<DemuxConfig> parse_demux_spec(std::string_view spec,
                                            std::string* error) {
  DemuxConfig config;

  // "sharded:N:<inner-spec>" nests a whole spec after the second ':', so it
  // is carved off before the flat token split below.
  constexpr std::string_view kSharded = "sharded";
  if (spec == kSharded || spec.substr(0, kSharded.size() + 1) == "sharded:") {
    if (spec.size() <= kSharded.size() + 1) {
      return fail(error, "sharded needs 'sharded:N:<inner-spec>'");
    }
    const std::string_view rest = spec.substr(kSharded.size() + 1);
    const std::size_t colon = rest.find(':');
    if (colon == std::string_view::npos) {
      return fail(error, "sharded needs 'sharded:N:<inner-spec>'");
    }
    const std::string_view count_tok = rest.substr(0, colon);
    const std::string_view inner = rest.substr(colon + 1);
    const auto shards = parse_u32(count_tok);
    if (!shards || *shards == 0) {
      return fail(error, "bad shard count " + quoted(count_tok) +
                             " (want an integer >= 1)");
    }
    if (inner.substr(0, kSharded.size()) == kSharded) {
      return fail(error, "sharded cannot nest another sharded spec");
    }
    if (!parse_demux_spec(inner, error)) {
      if (error != nullptr) {
        *error = "bad inner spec " + quoted(inner) +
                 (error->empty() ? "" : ": " + *error);
      }
      return std::nullopt;
    }
    config.algorithm = Algorithm::kSharded;
    config.shards = *shards;
    config.inner_spec = std::string(inner);
    return config;
  }

  const auto parts = split(spec, ':');
  const std::string_view head = parts[0];
  if (head == "bsd") {
    config.algorithm = Algorithm::kBsd;
  } else if (head == "mtf") {
    config.algorithm = Algorithm::kMtf;
  } else if (head == "srcache") {
    config.algorithm = Algorithm::kSrCache;
  } else if (head == "sequent") {
    config.algorithm = Algorithm::kSequent;
  } else if (head == "hashed_mtf") {
    config.algorithm = Algorithm::kHashedMtf;
  } else if (head == "connection_id") {
    config.algorithm = Algorithm::kConnectionId;
  } else if (head == "dynamic") {
    config.algorithm = Algorithm::kDynamic;
  } else if (head == "rcu") {
    config.algorithm = Algorithm::kRcu;
  } else {
    return fail(error, "unknown algorithm " + quoted(head));
  }

  if (config.algorithm == Algorithm::kConnectionId) {
    if (parts.size() > 2) {
      return fail(error, "connection_id takes at most one ':capacity' token");
    }
    if (parts.size() == 2) {
      const auto capacity = parse_u32(parts[1]);
      if (!capacity || *capacity == 0) {
        return fail(error, "bad connection_id capacity " + quoted(parts[1]));
      }
      config.id_capacity = *capacity;
    }
    return config;
  }

  const bool takes_chains = config.algorithm == Algorithm::kSequent ||
                            config.algorithm == Algorithm::kHashedMtf ||
                            config.algorithm == Algorithm::kDynamic ||
                            config.algorithm == Algorithm::kRcu;
  if (parts.size() > 1 && !takes_chains) {
    return fail(error,
                std::string(head) + " takes no ':' parameters");
  }

  // One pass over the remaining tokens. The numeric count is positional
  // (directly after the algorithm name); the hasher token and the option
  // tokens may follow in any order, each at most once — duplicates and
  // conflicts are named errors, never silent last-wins.
  const bool cacheable = config.algorithm == Algorithm::kSequent ||
                         config.algorithm == Algorithm::kRcu;
  const bool rehashable = config.algorithm == Algorithm::kSequent;
  const bool cappable = config.algorithm == Algorithm::kSequent ||
                        config.algorithm == Algorithm::kDynamic;
  bool saw_hasher = false;
  bool saw_nocache = false;
  bool saw_rehash = false;
  bool saw_max = false;
  for (std::size_t idx = 1; idx < parts.size(); ++idx) {
    const std::string_view tok = parts[idx];
    if (const auto count = parse_u32(tok)) {
      if (idx != 1) {
        return fail(error, "count token " + quoted(tok) +
                               " must come directly after the algorithm name");
      }
      if (*count == 0) {
        return fail(error, "count must be >= 1");
      }
      config.chains = *count;
      continue;
    }
    if (const auto hs = parse_hash_spec_token(tok)) {
      if (saw_hasher) {
        return fail(error, "duplicate hasher token " + quoted(tok));
      }
      // hashed_mtf is a frozen paper strawman: it stays unkeyed.
      if (hs->seed != 0 && config.algorithm == Algorithm::kHashedMtf) {
        return fail(error, "hashed_mtf does not take a keyed hasher (" +
                               quoted(tok) + ")");
      }
      config.hasher = *hs;
      saw_hasher = true;
      continue;
    }
    // A hasher name with a mangled seed suffix ("crc32@1f@2e", "crc32@",
    // 9+ hex digits) deserves a precise diagnosis, not "unknown token".
    if (const std::size_t at = tok.find('@');
        at != std::string_view::npos &&
        parse_hasher_name(tok.substr(0, at)).has_value()) {
      return fail(error, "bad seed suffix in " + quoted(tok) +
                             " (want one '@' and 1-8 hex digits)");
    }
    if (tok == "nocache") {
      if (!cacheable) {
        return fail(error, "'nocache' is not supported by " +
                               std::string(algorithm_name(config.algorithm)));
      }
      if (saw_nocache) return fail(error, "duplicate 'nocache' token");
      config.per_chain_cache = false;
      saw_nocache = true;
    } else if (tok == "rehash") {
      if (!rehashable) {
        return fail(error, "'rehash' is not supported by " +
                               std::string(algorithm_name(config.algorithm)));
      }
      if (saw_rehash) return fail(error, "duplicate 'rehash' token");
      config.rehash_on_overload = true;
      saw_rehash = true;
    } else if (tok.substr(0, 4) == "max=") {
      if (!cappable) {
        return fail(error, "'max=N' is not supported by " +
                               std::string(algorithm_name(config.algorithm)));
      }
      if (saw_max) return fail(error, "duplicate 'max=N' token");
      const auto cap = parse_u32(tok.substr(4));
      if (!cap || *cap == 0) {
        return fail(error, "bad cap in " + quoted(tok) +
                               " (want an integer >= 1)");
      }
      config.max_pcbs = *cap;
      saw_max = true;
    } else {
      return fail(error, "unknown token " + quoted(tok));
    }
  }
  return config;
}

}  // namespace tcpdemux::core
