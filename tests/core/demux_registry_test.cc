#include "core/demux_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace tcpdemux::core {
namespace {

TEST(Registry, MakesEveryAlgorithm) {
  for (const Algorithm algo :
       {Algorithm::kBsd, Algorithm::kMtf, Algorithm::kSrCache,
        Algorithm::kSequent, Algorithm::kHashedMtf,
        Algorithm::kConnectionId, Algorithm::kDynamic, Algorithm::kRcu}) {
    DemuxConfig config;
    config.algorithm = algo;
    const auto d = make_demuxer(config);
    ASSERT_NE(d, nullptr) << algorithm_name(algo);
    EXPECT_EQ(d->size(), 0u);
  }
}

TEST(Registry, ParseSimpleNames) {
  for (const auto& [spec, algo] :
       std::initializer_list<std::pair<const char*, Algorithm>>{
           {"bsd", Algorithm::kBsd},
           {"mtf", Algorithm::kMtf},
           {"srcache", Algorithm::kSrCache},
           {"sequent", Algorithm::kSequent},
           {"hashed_mtf", Algorithm::kHashedMtf},
           {"connection_id", Algorithm::kConnectionId},
           {"rcu", Algorithm::kRcu},
           {"dynamic", Algorithm::kDynamic}}) {
    const auto config = parse_demux_spec(spec);
    ASSERT_TRUE(config.has_value()) << spec;
    EXPECT_EQ(config->algorithm, algo) << spec;
  }
}

TEST(Registry, ParseSequentWithChainsAndHasher) {
  const auto config = parse_demux_spec("sequent:101:crc32");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->algorithm, Algorithm::kSequent);
  EXPECT_EQ(config->chains, 101u);
  EXPECT_EQ(config->hasher, net::HasherKind::kCrc32);
  EXPECT_TRUE(config->per_chain_cache);
}

TEST(Registry, ParseSequentNoCache) {
  const auto config = parse_demux_spec("sequent:19:xor_fold:nocache");
  ASSERT_TRUE(config.has_value());
  EXPECT_FALSE(config->per_chain_cache);
}

TEST(Registry, ParseConnectionIdCapacity) {
  const auto config = parse_demux_spec("connection_id:256");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->algorithm, Algorithm::kConnectionId);
  EXPECT_EQ(config->id_capacity, 256u);
  EXPECT_FALSE(parse_demux_spec("connection_id:0").has_value());
  EXPECT_FALSE(parse_demux_spec("connection_id:abc").has_value());
  EXPECT_FALSE(parse_demux_spec("connection_id:256:extra").has_value());
}

TEST(Registry, ParseRejectsUnknownAlgorithm) {
  EXPECT_FALSE(parse_demux_spec("quantum").has_value());
  EXPECT_FALSE(parse_demux_spec("").has_value());
}

TEST(Registry, ParseRejectsChainsOnNonHashed) {
  EXPECT_FALSE(parse_demux_spec("bsd:19").has_value());
  EXPECT_FALSE(parse_demux_spec("mtf:3").has_value());
}

TEST(Registry, ParseRejectsBadChainCount) {
  EXPECT_FALSE(parse_demux_spec("sequent:0").has_value());
  EXPECT_FALSE(parse_demux_spec("sequent:abc").has_value());
}

TEST(Registry, ParseRejectsBadHasher) {
  EXPECT_FALSE(parse_demux_spec("sequent:19:sha256").has_value());
}

TEST(Registry, ParseRejectsNocacheOnHashedMtf) {
  EXPECT_FALSE(parse_demux_spec("hashed_mtf:19:crc32:nocache").has_value());
}

TEST(Registry, ParseRejectsTrailingGarbage) {
  EXPECT_FALSE(parse_demux_spec("sequent:19:crc32:nocache:extra").has_value());
}

TEST(Registry, ParseHasherNames) {
  for (const net::HasherKind kind : net::kAllHashers) {
    const auto parsed = parse_hasher_name(net::hasher_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_hasher_name("nope").has_value());
}

TEST(Registry, ParseRcuSpec) {
  const auto config = parse_demux_spec("rcu:101:crc32");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->algorithm, Algorithm::kRcu);
  EXPECT_EQ(config->chains, 101u);
  EXPECT_EQ(config->hasher, net::HasherKind::kCrc32);
  const auto d = make_demuxer(*config);
  EXPECT_EQ(d->name(), "rcu(h=101,crc32)");
}

TEST(Registry, ParseRcuNoCache) {
  const auto config = parse_demux_spec("rcu:19:xor_fold:nocache");
  ASSERT_TRUE(config.has_value());
  EXPECT_FALSE(config->per_chain_cache);
  EXPECT_FALSE(parse_demux_spec("rcu:0").has_value());
}

TEST(Registry, ParseDynamicSpec) {
  const auto config = parse_demux_spec("dynamic:41:jenkins");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->algorithm, Algorithm::kDynamic);
  EXPECT_EQ(config->chains, 41u);
  EXPECT_EQ(config->hasher, net::HasherKind::kJenkins);
  const auto d = make_demuxer(*config);
  EXPECT_EQ(d->name(), "dynamic(h=41,jenkins)");
}

TEST(Registry, DynamicDefaultConfig) {
  const auto config = parse_demux_spec("dynamic");
  ASSERT_TRUE(config.has_value());
  const auto d = make_demuxer(*config);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->size(), 0u);
}

TEST(Registry, ConfiguredDemuxerReflectsSpec) {
  const auto config = parse_demux_spec("sequent:31:jenkins");
  ASSERT_TRUE(config.has_value());
  const auto d = make_demuxer(*config);
  EXPECT_EQ(d->name(), "sequent(h=31,jenkins)");
}

// --- grammar hardening: conflicting duplicates are named errors ------------
//
// Nesting specs under "sharded:N:<inner>" makes silent last-wins (or a
// bare nullopt) unacceptable: a typo deep inside a composed spec must
// come back with the offending token named.

std::string parse_error(std::string_view spec) {
  std::string error;
  EXPECT_FALSE(parse_demux_spec(spec, &error).has_value()) << spec;
  return error;
}

TEST(Registry, ParseRejectsDuplicateOptionTokensInEveryFamily) {
  // One duplicated-token probe per option, across the families that
  // accept it; all must fail, none may silently keep either copy.
  EXPECT_FALSE(parse_demux_spec("sequent:19:rehash:rehash").has_value());
  EXPECT_FALSE(parse_demux_spec("sequent:19:max=5:max=9").has_value());
  EXPECT_FALSE(parse_demux_spec("dynamic:5:max=5:max=5").has_value());
  EXPECT_FALSE(parse_demux_spec("dynamic:64:max=100:max=200").has_value());
  EXPECT_FALSE(parse_demux_spec("sequent:rehash:rehash").has_value());
  EXPECT_FALSE(parse_demux_spec("sequent:nocache:nocache").has_value());
  EXPECT_FALSE(parse_demux_spec("rcu:19:nocache:nocache").has_value());
}

TEST(Registry, ParseRejectsBadFlat16AndCuckooSpecs) {
  // The slot tables are gone: the flat table, its 16-slot group-probe
  // variant and the cuckoo table each parse as any other unknown
  // algorithm, with or without tokens, nested under sharded too, with no
  // alias left.
  EXPECT_EQ(parse_error("flat"), "unknown algorithm 'flat'");
  EXPECT_EQ(parse_error("flat:64:crc32"), "unknown algorithm 'flat'");
  const std::string nested_flat = parse_error("sharded:4:flat");
  EXPECT_NE(nested_flat.find("unknown algorithm 'flat'"), std::string::npos)
      << nested_flat;
  EXPECT_EQ(parse_error("flat16"), "unknown algorithm 'flat16'");
  EXPECT_EQ(parse_error("flat16:64:crc32"), "unknown algorithm 'flat16'");
  const std::string nested = parse_error("sharded:4:flat16");
  EXPECT_NE(nested.find("unknown algorithm 'flat16'"), std::string::npos)
      << nested;
  EXPECT_EQ(parse_error("cuckoo"), "unknown algorithm 'cuckoo'");
  EXPECT_EQ(parse_error("cuckoo:64:crc32c"), "unknown algorithm 'cuckoo'");
  const std::string nested_cuckoo = parse_error("sharded:4:cuckoo");
  EXPECT_NE(nested_cuckoo.find("unknown algorithm 'cuckoo'"),
            std::string::npos)
      << nested_cuckoo;
}

TEST(Registry, ParseRejectsDuplicateHasherTokens) {
  EXPECT_FALSE(parse_demux_spec("sequent:19:crc32:jenkins").has_value());
  EXPECT_FALSE(parse_demux_spec("dynamic:64:crc32:crc32").has_value());
  EXPECT_FALSE(parse_demux_spec("sequent:64:crc32c@1:crc32c@2").has_value());
  EXPECT_FALSE(parse_demux_spec("rcu:19:xor_fold:siphash@5eed").has_value());
  EXPECT_EQ(parse_error("dynamic:64:crc32:crc32"),
            "duplicate hasher token 'crc32'");
}

TEST(Registry, ParseRejectsMisplacedCountToken) {
  // The count is positional; a number after a non-count token is a
  // different mistake than an unknown token and says so.
  EXPECT_FALSE(parse_demux_spec("sequent:crc32:19").has_value());
  EXPECT_FALSE(parse_demux_spec("sequent:rehash:64").has_value());
  EXPECT_EQ(parse_error("sequent:crc32:19"),
            "count token '19' must come directly after the algorithm name");
}

TEST(Registry, ParseAcceptsHasherAndOptionsInAnyOrder) {
  // The flip side of positional counts: everything after the count slot
  // may come in any order. "dynamic:max=100" (option in the count slot)
  // used to be rejected outright.
  const auto dynamic = parse_demux_spec("dynamic:max=100");
  ASSERT_TRUE(dynamic.has_value());
  EXPECT_EQ(dynamic->max_pcbs, 100u);
  const auto rehashing = parse_demux_spec("sequent:rehash:crc32c");
  ASSERT_TRUE(rehashing.has_value());
  EXPECT_TRUE(rehashing->rehash_on_overload);
  EXPECT_EQ(rehashing->hasher, net::HasherKind::kCrc32c);
  const auto sequent = parse_demux_spec("sequent:nocache:crc32");
  ASSERT_TRUE(sequent.has_value());
  EXPECT_FALSE(sequent->per_chain_cache);
  const auto capped = parse_demux_spec("sequent:64:max=100:crc32:rehash");
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->chains, 64u);
  EXPECT_EQ(capped->max_pcbs, 100u);
  EXPECT_TRUE(capped->rehash_on_overload);
}

TEST(Registry, ParseRejectsMangledSeedSuffixes) {
  EXPECT_FALSE(parse_demux_spec("sequent:19:crc32@1f@2e").has_value());
  EXPECT_FALSE(parse_demux_spec("dynamic:64:crc32@").has_value());
  EXPECT_FALSE(parse_demux_spec("dynamic:64:crc32@123456789").has_value());
  EXPECT_FALSE(parse_demux_spec("rcu:64:siphash@zz").has_value());
  EXPECT_EQ(parse_error("sequent:19:crc32@1f@2e"),
            "bad seed suffix in 'crc32@1f@2e' (want one '@' and 1-8 hex digits)");
}

TEST(Registry, ParseShardedGrammar) {
  const auto ok = parse_demux_spec("sharded:4:dynamic:64:crc32");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->algorithm, Algorithm::kSharded);
  EXPECT_EQ(ok->shards, 4u);
  EXPECT_EQ(ok->inner_spec, "dynamic:64:crc32");

  EXPECT_FALSE(parse_demux_spec("sharded").has_value());
  EXPECT_FALSE(parse_demux_spec("sharded:4").has_value());
  EXPECT_FALSE(parse_demux_spec("sharded:0:dynamic").has_value());
  EXPECT_FALSE(parse_demux_spec("sharded:abc:dynamic").has_value());
  EXPECT_FALSE(parse_demux_spec("sharded:2:sharded:2:dynamic").has_value());
  EXPECT_FALSE(parse_demux_spec("sharded:2:quantum").has_value());
  EXPECT_EQ(parse_error("sharded:2:sharded:2:dynamic"),
            "sharded cannot nest another sharded spec");
}

TEST(Registry, ErrorOverloadNamesTheOffendingToken) {
  EXPECT_EQ(parse_error("sequent:rehash:rehash"), "duplicate 'rehash' token");
  EXPECT_EQ(parse_error("sequent:19:max=5:max=9"), "duplicate 'max=N' token");
  EXPECT_EQ(parse_error("dynamic:64:nocache"),
            "'nocache' is not supported by dynamic");
  EXPECT_EQ(parse_error("sequent:19:turbo"), "unknown token 'turbo'");
  EXPECT_EQ(parse_error("mtf:rehash"), "mtf takes no ':' parameters");
  // Growth has one schedule, so there is no token that picks one.
  for (const char* spec : {"dynamic:incremental", "dynamic:64:incremental",
                           "sequent:crc32c:incremental"}) {
    EXPECT_EQ(parse_error(spec), "unknown token 'incremental'") << spec;
  }
  // Inner-spec failures surface wrapped, so a bad token three levels into
  // a sharded spec still names itself.
  const std::string nested = parse_error("sharded:2:dynamic:64:max=1:max=2");
  EXPECT_NE(nested.find("bad inner spec 'dynamic:64:max=1:max=2'"),
            std::string::npos)
      << nested;
  EXPECT_NE(nested.find("duplicate 'max=N' token"), std::string::npos)
      << nested;
}

}  // namespace
}  // namespace tcpdemux::core
