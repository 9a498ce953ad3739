// StructuralValidator tests: well-formed structures must pass, and — the
// part that keeps the validators honest — each deliberately planted
// corruption (stale cache pointer, PCB on the wrong chain, bad size
// counter, broken linkage) must be reported. A validator that cannot fail
// is untested; every negative case here also restores the structure before
// destruction so the owning demuxer still tears down cleanly under ASan.
#include "core/validate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/bsd_list.h"
#include "core/connection_id.h"
#include "core/cuckoo_demuxer.h"
#include "core/demux_registry.h"
#include "core/flat_demuxer.h"
#include "core/hashed_mtf.h"
#include "core/move_to_front.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"
#include "core/rcu_demuxer.h"
#include "core/send_receive_cache.h"
#include "core/sequent_hash.h"
#include "core/sharded_demuxer.h"
#include "net/flow_key.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(0x0a000001), 5001,
                      net::Ipv4Addr(0x0a090000 + i),
                      static_cast<std::uint16_t>(40000 + (i % 20000))};
}

template <typename D>
void populate(D& demuxer, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_NE(demuxer.insert(key(i)), nullptr);
  }
}

// --- well-formed structures pass -------------------------------------------

TEST(ValidateTest, EveryRegistrySpecValidatesCleanAfterMixedOps) {
  const char* specs[] = {"bsd",        "mtf",         "srcache",
                         "connection_id", "sequent",  "sequent:7:crc32:nocache",
                         "hashed_mtf", "dynamic:5",   "rcu",
                         "rcu:7:crc32:nocache", "flat", "flat:64:crc32",
                         "cuckoo", "cuckoo:64:crc32", "cuckoo:64:siphash@5eed",
                         "sharded:4:flat", "sharded:2:sequent:19:crc32"};
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const auto config = parse_demux_spec(spec);
    ASSERT_TRUE(config.has_value());
    const auto demuxer = make_demuxer(*config);
    for (std::uint32_t i = 0; i < 64; ++i) demuxer->insert(key(i));
    for (std::uint32_t i = 0; i < 64; i += 3) demuxer->lookup(key(i));
    for (std::uint32_t i = 0; i < 64; i += 4) demuxer->erase(key(i));
    for (std::uint32_t i = 0; i < 64; i += 5) demuxer->lookup(key(i));
    const ValidationReport report = validate_demuxer(*demuxer);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(ValidateTest, EmptyStructuresValidateClean) {
  const char* specs[] = {"bsd", "mtf", "srcache", "connection_id",
                         "sequent", "hashed_mtf", "dynamic", "rcu", "flat",
                         "cuckoo", "sharded:4:flat"};
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const auto demuxer = make_demuxer(*parse_demux_spec(spec));
    const ValidationReport report = validate_demuxer(*demuxer);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// --- planted corruptions must be reported ----------------------------------

TEST(ValidateTest, BsdStaleCachePointerIsReported) {
  BsdListDemuxer demuxer;
  populate(demuxer, 8);
  Pcb foreign(key(99), 99);  // never a member of the demuxer's list
  Pcb*& cache = ValidatorTestAccess::cache(demuxer);
  Pcb* const saved = cache;
  cache = &foreign;
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  cache = saved;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, BrokenPrevLinkIsReported) {
  MoveToFrontDemuxer demuxer;
  populate(demuxer, 8);
  PcbList& list = ValidatorTestAccess::list(demuxer);
  Pcb* const second = list.head()->next;
  ASSERT_NE(second, nullptr);
  Pcb* const saved = second->prev;
  second->prev = second;  // next/prev no longer mirror each other
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  second->prev = saved;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, SrcacheForeignCachePointersAreReported) {
  SendReceiveCacheDemuxer demuxer;
  populate(demuxer, 8);
  Pcb foreign(key(99), 99);
  for (Pcb** slot : {&ValidatorTestAccess::recv_cache(demuxer),
                     &ValidatorTestAccess::send_cache(demuxer)}) {
    Pcb* const saved = *slot;
    *slot = &foreign;
    EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
    *slot = saved;
  }
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, SequentPcbOnWrongChainIsReported) {
  SequentDemuxer demuxer;
  populate(demuxer, 32);
  // Move one PCB from its home chain to the neighbouring chain. Both
  // chains stay internally consistent, so only the hash-placement check
  // can catch it.
  std::uint32_t from = 0;
  while (ValidatorTestAccess::chain(demuxer, from).empty()) ++from;
  const std::uint32_t to = (from + 1) % demuxer.chains();
  Pcb* const moved = ValidatorTestAccess::chain(demuxer, from).pop_front();
  ASSERT_NE(moved, nullptr);
  ValidatorTestAccess::chain(demuxer, to).link_front(moved);
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("hashes to chain"), std::string::npos)
      << report.to_string();
  Pcb* const back = ValidatorTestAccess::chain(demuxer, to).pop_front();
  ASSERT_EQ(back, moved);
  ValidatorTestAccess::chain(demuxer, from).link_front(back);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, SequentBadSizeCounterIsReported) {
  SequentDemuxer demuxer;
  populate(demuxer, 16);
  std::size_t& size = ValidatorTestAccess::size(demuxer);
  ++size;
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  --size;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, SequentForeignChainCacheIsReported) {
  SequentDemuxer demuxer;
  populate(demuxer, 32);
  std::uint32_t from = 0;
  while (ValidatorTestAccess::chain(demuxer, from).empty()) ++from;
  const std::uint32_t to = (from + 1) % demuxer.chains();
  Pcb*& cache = ValidatorTestAccess::cache(demuxer, to);
  Pcb* const saved = cache;
  cache = ValidatorTestAccess::chain(demuxer, from).head();
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  cache = saved;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, NocacheSequentWithInstalledCacheIsReported) {
  SequentDemuxer demuxer(
      SequentDemuxer::Options{19, net::HasherKind::kXorFold, false});
  populate(demuxer, 8);
  std::uint32_t c = 0;
  while (ValidatorTestAccess::chain(demuxer, c).empty()) ++c;
  Pcb*& cache = ValidatorTestAccess::cache(demuxer, c);
  cache = ValidatorTestAccess::chain(demuxer, c).head();
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  cache = nullptr;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, HashedMtfBadSizeCounterIsReported) {
  HashedMtfDemuxer demuxer;
  populate(demuxer, 16);
  std::size_t& size = ValidatorTestAccess::size(demuxer);
  --size;
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  ++size;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, DynamicPcbOnWrongChainIsReported) {
  SequentDemuxer demuxer(SequentDemuxer::Options{
      .chains = 5, .hasher = net::HasherKind::kCrc32, .grow = true});
  populate(demuxer, 40);  // forces at least one doubling from 5 chains
  ASSERT_GE(demuxer.doublings(), 1u);
  std::uint32_t from = 0;
  while (ValidatorTestAccess::chain(demuxer, from).empty()) ++from;
  const std::uint32_t to = (from + 1) % demuxer.chains();
  Pcb* const moved = ValidatorTestAccess::chain(demuxer, from).pop_front();
  ASSERT_NE(moved, nullptr);
  ValidatorTestAccess::chain(demuxer, to).link_front(moved);
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  Pcb* const back = ValidatorTestAccess::chain(demuxer, to).pop_front();
  ASSERT_EQ(back, moved);
  ValidatorTestAccess::chain(demuxer, from).link_front(back);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, DynamicChainCycleIsReportedWithoutHanging) {
  // The list keeps no count, so the walk is bounded by the demuxer's
  // size(): a chain whose last node points back at its head must be
  // reported, and the validator must return rather than follow it.
  SequentDemuxer demuxer(SequentDemuxer::Options{
      .chains = 5, .hasher = net::HasherKind::kCrc32, .grow = true});
  populate(demuxer, 40);
  std::uint32_t c = 0;
  while (ValidatorTestAccess::chain(demuxer, c).count() < 2) ++c;
  PcbList& chain = ValidatorTestAccess::chain(demuxer, c);
  Pcb* last = chain.head();
  while (last->next != nullptr) last = last->next;
  last->next = chain.head();
  const ValidationReport report = StructuralValidator::validate(demuxer);
  last->next = nullptr;
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("cycle"), std::string::npos)
      << report.to_string();
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, DynamicLeakedSlabSlotIsReported) {
  // A slot taken from the slab but linked nowhere: every chain is intact
  // and the size counter agrees with them, so only the slab's live count
  // can expose it. LSan cannot (the chunk holding it is still referenced).
  SequentDemuxer demuxer(SequentDemuxer::Options{
      .chains = 5, .hasher = net::HasherKind::kCrc32, .grow = true});
  populate(demuxer, 40);
  PcbSlab& slab = ValidatorTestAccess::slab(demuxer);
  Pcb* const leaked = slab.make(key(99), 99);
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("leak"), std::string::npos)
      << report.to_string();
  slab.destroy(leaked);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, SequentPcbFromOutsideTheSlabIsReported) {
  // A PCB linked onto its home chain (size counter bumped to match) that
  // the demuxer's slab never handed out.
  SequentDemuxer demuxer;
  populate(demuxer, 8);
  Pcb stray(key(99), 99);
  const std::uint32_t home =
      net::hash_chain(demuxer.hash_spec(), stray.key, demuxer.chains());
  PcbList& chain = ValidatorTestAccess::chain(demuxer, home);
  chain.link_front(&stray);
  ++ValidatorTestAccess::size(demuxer);
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("slot of this demuxer's slab"),
            std::string::npos)
      << report.to_string();
  chain.unlink(&stray);
  --ValidatorTestAccess::size(demuxer);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, ConnectionIdKeySlotMismatchIsReported) {
  ConnectionIdDemuxer demuxer(64);
  Pcb* const a = demuxer.insert(key(1));
  Pcb* const b = demuxer.insert(key(2));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Rebind a's key to b's slot: the table now maps a's key to a slot whose
  // PCB carries a different key.
  ValidatorTestAccess::rebind_id(demuxer, *a,
                                 static_cast<std::uint32_t>(b->conn_id));
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  ValidatorTestAccess::rebind_id(demuxer, *a,
                                 static_cast<std::uint32_t>(a->conn_id));
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, ConnectionIdFreeListOverOccupiedSlotIsReported) {
  ConnectionIdDemuxer demuxer(64);
  Pcb* const a = demuxer.insert(key(1));
  ASSERT_NE(a, nullptr);
  ValidatorTestAccess::push_free_id(demuxer,
                                    static_cast<std::uint32_t>(a->conn_id));
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  ValidatorTestAccess::pop_free_id(demuxer);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, RcuNodeOnWrongChainIsReported) {
  RcuSequentDemuxer demuxer;
  for (std::uint32_t i = 0; i < 32; ++i) demuxer.insert(key(i));
  std::uint32_t from = 0;
  while (!ValidatorTestAccess::rcu_move_head(demuxer, from,
                                             (from + 1) % demuxer.chains())) {
    ++from;
  }
  const std::uint32_t to = (from + 1) % demuxer.chains();
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  ASSERT_TRUE(ValidatorTestAccess::rcu_move_head(demuxer, to, from));
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, RcuForeignCacheIsReported) {
  RcuSequentDemuxer demuxer;
  for (std::uint32_t i = 0; i < 32; ++i) demuxer.insert(key(i));
  std::uint32_t other = 0;
  std::uint32_t chain = 1;
  while (!ValidatorTestAccess::rcu_cache_foreign_head(
      demuxer, chain = (other + 1) % demuxer.chains(), other)) {
    ++other;
  }
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("not on the chain"), std::string::npos)
      << report.to_string();
  ValidatorTestAccess::rcu_clear_cache(demuxer, chain);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, RcuRetiredButReachableNodeIsReported) {
  RcuSequentDemuxer demuxer;
  for (std::uint32_t i = 0; i < 8; ++i) demuxer.insert(key(i));
  std::uint32_t chain = 0;
  while (!ValidatorTestAccess::rcu_toggle_head_retired(demuxer, chain)) {
    ++chain;
  }
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("retired"), std::string::npos);
  ASSERT_TRUE(ValidatorTestAccess::rcu_toggle_head_retired(demuxer, chain));
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, RcuBadSizeCounterIsReported) {
  RcuSequentDemuxer demuxer;
  for (std::uint32_t i = 0; i < 8; ++i) demuxer.insert(key(i));
  ValidatorTestAccess::rcu_adjust_size(demuxer, +1);
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  ValidatorTestAccess::rcu_adjust_size(demuxer, -1);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, FlatCorruptTagByteIsReported) {
  FlatDemuxer demuxer(FlatDemuxer::Options{64});
  populate(demuxer, 32);
  // Flip one fingerprint bit on an occupied slot: the slot stays occupied
  // (bit 7 intact) but the tag no longer matches the stored hash, so a
  // probe would skip a live connection.
  auto& tags = ValidatorTestAccess::flat_tags(demuxer);
  std::size_t slot = 0;
  while (tags[slot] == 0) ++slot;
  tags[slot] ^= 0x40;
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("tag"), std::string::npos)
      << report.to_string();
  tags[slot] ^= 0x40;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, FlatBadSizeCounterIsReported) {
  FlatDemuxer demuxer(FlatDemuxer::Options{64});
  populate(demuxer, 16);
  std::size_t& size = ValidatorTestAccess::flat_size(demuxer);
  ++size;
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  --size;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, FlatDisplacedSlotBreaksProbeInvariant) {
  FlatDemuxer demuxer(FlatDemuxer::Options{64});
  populate(demuxer, 24);
  // Move one resident to a distant empty slot. Tag, key, and hash all stay
  // mutually consistent, so only the robin-hood probe-distance invariant
  // (every slot reachable from its home via an unbroken occupied run) can
  // catch the displacement — exactly the corruption backward-shift
  // deletion would cause if it stopped shifting one slot too early.
  const auto& tags = ValidatorTestAccess::flat_tags(demuxer);
  std::size_t from = 0;
  while (tags[from] == 0) ++from;
  // Try empty destination slots until one actually breaks the invariant (a
  // destination that happens to be the key's own home slot would be legal).
  bool planted = false;
  std::size_t to = 0;
  for (; to < tags.size(); ++to) {
    if (tags[to] != 0 || to == from) continue;
    ValidatorTestAccess::flat_move_slot(demuxer, from, to);
    if (!StructuralValidator::validate(demuxer).ok()) {
      planted = true;
      break;
    }
    ValidatorTestAccess::flat_move_slot(demuxer, to, from);
  }
  ASSERT_TRUE(planted) << "no empty slot broke the probe invariant";
  ValidatorTestAccess::flat_move_slot(demuxer, to, from);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, CuckooCorruptTagByteIsReported) {
  CuckooDemuxer demuxer(CuckooDemuxer::Options{64});
  populate(demuxer, 32);
  // Flip a fingerprint bit above the filter nibble: the slot stays
  // occupied and the presence filter stays consistent, so only the
  // tag-vs-hash recomputation can notice the lookup path would now skip
  // this live connection.
  std::size_t slot = 0;
  while (ValidatorTestAccess::cuckoo_tag(demuxer, slot) == 0) ++slot;
  ValidatorTestAccess::cuckoo_tag(demuxer, slot) ^= 0x40;
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("tag"), std::string::npos)
      << report.to_string();
  ValidatorTestAccess::cuckoo_tag(demuxer, slot) ^= 0x40;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, CuckooBadSizeCounterIsReported) {
  CuckooDemuxer demuxer(CuckooDemuxer::Options{64});
  populate(demuxer, 16);
  std::size_t& size = ValidatorTestAccess::cuckoo_size(demuxer);
  ++size;
  EXPECT_FALSE(StructuralValidator::validate(demuxer).ok());
  --size;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, CuckooStaleFilterBitIsReported) {
  // A spurious presence-filter bit never makes a lookup wrong, only slow —
  // which is exactly why it would survive every behavioral test and must
  // be caught structurally, by recomputing the filter from the residents.
  CuckooDemuxer demuxer(CuckooDemuxer::Options{64});
  populate(demuxer, 16);
  std::uint16_t& filter = ValidatorTestAccess::cuckoo_filter(demuxer, 0);
  filter ^= 1;
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("filter"), std::string::npos)
      << report.to_string();
  filter ^= 1;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, CuckooResidentOutsideItsTwoBucketsIsReported) {
  CuckooDemuxer demuxer(CuckooDemuxer::Options{64});
  populate(demuxer, 24);
  // Move one resident to a distant empty slot, raw (tag/hash/key stay
  // mutually consistent). Only the two-bucket placement invariant — the
  // property that bounds every lookup at two buckets — can catch it.
  std::size_t from = 0;
  while (ValidatorTestAccess::cuckoo_tag(demuxer, from) == 0) ++from;
  bool planted = false;
  std::size_t to = 0;
  for (; to < demuxer.capacity(); ++to) {
    if (ValidatorTestAccess::cuckoo_tag(demuxer, to) != 0 || to == from) {
      continue;
    }
    ValidatorTestAccess::cuckoo_move_slot(demuxer, from, to);
    if (!StructuralValidator::validate(demuxer).ok()) {
      planted = true;
      break;
    }
    ValidatorTestAccess::cuckoo_move_slot(demuxer, to, from);
  }
  ASSERT_TRUE(planted) << "no empty slot broke the two-bucket invariant";
  ValidatorTestAccess::cuckoo_move_slot(demuxer, to, from);
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, ShardedDuplicateKeyAcrossShardsIsReported) {
  ShardedDemuxer demuxer(
      ShardedDemuxer::Options{4, *parse_demux_spec("flat:64")});
  populate(demuxer, 24);
  // Plant the cross-shard corruption no single shard can see: a key that
  // is resident on two shards at once. Each shard stays internally
  // consistent, so only the aggregate no-duplicate-key sweep catches it.
  const net::FlowKey dup = key(0);
  const std::uint32_t home = demuxer.home_shard(dup);
  const std::uint32_t other = (home + 1) % demuxer.shard_count();
  ASSERT_NE(demuxer.shard(other).insert(dup), nullptr);
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("more than one shard"), std::string::npos)
      << report.to_string();
  ASSERT_TRUE(demuxer.shard(other).erase(dup));
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, ShardedResidentOffItsHomeShardIsReported) {
  ShardedDemuxer demuxer(
      ShardedDemuxer::Options{4, *parse_demux_spec("sequent:19:crc32")});
  populate(demuxer, 24);
  // A PCB on a shard its steering hash does not select is a placement bug
  // while steering is stable (misplaced_possible() == false).
  const net::FlowKey stray = key(1000);
  const std::uint32_t home = demuxer.home_shard(stray);
  const std::uint32_t wrong = (home + 1) % demuxer.shard_count();
  ASSERT_NE(demuxer.shard(wrong).insert(stray), nullptr);
  ASSERT_FALSE(demuxer.misplaced_possible());
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(demuxer.shard(wrong).erase(stray));
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, ShardedInnerCorruptionSurfacesWithShardPrefix) {
  ShardedDemuxer demuxer(
      ShardedDemuxer::Options{2, *parse_demux_spec("sequent:19:crc32")});
  populate(demuxer, 32);
  // Per-shard recursion: corrupt one inner structure and expect the
  // aggregate report to name the shard.
  auto& inner = static_cast<SequentDemuxer&>(demuxer.shard(0));
  std::size_t& size = ValidatorTestAccess::size(inner);
  ++size;
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("shard 0"), std::string::npos)
      << report.to_string();
  --size;
  EXPECT_TRUE(StructuralValidator::validate(demuxer).ok());
}

TEST(ValidateTest, ReportJoinsAllErrors) {
  SequentDemuxer demuxer;
  populate(demuxer, 16);
  std::size_t& size = ValidatorTestAccess::size(demuxer);
  size += 2;
  Pcb foreign(key(99), 99);
  std::uint32_t c = 0;
  while (ValidatorTestAccess::chain(demuxer, c).empty()) ++c;
  Pcb*& cache = ValidatorTestAccess::cache(demuxer, c);
  Pcb* const saved = cache;
  cache = &foreign;
  const ValidationReport report = StructuralValidator::validate(demuxer);
  EXPECT_GE(report.errors.size(), 2u);
  EXPECT_NE(report.to_string().find('\n'), std::string::npos);
  cache = saved;
  size -= 2;
}

}  // namespace
}  // namespace tcpdemux::core
