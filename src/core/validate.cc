#include "core/validate.h"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/bsd_list.h"
#include "core/connection_id.h"
#include "core/cuckoo_demuxer.h"
#include "core/demuxer.h"
#include "core/flat_demuxer.h"
#include "core/hashed_mtf.h"
#include "core/move_to_front.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"
#include "core/rcu_demuxer.h"
#include "core/send_receive_cache.h"
#include "core/sequent_hash.h"
#include "core/sharded_demuxer.h"

namespace tcpdemux::core {
namespace {

// Collector for validation errors with printf-lite formatting via streams.
class Errors {
 public:
  explicit Errors(ValidationReport& report) : report_(report) {}

  template <typename... Parts>
  void add(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    report_.errors.push_back(os.str());
  }

 private:
  ValidationReport& report_;
};

// Walks `list` checking doubly-linked consistency, and appends every member
// to `members` for the caller's cache, placement and duplicate checks. The
// list keeps no count, so the owning demuxer's size() bounds the walk: a
// chain reaching more nodes than the whole structure holds has a cycle (or
// the size counter lost nodes), and the walk stops there instead of
// hanging. The caller reconciles each table's reachable total with size().
void check_list(const PcbList& list, std::size_t limit, const char* what,
                Errors& errors, std::vector<const Pcb*>& members) {
  std::size_t count = 0;
  const Pcb* prev = nullptr;
  for (const Pcb* p = list.head(); p != nullptr; p = p->next) {
    if (count == limit) {
      errors.add(what, ": more nodes reachable than size()=", limit,
                 " (cycle or lost count)");
      return;
    }
    if (p->prev != prev) {
      errors.add(what, ": node ", count, " (", p->key.to_string(),
                 ") has prev link inconsistent with walk order");
    }
    members.push_back(p);
    prev = p;
    ++count;
  }
  if (list.head() != nullptr && list.head()->prev != nullptr) {
    errors.add(what, ": head node has non-null prev");
  }
}

// The single-list demuxers: the one list must reach exactly size() nodes.
void check_whole_list(const PcbList& list, std::size_t size, const char* what,
                      Errors& errors, std::vector<const Pcb*>& members) {
  check_list(list, size, what, errors, members);
  if (members.size() != size) {
    errors.add(what, ": reachable nodes (", members.size(), ") != size() (",
               size, ")");
  }
}

// Cache slots must point at a live member of the structure they cache for;
// a stale pointer (freed PCB, or a PCB that migrated elsewhere) is the
// classic intrusive-cache corruption.
void check_cache_member(const Pcb* cache, const char* what,
                        const std::vector<const Pcb*>& members,
                        Errors& errors) {
  if (cache == nullptr) return;
  if (std::find(members.begin(), members.end(), cache) == members.end()) {
    errors.add(what, ": cache points at a PCB that is not a live member");
  }
}

// No PCB may be reachable twice and no two PCBs may share a key; either
// breaks erase() (double free / wrong victim) and the examined-count
// accounting.
void check_unique(const std::vector<const Pcb*>& members, const char* what,
                  Errors& errors) {
  std::unordered_set<const Pcb*> seen;
  std::unordered_set<net::FlowKey> keys;
  for (const Pcb* p : members) {
    if (!seen.insert(p).second) {
      errors.add(what, ": PCB ", p->key.to_string(), " is reachable twice");
    }
    if (!keys.insert(p->key).second) {
      errors.add(what, ": duplicate key ", p->key.to_string());
    }
  }
}

// Every slab-backed demuxer accounts for every slot: the slab's live count
// must equal the structure's size (a live slot linked nowhere is a leak,
// which LSan cannot see — the chunk holding it is still referenced), and
// every PCB the structure reaches must be a slot its own slab handed out
// and has not freed since. Messages name no key: a freed slot's key is
// gone (and poisoned under ASan).
void check_slab(const PcbSlab& slab, const std::vector<const Pcb*>& members,
                std::size_t size, const std::string& what, Errors& errors) {
  if (slab.live() != size) {
    errors.add(what, ": slab holds ", slab.live(), " live PCBs but size() is ",
               size,
               slab.live() > size
                   ? " (a slot is taken but linked nowhere: leak)"
                   : "");
  }
  std::unordered_set<const Pcb*> free_slots;
  slab.for_each_free([&](const Pcb* p) { free_slots.insert(p); });
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (!slab.handed_out(members[i])) {
      errors.add(what, ": reachable PCB #", i,
                 " is not a 64-byte-aligned slot of this demuxer's slab");
    } else if (free_slots.contains(members[i])) {
      errors.add(what, ": reachable PCB #", i,
                 " is a freed slot (use after free)");
    }
  }
}

}  // namespace

std::string ValidationReport::to_string() const {
  std::string out;
  for (const std::string& e : errors) {
    if (!out.empty()) out += '\n';
    out += e;
  }
  return out;
}

ValidationReport StructuralValidator::validate(const BsdListDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> members;
  check_whole_list(demuxer.list_, demuxer.size(), "bsd", errors, members);
  check_slab(demuxer.slab_, members, demuxer.size(), "bsd", errors);
  check_unique(members, "bsd", errors);
  check_cache_member(demuxer.cache_, "bsd", members, errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const MoveToFrontDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> members;
  check_whole_list(demuxer.list_, demuxer.size(), "mtf", errors, members);
  check_slab(demuxer.slab_, members, demuxer.size(), "mtf", errors);
  check_unique(members, "mtf", errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const SendReceiveCacheDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> members;
  check_whole_list(demuxer.list_, demuxer.size(), "srcache", errors, members);
  check_slab(demuxer.slab_, members, demuxer.size(), "srcache", errors);
  check_unique(members, "srcache", errors);
  check_cache_member(demuxer.recv_cache_, "srcache(recv)", members, errors);
  check_cache_member(demuxer.send_cache_, "srcache(send)", members, errors);
  return report;
}

ValidationReport StructuralValidator::validate(const SequentDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  // Messages name the table as name() does: "sequent", or "dynamic" when
  // growth is on.
  const std::string tag = demuxer.options_.grow ? "dynamic" : "sequent";
  if (demuxer.buckets_.empty()) {
    errors.add(tag, ": bucket table is empty");
    return report;
  }
  std::vector<const Pcb*> all;
  // Checks one chain table (live, or outgoing during a migration) and
  // returns its occupancy. Chains [0, drained) must be empty: the drain
  // cursor advances only past empty chains and nothing is ever inserted
  // into the outgoing table, so its drained prefix stays empty for the
  // whole migration.
  const auto check_table = [&](const SequentDemuxer::Table& table,
                               const std::string& label,
                               std::size_t drained) {
    std::size_t total = 0;
    for (std::uint32_t c = 0; c < table.size(); ++c) {
      const SequentDemuxer::Bucket& bucket = table[c];
      std::vector<const Pcb*> members;
      const std::string what = label + " chain " + std::to_string(c);
      check_list(bucket.list, demuxer.size_, what.c_str(), errors, members);
      if (c < drained && !members.empty()) {
        errors.add(label, ": chain ", c, " in the drained prefix [0, cursor=",
                   drained, ") is non-empty");
      }
      for (const Pcb* p : members) {
        const std::uint32_t home = demuxer.chain_in(table, p->key);
        if (home != c) {
          errors.add(label, ": PCB ", p->key.to_string(), " hashes to chain ",
                     home, " but sits on chain ", c);
        }
      }
      if (!demuxer.options_.per_chain_cache && bucket.cache != nullptr) {
        errors.add(what, ": cache installed but per_chain_cache is disabled");
      }
      check_cache_member(bucket.cache, what.c_str(), members, errors);
      total += members.size();
      all.insert(all.end(), members.begin(), members.end());
    }
    return total;
  };

  std::size_t total = check_table(demuxer.buckets_, tag, 0);
  if (const auto* old = demuxer.resize_.old()) {
    const std::string label = tag + "(old)";
    if (old->residents == 0) {
      errors.add(label, ": migration adjunct present with zero residents");
    }
    if (old->cursor > old->table.size()) {
      errors.add(label, ": cursor ", old->cursor, " exceeds bucket count ",
                 old->table.size());
    }
    const std::size_t old_total = check_table(old->table, label, old->cursor);
    if (old_total != old->residents) {
      errors.add(label, ": chain occupancy total (", old_total,
                 ") != residents counter (", old->residents, ")");
    }
    total += old_total;
  }
  if (total != demuxer.size_) {
    errors.add(tag, ": chain occupancy total (", total, ") != size counter (",
               demuxer.size_, ")");
  }
  check_slab(demuxer.slab_, all, demuxer.size_, tag, errors);
  check_unique(all, tag.c_str(), errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const HashedMtfDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> all;
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < demuxer.buckets_.size(); ++c) {
    std::vector<const Pcb*> members;
    std::ostringstream what;
    what << "hashed_mtf chain " << c;
    check_list(demuxer.buckets_[c], demuxer.size_, what.str().c_str(),
               errors, members);
    for (const Pcb* p : members) {
      if (demuxer.chain_of(p->key) != c) {
        errors.add("hashed_mtf: PCB ", p->key.to_string(),
                   " hashes to chain ", demuxer.chain_of(p->key),
                   " but sits on chain ", c);
      }
    }
    total += members.size();
    all.insert(all.end(), members.begin(), members.end());
  }
  if (total != demuxer.size_) {
    errors.add("hashed_mtf: chain occupancy total (", total,
               ") != size counter (", demuxer.size_, ")");
  }
  check_slab(demuxer.slab_, all, demuxer.size_, "hashed_mtf", errors);
  check_unique(all, "hashed_mtf", errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const ConnectionIdDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);

  // Side table -> slot array: every mapping must land on a live slot whose
  // PCB carries the mapped key and whose conn_id is its own slot index.
  std::vector<const Pcb*> members;
  for (const Pcb* slot : demuxer.slots_) {
    if (slot != nullptr) members.push_back(slot);
  }
  const std::size_t occupied = members.size();
  check_slab(demuxer.slab_, members, demuxer.size(), "connection_id", errors);
  for (const auto& [key, id] : demuxer.id_by_key_) {
    if (id >= demuxer.slots_.size()) {
      errors.add("connection_id: key ", key.to_string(),
                 " maps to out-of-range id ", id);
      continue;
    }
    const Pcb* pcb = demuxer.slots_[id];
    if (pcb == nullptr) {
      errors.add("connection_id: key ", key.to_string(),
                 " maps to empty slot ", id);
    } else {
      if (pcb->key != key) {
        errors.add("connection_id: slot ", id, " holds key ",
                   pcb->key.to_string(), " but the table maps ",
                   key.to_string(), " to it");
      }
      if (pcb->conn_id != id) {
        errors.add("connection_id: slot ", id, " PCB carries conn_id ",
                   pcb->conn_id, " != its slot index");
      }
    }
  }
  if (occupied != demuxer.id_by_key_.size()) {
    errors.add("connection_id: occupied slots (", occupied,
               ") != side-table entries (", demuxer.id_by_key_.size(), ")");
  }

  // Free list: in-range, unique, and only over empty slots; together with
  // the occupied slots it must account for the whole ID space.
  std::unordered_set<std::uint32_t> free_seen;
  for (const std::uint32_t id : demuxer.free_ids_) {
    if (id >= demuxer.capacity_) {
      errors.add("connection_id: free list holds out-of-range id ", id);
      continue;
    }
    if (!free_seen.insert(id).second) {
      errors.add("connection_id: free list holds id ", id, " twice");
    }
    if (demuxer.slots_[id] != nullptr) {
      errors.add("connection_id: free list holds id ", id,
                 " whose slot is occupied");
    }
  }
  if (free_seen.size() + occupied != demuxer.capacity_) {
    errors.add("connection_id: free ids (", free_seen.size(),
               ") + occupied slots (", occupied, ") != capacity (",
               demuxer.capacity_, ")");
  }
  return report;
}

ValidationReport StructuralValidator::validate(
    const RcuSequentDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::unordered_set<const Pcb*> seen;
  std::unordered_set<net::FlowKey> keys;
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < demuxer.buckets_.size(); ++c) {
    const RcuSequentDemuxer::Bucket& bucket = *demuxer.buckets_[c];
    std::unordered_set<const RcuSequentDemuxer::Node*> chain_nodes;
    std::size_t count = 0;
    for (const RcuSequentDemuxer::Node* n =
             bucket.head.load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
      if (count > demuxer.size() + 1) {
        errors.add("rcu chain ", c, ": more nodes reachable than size()=",
                   demuxer.size(), " (cycle or lost count)");
        break;
      }
      chain_nodes.insert(n);
      if (n->retired) {
        errors.add("rcu chain ", c, ": reachable node ",
                   n->pcb.key.to_string(), " is flagged retired");
      }
      if (demuxer.chain_of(n->pcb.key) != c) {
        errors.add("rcu: PCB ", n->pcb.key.to_string(), " hashes to chain ",
                   demuxer.chain_of(n->pcb.key), " but sits on chain ", c);
      }
      if (!seen.insert(&n->pcb).second) {
        errors.add("rcu: PCB ", n->pcb.key.to_string(),
                   " is reachable twice");
      }
      if (!keys.insert(n->pcb.key).second) {
        errors.add("rcu: duplicate key ", n->pcb.key.to_string());
      }
      ++count;
    }
    total += count;

    const RcuSequentDemuxer::Node* cache =
        bucket.cache.load(std::memory_order_acquire);
    if (cache != nullptr) {
      if (!demuxer.options_.per_chain_cache) {
        errors.add("rcu chain ", c,
                   ": cache installed but per_chain_cache is disabled");
      }
      if (!chain_nodes.contains(cache)) {
        errors.add("rcu chain ", c,
                   ": cache points at a node that is not on the chain");
      } else if (cache->retired) {
        errors.add("rcu chain ", c, ": cache resurrects a retired node");
      }
    }
  }
  if (total != demuxer.size()) {
    errors.add("rcu: chain occupancy total (", total, ") != size counter (",
               demuxer.size(), ")");
  }
  if (demuxer.epoch_.freed_count() > demuxer.epoch_.retired_count()) {
    errors.add("rcu: epoch manager freed (", demuxer.epoch_.freed_count(),
               ") more nodes than were retired (",
               demuxer.epoch_.retired_count(), ")");
  }
  return report;
}

ValidationReport StructuralValidator::validate(const FlatDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  const std::size_t capacity = demuxer.capacity();
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) {
    errors.add("flat: capacity ", capacity, " is not a power of two");
    return report;
  }
  // Every parallel array of `t` must hold exactly t.capacity() slots.
  const auto sized = [](const FlatDemuxer::Table& t) {
    const std::size_t cap = t.capacity();
    return t.tags.size() == cap && t.hashes.size() == cap &&
           t.keys.size() == cap && t.pcbs.size() == cap;
  };
  if (!sized(demuxer.table_)) {
    errors.add("flat: slot arrays are not all sized to capacity ", capacity);
    return report;
  }

  // Per-table slot checks; the key set is shared across the live and (when
  // migrating) old arrays so a key resident in both is caught as a
  // duplicate. Returns the table's occupied-slot count.
  std::unordered_set<net::FlowKey> keys;
  std::vector<const Pcb*> members;
  const auto check_table =
      [&](const FlatDemuxer::Table& t, const char* what) {
        const auto& [mask, tags, hashes, slot_keys, pcbs] = t;
        std::size_t occupied = 0;
        const std::size_t cap = t.capacity();
        for (std::size_t i = 0; i < cap; ++i) {
          if (tags[i] == 0) {
            if (pcbs[i] != nullptr) {
              errors.add(what, " slot ", i,
                         ": empty tag but a PCB is still held");
            }
            continue;
          }
          ++occupied;
          const Pcb* const pcb = pcbs[i];
          if (pcb == nullptr) {
            errors.add(what, " slot ", i, ": occupied tag but no PCB");
            continue;
          }
          members.push_back(pcb);
          // Tag <-> hash <-> key agreement: the fingerprint array and the
          // hash array must both describe the key actually stored in the
          // slot, or lookups silently stop finding it.
          if (pcb->key != slot_keys[i]) {
            errors.add(what, " slot ", i, ": PCB key ", pcb->key.to_string(),
                       " != slot key ", slot_keys[i].to_string());
          }
          const std::uint32_t h = demuxer.hash_of(slot_keys[i]);
          if (hashes[i] != h) {
            errors.add(what, " slot ", i, ": stored hash ", hashes[i],
                       " != hash of stored key ", h);
          }
          if (tags[i] != FlatDemuxer::tag_of(hashes[i])) {
            errors.add(what, " slot ", i, ": tag ",
                       static_cast<unsigned>(tags[i]),
                       " disagrees with stored hash's fingerprint ",
                       static_cast<unsigned>(FlatDemuxer::tag_of(hashes[i])));
          }
          // Robin-hood probe invariant: a displaced resident implies an
          // occupied predecessor at most one step closer to its own home.
          // A violation breaks the miss early-exit (keys become
          // unreachable).
          const std::size_t dist = (i - (hashes[i] & mask)) & mask;
          if (dist > 0) {
            const std::size_t prev = (i - 1) & mask;
            const std::size_t prev_dist =
                (prev - (hashes[prev] & mask)) & mask;
            if (tags[prev] == 0) {
              errors.add(what, " slot ", i, ": probe distance ", dist,
                         " but predecessor slot is empty");
            } else if (prev_dist + 1 < dist) {
              errors.add(what, " slot ", i, ": probe distance ", dist,
                         " exceeds predecessor's by more than one (",
                         prev_dist, ")");
            }
          }
          if (!keys.insert(slot_keys[i]).second) {
            errors.add(what, ": duplicate key ", slot_keys[i].to_string());
          }
        }
        return occupied;
      };

  std::size_t occupied = check_table(demuxer.table_, "flat");

  if (const auto* out = demuxer.resize_.old()) {
    const auto& old = *out;
    const std::size_t old_capacity = old.table.capacity();
    if (!sized(old.table)) {
      errors.add("flat(old): slot arrays are not all sized to capacity ",
                 old_capacity);
      return report;
    }
    // The adjunct exists only while debt remains, and drains into a table
    // exactly one doubling larger.
    if (old.residents == 0) {
      errors.add("flat(old): migration adjunct present with zero residents");
    }
    if (old_capacity * 2 != capacity) {
      errors.add("flat(old): old capacity ", old_capacity,
                 " is not half the live capacity ", capacity);
    }
    // Drained-prefix invariant: the cursor advances only past empty slots
    // and nothing is ever placed into the old array, so [0, cursor) stays
    // empty for the whole migration.
    if (old.cursor > old_capacity) {
      errors.add("flat(old): cursor ", old.cursor, " exceeds capacity ",
                 old_capacity);
    }
    for (std::size_t i = 0; i < std::min(old.cursor, old_capacity); ++i) {
      if (old.table.tags[i] != 0) {
        errors.add("flat(old): slot ", i,
                   " in the drained prefix [0, cursor=", old.cursor,
                   ") is occupied");
        break;
      }
    }
    const std::size_t old_occupied = check_table(old.table, "flat(old)");
    if (old_occupied != old.residents) {
      errors.add("flat(old): occupied slots (", old_occupied,
                 ") != residents counter (", old.residents, ")");
    }
    occupied += old_occupied;
  }

  if (occupied != demuxer.size_) {
    errors.add("flat: occupied slots (", occupied, ") != size counter (",
               demuxer.size_, ")");
  }
  check_slab(demuxer.slab_, members, demuxer.size_, "flat", errors);
  // Growth keeps occupancy at or below 7/8; a violation means the next
  // insert was allowed to degrade probe runs past the design bound. While
  // growth is allocation-blocked the degradation ladder admits up to the
  // hard 15/16 shed watermark instead.
  if (demuxer.resize_.blocked()) {
    if (demuxer.size_ * 16 > capacity * 15) {
      errors.add("flat: occupancy ", demuxer.size_,
                 " exceeds the blocked-growth 15/16 watermark of capacity ",
                 capacity);
    }
  } else if (demuxer.size_ * 8 > capacity * 7) {
    errors.add("flat: occupancy ", demuxer.size_, " exceeds 7/8 of capacity ",
               capacity);
  }
  return report;
}

ValidationReport StructuralValidator::validate(const CuckooDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  constexpr std::size_t kW = CuckooDemuxer::kBucketWidth;
  const std::size_t buckets = demuxer.bucket_count();
  const std::size_t capacity = demuxer.capacity();
  if (buckets < CuckooDemuxer::kMinBuckets ||
      (buckets & (buckets - 1)) != 0) {
    errors.add("cuckoo: bucket count ", buckets,
               " is not a power of two >= 4");
    return report;
  }
  // Every per-bucket and per-slot array of `t` must match its geometry.
  const auto sized = [](const CuckooDemuxer::Table& t) {
    const std::size_t b = t.bucket_count();
    const std::size_t cap = t.capacity();
    return t.meta.size() == b && t.filter_counts.size() == b &&
           t.hashes.size() == cap && t.keys.size() == cap &&
           t.pcbs.size() == cap;
  };
  if (!sized(demuxer.table_)) {
    errors.add("cuckoo: arrays are not all sized to ", buckets, " buckets");
    return report;
  }

  // Per-table checks; the key set is shared across the live and (when
  // migrating) old arrays so a key resident in both is caught as a
  // duplicate. Expected counted-filter state is recomputed per table from
  // resident placement. Returns the table's occupied-slot count.
  std::unordered_set<net::FlowKey> keys;
  std::vector<const Pcb*> members;
  const auto check_table =
      [&](const CuckooDemuxer::Table& t, const char* what) {
        const auto& [mask, meta, hashes, slot_keys, pcbs, filter_counts] = t;
        const std::size_t table_buckets = t.bucket_count();
        const std::size_t table_capacity = t.capacity();
        std::vector<std::array<std::uint16_t, 16>> expected(table_buckets);
        std::size_t occupied = 0;
        for (std::size_t i = 0; i < table_capacity; ++i) {
          const std::size_t bucket = i / kW;
          const std::uint8_t tag = meta[bucket].tags[i % kW];
          if (tag == 0) {
            if (pcbs[i] != nullptr) {
              errors.add(what, " slot ", i,
                         ": empty tag but a PCB is still held");
            }
            continue;
          }
          ++occupied;
          const Pcb* const pcb = pcbs[i];
          if (pcb == nullptr) {
            errors.add(what, " slot ", i, ": occupied tag but no PCB");
            continue;
          }
          members.push_back(pcb);
          if (pcb->key != slot_keys[i]) {
            errors.add(what, " slot ", i, ": PCB key ", pcb->key.to_string(),
                       " != slot key ", slot_keys[i].to_string());
          }
          const std::uint32_t h = demuxer.hash_of(slot_keys[i]);
          if (hashes[i] != h) {
            errors.add(what, " slot ", i, ": stored hash ", hashes[i],
                       " != hash of stored key ", h);
          }
          if (tag != CuckooDemuxer::tag_of(hashes[i])) {
            errors.add(what, " slot ", i, ": tag ",
                       static_cast<unsigned>(tag),
                       " disagrees with stored hash's fingerprint ",
                       static_cast<unsigned>(
                           CuckooDemuxer::tag_of(hashes[i])));
          }
          // Placement: a resident must sit in its primary bucket or the
          // alternate derived from (primary, tag) — anywhere else it is
          // unreachable by lookup.
          const std::size_t primary = hashes[i] & mask;
          const std::size_t alt =
              (primary ^ (net::mix32_avalanche(tag) | 1U)) & mask;
          if (bucket != primary && bucket != alt) {
            errors.add(what, " slot ", i, ": resident of bucket ", bucket,
                       " but its candidates are ", primary, " and ", alt);
          }
          // Filter soundness: an overflowed resident (living in its
          // alternate) must be registered in its primary bucket's counted
          // filter, or a negative-looking probe of the primary bucket
          // would hide it forever.
          if (bucket == alt && bucket != primary) {
            ++expected[primary][CuckooDemuxer::filter_index(tag)];
          }
          if (!keys.insert(slot_keys[i]).second) {
            errors.add(what, ": duplicate key ", slot_keys[i].to_string());
          }
        }
        for (std::size_t b = 0; b < table_buckets; ++b) {
          for (std::size_t idx = 0; idx < 16; ++idx) {
            if (filter_counts[b][idx] != expected[b][idx]) {
              errors.add(what, " bucket ", b, ": filter count[", idx,
                         "] = ", filter_counts[b][idx],
                         " but placement implies ", expected[b][idx]);
            }
            const bool bit = (meta[b].filter & (1U << idx)) != 0;
            if (bit != (filter_counts[b][idx] != 0)) {
              errors.add(what, " bucket ", b, ": filter bit ", idx,
                         bit ? " set without" : " clear despite",
                         " a backing count");
            }
          }
        }
        return occupied;
      };

  std::size_t occupied = check_table(demuxer.table_, "cuckoo");

  if (const auto* out = demuxer.resize_.old()) {
    const auto& old = *out;
    const std::size_t old_buckets = old.table.bucket_count();
    const std::size_t old_capacity = old.table.capacity();
    if (!sized(old.table)) {
      errors.add("cuckoo(old): arrays are not all sized to ", old_buckets,
                 " buckets");
      return report;
    }
    if (old.residents == 0) {
      errors.add(
          "cuckoo(old): migration adjunct present with zero residents");
    }
    if (old_buckets * 2 != buckets) {
      errors.add("cuckoo(old): old bucket count ", old_buckets,
                 " is not half the live bucket count ", buckets);
    }
    // Drained-prefix invariant: the cursor advances only past empty slots
    // and nothing is ever placed or kicked into the old array, so
    // [0, cursor) stays empty for the whole migration.
    if (old.cursor > old_capacity) {
      errors.add("cuckoo(old): cursor ", old.cursor, " exceeds capacity ",
                 old_capacity);
    }
    for (std::size_t i = 0; i < std::min(old.cursor, old_capacity); ++i) {
      if (old.table.tag_at(i) != 0) {
        errors.add("cuckoo(old): slot ", i,
                   " in the drained prefix [0, cursor=", old.cursor,
                   ") is occupied");
        break;
      }
    }
    const std::size_t old_occupied = check_table(old.table, "cuckoo(old)");
    if (old_occupied != old.residents) {
      errors.add("cuckoo(old): occupied slots (", old_occupied,
                 ") != residents counter (", old.residents, ")");
    }
    occupied += old_occupied;
  }

  if (occupied != demuxer.size_) {
    errors.add("cuckoo: occupied slots (", occupied, ") != size counter (",
               demuxer.size_, ")");
  }
  check_slab(demuxer.slab_, members, demuxer.size_, "cuckoo", errors);
  // Growth keeps occupancy at or below 7/8; while growth is
  // allocation-blocked the degradation ladder admits up to the hard 15/16
  // shed watermark instead.
  if (demuxer.resize_.blocked()) {
    if (demuxer.size_ * 16 > capacity * 15) {
      errors.add("cuckoo: occupancy ", demuxer.size_,
                 " exceeds the blocked-growth 15/16 watermark of capacity ",
                 capacity);
    }
  } else if (demuxer.size_ * 8 > capacity * 7) {
    errors.add("cuckoo: occupancy ", demuxer.size_,
               " exceeds 7/8 of capacity ", capacity);
  }
  return report;
}

ValidationReport StructuralValidator::validate(const ShardedDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);

  // Each shard is a full registry backend: recurse through the type
  // dispatcher so a shard's inner corruption surfaces with its shard index.
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < demuxer.shard_count(); ++s) {
    const Demuxer& shard = demuxer.shard(s);
    const ValidationReport inner = validate_demuxer(shard);
    for (const std::string& e : inner.errors) {
      errors.add("shard ", s, ": ", e);
    }
    total += shard.size();
  }
  if (total != demuxer.size()) {
    errors.add("sharded: sum of shard sizes ", total, " != size() ",
               demuxer.size());
  }

  // Cross-shard invariants: no key resident twice anywhere in the fleet,
  // and — while steering has never drifted — every PCB on exactly the
  // shard its key steers to (a wrong-shard resident would be unreachable
  // via the fast path, a silent connection loss).
  std::unordered_set<net::FlowKey> seen;
  seen.reserve(demuxer.size());
  for (std::uint32_t s = 0; s < demuxer.shard_count(); ++s) {
    demuxer.shard(s).for_each_pcb([&](const Pcb& pcb) {
      if (!seen.insert(pcb.key).second) {
        errors.add("sharded: key ", pcb.key.to_string(),
                   " resident on more than one shard");
      }
      if (!demuxer.misplaced_possible_ &&
          demuxer.home_shard(pcb.key) != s) {
        errors.add("sharded: key ", pcb.key.to_string(), " on shard ", s,
                   " but steering homes it on shard ",
                   demuxer.home_shard(pcb.key));
      }
    });
  }
  return report;
}

ValidationReport validate_demuxer(const Demuxer& demuxer) {
  if (const auto* d = dynamic_cast<const ShardedDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const BsdListDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const MoveToFrontDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const SendReceiveCacheDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const SequentDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const HashedMtfDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const ConnectionIdDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const RcuDemuxerAdapter*>(&demuxer)) {
    return StructuralValidator::validate(d->inner());
  }
  if (const auto* d = dynamic_cast<const FlatDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const CuckooDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  ValidationReport report;
  report.errors.push_back("validate_demuxer: no validator for demuxer '" +
                          demuxer.name() + "'");
  return report;
}

// --- test-only access ------------------------------------------------------

PcbList& ValidatorTestAccess::list(BsdListDemuxer& d) { return d.list_; }
Pcb*& ValidatorTestAccess::cache(BsdListDemuxer& d) { return d.cache_; }
PcbList& ValidatorTestAccess::list(MoveToFrontDemuxer& d) { return d.list_; }
PcbList& ValidatorTestAccess::list(SendReceiveCacheDemuxer& d) {
  return d.list_;
}
Pcb*& ValidatorTestAccess::recv_cache(SendReceiveCacheDemuxer& d) {
  return d.recv_cache_;
}
Pcb*& ValidatorTestAccess::send_cache(SendReceiveCacheDemuxer& d) {
  return d.send_cache_;
}
PcbList& ValidatorTestAccess::chain(SequentDemuxer& d, std::uint32_t chain) {
  return d.buckets_[chain].list;
}
Pcb*& ValidatorTestAccess::cache(SequentDemuxer& d, std::uint32_t chain) {
  return d.buckets_[chain].cache;
}
std::size_t& ValidatorTestAccess::size(SequentDemuxer& d) { return d.size_; }
PcbSlab& ValidatorTestAccess::slab(SequentDemuxer& d) { return d.slab_; }
PcbList& ValidatorTestAccess::chain(HashedMtfDemuxer& d, std::uint32_t chain) {
  return d.buckets_[chain];
}
std::size_t& ValidatorTestAccess::size(HashedMtfDemuxer& d) { return d.size_; }
void ValidatorTestAccess::rebind_id(ConnectionIdDemuxer& d, const Pcb& pcb,
                                    std::uint32_t id) {
  d.id_by_key_[pcb.key] = id;
}
void ValidatorTestAccess::push_free_id(ConnectionIdDemuxer& d,
                                       std::uint32_t id) {
  d.free_ids_.push_back(id);
}
void ValidatorTestAccess::pop_free_id(ConnectionIdDemuxer& d) {
  d.free_ids_.pop_back();
}

bool ValidatorTestAccess::rcu_move_head(RcuSequentDemuxer& d,
                                        std::uint32_t from, std::uint32_t to) {
  RcuSequentDemuxer::Bucket& src = *d.buckets_[from];
  RcuSequentDemuxer::Bucket& dst = *d.buckets_[to];
  RcuSequentDemuxer::Node* n = src.head.load(std::memory_order_relaxed);
  if (n == nullptr) return false;
  src.head.store(n->next.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  n->next.store(dst.head.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  dst.head.store(n, std::memory_order_relaxed);
  return true;
}
bool ValidatorTestAccess::rcu_cache_foreign_head(RcuSequentDemuxer& d,
                                                 std::uint32_t chain,
                                                 std::uint32_t other) {
  RcuSequentDemuxer::Node* n =
      d.buckets_[other]->head.load(std::memory_order_relaxed);
  if (n == nullptr) return false;
  d.buckets_[chain]->cache.store(n, std::memory_order_relaxed);
  return true;
}
void ValidatorTestAccess::rcu_clear_cache(RcuSequentDemuxer& d,
                                          std::uint32_t chain) {
  d.buckets_[chain]->cache.store(nullptr, std::memory_order_relaxed);
}
bool ValidatorTestAccess::rcu_toggle_head_retired(RcuSequentDemuxer& d,
                                                  std::uint32_t chain) {
  RcuSequentDemuxer::Node* n =
      d.buckets_[chain]->head.load(std::memory_order_relaxed);
  if (n == nullptr) return false;
  n->retired = !n->retired;
  return true;
}
void ValidatorTestAccess::rcu_adjust_size(RcuSequentDemuxer& d,
                                          std::ptrdiff_t delta) {
  d.size_.store(d.size_.load(std::memory_order_relaxed) +
                    static_cast<std::size_t>(delta),
                std::memory_order_relaxed);
}

std::vector<std::uint8_t>& ValidatorTestAccess::flat_tags(FlatDemuxer& d) {
  return d.table_.tags;
}
std::size_t& ValidatorTestAccess::flat_size(FlatDemuxer& d) {
  return d.size_;
}
void ValidatorTestAccess::flat_move_slot(FlatDemuxer& d, std::size_t from,
                                         std::size_t to) {
  FlatDemuxer::Table& t = d.table_;
  t.tags[to] = t.tags[from];
  t.hashes[to] = t.hashes[from];
  t.keys[to] = t.keys[from];
  t.pcbs[to] = std::exchange(t.pcbs[from], nullptr);
  t.tags[from] = 0;
}

std::uint8_t& ValidatorTestAccess::cuckoo_tag(CuckooDemuxer& d,
                                              std::size_t slot) {
  return d.table_.meta[slot / CuckooDemuxer::kBucketWidth]
      .tags[slot % CuckooDemuxer::kBucketWidth];
}

std::uint16_t& ValidatorTestAccess::cuckoo_filter(CuckooDemuxer& d,
                                                  std::size_t bucket) {
  return d.table_.meta[bucket].filter;
}

std::size_t& ValidatorTestAccess::cuckoo_size(CuckooDemuxer& d) {
  return d.size_;
}

void ValidatorTestAccess::cuckoo_move_slot(CuckooDemuxer& d, std::size_t from,
                                           std::size_t to) {
  cuckoo_tag(d, to) = cuckoo_tag(d, from);
  CuckooDemuxer::Table& t = d.table_;
  t.hashes[to] = t.hashes[from];
  t.keys[to] = t.keys[from];
  t.pcbs[to] = std::exchange(t.pcbs[from], nullptr);
  cuckoo_tag(d, from) = 0;
}

}  // namespace tcpdemux::core
