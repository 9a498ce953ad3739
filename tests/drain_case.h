// Stepped-drain test cases for the growing table (dynamic).
// A growing table drains its outgoing half on its own, a bounded
// batch per operation (kMigrateBatch per insert or erase,
// kMigrateLookupBatch per lookup; both in core/sequent_hash.h). A suite case written
// `<spec>:incremental` runs `<spec>` with the drain also advanced by hand:
// one Demuxer::migration_step() after every operation the test issues, so
// the test's checks also land on the drain phases that the built-in
// pacing steps over. The suffix is test-side only — parse_demux_spec()
// rejects it — and keeps these cases' ids from when it was a spec token.
#pragma once

#include <string>
#include <string_view>

namespace tcpdemux::core::test {

struct DrainCase {
  std::string spec;  // what parse_demux_spec() receives
  bool stepped;      // migration_step() after every operation
};

inline DrainCase drain_case(std::string_view param) {
  constexpr std::string_view kStepped = ":incremental";
  if (!param.ends_with(kStepped)) return {std::string(param), false};
  param.remove_suffix(kStepped.size());
  return {std::string(param), true};
}

}  // namespace tcpdemux::core::test
