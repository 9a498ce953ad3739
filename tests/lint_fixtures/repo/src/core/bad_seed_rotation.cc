// Fixture: seed-rotation — a backend swinging its own seed (qualified and
// unqualified), one suppressed call, the declaration, and names that
// merely contain the words.
namespace tcpdemux::core {

std::uint32_t next_seed(std::uint32_t seed) noexcept;  // the declaration

void private_rotation(HashSpec& spec) {
  spec.seed = net::next_seed(spec.seed);  // positive: a private rotation
}

void unqualified_rotation(HashSpec& spec) {
  spec.seed = next_seed(spec.seed);  // positive: unqualified call
}

void sanctioned_rotation(HashSpec& spec) {
  spec.seed = next_seed(spec.seed);  // NOLINT(seed-rotation)
}

void through_the_table(SequentDemuxer& table, Table& live) {
  table.rotate_seed();  // not a finding: the table's own rotation
  const auto s = next_seed_of(live);  // not a finding: another name
}

}  // namespace tcpdemux::core
