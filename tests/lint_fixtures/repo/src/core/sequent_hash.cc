// Fixture copy of the seed-rotation exempt file: SequentDemuxer's
// rotate_seed is the one sanctioned home of a table-seed rotation. The
// standard header <new> is an include, not a raw owning new, so
// raw-owning-memory stays silent on it.
#include <new>

namespace tcpdemux::core {

void SequentDemuxer::rotate_seed() {
  options_.hasher.seed = net::next_seed(options_.hasher.seed);  // exempt
}

}  // namespace tcpdemux::core
