// Fixture copy of the seed-rotation exempt header: the resize engine's
// rotate_seed is the one sanctioned home of a table-seed rotation.
#ifndef TCPDEMUX_CORE_RESIZE_POLICY_H_
#define TCPDEMUX_CORE_RESIZE_POLICY_H_

namespace tcpdemux::core {

template <class Backend>
void rotate_seed(Backend& b) {
  b.options_.hasher.seed = net::next_seed(b.options_.hasher.seed);  // exempt
}

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_RESIZE_POLICY_H_
