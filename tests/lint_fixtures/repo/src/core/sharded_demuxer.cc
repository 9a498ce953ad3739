// Fixture copy of the seed-rotation exempt file: the sharded demuxer
// rotates its steering seed, which no table owns.
namespace tcpdemux::core {

void rotate_steering_seed(HashSpec& steering) {
  steering.seed = net::next_seed(steering.seed);  // exempt: seed-rotation
}

}  // namespace tcpdemux::core
