// Fixture: pcb-construction is repo-wide across src/, not only src/core;
// placement new counts too.
namespace tcpdemux::tcp {

void placement(void* storage, const FlowKey& key) {
  new (storage) core::Pcb(key);  // positive: placement new outside
}

}  // namespace tcpdemux::tcp
