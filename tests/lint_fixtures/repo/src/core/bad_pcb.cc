// Fixture: pcb-construction — three positives in src/core, one
// suppressed; a PcbList or a pointer to a slab PCB must NOT count.
namespace tcpdemux::core {

void construct_outside_the_slab(const FlowKey& key) {
  Pcb* a = new Pcb(key);  // positive: new Pcb
  auto b = std::make_unique<Pcb>(key);  // positive: make_unique<Pcb>
  std::unique_ptr<const Pcb> c;  // positive: unique_ptr<const Pcb>
  std::unique_ptr<Pcb> d;  // NOLINT(pcb-construction)
  PcbList list;  // not a finding: linkage, not a PCB
  Pcb* e = slab.make(key);  // not a finding: the slab path
}

}  // namespace tcpdemux::core
