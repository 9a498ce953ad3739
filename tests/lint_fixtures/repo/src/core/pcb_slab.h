// Fixture: the exempt PCB slab. It is the one sanctioned PCB allocation
// path, so both raw-owning-memory and pcb-construction stay silent here.
#ifndef TCPDEMUX_CORE_PCB_SLAB_H_
#define TCPDEMUX_CORE_PCB_SLAB_H_

namespace tcpdemux::core {

inline Pcb* slab_make(const FlowKey& key) {
  return new Pcb(key);  // exempt: pcb-construction
}

inline void slab_release(Pcb* pcb) {
  delete pcb;  // exempt: raw-owning-memory
}

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PCB_SLAB_H_
