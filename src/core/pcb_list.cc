#include "core/pcb_list.h"

namespace tcpdemux::core {

PcbList::ScanResult PcbList::find_scan(
    const net::FlowKey& key) const noexcept {
  ScanResult r;
  for (Pcb* p = head_; p != nullptr; p = p->next) {
    ++r.examined;
    if (p->key == key) {
      r.pcb = p;
      return r;
    }
  }
  return r;
}

PcbList::LinkScan PcbList::find_link(const net::FlowKey& key) noexcept {
  LinkScan r;
  for (Pcb** link = &head_; *link != nullptr; link = &(*link)->next) {
    ++r.examined;
    if ((*link)->key == key) {
      r.link = link;
      return r;
    }
  }
  return r;
}

void PcbList::move_to_front(Pcb** link) noexcept {
  if (link == &head_) return;
  Pcb* pcb = *link;
  *link = pcb->next;
  link_front(pcb);
}

Pcb* PcbList::pop_front() noexcept {
  Pcb* pcb = head_;
  if (pcb != nullptr) unlink(&head_);
  return pcb;
}

void PcbList::unlink(Pcb** link) noexcept {
  Pcb* pcb = *link;
  *link = pcb->next;
  pcb->next = nullptr;
}

void PcbList::link_front(Pcb* pcb) noexcept {
  pcb->next = head_;
  head_ = pcb;
}

}  // namespace tcpdemux::core
