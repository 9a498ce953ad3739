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

PcbList::ScanResult PcbList::find_best_match(
    const net::FlowKey& key) const noexcept {
  ScanResult r;
  int best_score = -1;
  for (Pcb* p = head_; p != nullptr; p = p->next) {
    ++r.examined;
    const int score = p->key.match_score(key);
    if (score < 0) continue;
    if (score == 0) {  // exact match: cannot be beaten
      r.pcb = p;
      return r;
    }
    if (best_score < 0 || score < best_score) {
      best_score = score;
      r.pcb = p;
    }
  }
  return r;
}

void PcbList::move_to_front(Pcb* pcb) noexcept {
  if (pcb == head_) return;
  unlink(pcb);
  link_front(pcb);
}

Pcb* PcbList::pop_front() noexcept {
  Pcb* pcb = head_;
  if (pcb != nullptr) unlink(pcb);
  return pcb;
}

void PcbList::unlink(Pcb* pcb) noexcept {
  if (pcb->prev != nullptr) {
    pcb->prev->next = pcb->next;
  } else {
    head_ = pcb->next;
  }
  if (pcb->next != nullptr) pcb->next->prev = pcb->prev;
  pcb->next = pcb->prev = nullptr;
}

void PcbList::link_front(Pcb* pcb) noexcept {
  pcb->prev = nullptr;
  pcb->next = head_;
  if (head_ != nullptr) head_->prev = pcb;
  head_ = pcb;
}

}  // namespace tcpdemux::core
