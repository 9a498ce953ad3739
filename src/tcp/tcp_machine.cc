#include "tcp/tcp_machine.h"

#include "tcp/seq_math.h"

namespace tcpdemux::tcp {

using core::Pcb;
using core::TcpState;
using net::TcpFlag;
using net::TcpHeader;

void TcpMachine::emit(Pcb& pcb, std::uint8_t flags, std::uint32_t seq,
                      std::uint32_t ack, std::uint32_t payload_len) {
  send_(pcb, Emit{flags, seq, ack, payload_len});
}

void TcpMachine::emit_ack(Pcb& pcb) {
  emit(pcb, static_cast<std::uint8_t>(TcpFlag::kAck), pcb.snd_nxt,
       pcb.rcv_nxt);
}

void TcpMachine::open_active(Pcb& pcb) {
  const std::uint32_t iss = next_iss();
  pcb.snd_una = iss;
  pcb.snd_nxt = iss + 1;  // SYN consumes one sequence number
  pcb.state = TcpState::kSynSent;
  emit(pcb, static_cast<std::uint8_t>(TcpFlag::kSyn), iss, 0);
}

void TcpMachine::open_passive(Pcb& pcb, const TcpHeader& syn) {
  pcb.rcv_nxt = syn.seq + 1;
  const std::uint32_t iss = next_iss();
  pcb.snd_una = iss;
  pcb.snd_nxt = iss + 1;
  pcb.state = TcpState::kSynReceived;
  emit(pcb, TcpFlag::kSyn | TcpFlag::kAck, iss, pcb.rcv_nxt);
}

bool TcpMachine::send_data(Pcb& pcb, std::uint32_t len) {
  if (pcb.state != TcpState::kEstablished &&
      pcb.state != TcpState::kCloseWait) {
    return false;
  }
  pcb.delack_pending = false;  // the data segment piggybacks the ACK
  emit(pcb, TcpFlag::kAck | TcpFlag::kPsh, pcb.snd_nxt, pcb.rcv_nxt, len);
  pcb.snd_nxt += len;
  return true;
}

bool TcpMachine::close(Pcb& pcb) {
  switch (pcb.state) {
    case TcpState::kEstablished:
      pcb.state = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      pcb.state = TcpState::kLastAck;
      break;
    case TcpState::kSynReceived:
      pcb.state = TcpState::kFinWait1;
      break;
    default:
      return false;
  }
  emit(pcb, TcpFlag::kFin | TcpFlag::kAck, pcb.snd_nxt, pcb.rcv_nxt);
  pcb.snd_nxt += 1;  // FIN consumes one sequence number
  return true;
}

void TcpMachine::process_ack(Pcb& pcb, const TcpHeader& seg) {
  if (!seg.has(TcpFlag::kAck)) return;
  if (seq_gt(seg.ack, pcb.snd_una) && seq_leq(seg.ack, pcb.snd_nxt)) {
    pcb.snd_una = seg.ack;
  }
}

void TcpMachine::process_data(Pcb& pcb, const TcpHeader& seg,
                              std::uint32_t payload_len) {
  if (payload_len == 0) return;
  if (seg.seq == pcb.rcv_nxt) {
    pcb.rcv_nxt += payload_len;
    pcb.bytes_in += payload_len;
    if (options_.delayed_ack && !pcb.delack_pending) {
      pcb.delack_pending = true;  // owe an ACK; second segment forces it
    } else {
      pcb.delack_pending = false;
      emit_ack(pcb);
    }
  } else {
    // Out of order (or duplicate): ack immediately (RFC 5681 §4.2), so
    // the sender's duplicate-ACK machinery can engage.
    pcb.delack_pending = false;
    emit_ack(pcb);
  }
}

bool TcpMachine::flush_delayed_acks(Pcb& pcb) {
  if (!pcb.delack_pending) return false;
  pcb.delack_pending = false;
  emit_ack(pcb);
  return true;
}

void TcpMachine::process(Pcb& pcb, const TcpHeader& seg,
                         std::uint32_t payload_len) {
  if (seg.has(TcpFlag::kRst)) {
    pcb.state = TcpState::kClosed;
    return;
  }

  switch (pcb.state) {
    case TcpState::kSynSent:
      if (seg.has(TcpFlag::kSyn) && seg.has(TcpFlag::kAck)) {
        if (seg.ack != pcb.snd_nxt) {
          emit(pcb, static_cast<std::uint8_t>(TcpFlag::kRst), seg.ack, 0);
          return;
        }
        pcb.rcv_nxt = seg.seq + 1;
        pcb.snd_una = seg.ack;
        pcb.state = TcpState::kEstablished;
        emit_ack(pcb);
      } else if (seg.has(TcpFlag::kSyn)) {
        // Simultaneous open. Nothing is acknowledged in SYN-SENT, so
        // snd_una is still the ISS the SYN-ACK repeats.
        pcb.rcv_nxt = seg.seq + 1;
        pcb.state = TcpState::kSynReceived;
        emit(pcb, TcpFlag::kSyn | TcpFlag::kAck, pcb.snd_una, pcb.rcv_nxt);
      }
      return;

    case TcpState::kSynReceived:
      if (seg.has(TcpFlag::kAck) && seg.ack == pcb.snd_nxt) {
        pcb.snd_una = seg.ack;
        pcb.state = TcpState::kEstablished;
        // Fall through conceptually: the ACK may carry data.
        process_data(pcb, seg, payload_len);
      }
      return;

    case TcpState::kEstablished:
      process_ack(pcb, seg);
      process_data(pcb, seg, payload_len);
      if (seg.has(TcpFlag::kFin) && seg.seq + payload_len == pcb.rcv_nxt) {
        pcb.rcv_nxt += 1;
        pcb.state = TcpState::kCloseWait;
        emit_ack(pcb);
      }
      return;

    case TcpState::kFinWait1: {
      process_ack(pcb, seg);
      const bool our_fin_acked = pcb.snd_una == pcb.snd_nxt;
      process_data(pcb, seg, payload_len);
      if (seg.has(TcpFlag::kFin)) {
        pcb.rcv_nxt = seg.seq + payload_len + 1;
        emit_ack(pcb);
        pcb.state = our_fin_acked ? TcpState::kTimeWait : TcpState::kClosing;
      } else if (our_fin_acked) {
        pcb.state = TcpState::kFinWait2;
      }
      return;
    }

    case TcpState::kFinWait2:
      process_ack(pcb, seg);
      process_data(pcb, seg, payload_len);
      if (seg.has(TcpFlag::kFin)) {
        pcb.rcv_nxt = seg.seq + payload_len + 1;
        emit_ack(pcb);
        pcb.state = TcpState::kTimeWait;
      }
      return;

    case TcpState::kCloseWait:
      process_ack(pcb, seg);
      return;

    case TcpState::kClosing:
      process_ack(pcb, seg);
      if (pcb.snd_una == pcb.snd_nxt) pcb.state = TcpState::kTimeWait;
      return;

    case TcpState::kLastAck:
      process_ack(pcb, seg);
      if (pcb.snd_una == pcb.snd_nxt) pcb.state = TcpState::kClosed;
      return;

    case TcpState::kTimeWait:
      // Retransmitted FIN: re-acknowledge.
      if (seg.has(TcpFlag::kFin)) emit_ack(pcb);
      return;

    case TcpState::kClosed:
    case TcpState::kListen:
      return;
  }
}

}  // namespace tcpdemux::tcp
